"""The summary that `tools/pairs.py` writes into each paired benchmark
report, on fabricated run dicts: no benchmark process is started."""

import importlib.util
from pathlib import Path

import pytest


def load_pairs():
    path = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
    spec = importlib.util.spec_from_file_location("tools_pairs", path)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


pairs = load_pairs()


def run(**metrics):
    """A successful run reporting the given metric values."""
    return {"exit": 0, "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}},
            "stderr": ""}


FAILED = {"exit": 1, "result": None, "stderr": "Traceback ..."}


def test_quartiles_are_inclusive_and_a_single_value_is_all_three():
    assert pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert pairs.quartiles([1, 3]) == (1.5, 2, 2.5)
    assert pairs.quartiles([7]) == (7, 7, 7)


def test_a_tie_is_a_win_for_neither_side():
    parent = [run(t=1.0), run(t=2.0), run(t=1.0)]
    change = [run(t=1.0), run(t=1.0), run(t=2.0)]
    out = pairs.summarize(parent, change, {"t": "lower"})["t"]
    assert (out["change_wins"], out["pairs"]) == (1, 3)


def test_higher_is_better_counts_the_larger_value_as_the_win():
    parent = [run(c=10), run(c=20), run(c=30)]
    change = [run(c=12), run(c=18), run(c=31)]
    out = pairs.summarize(parent, change, {"c": "higher"})["c"]
    assert out["better"] == "higher"
    assert out["change_wins"] == 2
    assert out["median_change_rel"] == pytest.approx((18 - 20) / 20)


def test_a_pair_missing_the_metric_on_either_side_is_left_out():
    parent = [run(t=1.0), run(), run(t=3.0)]
    change = [run(t=0.5), run(t=0.1), run()]
    out = pairs.summarize(parent, change, {"t": "lower", "gone": "lower"})
    assert out["t"]["pairs"] == 1
    assert (out["t"]["parent"]["values"], out["t"]["change"]["values"]) == ([1.0], [0.5])
    assert "gone" not in out


def test_a_failed_run_is_left_out_with_its_pair():
    parent = [run(t=1.0), FAILED, run(t=2.0)]
    change = [FAILED, run(t=5.0), run(t=1.5)]
    out = pairs.summarize(parent, change, {"t": "lower"})["t"]
    assert (out["pairs"], out["change_wins"]) == (1, 1)
    assert pairs.summarize([FAILED], [FAILED], {"t": "lower"}) == {}


def test_a_single_pair_has_no_spread():
    out = pairs.summarize([run(t=2.0)], [run(t=3.0)], {"t": "lower"})["t"]
    assert out["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0, "values": [2.0]}
    assert (out["parent_iqr"], out["parent_iqr_rel"]) == (0, 0)
    assert out["median_change_rel"] == pytest.approx(0.5)
    assert out["change_wins"] == 0


def test_the_relative_spread_and_change_are_over_the_parent_median():
    parent = [run(t=v) for v in (8, 9, 10, 11, 12)]
    change = [run(t=v) for v in (9, 10, 11, 12, 13)]
    out = pairs.summarize(parent, change, {"t": "lower"})["t"]
    assert (out["parent_iqr"], out["parent_iqr_rel"]) == (2, 0.2)
    assert out["median_change_rel"] == pytest.approx(0.1)
    assert out["change"]["median"] == 11
    zero = pairs.summarize([run(t=0)], [run(t=1)], {"t": "lower"})["t"]
    assert (zero["parent_iqr_rel"], zero["median_change_rel"]) == (None, None)


REPORT = "\n".join((
    "workload interleave  seed 1  jobs 1306  (times in reference seconds)",
    "  setup_s          0.339163 s",
    "  job_p50_s        0.00595155 s",
    "  (job_tail_s is p99.2 of 1306 jobs, 10 beyond it)",
    "  (in wall seconds: job_p50 0.00340913, job_tail 0.0145381, jobs 5.29167 "
    "against 9.32941 reference)",
    "  failed_ratio     0 (0 of 1306 jobs)",
    '{"correct": true, "attempted": 1306, "failed": 0, '
    '"metrics": {"job_p50_s": {"value": 0.00595155, "unit": "s"}}}',
    ""))


def test_a_report_is_read_as_its_json_line_and_its_wall_seconds():
    result, wall = pairs.parse_output(REPORT)
    assert result["metrics"]["job_p50_s"]["value"] == 0.00595155
    assert wall == {"job_p50_s": 0.00340913, "job_tail_s": 0.0145381}
    without = "\n".join(line for line in REPORT.splitlines() if "wall" not in line)
    assert pairs.parse_output(without) == (result, None)
    assert pairs.parse_output("") == (None, None)
    assert pairs.parse_output("Traceback ...\n") == (None, None)


def test_wall_seconds_are_summarised_like_the_metrics():
    def walled(p50, tail):
        return {**run(job_p50_s=1.0), "wall": {"job_p50_s": p50, "job_tail_s": tail}}
    parent = [walled(4.0, 9.0), walled(5.0, 9.5), {**run(), "wall": None}]
    change = [walled(3.0, 9.9), walled(4.5, 9.0), walled(1.0, 1.0)]
    better = {"job_p50_s": "lower", "job_tail_s": "lower"}
    out = pairs.summarize(parent, change, better, pairs.wall_values)
    assert (out["job_p50_s"]["pairs"], out["job_p50_s"]["change_wins"]) == (2, 2)
    assert out["job_p50_s"]["change"]["values"] == [3.0, 4.5]
    assert (out["job_tail_s"]["change_wins"], out["job_tail_s"]["parent"]["median"]) == (1, 9.25)
    # the metrics of the same runs are read from their JSON lines alone
    assert pairs.summarize(parent, change, better)["job_p50_s"]["pairs"] == 2
    assert pairs.wall_values(FAILED) == {}
