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
