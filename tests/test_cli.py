"""Command line behavior: outputs and exit codes per subcommand."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reeb
from reeb.cli import main

LINE = "vertex v0 0\nvertex v1 1\nedge e0 v0 v1\n"
LOOP = "vertex v0 0\nvertex v1 1\nedge e0 v0 v1\nedge e1 v0 v1\n"
BROKEN = "vertex a 0\nvertex b 1\nedge e b a\n"
OCTA = (
    "v n 2\nv s -2\nv a 0\nv b 0\nv c 0\nv d 0\n"
    "e ab a b\ne bc b c\ne cd c d\ne da d a\n"
    "e na n a\ne nb n b\ne nc n c\ne nd n d\n"
    "e sa s a\ne sb s b\ne sc s c\ne sd s d\n"
    "t N0 na ab nb\nt N1 nb bc nc\nt N2 nc cd nd\nt N3 nd da na\n"
    "t S0 sa ab sb\nt S1 sb bc sc\nt S2 sc cd sd\nt S3 sd da sa\n"
)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("line", LINE), ("loop", LOOP), ("broken", BROKEN),
                       ("octa", OCTA)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestValidate:
    def test_ok(self, files):
        code, out, err = run("validate", files["line"])
        assert (code, out, err) == (0, "ok\n", "")

    def test_parse_failure_goes_to_stderr(self, files):
        code, out, err = run("validate", files["broken"])
        assert code == 1
        assert out == ""
        assert "line 3" in err and "must go from a strictly lower" in err

    def test_missing_file(self, tmp_path):
        code, out, err = run("validate", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("command", ["validate", "reeb"])
    def test_non_utf8_file(self, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"vertex v0 0\nvertex v1 \xff\n")
        code, out, err = run(command, str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "not UTF-8" in err

    @pytest.mark.parametrize("command", ["validate", "reeb"])
    def test_directory(self, tmp_path, command):
        code, out, err = run(command, str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "directory" in err


class TestReeb:
    def test_octahedron(self, files):
        code, out, err = run("reeb", files["octa"])
        assert code == 0 and err == ""
        g = reeb.parse_rgraph(out)
        assert reeb.is_isomorphic(reeb.reduce(g).graph, reeb.line(-2, 2))


class TestSmooth:
    def test_graph_output(self, files):
        code, out, err = run("smooth", files["line"], "1/4")
        assert code == 0 and err == ""
        assert reeb.parse_rgraph(out) == reeb.smooth(
            reeb.line(0, 1), "1/4").smoothed

    def test_zeta_output(self, files):
        code, out, err = run("smooth", files["line"], "1/4", "--zeta")
        assert code == 0
        sm = reeb.smooth(reeb.line(0, 1), "1/4")
        phi = reeb.parse_morphism(out, reeb.line(0, 1), sm.smoothed)
        assert reeb.morphism_equal(phi, sm.zeta)

    def test_negative_epsilon(self, files):
        code, out, err = run("smooth", files["line"], "--", "-1/4")
        assert code == 1
        assert "error:" in err

    def test_a_value_of_4301_digits_is_refused_on_reading(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("vertex a 0\nvertex b 1e4300\nedge e a b\n")
        for argv in (["validate", str(path)], ["smooth", str(path), "1"]):
            assert run(*argv) == (1, "", "error: line 2: bad rational token "
                                  "'1e4300': more than 4300 digits\n")

    def test_a_smoothed_value_of_4301_digits_is_refused_on_writing(self, tmp_path):
        # 10^4300 - 1 has 4,300 digits and reads; one radius more is 10^4300
        path = tmp_path / "long.txt"
        path.write_text(f"vertex a 0\nvertex b {'9' * 4300}\nedge e a b\n")
        assert run("validate", str(path)) == (0, "ok\n", "")
        assert run("smooth", str(path), "1") == (
            1, "", "error: value of 4301 digits is too long to write as text\n")
        # the canonical map's text names cells, not values
        code, out, err = run("smooth", str(path), "1", "--zeta")
        assert code == 0 and out and err == ""


class TestCosheafEval:
    def test_whole_line(self, files):
        code, out, err = run("cosheaf-eval", files["loop"], "--", "-inf", "inf")
        assert code == 0
        assert out == "e0 e1 v0 v1\n"

    def test_gap_splits_strands(self, files):
        code, out, _ = run("cosheaf-eval", files["loop"], "0", "1")
        assert code == 0
        assert sorted(out.splitlines()) == ["e0", "e1"]

    def test_empty_window(self, files):
        code, out, _ = run("cosheaf-eval", files["loop"], "5", "9")
        assert (code, out) == (0, "")

    def test_star_is_unbounded(self, files):
        code, out, _ = run("cosheaf-eval", files["line"], "*", "*")
        assert code == 0
        assert out == "e0 v0 v1\n"

    @pytest.mark.parametrize("lo,hi,want", [
        ("-1/2", "1", "e0 e1 v0\n"),
        ("-inf", "1/2", "e0 e1 v0\n"),
        ("-0.5", "1", "e0 e1 v0\n"),
        ("-inf", "inf", "e0 e1 v0 v1\n"),
        ("-3", "-1/2", ""),
    ])
    def test_negative_bounds_need_no_separator(self, files, lo, hi, want):
        assert run("cosheaf-eval", files["loop"], lo, hi) == (0, want, "")

    @pytest.mark.parametrize("lo,hi", [
        ("inf", "1/2"), ("1/2", "-inf"), ("inf", "inf"), ("-inf", "-inf"),
        ("inf", "*"), ("*", "-inf"), ("inf", "-inf"),
    ])
    def test_an_infinity_on_the_far_side_is_an_empty_interval(self, files, lo, hi):
        # (inf, 1/2) and (1/2, -inf) hold no point, like (2, 1)
        assert run("cosheaf-eval", files["line"], lo, hi) == (0, "", "")
        assert run("cosheaf-eval", files["line"], "2", "1") == (0, "", "")

    @pytest.mark.parametrize("lo,hi,want", [
        ("*", "1/2", "e0 v0\n"), ("1/2", "*", "e0 v1\n"),
        ("-inf", "1/2", "e0 v0\n"), ("1/2", "inf", "e0 v1\n"),
    ])
    def test_star_and_the_near_infinity_are_unbounded(self, files, lo, hi, want):
        assert run("cosheaf-eval", files["line"], lo, hi) == (0, want, "")

    def test_an_empty_interval_still_reads_both_bounds(self, files):
        code, out, err = run("cosheaf-eval", files["line"], "inf", "x")
        assert (code, out) == (1, "") and "bad rational token 'x'" in err


class TestUsage:
    @pytest.mark.parametrize("argv", [
        (), ("smooth",), ("cosheaf-eval", "x.rg", "-1/2"), ("frobnicate",),
        ("validate", "x.rg", "--bogus"),
    ])
    def test_usage_errors_are_bad_input(self, argv):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: reeb") and "error:" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: reeb")

    def test_parser_is_built_on_the_first_call_and_reused(self):
        # importing the module builds nothing; every later call reuses one
        code = ("import reeb.cli as cli; n = cli._build_parser.cache_info().currsize; "
                "cli.main(['validate', 'missing.rg']); "
                "print(n, cli._build_parser.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(Path(reeb.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert done.stdout == "0 1\n", done.stderr
        assert reeb.cli._build_parser() is reeb.cli._build_parser()

    def test_reused_parser_answers_like_a_fresh_one(self, files):
        # a usage error, then a valid smooth; then two different commands
        # in a row: each answers as a call on a newly built parser does
        calls = [("smooth", files["loop"]), ("smooth", files["loop"], "1/4"),
                 ("smooth", files["loop"], "1/4", "--zeta"),
                 ("cosheaf-eval", files["loop"], "-1/2", "1"),
                 ("validate", files["broken"]), ("reeb", files["octa"])]
        fresh = []
        for argv in calls:
            reeb.cli._build_parser.cache_clear()
            fresh.append(run(*argv))
        reeb.cli._build_parser.cache_clear()
        assert [run(*argv) for argv in calls] == fresh
        assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 1, 0]


class TestCheckInterleave:
    def test_positive(self, files):
        code, out, _ = run("check-interleave", files["line"], files["loop"], "1/4")
        assert code == 0
        assert out == "interleaved at epsilon = 1/4\n"

    def test_negative(self, files):
        code, out, _ = run("check-interleave", files["line"], files["loop"], "1/5")
        assert code == 1
        assert out == "no interleaving at epsilon = 1/5\n"

    def test_many_points(self, tmp_path):
        # 2,000 levels, twice the default recursion limit
        g = tmp_path / "g.rg"
        g.write_text("".join(f"vertex p{i} {i}\n" for i in range(2000)))
        code, out, err = run("check-interleave", str(g), str(g), "1/4")
        assert (code, out, err) == (0, "interleaved at epsilon = 1/4\n", "")

    def test_budget(self, files):
        code, out, _ = run("check-interleave", files["line"], files["loop"],
                           "1/4", "--budget", "2")
        assert code == 2
        assert "budget" in out

    @pytest.mark.parametrize("budget", ["-5", "-1"])
    def test_negative_budget_is_bad_input(self, files, budget):
        code, out, err = run("check-interleave", files["line"], files["line"],
                             "1/4", "--budget", budget)
        assert (code, out) == (1, "")
        assert err == f"error: node budget must be a nonnegative integer, got {budget}\n"
        code, out, err = run("distance", files["line"], files["loop"],
                             "--budget", budget)
        assert (code, out) == (1, "")
        assert err == f"error: node budget must be a nonnegative integer, got {budget}\n"

    def test_zero_budget(self, files):
        code, out, _ = run("check-interleave", files["line"], files["loop"],
                           "1/5", "--budget", "0")
        assert (code, out) == (1, "no interleaving at epsilon = 1/5\n")


class TestDistance:
    def test_bracket(self, files):
        code, out, _ = run("distance", files["line"], files["loop"],
                           "--tol", "1/16")
        assert code == 0
        assert out == "lower 3/16\nupper 1/4\n"

    def test_a_budget_run_out_while_bisecting_keeps_the_bracket(self, files):
        # the probe at 2 is found within 9 nodes, the one at 1 too; the
        # one at 1/2 runs out
        code, out, _ = run("distance", files["line"], files["loop"],
                           "--budget", "9", "--tol", "1/16")
        assert (code, out) == (2, "lower 0\nupper 1\n")

    def test_a_budget_run_out_above_the_diameter_leaves_no_upper_end(self, files):
        code, out, _ = run("distance", files["line"], files["loop"], "--budget", "0")
        assert (code, out) == (2, "lower 0\nupper ?\n")

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_a_nonpositive_tolerance_is_bad_input(self, files, tol):
        assert run("distance", files["line"], files["loop"], "--tol", tol) == (
            1, "", "error: tolerance must be positive\n")

    def test_infinite(self, files, tmp_path):
        two = tmp_path / "two.txt"
        two.write_text("vertex a 0\nvertex b 1\nvertex c 0\nedge e a b\n")
        code, out, _ = run("distance", files["line"], str(two))
        assert (code, out) == (0, "infinite\n")


class TestExportDot:
    def test_ranked(self, files):
        code, out, _ = run("export-dot", files["line"])
        assert code == 0
        assert out == reeb.export_dot(reeb.line(0, 1))
        assert "rank=same" in out

    def test_no_rank(self, files):
        code, out, _ = run("export-dot", files["line"], "--no-rank")
        assert code == 0
        assert "rank=same" not in out


class TestOptimizedMode:
    """Under -O, which strips `assert`, the command line answers exactly as
    it does in process."""

    @pytest.mark.parametrize("argv", [("reeb", "octa"), ("smooth", "loop", "3/2"),
                                      ("reeb", "broken")])
    def test_same_output_and_exit_code(self, files, argv):
        argv = [files.get(a, a) for a in argv]
        src = str(Path(reeb.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-O", "-m", "reeb.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code, out, err = run(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
