#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternated.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Runs ``python3 bench/run.py --workload W --seed S --seconds 10`` in each
checkout in turn, N times each; the first run of a pair alternates
between the two, so drift in machine speed falls on both sides alike.
Each run is a separate process started in its checkout's root, as the
benchmark asks. Nothing under ``bench/`` is imported or written here;
the metrics' better direction is read from CHANGE_DIR's
``BENCHMARK.json``.

Prints one JSON object: per end-to-end metric, each side's median and
quartiles, the parent's interquartile range (absolute and over its
median), and in how many pairs the change was strictly better. The raw
values and any failed run are kept in it too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


SECONDS = 10         # each run's --seconds


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `checkout`: its exit code and the JSON object
    on the last line of its standard output (None if there is none)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric, both sides' quartiles, the parent's IQR and the change's
    wins over the pairs where both runs reported the metric."""
    out = {}
    for name, direction in better.items():
        pairs = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if p["result"] and c["result"]
                 and name in p["result"]["metrics"] and name in c["result"]["metrics"]]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(ps), quartiles(cs)
        wins = sum(c < p if direction == "lower" else c > p for p, c in pairs)
        out[name] = {
            "better": direction,
            "parent": {"q1": pq1, "median": pmed, "q3": pq3, "values": ps},
            "change": {"q1": cq1, "median": cmed, "q3": cq3, "values": cs},
            "parent_iqr": pq3 - pq1,
            "parent_iqr_rel": (pq3 - pq1) / pmed if pmed else None,
            "median_change_rel": (cmed - pmed) / pmed if pmed else None,
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(getattr(args, side), args.workload, args.seed))
            print(f"pair {i + 1}/{args.pairs} {side}: exit {runs[side][-1]['exit']}",
                  file=sys.stderr)

    failed = {side: [{"run": i, "exit": r["exit"], "stderr": r["stderr"]}
                     for i, r in enumerate(rs) if r["exit"] or not r["result"]]
              for side, rs in runs.items()}
    print(json.dumps({
        "command": f"bench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {SECONDS}",
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "order": "alternated, the parent first in odd-numbered pairs",
        "failed": failed,
        "metrics": summarize(runs["parent"], runs["change"], better),
    }, indent=1))
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
