#!/usr/bin/env python3
"""Seeded end-to-end benchmark for the reeb package.

    python3 bench/run.py --workload smooth-narrow --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
Each workload runs in this one process, without threads, as a closed
loop over a seeded list of jobs: the next job starts when the previous
one has finished, and the list is cycled until ``--seconds`` have passed
(and at least MIN_JOBS jobs have run). Every job starts from file text,
as the command line does:

- ``smooth <graph> <eps>`` and ``reeb <field>`` run in-process through
  ``reeb.cli.main``;
- a pair job is one stability pair probed at four radii in increasing
  order, each probe a ``check-interleave``-style call: parse both graphs,
  ``search_certificate``, then ``verify_certificate`` on a "found".

Outputs are checked outside the timers (see checks.py). The report lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a fixed prefix of
the job list runs once untraced and once traced, and the metrics are the
per-layer ones (see tracing.py). The exit code is 0 only when every
check passed; a missing library or a failed warm-up exits with 2
before any result.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import gen
from tracing import EXACT_COUNTERS, LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_JOBS = 11           # the tail percentile needs ten samples beyond it
SETUP_REPEATS = 3
BUDGET = 200            # search nodes per probe

# Times are reported in reference seconds: wall seconds scaled by
# REFERENCE_S over the measured duration of calibrate(). On a shared
# machine the speed of the processor drifts by tens of percent over
# seconds; the calibration loop drifts with it, so the ratio holds still.
# REFERENCE_S is the loop's median duration on the 2-core x86 machine the
# benchmark was written on, so reference and wall seconds are close there.
REFERENCE_S = 0.010
CALIBRATE_EVERY_S = 0.3
CALIBRATION_WINDOW = 10

E2E_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}

LIB_MODULES = ("reeb.cli", "reeb.core", "reeb.fileio", "reeb.interleave",
               "reeb.iso", "reeb.morphism", "reeb.smoothing")


@dataclass(frozen=True)
class Workload:
    kind: str                 # "smooth" | "reeb" | "pair"
    size: int                 # vertices, squares, or how many pair sizes
    smoke_size: int
    eps: Fraction | None      # smoothing radius
    distinct: int             # jobs in the seeded list
    traced: int               # prefix of the list run by --trace 1


# Why each workload exists is recorded next to its generator in gen.py.
WORKLOADS = {
    "smooth-narrow": Workload("smooth", 600, 40, Fraction(3, 2), 64, 3),
    "smooth-wide": Workload("smooth", 200, 30, Fraction(40), 64, 3),
    "complex": Workload("reeb", 200, 12, None, 64, 3),
    "interleave": Workload("pair", 5, 3, None, 600, 210),
}


@dataclass
class Job:
    index: int
    kind: str
    paths: tuple[str, ...]
    cells: int
    data: tuple               # what the output checks need


@dataclass
class Probe:
    eps: Fraction
    status: str
    nodes: int
    verified: bool | None
    verify_s: float | None


# ---------------------------------------------------------------------------
# Library import and inputs.

def give_up(message: str):
    """Stop without a result: exit code 2, the reason on stderr."""
    print("bench: " + message, file=sys.stderr)
    raise SystemExit(2)


def import_library() -> dict:
    """Import the package from src/ of this checkout, or exit with 2."""
    src = ROOT / "src"
    if not (src / "reeb" / "__init__.py").is_file():
        give_up(f"no library source at {src / 'reeb'}")
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(name) for name in LIB_MODULES}
    except ImportError as exc:
        give_up(f"cannot import the library: {exc}")
    origin = Path(mods["reeb.cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        give_up(f"imported the library from {origin}, not from {src}")
    return mods


def build_jobs(spec: Workload, seed: int, work: Path, smoke: bool) -> list[Job]:
    rng = random.Random(seed)
    size = spec.smoke_size if smoke else spec.size
    count = min(spec.distinct, 12) if smoke else spec.distinct
    work.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i in range(count):
        if spec.kind == "smooth":
            text, values, edges = gen.banded_graph(rng, size)
            path = work / f"g{i}.rg"
            path.write_text(text)
            jobs.append(Job(i, "smooth", (str(path),), len(values) + len(edges),
                            (values, spec.eps)))
        elif spec.kind == "reeb":
            text, values, edges, cells = gen.strip_field(rng, size)
            path = work / f"f{i}.fld"
            path.write_text(text)
            jobs.append(Job(i, "reeb", (str(path),), cells, (values, edges)))
        else:
            # sizes, edge counts and distances cycle with coprime periods,
            # so every seed, and every stretch of the list, draws the same
            # mix of pair shapes
            n = 2 + i % size
            m = n - 1 + i % 7
            d = 1 + i % 6
            f_text, g_text, delta, cells = gen.stability_pair(rng, n, m, d)
            fp, gp = work / f"p{i}f.rg", work / f"p{i}g.rg"
            fp.write_text(f_text)
            gp.write_text(g_text)
            radii = tuple(delta * k for k in gen.PROBE_FRACTIONS)
            jobs.append(Job(i, "pair", (str(fp), str(gp)), cells, radii))
    return jobs


# ---------------------------------------------------------------------------
# Jobs. Library functions are looked up on their modules at each call, so
# the tracer's wrappers are seen when installed.

def run_cli(lib: dict, job: Job):
    argv = [job.kind, job.paths[0]]
    if job.kind == "smooth":
        argv.append(str(job.data[1]))
    out, err = io.StringIO(), io.StringIO()
    rc = lib["reeb.cli"].main(argv, stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def run_pair(lib: dict, job: Job) -> list[Probe]:
    fileio, interleave = lib["reeb.fileio"], lib["reeb.interleave"]
    probes = []
    for eps in job.data:
        f = fileio.parse_rgraph(Path(job.paths[0]).read_text())
        g = fileio.parse_rgraph(Path(job.paths[1]).read_text())
        outcome = interleave.search_certificate(f, g, eps, budget=BUDGET)
        verified = verify_s = None
        if outcome.status == "found":
            t0 = time.perf_counter()
            verified, _ = interleave.verify_certificate(outcome.certificate)
            verify_s = time.perf_counter() - t0
        probes.append(Probe(eps, outcome.status, outcome.nodes, verified, verify_s))
    return probes


def run_job(lib: dict, job: Job):
    return run_pair(lib, job) if job.kind == "pair" else run_cli(lib, job)


class Checker:
    """Checks each job's result. The first result of each distinct input
    gets the full check; repeats must reproduce it exactly."""

    def __init__(self, lib: dict):
        # the originals, captured before any tracing wrapper is installed
        self.parse = lib["reeb.fileio"].parse_rgraph
        self.validate = lib["reeb.core"].validate
        self.seen: dict[int, str] = {}

    def __call__(self, job: Job, result) -> list[str]:
        if job.kind == "pair":
            digest = repr([(p.eps, p.status, p.nodes) for p in result])
        else:
            rc, out, err = result
            if rc != 0:
                return [f"{job.kind} exited with {rc}: {err.strip()}"]
            digest = hashlib.blake2b(out.encode(), digest_size=16).hexdigest()
        if job.index in self.seen:
            if self.seen[job.index] != digest:
                return ["a repeat of the same input gave a different output"]
            return []
        self.seen[job.index] = digest
        if job.kind == "pair":
            return checks.check_probes([(p.eps, p.status, p.verified) for p in result])
        if job.kind == "smooth":
            values, eps = job.data
            return checks.check_smoothing(out, values, eps, self.parse, self.validate)
        values, edges = job.data
        return checks.check_reeb(out, values, edges, self.parse, self.validate)


# ---------------------------------------------------------------------------
# Measurement.

def calibrate() -> float:
    """Wall seconds that one fixed unit of interpreter work takes right
    now. The work mixes what the library spends its time on: exact
    fractions, many small strings and frozensets, sorting, joining and
    dict lookups over a working set of a few megabytes."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1, i % 89 + 1)
    cells = [f"c{i}" for i in range(12000)]
    groups = [frozenset(cells[j:j + 40]) for j in range(0, 12000, 40)]
    names = [",".join(sorted(g)) for g in groups]
    index = {c: k for k, c in enumerate(cells)}
    sum(index[c] for c in cells[::3])
    del names
    return time.perf_counter() - t0


class Tally:
    """What one measurement ran: the jobs that passed their checks, with
    their wall latency, input cells, probes and the calibration run just
    before them, plus the failures."""

    def __init__(self):
        self.jobs: list[tuple[float, int, list, int]] = []
        self.calibrations: list[float] = []
        self.messages: list[str] = []
        self.attempted = 0
        self.failed = 0

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())

    def scale(self, k: int) -> float:
        """Reference seconds per wall second for a job run after
        calibration k: the median of the calibrations around it, so one
        interrupted calibration does not skew the job."""
        window = self.calibrations[max(0, k - CALIBRATION_WINDOW // 2 + 1):
                                   k + CALIBRATION_WINDOW // 2 + 1]
        return REFERENCE_S / statistics.median(window)

    def wall_seconds(self) -> float:
        return sum(dt for dt, _, _, _ in self.jobs)

    def require_passes(self) -> None:
        """Metrics need at least one job that passed its checks."""
        if not self.jobs:
            give_up("no job passed its checks:\n" + "\n".join(self.messages[:20]))


def execute(lib: dict, job: Job, check: Checker, tally: Tally, tracer=None) -> None:
    """Run one job under the timer, then check it outside the timer.
    Each job starts from a collected heap, as a fresh command-line process
    would, so the collector pauses at the same points of a job each time."""
    tally.attempted += 1
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = run_job(lib, job)
        else:
            tracer.job = job.index
            result = tracer.run("job", run_job, lib, job)
    except Exception:                       # a crash is a failed job, not a dead run
        tally.failed += 1
        tally.messages.append(f"job {job.index} raised:\n{traceback.format_exc()}")
        return
    dt = time.perf_counter() - t0
    bad = check(job, result)
    if bad:
        tally.failed += 1
        tally.messages.extend(f"job {job.index}: {m}" for m in bad)
        return
    probes = result if job.kind == "pair" else []
    tally.jobs.append((dt, job.cells, probes, len(tally.calibrations) - 1))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    value, the percentile, and how many samples lie beyond it."""
    s = sorted(latencies)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def setup(lib: dict, spec: Workload, args, work: Path, check: Checker):
    """Import time plus the median of several rounds of input generation
    and a warm-up job, in reference seconds. Returns (setup, jobs)."""
    import_s = time.perf_counter() - _T_START
    cal = [calibrate()]
    rounds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = build_jobs(spec, args.seed, work, args.smoke)
        warm = Tally()
        execute(lib, jobs[0], check, warm)
        dt = time.perf_counter() - t0
        cal.append(calibrate())
        rounds.append(dt * REFERENCE_S / ((cal[-2] + cal[-1]) / 2))
        if warm.failed:
            give_up("warm-up job failed:\n" + "\n".join(warm.messages))
    return import_s * REFERENCE_S / cal[0] + statistics.median(rounds), jobs


def measure(lib: dict, jobs: list[Job], check: Checker, seconds: float) -> Tally:
    """The closed loop: cycle through the jobs until `seconds` of wall
    time have passed, calibrating between jobs every CALIBRATE_EVERY_S."""
    tally = Tally()
    t_start = time.perf_counter()
    t_cal = -CALIBRATE_EVERY_S
    k = 0
    while time.perf_counter() - t_start < seconds or k < MIN_JOBS:
        if time.perf_counter() - t_cal >= CALIBRATE_EVERY_S:
            tally.calibrate()
            t_cal = time.perf_counter()
        execute(lib, jobs[k % len(jobs)], check, tally)
        k += 1
    tally.calibrate()
    tally.require_passes()
    return tally


def trace_run(lib: dict, jobs: list[Job], check: Checker, out_path: Path):
    """Run each job of the prefix untraced and then traced, so both see the
    same machine; return (tallies, metrics)."""
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    for job in jobs:
        execute(lib, job, check, plain)
        tracer.install(lib)
        try:
            execute(lib, job, check, traced, tracer)
        finally:
            tracer.uninstall()
    plain.require_passes()
    traced.require_passes()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced.wall_seconds() / plain.wall_seconds()
    tracer.write(out_path)
    return (plain, traced), metrics


# ---------------------------------------------------------------------------
# Report.

def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics in reference seconds, and the report lines
    that explain them."""
    lat = [dt * tally.scale(k) for dt, _, _, k in tally.jobs]
    busy = sum(lat)
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "cells_per_s": sum(cells for _, cells, _, _ in tally.jobs) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = tally.wall_seconds()
    lines = [f"  {key:<16} {fmt(value)} {E2E_UNITS[key]}" for key, value in metrics.items()]
    raw = [dt for dt, _, _, _ in tally.jobs]
    lines.append(f"  (job_tail_s is p{pct:.1f} of {len(lat)} jobs, {beyond} beyond it)")
    lines.append(f"  (in wall seconds: job_p50 {statistics.median(raw):.6g}, job_tail "
                 f"{tail(raw)[0]:.6g}, jobs {wall:.6g} against {busy:.6g} reference)")
    lines.append(f"  {'failed_ratio':<16} {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted} jobs)")
    probes = [(p, tally.scale(k)) for _, _, ps, k in tally.jobs for p in ps]
    if probes:
        n = len(probes)
        outcomes = Counter(p.status for p, _ in probes)
        verify = [p.verify_s * f for p, f in probes if p.verify_s is not None]
        lines.append(f"  {'probes_per_s':<16} {n / busy:.6g} 1/s ({n} probes)")
        lines.append(f"  {'undecided_ratio':<16} {outcomes['budget'] / n:.6g} "
                     f"(found {outcomes['found']}, exhausted {outcomes['exhausted']}, "
                     f"budget {outcomes['budget']})")
        if verify:
            lines.append(f"  {'verify_p50_s':<16} {statistics.median(verify):.6g} s "
                         f"({len(verify)} certificates)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy input sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    lib = import_library()
    spec = WORKLOADS[args.workload]
    work = HERE / f".work-{args.workload}-{os.getpid()}"
    check = Checker(lib)
    try:
        setup_s, jobs = setup(lib, spec, args, work, check)
        if args.trace:
            out_dir = HERE / "traces"
            out_dir.mkdir(exist_ok=True)
            prefix = jobs[:spec.traced]
            out_path = out_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"
            tallies, metrics = trace_run(lib, prefix, check, out_path)
            units = {k: LAYER_METRICS[k][0] for k in metrics}
            lines = [f"workload {args.workload}  seed {args.seed}  traced prefix "
                     f"of {len(prefix)} jobs  spans in {out_path.relative_to(ROOT)}"]
            for key in LAYER_METRICS:
                exact = "  (exact)" if key in EXACT_COUNTERS else ""
                lines.append(f"  {key:<30} {fmt(metrics[key])} {units[key]}"
                             f"  -> {LAYER_METRICS[key][1]}{exact}")
        else:
            tally = measure(lib, jobs, check, args.seconds)
            tallies = (tally,)
            metrics, lines = end_to_end(tally, setup_s)
            units = E2E_UNITS
            lines.insert(0, f"workload {args.workload}  seed {args.seed}  "
                            f"jobs {tally.attempted}  (times in reference seconds)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for message in t.messages[:20]:
            print(message, file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
