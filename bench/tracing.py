"""Per-layer tracing of the library, done entirely from the benchmark.

`Tracer.install` replaces each layer's public functions at the module
attributes where their callers look them up (for example
``reeb.interleave.shift_compose``) with wrappers that record a span:
name, start, end, parent span and job id. Spans are kept in memory and
written out once at the end. The forest that ``reeb.smoothing.make_forest``
returns is wrapped in a counting proxy instead, because the sweep makes
hundreds of thousands of forest calls: those are aggregated, not kept as
spans. `Tracer.uninstall` restores every original.

A layer's self time is its spans' total duration minus the time covered
by child spans (and by the forest calls made directly under it).
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

perf_counter = time.perf_counter

# (module, attribute, layer) for every function wrapped in a span. A
# function imported into several modules is wrapped at each of them.
PATCHES = (
    ("reeb.cli", "main", "cli"),
    ("reeb.cli", "parse_rgraph", "fileio.parse"),
    ("reeb.cli", "parse_field", "fileio.parse"),
    ("reeb.fileio", "parse_rgraph", "fileio.parse"),
    ("reeb.cli", "emit_rgraph", "fileio.emit"),
    ("reeb.cli", "reeb_of_complex", "fileio.reeb_of_complex"),
    ("reeb.smoothing", "smooth_sweep", "smoothing"),
    ("reeb.smoothing", "smooth_naive", "smoothing"),
    ("reeb.core", "refine", "core.refine"),
    ("reeb.morphism", "refine", "core.refine"),
    ("reeb.interleave", "refine", "core.refine"),
    ("reeb.interleave", "is_isomorphic", "iso"),
    ("reeb.morphism", "transport", "morphism.transport"),
    ("reeb.smoothing", "transport", "morphism.transport"),
    ("reeb.interleave", "transport", "morphism.transport"),
    ("reeb.interleave", "shift_compose", "morphism.shift_compose"),
    ("reeb.morphism", "compose", "morphism.compose"),
    ("reeb.interleave", "compose", "morphism.compose"),
    ("reeb.iso", "compose", "morphism.compose"),
    ("reeb.smoothing", "compose", "morphism.compose"),
    ("reeb.morphism", "morphism_first_difference", "morphism.equal"),
    ("reeb.interleave", "morphism_first_difference", "morphism.equal"),
    ("reeb.interleave", "morphism_equal", "morphism.equal"),
    ("reeb.smoothing", "morphism_equal", "morphism.equal"),
    ("reeb.interleave", "search_certificate", "interleave.search"),
    ("reeb.interleave", "verify_certificate", "interleave.verify"),
)

# Per-layer metric -> (unit, the end-to-end metric it should move, on which
# workloads). Every `*_s` metric is a self time over the traced pass.
LAYER_METRICS = {
    "fileio.parse_s": ("s", "cells_per_s, peak_rss_mb on smooth-wide"),
    "fileio.emit_s": ("s", "cells_per_s, peak_rss_mb on smooth-wide"),
    "fileio.emit_bytes": ("bytes", "cells_per_s, peak_rss_mb on smooth-wide"),
    "fileio.reeb_of_complex_s": ("s", "cells_per_s on complex"),
    "smoothing.smooth_s": ("s", "cells_per_s on smooth-*; job_p50_s on interleave"),
    "smoothing.calls": ("count", "cells_per_s on smooth-*; job_p50_s on interleave"),
    "smoothing.out_cells": ("count", "cells_per_s on smooth-*"),
    "smoothing.name_chars": ("chars", "cells_per_s, peak_rss_mb on smooth-wide"),
    "smoothing.provenance_entries": ("count", "cells_per_s, peak_rss_mb on smooth-wide"),
    "dynconn.ops": ("count", "cells_per_s on smooth-narrow"),
    "dynconn.s": ("s", "cells_per_s on smooth-narrow"),
    "dynconn.component_cells": ("count", "cells_per_s on smooth-narrow and smooth-wide"),
    "core.refine_s": ("s", "job_p50_s on interleave"),
    "core.refine_calls": ("count", "job_p50_s on interleave"),
    "iso.s": ("s", "job_p50_s on interleave"),
    "iso.calls": ("count", "job_p50_s on interleave"),
    "morphism.transport_s": ("s", "job_p50_s on interleave"),
    "morphism.transport_calls": ("count", "job_p50_s on interleave"),
    "morphism.shift_compose_s": ("s", "job_p50_s, job_tail_s on interleave"),
    "morphism.compose_s": ("s", "job_p50_s on interleave"),
    "morphism.equal_s": ("s", "job_p50_s, job_tail_s on interleave"),
    "interleave.search_s": ("s", "job_p50_s, job_tail_s on interleave"),
    "interleave.search_nodes": ("count", "job_tail_s on interleave"),
    "interleave.verify_s": ("s", "job_p50_s on interleave"),
    "interleave.outcome.found": ("count", "job_tail_s on interleave"),
    "interleave.outcome.exhausted": ("count", "job_tail_s on interleave"),
    "interleave.outcome.budget": ("count", "job_tail_s on interleave"),
    "cli.self_s": ("s", "job_p50_s on smooth-* and complex"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced wall time"),
}

# Counters that do not depend on the machine: equal seeds give equal values.
EXACT_COUNTERS = ("interleave.search_nodes", "dynconn.ops", "smoothing.out_cells",
                  "smoothing.name_chars", "fileio.emit_bytes")

_SELF_TIMES = {
    "fileio.parse_s": "fileio.parse",
    "fileio.emit_s": "fileio.emit",
    "fileio.reeb_of_complex_s": "fileio.reeb_of_complex",
    "smoothing.smooth_s": "smoothing",
    "core.refine_s": "core.refine",
    "iso.s": "iso",
    "morphism.transport_s": "morphism.transport",
    "morphism.shift_compose_s": "morphism.shift_compose",
    "morphism.compose_s": "morphism.compose",
    "morphism.equal_s": "morphism.equal",
    "interleave.search_s": "interleave.search",
    "interleave.verify_s": "interleave.verify",
    "cli.self_s": "cli",
    "dynconn.s": "dynconn",
}

_CALLS = {
    "smoothing.calls": "smoothing",
    "core.refine_calls": "core.refine",
    "iso.calls": "iso",
    "morphism.transport_calls": "morphism.transport",
}


class Tracer:
    def __init__(self):
        self.spans: list = []            # (name, start, end, parent, job)
        self.stack: list[list] = []      # open spans: [child time, span index]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.job = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        parent = self.stack[-1][1] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)
            self.self_time[name] += (end - start) - frame[0]
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][0] += end - start

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            result = self.run(layer, fn, *args, **kwargs)
            hook = _HOOKS.get(layer)
            if hook is not None:
                t0 = perf_counter()
                hook(self.counters, result)
                if self.stack:       # keep bookkeeping out of the parent's self time
                    self.stack[-1][0] += perf_counter() - t0
            return result
        return traced

    def _forest_factory(self, make_forest):
        def traced_make_forest(*args, **kwargs):
            return CountingForest(make_forest(*args, **kwargs), self)
        return traced_make_forest

    # -- patching ---------------------------------------------------------
    def install(self, modules: dict) -> None:
        for mod_name, attr, layer in PATCHES:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn))
        smoothing = modules["reeb.smoothing"]
        self._saved.append((smoothing, "make_forest", smoothing.make_forest))
        smoothing.make_forest = self._forest_factory(smoothing.make_forest)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, layer in _SELF_TIMES.items():
            out[metric] = self.self_time.get(layer, 0.0)
        for metric, layer in _CALLS.items():
            out[metric] = self.calls.get(layer, 0)
        for name in ("fileio.emit_bytes", "smoothing.out_cells",
                     "smoothing.name_chars", "smoothing.provenance_entries",
                     "dynconn.ops", "dynconn.component_cells",
                     "interleave.search_nodes", "interleave.outcome.found",
                     "interleave.outcome.exhausted", "interleave.outcome.budget"):
            out[name] = self.counters.get(name, 0)
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end (seconds
        from the first span), parent index, job id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7),
                                     round(end - t0, 7), parent, job]) + "\n")


class CountingForest:
    """Proxy around a dynamic forest: counts and times every call the
    sweep makes, and the cells its component() answers list."""

    def __init__(self, forest, tracer: Tracer):
        self._forest = forest
        self._tracer = tracer

    def _call(self, method, *args):
        t0 = perf_counter()
        result = method(*args)
        dt = perf_counter() - t0
        tr = self._tracer
        tr.counters["dynconn.ops"] += 1
        tr.self_time["dynconn"] += dt
        if tr.stack:
            tr.stack[-1][0] += dt
        return result

    def add_node(self, x):
        return self._call(self._forest.add_node, x)

    def remove_node(self, x):
        return self._call(self._forest.remove_node, x)

    def insert(self, x1, x2, weight):
        return self._call(self._forest.insert, x1, x2, weight)

    def delete(self, x1, x2):
        return self._call(self._forest.delete, x1, x2)

    def find(self, x):
        return self._call(self._forest.find, x)

    def component(self, x):
        comp = self._call(self._forest.component, x)
        self._tracer.counters["dynconn.component_cells"] += len(comp)
        return comp

    def __getattr__(self, name):
        attr = getattr(self._forest, name)
        if not callable(attr):
            return attr
        return lambda *args: self._call(attr, *args)


def _smoothing_hook(counters, res) -> None:
    g = res.smoothed
    # read levels and slots directly: the cached id tuples stay unbuilt
    names = [c for cells in g.levels + g.slots for c in cells]
    counters["smoothing.out_cells"] += len(names)
    counters["smoothing.name_chars"] += sum(map(len, names))
    counters["smoothing.provenance_entries"] += sum(map(len, res.provenance.values()))


def _emit_hook(counters, text) -> None:
    counters["fileio.emit_bytes"] += len(text.encode())


def _search_hook(counters, outcome) -> None:
    counters["interleave.search_nodes"] += outcome.nodes
    counters["interleave.outcome." + outcome.status] += 1


_HOOKS = {
    "smoothing": _smoothing_hook,
    "fileio.emit": _emit_hook,
    "interleave.search": _search_hook,
}
