"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns file text in the
formats the command line reads, together with the plain data the output
checks need. Nothing here imports the library: the program under test
receives only the generated files.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Banded graphs with chords (smooth-narrow, smooth-wide).
#
# Why (smooth-narrow, eps = 3/2): the link-cut forest and the sweep loop
# do the work. The trace puts the forest first, at about 34 calls per
# vertex and about 55% of the time, and the output stays linear. The
# chords close cycles, so inserts take the forest's cycle path (a
# path-minimum query and a swap), which a plain path never reaches.
#
# Why (smooth-wide, eps = 40): every window component spans many input
# cells. Naming and provenance in the sweep, whole-component walks in the
# forest (about 6x the component cells of smooth-narrow over a third of
# the calls) and the emitted text (about 2.4 MB a job) do the work.

def banded_graph(rng: random.Random, n: int) -> tuple[str, dict, list]:
    """A path of n vertices, vertex i at value i + {0, 1/4, 1/2, 3/4},
    plus about n/2 chords, each spanning 2 to 4 path steps upward.
    Returns (file text, vertex values, edges as (id, lo, hi))."""
    values = {f"a{i}": i + Fraction(rng.randrange(4), 4) for i in range(n)}
    edges = [(f"p{i}", f"a{i}", f"a{i + 1}") for i in range(n - 1)]
    for k in range(n // 2):
        i = rng.randrange(n - 2)
        j = min(n - 1, i + rng.randint(2, 4))
        edges.append((f"c{k}", f"a{i}", f"a{j}"))
    lines = [f"vertex {v} {_fmt(x)}" for v, x in values.items()]
    lines += [f"edge {e} {lo} {hi}" for e, lo, hi in edges]
    return "\n".join(lines) + "\n", values, edges


# ---------------------------------------------------------------------------
# Height-like triangulated strips (complex).
#
# Why: the Reeb graph of a complex rescans every cell at every level,
# about 98% of a job in the trace, so its time grows about fourfold when
# the strip doubles while the output stays linear. Smoothing, the forest
# and the search are never touched.

def strip_field(rng: random.Random, squares: int) -> tuple[str, dict, list, int]:
    """Two rows of squares (three rows of vertices), each square cut into
    two triangles. Values follow a seeded random walk along the strip (a
    shuffle of fixed steps) plus a row offset and a little noise, on a 1/8
    grid, so the number of distinct levels grows with the strip, some
    levels are shared and a few edges are level. Returns (file text,
    vertex values, edges as (id, a, b), number of simplices)."""
    cols = squares // 2 + 1
    # the same steps in a seeded order: every strip climbs equally far,
    # so jobs differ in shape but not in their number of levels
    steps = [(-2, -1, 1, 2, 3, 4, 5)[c % 7] for c in range(cols)]
    rng.shuffle(steps)
    values: dict[str, Fraction] = {}
    h = 0
    for c in range(cols):
        h += steps[c]
        for r in range(3):
            values[f"x{r}_{c}"] = Fraction(h + 4 * r + rng.randint(-2, 2), 8)
    edges: dict[tuple[str, str], str] = {}

    def edge(a: str, b: str) -> str:
        key = (a, b) if a < b else (b, a)
        if key not in edges:
            edges[key] = f"s{len(edges)}"
        return edges[key]

    triangles = []
    for r in range(2):
        for c in range(cols - 1):
            p, q = f"x{r}_{c}", f"x{r}_{c + 1}"
            s, t = f"x{r + 1}_{c}", f"x{r + 1}_{c + 1}"
            for a, b, d in ((p, q, t), (p, t, s)):
                triangles.append((edge(a, b), edge(b, d), edge(a, d)))
    lines = [f"v {v} {_fmt(x)}" for v, x in values.items()]
    edge_list = [(eid, a, b) for (a, b), eid in edges.items()]
    lines += [f"e {eid} {a} {b}" for eid, a, b in edge_list]
    lines += [f"t T{k} {x} {y} {z}" for k, (x, y, z) in enumerate(triangles)]
    n_cells = len(values) + len(edge_list) + len(triangles)
    return "\n".join(lines) + "\n", values, edge_list, n_cells


# ---------------------------------------------------------------------------
# Stability pairs with probe radii (interleave).
#
# Why: two value assignments on one shared complex are interleaved at
# their sup-norm distance delta (the stability theorem), so probes at
# fractions of delta land near the threshold. There the search refines,
# enumerates bundles, transports and compares morphisms, and calls the
# isomorphism test. It also runs thousands of tiny smoothings, which
# with their forests take about 64% of the time in the trace. That uses
# the smoothing layer the opposite way from the smooth-* workloads, so a
# per-call set-up cost that pays off on big graphs shows here as a loss.
# About 37% of the probes end at the node budget, which leaves room for a
# cheaper refutation to show.

PROBE_FRACTIONS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def _graph_text(values: dict, edges: dict) -> str:
    lines = [f"vertex {v} {_fmt(x)}" for v, x in values.items()]
    for e, (a, b) in edges.items():
        lo, hi = (a, b) if values[a] < values[b] else (b, a)
        lines.append(f"edge {e} {lo} {hi}")
    return "\n".join(lines) + "\n"


def stability_pair(rng: random.Random, n: int, m: int, d: int,
                   denominator: int = 6):
    """One simple 1-complex on n vertices with m edges (fewer when the
    complete graph has fewer), and two value assignments f and g on a
    1/denominator grid, free of level edges under both. g moves every
    vertex by at most d/(2 denominator) and at least one vertex by exactly
    that, so the sup-norm distance delta is fixed by d. Returns (f text,
    g text, delta, cells), where cells counts the vertices and edges of
    both graphs."""
    step = Fraction(1, 2 * denominator)
    names = [f"p{i}" for i in range(n)]
    while True:
        f = {v: Fraction(rng.randint(-2 * denominator, 2 * denominator),
                         denominator) for v in names}
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                 if f[a] != f[b]]
        if not pairs:
            continue
        chosen = rng.sample(pairs, min(len(pairs), m))
        edges = {f"w{k}": ab for k, ab in enumerate(chosen)}
        shift = {v: rng.randint(-d, d) for v in names}
        shift[rng.choice(names)] = rng.choice((-d, d))
        g = {v: f[v] + shift[v] * step for v in names}
        if all(g[a] != g[b] for a, b in edges.values()):
            return (_graph_text(f, edges), _graph_text(g, edges), d * step,
                    2 * (n + len(edges)))
