"""Seeded random generators for graphs, cosheaves, fields.

Everything takes an explicit ``random.Random`` so test runs are
reproducible. Values live on a coarse rational grid on purpose: shared
function values, empty levels and isolated vertices should all show up
often enough to exercise the degenerate paths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cosheaf import Cosheaf
from .core import RGraph, build_rgraph
from .errors import InternalError
from .fileio import SimplicialField


def _grid_value(rng: random.Random, denominator: int) -> Fraction:
    return Fraction(rng.randint(-2 * denominator, 2 * denominator), denominator)


def random_rgraph(rng: random.Random, max_vertices: int = 8,
                  max_edges: int = 10, denominator: int = 4,
                  extra_criticals: int = 2) -> RGraph:
    n = rng.randint(0, max_vertices)
    vertices = {f"p{i}": _grid_value(rng, denominator) for i in range(n)}
    names = sorted(vertices)
    edges: dict[str, tuple[str, str]] = {}
    if n >= 2:
        for k in range(rng.randint(0, max_edges)):
            a, b = rng.sample(names, 2)
            if vertices[a] == vertices[b]:
                continue
            if vertices[a] > vertices[b]:
                a, b = b, a
            edges[f"w{k}"] = (a, b)
    criticals = [_grid_value(rng, denominator)
                 for _ in range(rng.randint(0, extra_criticals))]
    return build_rgraph(vertices, edges, criticals)


def collision_free_epsilon(g: RGraph, rng: random.Random,
                           denominator: int = 16,
                           attempts: int = 100) -> Fraction:
    """A positive radius for which no shifted critical values collide:
    2 * eps avoids every difference of critical values."""
    S = g.criticals
    forbidden = {Fraction(b - a, 2) for a in S for b in S if a < b}
    if len(S) < 2:
        return Fraction(rng.randint(1, denominator), denominator)
    span = S[-1] - S[0]
    for _ in range(attempts):
        eps = span * Fraction(rng.randint(1, denominator), 2 * denominator)
        if eps not in forbidden:
            return eps
    q = 2
    while True:
        eps = span / q
        if eps not in forbidden:
            return eps
        q += 1


def random_cosheaf(rng: random.Random, max_criticals: int = 4,
                   max_elements: int = 3) -> Cosheaf:
    k = rng.randint(0, max_criticals)
    criticals = tuple(Fraction(c) for c in sorted(rng.sample(range(-6, 7), k)))
    node_sizes = [rng.randint(0, max_elements) for _ in range(k)]
    node_sets = tuple(tuple(f"n{i}.{t}" for t in range(node_sizes[i]))
                      for i in range(k))
    left = []
    right = []
    for j in range(max(0, k - 1)):
        if node_sizes[j] and node_sizes[j + 1]:
            size = rng.randint(0, max_elements)
        else:
            size = 0
        es = tuple(f"g{j}.{t}" for t in range(size))
        left.append({x: rng.choice(node_sets[j]) for x in es})
        right.append({x: rng.choice(node_sets[j + 1]) for x in es})
    return Cosheaf(criticals, node_sets, tuple(left), tuple(right))


def random_field(rng: random.Random, max_vertices: int = 10,
                 max_triangles: int = 6, max_extra_edges: int = 4,
                 denominator: int = 3) -> SimplicialField:
    n = rng.randint(0, max_vertices)
    values = {f"p{i}": _grid_value(rng, denominator) for i in range(n)}
    names = sorted(values)
    edges: dict[str, tuple[str, str]] = {}
    by_pair: dict[tuple[str, str], str] = {}

    def edge_of(a: str, b: str) -> str:
        key = (a, b) if a < b else (b, a)
        if key not in by_pair:
            eid = f"{key[0]}-{key[1]}"
            by_pair[key] = eid
            edges[eid] = key
        return by_pair[key]

    triangles: dict[str, tuple[str, str, str]] = {}
    if n >= 3:
        for t in range(rng.randint(0, max_triangles)):
            a, b, c = rng.sample(names, 3)
            triangles[f"T{t}"] = (edge_of(a, b), edge_of(b, c), edge_of(a, c))
    if n >= 2:
        for _ in range(rng.randint(0, max_extra_edges)):
            a, b = rng.sample(names, 2)
            edge_of(a, b)
    return SimplicialField(values, edges, triangles)


def random_stability_pair(rng: random.Random, max_vertices: int = 7,
                          max_edges: int = 9, denominator: int = 6):
    """A shared one-complex with two value assignments, both free of
    level edges: the raw material for a stability check."""
    for _ in range(1000):
        n = rng.randint(1, max_vertices)
        names = [f"p{i}" for i in range(n)]
        f_vals = {v: _grid_value(rng, denominator) for v in names}
        edges: dict[str, tuple[str, str]] = {}
        if n >= 2:
            for k in range(rng.randint(0, max_edges)):
                a, b = rng.sample(names, 2)
                if f_vals[a] != f_vals[b]:
                    edges[f"w{k}"] = (a, b)
        g_vals = {v: f_vals[v] + Fraction(rng.randint(-denominator, denominator),
                                          2 * denominator)
                  for v in names}
        if all(g_vals[a] != g_vals[b] for a, b in edges.values()):
            return edges, f_vals, g_vals
    raise InternalError("could not draw a level-edge-free pair")
