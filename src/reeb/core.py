"""Combinatorial graphs over the real line.

An RGraph stores a strictly increasing tuple of critical values
a_0 < ... < a_n, one vertex set per critical value (a "level"), and two
attaching maps per consecutive pair of criticals (a "slot") giving each
of the slot's edges its endpoint in the level below and in the level
above. The slot's edges are the keys of those maps. A vertex's function
value is the critical value of its level; an edge spans the open
interval between its slot's critical values, rising from its lower
endpoint to its upper one.

Levels may be empty or contain isolated vertices; the empty graph (no
criticals at all) is legal. All values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ValidationError
from .rationals import as_rational, format_rational, scaled
from .unionfind import UnionFind


@dataclass(frozen=True)
class RGraph:
    """Per slot, the lower and upper attach maps keyed by exactly its
    edges, their only record: no dict may change once a graph holds it."""
    criticals: tuple[Fraction, ...]
    levels: tuple[tuple[str, ...], ...]
    down: tuple[dict[str, str], ...]
    up: tuple[dict[str, str], ...]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_slots(self) -> int:
        return len(self.down)

    @cached_property
    def slots(self) -> tuple[tuple[str, ...], ...]:
        """Each slot's edges, sorted: the keys of its lower attach map."""
        return tuple(tuple(sorted(d)) for d in self.down)

    @property
    def is_empty(self) -> bool:
        return not self.criticals

    @cached_property
    def vertex_level(self) -> dict[str, int]:
        return {v: i for i, lev in enumerate(self.levels) for v in lev}

    @cached_property
    def edge_slot(self) -> dict[str, int]:
        return {e: j for j, slot in enumerate(self.slots) for e in slot}

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v for lev in self.levels for v in lev)

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e for slot in self.slots for e in slot)

    def value(self, vid: str) -> Fraction:
        return self.criticals[self.vertex_level[vid]]

    def span(self, eid: str) -> tuple[Fraction, Fraction]:
        j = self.edge_slot[eid]
        return (self.criticals[j], self.criticals[j + 1])

    def endpoints(self, eid: str) -> tuple[str, str]:
        j = self.edge_slot[eid]
        return (self.down[j][eid], self.up[j][eid])

    @cached_property
    def below_edges(self) -> dict[str, tuple[str, ...]]:
        """Edges arriving at each vertex from the slot under its level."""
        acc: dict[str, list[str]] = {v: [] for v in self.vertex_ids}
        for j, slot in enumerate(self.slots):
            for e in slot:
                acc[self.up[j][e]].append(e)
        return {v: tuple(es) for v, es in acc.items()}

    @cached_property
    def above_edges(self) -> dict[str, tuple[str, ...]]:
        """Edges leaving each vertex into the slot over its level."""
        acc: dict[str, list[str]] = {v: [] for v in self.vertex_ids}
        for j, slot in enumerate(self.slots):
            for e in slot:
                acc[self.down[j][e]].append(e)
        return {v: tuple(es) for v, es in acc.items()}

    @cached_property
    def edge_groups(self) -> tuple[dict[tuple[str, str], tuple[str, ...]], ...]:
        """Per slot, its edges grouped by (lower, upper) endpoint pair,
        each group in slot order."""
        out = []
        for j, slot in enumerate(self.slots):
            acc: dict[tuple[str, str], list[str]] = {}
            for e in slot:
                acc.setdefault((self.down[j][e], self.up[j][e]), []).append(e)
            out.append({pair: tuple(es) for pair, es in acc.items()})
        return tuple(out)

    def down_degree(self, vid: str) -> int:
        return len(self.below_edges[vid])

    def up_degree(self, vid: str) -> int:
        return len(self.above_edges[vid])


def _assemble(criticals, levels, down, up) -> RGraph:
    """Normalize raw pieces into the canonical sorted representation:
    levels are sorted, and the per-slot attach dicts are kept as given,
    so each slot's up dict must be keyed by exactly its down dict's keys."""
    crit = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in criticals)
    lev = tuple(tuple(sorted(l)) for l in levels)
    return RGraph(crit, lev, tuple(down), tuple(up))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate(g: RGraph) -> ValidationReport:
    """Check every structural invariant; never raises, reports violations."""
    bad: list[str] = []
    crit = g.criticals
    for c in crit:
        if not isinstance(c, Fraction):
            bad.append(f"critical value {c!r} is not an exact rational")
    for a, b in zip(crit, crit[1:]):
        if not a < b:
            bad.append(f"criticals not strictly increasing at {a}, {b}")
    if len(g.levels) != len(crit):
        bad.append(f"{len(g.levels)} levels for {len(crit)} criticals")
    if len(g.down) != max(0, len(crit) - 1):
        bad.append(f"{len(g.down)} slots for {len(crit)} criticals")
    if len(g.up) != len(g.down):
        bad.append("attach map count does not match slot count")
        return ValidationReport(False, tuple(bad))

    seen: set[str] = set()
    for i, lev in enumerate(g.levels):
        for v in lev:
            if not isinstance(v, str):
                bad.append(f"level {i}: vertex id {v!r} is not a string")
            elif v in seen:
                bad.append(f"duplicate id {v!r}")
            else:
                seen.add(v)
    for j, dn in enumerate(g.down):
        for e in dn:
            if not isinstance(e, str):
                bad.append(f"slot {j}: edge id {e!r} is not a string")
            elif e in seen:
                bad.append(f"duplicate id {e!r}")
            else:
                seen.add(e)

    for j, (dn, u) in enumerate(zip(g.down, g.up)):
        lo_level = set(g.levels[j]) if j < len(g.levels) else set()
        hi_level = set(g.levels[j + 1]) if j + 1 < len(g.levels) else set()
        for e, lo in dn.items():
            if lo not in lo_level:
                bad.append(f"slot {j}: edge {e!r}: lower endpoint {lo!r} not in level {j}")
            if e not in u:
                bad.append(f"slot {j}: edge {e!r}: partial attaching map (no upper endpoint)")
            elif u[e] not in hi_level:
                bad.append(f"slot {j}: edge {e!r}: upper endpoint {u[e]!r} not in level {j + 1}")
        for e in u:
            if e not in dn:
                bad.append(f"slot {j}: upper attach defined on unknown edge {e!r}")

    return ValidationReport(not bad, tuple(bad))


def _fresh(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def _edge_triples(edges):
    """Each (id, end, end) edge item of a list or an id -> ends dict, as strings."""
    if isinstance(edges, dict):
        edges = [(eid, *ends) if isinstance(ends, (tuple, list)) else (eid, ends)
                 for eid, ends in edges.items()]
    for item in edges:
        try:
            eid, a, b = item
        except (TypeError, ValueError):
            raise ValidationError(f"edge item {item!r} is not an (id, end, end) "
                                  "triple") from None
        yield str(eid), str(a), str(b)


def _ranked(xs) -> tuple[list, list[int]]:
    """The distinct values among xs in increasing order, and the index
    of each x there, ranked once as integers over a common denominator."""
    _, keys = scaled(xs)
    rank = {key: k for k, key in enumerate(sorted(set(keys)))}
    crit: list = [None] * len(rank)
    for x, key in zip(xs, keys):
        crit[rank[key]] = x
    return crit, [rank[key] for key in keys]


def _build(vertices, edges, extra_criticals):
    """Shared constructor: check the ids and the ends of each edge, then
    place the graph by `_place`. Returns (graph, edge id -> segment
    tuple, split vertex -> owner edge)."""
    values: dict[str, Fraction] = {}
    for item in vertices.items() if isinstance(vertices, dict) else vertices:
        try:
            vid, val = item
        except (TypeError, ValueError):
            raise ValidationError(f"vertex item {item!r} is not an (id, value) pair") from None
        vid = str(vid)
        if vid in values:
            raise ValidationError(f"duplicate vertex id {vid!r}")
        values[vid] = as_rational(val)
    ends: dict[str, tuple[str, str]] = {}
    for eid, lo, hi in _edge_triples(edges):
        if eid in ends:
            raise ValidationError(f"duplicate edge id {eid!r}")
        ends[eid] = (lo, hi)
    for eid, (lo, hi) in ends.items():
        for end in (lo, hi):
            if end not in values:
                raise ValidationError(f"edge {eid!r}: unknown vertex {end!r}")
    return _place(values, ends, map(as_rational, extra_criticals))


def _place(values: dict[str, Fraction], ends: dict[str, tuple[str, str]], extra):
    """Place vertices (id -> value) and edges (id -> (lower, upper)),
    whose ends are known, with the extra critical values: reject an id
    used for both a vertex and an edge, rank the values once, check on
    the ranks that each edge rises, and split each edge over the
    criticals it passes. Shared by `build_rgraph` and the graph-file
    parser; returns what `_split` does."""
    clash = ends.keys() & values.keys()
    if clash:
        raise ValidationError(f"ids used for both a vertex and an edge: {sorted(clash)}")
    crit, ranks = _ranked([*values.values(), *extra])
    level = dict(zip(values, ranks))
    placed: list[tuple[str, str, str, int, int]] = []
    for eid, (lo, hi) in ends.items():
        i, j = level[lo], level[hi]
        if i >= j:
            raise ValidationError(
                f"edge {eid!r} must rise: need f({lo!r}) < f({hi!r}), "
                f"got {format_rational(values[lo])} and {format_rational(values[hi])}")
        placed.append((eid, lo, hi, i, j))
    return _split(crit, level.items(), placed, values.keys() | ends.keys())


def _split(crit, vertices, edges, used):
    """Place (id, level) vertices and (id, lower, upper, lower level, upper
    level) edges over the ranked criticals `crit`, cutting an edge that
    passes a critical into segments `id:0`, `id:1`, ... joined by vertices
    `id@value`, each name primed until not in `used`. Returns (graph, edge
    id -> segment tuple, split vertex -> owner edge)."""
    levels: list[list[str]] = [[] for _ in crit]
    for vid, k in vertices:
        levels[k].append(vid)
    fmt: list[str | None] = [None] * len(crit)      # each split critical's text
    n_slots = max(0, len(crit) - 1)
    down: list[dict[str, str]] = [{} for _ in range(n_slots)]
    up: list[dict[str, str]] = [{} for _ in range(n_slots)]
    edge_map: dict[str, tuple[str, ...]] = {}
    split_vertices: dict[str, str] = {}
    for eid, lo, hi, i, j in edges:
        if j == i + 1:
            down[i][eid] = lo
            up[i][eid] = hi
            edge_map[eid] = (eid,)
        else:
            segs: list[str] = []
            bottom = lo
            for k in range(i, j):
                if k + 1 == j:
                    top = hi
                else:
                    fmt[k + 1] = fmt[k + 1] or format_rational(crit[k + 1])
                    top = _fresh(f"{eid}@{fmt[k + 1]}", used)
                    levels[k + 1].append(top)
                    split_vertices[top] = eid
                seg = _fresh(f"{eid}:{k - i}", used)
                down[k][seg] = bottom
                up[k][seg] = top
                segs.append(seg)
                bottom = top
            edge_map[eid] = tuple(segs)
    return _assemble(crit, levels, down, up), edge_map, split_vertices


def build_rgraph(vertices, edges=(), criticals=()) -> RGraph:
    """Build a graph from (id, value) vertices and (id, low, high) edges.

    Criticals default to the set of vertex values; extra criticals add
    (possibly empty) levels. Edges whose endpoints are not at adjacent
    criticals are split automatically with generated ids.
    """
    g, _, _ = _build(vertices, edges, criticals)
    return g


@dataclass(frozen=True)
class RefineResult:
    graph: RGraph
    edge_map: dict[str, tuple[str, ...]]   # old edge -> bottom-to-top segments
    split_vertices: dict[str, str]          # generated vertex -> old edge


def refine(g: RGraph, extra) -> RefineResult:
    """Split edges at the given extra critical values (values already
    present are ignored; values outside the range add empty levels).
    The extras join g's criticals on one integer scale, and g's edges are
    cut by the routine `build_rgraph` uses; g is taken to be valid."""
    crit, ranks = _ranked([*g.criticals, *map(as_rational, extra)])
    at = ranks[:g.n_levels]                           # each old level's new one
    vertices = [(v, k) for k, lev in zip(at, g.levels) for v in lev]
    edges = [(e, g.down[j][e], g.up[j][e], at[j], at[j + 1])
             for j, slot in enumerate(g.slots) for e in slot]
    return RefineResult(*_split(crit, vertices, edges, {*g.vertex_ids, *g.edge_ids}))


@dataclass(frozen=True)
class ReduceResult:
    graph: RGraph
    edge_map: dict[str, str]             # old edge -> merged edge it is part of
    dropped_vertices: dict[str, str]     # dropped vertex -> merged edge through it
    chains: dict[str, tuple[str, ...]]   # merged edge -> ordered old constituents


def reduce(g: RGraph) -> ReduceResult:
    """Drop every level whose vertices all have exactly one edge below and
    one above (pass-through points), merging edge chains across it; empty
    levels are dropped too. The result has the minimal critical set that
    still presents the same graph."""
    droppable = [
        all(g.down_degree(v) == 1 and g.up_degree(v) == 1 for v in lev)
        for lev in g.levels
    ]
    kept = [i for i, d in enumerate(droppable) if not d]
    if not kept:
        return ReduceResult(empty_rgraph(), {}, {}, {})

    crit = [g.criticals[i] for i in kept]
    levels = [g.levels[i] for i in kept]
    down: list[dict[str, str]] = []
    up: list[dict[str, str]] = []
    edge_map: dict[str, str] = {}
    dropped_vertices: dict[str, str] = {}
    chains: dict[str, tuple[str, ...]] = {}
    for p, q in zip(kept, kept[1:]):
        dn: dict[str, str] = {}
        u: dict[str, str] = {}
        for e in g.slots[p]:
            chain = [e]
            cur, s = e, p
            while s + 1 < q:
                v = g.up[s][cur]
                cur = g.above_edges[v][0]
                dropped_vertices[v] = e
                chain.append(cur)
                s += 1
            dn[e] = g.down[p][e]
            u[e] = g.up[q - 1][cur]
            chains[e] = tuple(chain)
            for c in chain:
                edge_map[c] = e
        down.append(dn)
        up.append(u)
    return ReduceResult(_assemble(crit, levels, down, up),
                        edge_map, dropped_vertices, chains)


def common_refinement(g: RGraph, h: RGraph) -> tuple[RefineResult, RefineResult]:
    """Refine each graph at the other's criticals so both share one set."""
    return refine(g, h.criticals), refine(h, g.criticals)


def component_sets(g: RGraph, vertex_ids, edge_ids) -> list[frozenset[str]]:
    """Connected components of the subgraph spanned by the given cells.

    An edge is joined to whichever of its endpoints are included; order of
    the returned components is deterministic.
    """
    uf = UnionFind()
    vset = set(vertex_ids)
    for v in vertex_ids:
        uf.add(v)
    for e in edge_ids:
        uf.add(e)
    for e in edge_ids:
        j = g.edge_slot[e]
        for endpoint in (g.down[j][e], g.up[j][e]):
            if endpoint in vset:
                uf.union(e, endpoint)
    return [frozenset(grp) for grp in uf.groups()]


def num_components(g: RGraph) -> int:
    return len(component_sets(g, g.vertex_ids, g.edge_ids))


def minimum_gap(g: RGraph) -> Fraction | None:
    if len(g.criticals) < 2:
        return None
    return min(b - a for a, b in zip(g.criticals, g.criticals[1:]))


def keyed_name(kind: str, index: int, member: str) -> str:
    """A level ("v") or slot ("e") cell's name from the least member of its
    component; the components at one index are disjoint, so it is unique."""
    return f"{kind}({index};{member})"


def canonical_vertex_name(level_index: int, cells) -> str:
    """The name of the level cell whose component is `cells`."""
    return keyed_name("v", level_index, min(cells))


def canonical_edge_name(slot_index: int, cells) -> str:
    """The name of the slot cell whose component is `cells`."""
    return keyed_name("e", slot_index, min(cells))


# ---------------------------------------------------------------------------
# Desk fixtures used throughout the test suite.

def line(a=0, b=1) -> RGraph:
    """One edge between single vertices at values a < b."""
    return build_rgraph([("v0", a), ("v1", b)], [("e0", "v0", "v1")])


def loop(a=0, b=1) -> RGraph:
    """Two parallel edges between single vertices at values a < b."""
    return build_rgraph([("v0", a), ("v1", b)],
                        [("e0", "v0", "v1"), ("e1", "v0", "v1")])


def point(a=0) -> RGraph:
    """A single isolated vertex."""
    return build_rgraph([("v0", a)])


def fork() -> RGraph:
    """A vertex at -1 joined to a branch vertex at 0 with two prongs at 1."""
    return build_rgraph(
        [("u", -1), ("w", 0), ("x", 1), ("y", 1)],
        [("uw", "u", "w"), ("wx", "w", "x"), ("wy", "w", "y")])


def empty_rgraph() -> RGraph:
    return _assemble((), (), (), ())
