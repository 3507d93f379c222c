"""Thickening a graph over the real line by a radius.

For radius eps > 0 the smoothed graph's cells are the connected
components of closed windows [t - eps, t + eps]: a vertex of the output
sits over t for each window component at a critical position t, an edge
sits over a gap between neighbouring critical positions for each
component there. The critical positions of the output are the input's
criticals shifted both ways, B = (S - eps) union (S + eps). A window
contains an input vertex when its value lies in the closed interval and
an input edge when the open span (x - eps, y + eps) of its thickened
image meets t, i.e. x < t + eps and y > t - eps.

Cells are named after their component's least member, its members being
kept in the provenance, so the two implementations below (direct
per-window recomputation, and a single sweep that slides a union-find
over the links live at each position) emit bit-identical presentations.
The sweep builds only the smoothed graph up front. It reads each name off
the least cell a union-find root holds; it keeps, as integers, the least
cell under each input vertex and under each input edge at each slot it
meets, and names the canonical map from them on the first read of
`zeta`; and it walks the members of each record's component, once, on
the first read of `provenance`.

At eps = 0 windows degenerate to points and the attach rule through
window overlaps breaks down, so that case is a plain renaming of the
input.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .core import (RGraph, _assemble, canonical_edge_name,
                   canonical_vertex_name, component_sets, keyed_name)
from .dynconn import make_forest
from .errors import InternalError
from .morphism import (RGraphMorphism, compose, identity, is_isomorphism,
                       morphism_equal, smoothed_pull, transport)
from .rationals import as_radius, scaled


@dataclass(frozen=True)
class SmoothingResult:
    """The eps-smoothing of `source`: the smoothed graph, and, each built
    on its first read and kept, the canonical map `zeta`, the
    `provenance` and the `position_index`. The constructor takes the
    functions of no arguments that build the map and the provenance;
    equality compares the source, the radius and the smoothed graph."""
    source: RGraph
    epsilon: Fraction
    smoothed: RGraph
    _build_zeta: Callable[[], RGraphMorphism] = field(compare=False, repr=False)
    _build_provenance: Callable[[], dict[str, frozenset]] = field(compare=False, repr=False)

    @cached_property
    def zeta(self) -> RGraphMorphism:
        """The canonical map source -> smoothed."""
        return self._build_zeta()

    @cached_property
    def provenance(self) -> dict[str, frozenset]:
        """Smoothed cell -> the source cells it came from."""
        return self._build_provenance()

    @cached_property
    def position_index(self) -> dict[tuple[int, str], str]:
        """(doubled position, source cell) -> the smoothed cell holding that
        source cell there; the doubled position is 2k on level k and 2j+1
        on slot j. For window transport."""
        g = self.smoothed
        index = {}
        for pos, name in (*((2 * k, v) for v, k in g.vertex_level.items()),
                          *((2 * j + 1, e) for e, j in g.edge_slot.items())):
            for c in self.provenance[name]:
                index[(pos, c)] = name
        return index


def smooth(g: RGraph, eps) -> SmoothingResult:
    """The eps-smoothing of g with its canonical map, by the sweep;
    `smooth_naive` is the reference the tests compare it with."""
    return smooth_sweep(g, eps)


def _relabel_zero(g: RGraph) -> SmoothingResult:
    # each cell is its own one-member component, keyed by its id
    vname = {v: keyed_name("v", k, v) for k, lev in enumerate(g.levels) for v in lev}
    ename = {e: keyed_name("e", j, e) for j, slot in enumerate(g.slots) for e in slot}
    levels = [[vname[v] for v in lev] for lev in g.levels]
    down = [{ename[e]: vname[g.down[j][e]] for e in slot} for j, slot in enumerate(g.slots)]
    up = [{ename[e]: vname[g.up[j][e]] for e in slot} for j, slot in enumerate(g.slots)]
    provenance = {n: frozenset((c,)) for c, n in (*vname.items(), *ename.items())}
    zeta_v = {v: ("vertex", n) for v, n in vname.items()}
    zeta_e = {e: (n,) for e, n in ename.items()}
    smoothed = _assemble(g.criticals, levels, down, up)
    zeta = RGraphMorphism(g, smoothed, zeta_v, zeta_e)
    return SmoothingResult(g, Fraction(0), smoothed, lambda: zeta, lambda: provenance)


def _span_positions(B, x: Fraction, y: Fraction) -> tuple[int, int]:
    """First and last output slot met by the open interval (x, y)."""
    kx = bisect.bisect_left(B, x)
    j_start = kx if (kx < len(B) and B[kx] == x) else kx - 1
    j_end = bisect.bisect_left(B, y) - 1
    return j_start, j_end


def smooth_naive(g: RGraph, eps: Fraction) -> SmoothingResult:
    """Reference implementation: recompute the window components at every
    output level and every output slot midpoint independently."""
    eps = as_radius(eps, "smoothing")
    if eps == 0:
        return _relabel_zero(g)
    S = g.criticals
    B = sorted({s - eps for s in S} | {s + eps for s in S})
    K = len(B)

    def window_cells(lo, hi):
        vs = []
        for i in range(bisect.bisect_left(S, lo), bisect.bisect_right(S, hi)):
            vs.extend(g.levels[i])
        es = []
        for j in range(max(0, bisect.bisect_right(S, lo) - 1),
                       min(g.n_slots, bisect.bisect_left(S, hi))):
            es.extend(g.slots[j])
        return vs, es

    provenance: dict[str, frozenset] = {}
    levels = []
    level_lookup: list[dict[str, str]] = []
    for k in range(K):
        vs, es = window_cells(B[k] - eps, B[k] + eps)
        names = []
        lookup = {}
        for comp in component_sets(g, vs, es):
            name = canonical_vertex_name(k, comp)
            names.append(name)
            provenance[name] = comp
            for c in comp:
                lookup[c] = name
        levels.append(names)
        level_lookup.append(lookup)

    slot_lookup: list[dict[str, str]] = []
    down = [dict() for _ in range(K - 1)]
    up = [dict() for _ in range(K - 1)]
    for j in range(K - 1):
        mid = (B[j] + B[j + 1]) / 2
        vs, es = window_cells(mid - eps, mid + eps)
        lookup = {}
        for comp in component_sets(g, vs, es):
            name = canonical_edge_name(j, comp)
            provenance[name] = comp
            for c in comp:
                lookup[c] = name
            down[j][name] = next(level_lookup[j][c] for c in sorted(comp)
                                 if c in level_lookup[j])
            up[j][name] = next(level_lookup[j + 1][c] for c in sorted(comp)
                               if c in level_lookup[j + 1])
        slot_lookup.append(lookup)

    smoothed = _assemble(B, levels, down, up)

    zeta_v: dict[str, tuple[str, str]] = {}
    for v in g.vertex_ids:
        val = g.value(v)
        k = bisect.bisect_left(B, val)
        if k < K and B[k] == val:
            zeta_v[v] = ("vertex", level_lookup[k][v])
        else:
            zeta_v[v] = ("edge", slot_lookup[k - 1][v])
    zeta_e: dict[str, tuple[str, ...]] = {}
    for e in g.edge_ids:
        x, y = g.span(e)
        j_start, j_end = _span_positions(B, x, y)
        zeta_e[e] = tuple(slot_lookup[j][e] for j in range(j_start, j_end + 1))
    zeta = RGraphMorphism(g, smoothed, zeta_v, zeta_e)
    return SmoothingResult(g, eps, smoothed, lambda: zeta, lambda: provenance)


def _walk(adjacent: list[list[tuple[int, int, int]]], start: int, pos: int) -> set[int]:
    """The cells joined to `start` by links live at doubled position `pos`;
    `adjacent` lists each cell's links as (first, last, other end)."""
    seen = {start}
    stack = [start]
    while stack:
        for first, last, y in adjacent[stack.pop()]:
            if first <= pos <= last and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _provenance(where: dict[str, tuple[int, int]], cells: list[str],
                groups: list, lifetimes: list) -> dict[str, frozenset]:
    """Smoothed cell -> the source cells of its window component, walked
    over the sweep's link groups. Each name holds its doubled position and
    its least cell; the cells of one record hold the same pair, so they
    share one walk and one frozenset."""
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in cells]
    for (first, last), group in zip(lifetimes, groups):
        for a, b in group:
            adjacent[a].append((first, last, b))
            adjacent[b].append((first, last, a))
    walked: dict[tuple[int, int], frozenset] = {}
    provenance = {}
    for name, at in where.items():
        if at not in walked:
            pos, key = at
            members = _walk(adjacent, key, pos)
            if min(members) != key:
                raise InternalError(f"provenance of {name!r}, walked at "
                                    f"{'slot' if pos & 1 else 'level'} {pos >> 1}, "
                                    f"reaches {cells[min(members)]!r} below "
                                    f"{cells[key]!r}")
            walked[at] = frozenset([cells[c] for c in members])
        provenance[name] = walked[at]
    return provenance


@dataclass(slots=True, eq=False)
class _Record:
    """One maximal run of a window component between two events: born at
    event `birth` out of vertex `bottom`, carrying a constant cell set
    whose least member, cell number `key`, names every level and slot it
    spans, sealed at `death` into `top`."""
    birth: int
    bottom: str
    key: int
    death: int | None = None
    top: str | None = None


def smooth_sweep(g: RGraph, eps: Fraction) -> SmoothingResult:
    """Single pass over the output criticals, on integers: eps and S times
    their least common denominator. Every edge-endpoint link's window
    lifetime is known up front; listed slot by slot, lower links then
    upper, the lifetimes increase at both ends, so a union-find sliding
    over that list holds the window at each level and each gap in turn.
    A level names the components an event touches and seals their
    records, the gap above it opens their successors. Cells
    are numbered in name order, so the least cell a union-find root holds
    names its component, and no component is walked. The canonical map
    keeps only those least cells until it is first read."""
    eps = as_radius(eps, "smoothing")
    if eps == 0:
        return _relabel_zero(g)
    scale, (e, *S) = scaled((eps, *g.criticals))
    # B is the union of the two shifts of S; each input critical enters the
    # window at B[enter[i]] = S[i] - eps and leaves it at B[leave[i]] = S[i] + eps,
    # and sits at doubled position pos[i] (2k on B[k], 2k+1 in the gap above it)
    B = sorted({*(s - e for s in S), *(s + e for s in S)})
    K = len(B)
    index = {b: k for k, b in enumerate(B)}
    enter = [index[s - e] for s in S]
    leave = [index[s + e] for s in S]
    pos = [2 * index[s] if s in index else 2 * bisect.bisect_left(B, s) - 1 for s in S]
    B = [Fraction(b, scale) for b in B]

    # cells are numbered in name order. Per output level k, the cells whose
    # components it names (input vertices entering the window there, then
    # those leaving: one input level each at most), those that open records
    # in the gap above (entering vertices, edges over leaving ones) and
    # those whose records it seals (leaving vertices, edges under entering
    # ones); per position, the input vertices lying there
    cells = sorted((*g.vertex_ids, *g.edge_ids))
    num = {c: n for n, c in enumerate(cells)}
    levels = [tuple([num[v] for v in lev]) for lev in g.levels]
    touch, opens, seals = [()] * K, [()] * K, [()] * K
    lying_at: list[tuple[int, ...]] = [()] * (2 * K - 1)
    for lev, k, p in zip(levels, enter, pos):
        touch[k] += lev
        opens[k] += lev
        lying_at[p] += lev
    for lev, k in zip(levels, leave):
        touch[k] += lev
        seals[k] += lev

    # each edge-endpoint link lives over the doubled positions where both
    # ends are in the window: a vertex at S[i] is there over [2 enter[i],
    # 2 leave[i]], an edge over slot j over [2 enter[j] + 1, 2 leave[j + 1] - 1].
    # groups[2j] holds slot j's (edge, lower end) links and groups[2j + 1]
    # its (edge, upper end) links, with their shared lifetimes; both ends of
    # these strictly increase along the list. `meeting` lists per output
    # slot the input edges whose open span meets it
    groups: list[tuple[tuple[int, int], ...]] = []
    lifetimes: list[tuple[int, int]] = []
    meeting: list[tuple[int, ...]] = [()] * max(0, K - 1)
    for j, slot in enumerate(g.slots):
        # in slot order: the order within a group changes no partition and
        # no least member
        ends = [(num[g.down[j][x]], num[x], num[g.up[j][x]]) for x in slot]
        xs = tuple([x for _, x, _ in ends])
        opens[leave[j]] += xs
        seals[enter[j + 1]] += xs
        for i in range(pos[j] // 2, (pos[j + 1] + 1) // 2):
            meeting[i] += xs
        # as tuples of int pairs, which the cyclic collector stops tracking,
        # so its full passes during a long sweep do not walk them again
        groups += (tuple([(x, d) for d, x, _ in ends]), tuple([(x, u) for _, x, u in ends]))
        lifetimes += ((2 * enter[j] + 1, 2 * leave[j]),
                      (2 * enter[j + 1], 2 * leave[j + 1] - 1))
    H = make_forest(len(cells), groups)
    # read its lists and walk each root inline, as `RollbackUnionFind._push`
    # does: a method call per query costs more than the walk
    parent, least, slide = H.parent, H.least, H.slide
    records: list[_Record] = []
    # least member -> the latest record it keys (live components are disjoint)
    rec_of: list[_Record | None] = [None] * len(cells)
    level_names: list[list[str]] = [[] for _ in range(K)]
    where: dict[str, tuple[int, int]] = {}    # name -> (doubled position, least cell)
    # for the canonical map: per input vertex, the least cell of its
    # component at the position where it lies; per output slot k in turn,
    # those of the edges in meeting[k]
    lying_least = [0] * len(cells)
    meeting_least: list[int] = []
    # (cell, its least member at the gap before) for the next level's handles
    pre: list[tuple[int, int]] = []

    # at position p, H holds the groups whose lifetime has not ended
    # before p and has begun by p
    lo = hi = 0
    n_groups = len(groups)
    for p in range(2 * K - 1):
        while hi < n_groups and lifetimes[hi][0] <= p:
            hi += 1
        while lo < hi and lifetimes[lo][1] < p:
            lo += 1
        slide(lo, hi)
        k = p >> 1
        for v in lying_at[p]:               # input vertices lying here
            r = v
            while (q := parent[r]) != r:
                r = q
            lying_least[v] = least[r]
        if not p & 1:
            # H holds the window at B[k]: vertices at B[k] + eps have just
            # arrived, edges over vertices at B[k] - eps have just gone.
            # Name the window components the event touches and seal the
            # records they grew from.
            named: dict[int, str] = {}
            for v in touch[k]:
                while (q := parent[v]) != v:
                    v = q
                m = least[v]
                if m not in named:
                    named[m] = nu = keyed_name("v", k, cells[m])
                    level_names[k].append(nu)
                    where[nu] = (p, m)
            for x, m in pre:
                rec = rec_of[m]
                if rec.death is None:
                    while (q := parent[x]) != x:
                        x = q
                    rec.death = k
                    rec.top = named[least[x]]

            # an entering vertex, or an edge over a leaving one, opens a
            # record in the gap above from the component named for it here
            post: list[tuple[int, str]] = []
            for x in opens[k]:
                r = x
                while (q := parent[r]) != r:
                    r = q
                bottom = named.get(least[r])
                if bottom is None:
                    raise InternalError(f"component with no anchor at its birth event: "
                                        f"{cells[x]!r} opens a component in slot {k} "
                                        f"but lies in no component named at level {k}")
                post.append((x, bottom))
            continue

        # H holds the window over the gap above B[k]: leaving vertices have
        # gone, edges over entering vertices have arrived. Open records for
        # the components the event touched.
        for x, bottom in post:
            while (q := parent[x]) != x:
                x = q
            m = least[x]
            if rec_of[m] is None or rec_of[m].birth != k:     # not yet opened here
                rec_of[m] = _Record(k, bottom, m)
                records.append(rec_of[m])
        pre = []
        for x in seals[k + 1]:
            r = x
            while (q := parent[r]) != r:
                r = q
            pre.append((x, least[r]))
        for x in meeting[k]:                # input edges meeting this gap
            while (q := parent[x]) != x:
                x = q
            meeting_least.append(least[x])

    down: list[dict[str, str]] = [dict() for _ in range(max(0, K - 1))]
    up: list[dict[str, str]] = [dict() for _ in range(max(0, K - 1))]
    for rec in records:
        if rec.death is None:
            raise InternalError(f"unsealed component record after the sweep: the "
                                f"component of {cells[rec.key]!r} born into "
                                f"slot {rec.birth}")
        key, at = cells[rec.key], (2 * rec.birth + 1, rec.key)
        inner = [keyed_name("v", j, key) for j in range(rec.birth + 1, rec.death)]
        for j, nm in enumerate(inner, rec.birth + 1):
            level_names[j].append(nm)
            where[nm] = at
        ends = [rec.bottom, *inner, rec.top]      # its vertices, bottom to top
        for j in range(rec.birth, rec.death):
            en = keyed_name("e", j, key)
            where[en] = at
            down[j][en] = ends[j - rec.birth]
            up[j][en] = ends[j - rec.birth + 1]
    smoothed = _assemble(B, level_names, down, up)

    def zeta() -> RGraphMorphism:
        # a vertex lying on level k maps to v(k;m), one inside slot k to
        # e(k;m); an edge to the e(k;m) of each slot k it meets, in order
        zeta_v: dict[str, tuple[str, str]] = {}
        for lev, p in zip(levels, pos):
            kind, prefix = ("edge", "e") if p & 1 else ("vertex", "v")
            for v in lev:
                zeta_v[cells[v]] = (kind, keyed_name(prefix, p >> 1, cells[lying_least[v]]))
        zeta_e: dict[str, list[str]] = {e: [] for e in g.edge_ids}
        ms = iter(meeting_least)
        for k, xs in enumerate(meeting):
            for x, m in zip(xs, ms):
                zeta_e[cells[x]].append(keyed_name("e", k, cells[m]))
        return RGraphMorphism(g, smoothed, zeta_v, {e: tuple(im) for e, im in zeta_e.items()})

    return SmoothingResult(g, eps, smoothed, zeta,
                           lambda: _provenance(where, cells, groups, lifetimes))


@dataclass(frozen=True)
class ComposeResult:
    """Smoothing twice against smoothing once by the summed radius."""
    total: SmoothingResult        # smooth(g, eps1 + eps2)
    first: SmoothingResult        # smooth(g, eps1)
    second: SmoothingResult       # smooth(first.smoothed, eps2)
    witness: RGraphMorphism       # isomorphism second.smoothed -> total.smoothed
    coherent: bool                # witness after the two canonical maps equals
                                  # the one-step canonical map


def compose_smoothings(g: RGraph, eps1, eps2) -> ComposeResult:
    eps1 = as_radius(eps1, "smoothing")
    eps2 = as_radius(eps2, "smoothing")
    first = smooth(g, eps1)
    second = smooth(first.smoothed, eps2)
    total = smooth(g, eps1 + eps2)
    witness = transport(second.smoothed,
                        smoothed_pull(identity(first.smoothed), second, first), total)
    if not is_isomorphism(witness):
        raise InternalError("iterated smoothing witness is not invertible")
    zz = compose(first.zeta, second.zeta)
    coherent = morphism_equal(compose(zz, witness), total.zeta)
    return ComposeResult(total, first, second, witness, coherent)
