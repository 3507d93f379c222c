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

Cells are named after their component's member cells, so the two
implementations below (direct per-window recomputation, and a single
sweep maintaining a spanning forest under timed deletions) emit
bit-identical presentations.

At eps = 0 windows degenerate to points and the attach rule through
window overlaps breaks down, so that case is a plain renaming of the
input.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (RGraph, _assemble, canonical_edge_name,
                   canonical_vertex_name, component_sets)
from .dynconn import make_forest
from .errors import InternalError, ValidationError
from .morphism import (RGraphMorphism, compose, identity, is_isomorphism,
                       morphism_equal, smoothed_pull, transport)
from .rationals import as_rational


@dataclass(frozen=True)
class SmoothingResult:
    source: RGraph
    epsilon: Fraction
    smoothed: RGraph
    zeta: RGraphMorphism                 # the canonical map source -> smoothed
    provenance: dict[str, frozenset]     # smoothed cell -> source cells it came from

    @cached_property
    def position_index(self) -> dict[tuple[int, str], str]:
        """(doubled position, source cell) -> the smoothed cell holding that
        source cell there; the doubled position is 2k on level k and 2j+1
        on slot j. Built on first use, for window transport."""
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
    levels = [[canonical_vertex_name(k, (v,)) for v in lev]
              for k, lev in enumerate(g.levels)]
    slots = [[canonical_edge_name(j, (e,)) for e in slot]
             for j, slot in enumerate(g.slots)]
    down = [dict() for _ in g.slots]
    up = [dict() for _ in g.slots]
    provenance: dict[str, frozenset] = {}
    zeta_v: dict[str, tuple[str, str]] = {}
    zeta_e: dict[str, tuple[str, ...]] = {}
    for k, lev in enumerate(g.levels):
        for v in lev:
            name = canonical_vertex_name(k, (v,))
            provenance[name] = frozenset((v,))
            zeta_v[v] = ("vertex", name)
    for j, slot in enumerate(g.slots):
        for e in slot:
            name = canonical_edge_name(j, (e,))
            provenance[name] = frozenset((e,))
            zeta_e[e] = (name,)
            down[j][name] = canonical_vertex_name(j, (g.down[j][e],))
            up[j][name] = canonical_vertex_name(j + 1, (g.up[j][e],))
    smoothed = _assemble(g.criticals, levels, slots, down, up)
    zeta = RGraphMorphism(g, smoothed, zeta_v, zeta_e)
    return SmoothingResult(g, Fraction(0), smoothed, zeta, provenance)


def _span_positions(B, x: Fraction, y: Fraction) -> tuple[int, int]:
    """First and last output slot met by the open interval (x, y)."""
    kx = bisect.bisect_left(B, x)
    j_start = kx if (kx < len(B) and B[kx] == x) else kx - 1
    j_end = bisect.bisect_left(B, y) - 1
    return j_start, j_end


def smooth_naive(g: RGraph, eps: Fraction) -> SmoothingResult:
    """Reference implementation: recompute the window components at every
    output level and every output slot midpoint independently."""
    eps = as_rational(eps)
    if eps < 0:
        raise ValidationError("smoothing radius must be nonnegative")
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

    slots = []
    slot_lookup: list[dict[str, str]] = []
    down = [dict() for _ in range(K - 1)]
    up = [dict() for _ in range(K - 1)]
    for j in range(K - 1):
        mid = (B[j] + B[j + 1]) / 2
        vs, es = window_cells(mid - eps, mid + eps)
        names = []
        lookup = {}
        for comp in component_sets(g, vs, es):
            name = canonical_edge_name(j, comp)
            names.append(name)
            provenance[name] = comp
            for c in comp:
                lookup[c] = name
            down[j][name] = next(level_lookup[j][c] for c in sorted(comp)
                                 if c in level_lookup[j])
            up[j][name] = next(level_lookup[j + 1][c] for c in sorted(comp)
                               if c in level_lookup[j + 1])
        slots.append(names)
        slot_lookup.append(lookup)

    smoothed = _assemble(B, levels, slots, down, up)

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
    return SmoothingResult(g, eps, smoothed, zeta, provenance)


class _Record:
    """One maximal run of a window component between two events: born at
    event `birth` out of vertex `bottom`, carrying a constant cell set,
    sealed at event `death` into vertex `top`."""
    __slots__ = ("birth", "bottom", "contents", "death", "top")

    def __init__(self, birth: int, bottom: str, contents: frozenset):
        self.birth = birth
        self.bottom = bottom
        self.contents = contents
        self.death: int | None = None
        self.top: str | None = None


def smooth_sweep(g: RGraph, eps: Fraction, forest: str = "lct") -> SmoothingResult:
    """Single pass over the output criticals, maintaining a spanning forest
    of the current window. Link weights are their scheduled deletion times
    (the index of the event at which the vertex endpoint leaves the
    window), so the forest's replacement rule keeps deletions
    replacement-free."""
    eps = as_rational(eps)
    if eps < 0:
        raise ValidationError("smoothing radius must be nonnegative")
    if eps == 0:
        return _relabel_zero(g)
    S = g.criticals
    B = sorted({s - eps for s in S} | {s + eps for s in S})
    K = len(B)
    idx = {b: k for k, b in enumerate(B)}

    # each input critical's doubled position on B (2k on B[k], 2k+1 in the
    # gap above it), by one merge pass, and the event at which it leaves
    pos: list[int] = []
    k = 0
    for s in S:
        while B[k] < s:
            k += 1
        pos.append(2 * k if B[k] == s else 2 * k - 1)
    leave = [idx[s + eps] for s in S]

    enter_at: list[list[str]] = [[] for _ in range(K)]
    leave_at: list[list[str]] = [[] for _ in range(K)]
    by_level: list[list[str]] = [[] for _ in range(K)]
    by_slot: list[list[str]] = [[] for _ in range(K)]
    for i, lev in enumerate(g.levels):
        enter_at[idx[S[i] - eps]].extend(lev)
        leave_at[leave[i]].extend(lev)
        (by_slot if pos[i] % 2 else by_level)[pos[i] // 2].extend(lev)

    H = make_forest(forest)
    records: list[_Record] = []
    rec_of: dict[str, _Record] = {}
    edge_records: dict[str, list[_Record]] = {e: [] for e in g.edge_ids}
    level_names: list[list[str]] = [[] for _ in range(K)]
    provenance: dict[str, frozenset] = {}
    zeta_v: dict[str, tuple[str, str]] = {}

    for k in range(K):
        entering = enter_at[k]
        leaving = leave_at[k]

        # seal the records whose component is touched at this event
        popped: list[tuple[_Record, str]] = []
        seen: set[int] = set()
        handles: list[str] = list(leaving)
        for v in entering:
            handles.extend(g.below_edges[v])
        for cell in handles:
            rec = rec_of[cell]
            if id(rec) not in seen:
                seen.add(id(rec))
                rec.death = k
                popped.append((rec, cell))

        # bring the forest to the window at B[k]: edges whose top endpoint
        # leaves now die, vertices whose value is B[k] + eps arrive
        for v in leaving:
            for e in g.below_edges[v]:
                lo_v, hi_v = g.endpoints(e)
                H.delete(e, lo_v)
                H.delete(e, hi_v)
                H.remove_node(e)
        for v in entering:
            H.add_node(v)
            w = leave[g.vertex_level[v]]
            for e in g.below_edges[v]:
                H.insert(e, v, w)

        # name the window components touched by the event
        cell_to_nu: dict[str, str] = {}
        for v in entering + leaving:
            if v in cell_to_nu:
                continue
            comp = H.component(v)
            name = canonical_vertex_name(k, comp)
            level_names[k].append(name)
            provenance[name] = comp
            for c in comp:
                cell_to_nu[c] = name
        for rec, cell in popped:
            rec.top = cell_to_nu[cell]

        # slide past B[k]: leaving vertices go, edges over their upper
        # endpoints arrive
        for v in leaving:
            for e in g.above_edges[v]:
                H.delete(v, e)
            H.remove_node(v)
        for v in entering:
            w = leave[g.vertex_level[v]]
            for e in g.above_edges[v]:
                H.add_node(e)
                H.insert(e, v, w)

        # open records for the components continuing into the next gap
        post_handles: list[str] = list(entering)
        for v in leaving:
            post_handles.extend(g.above_edges[v])
        born: dict[str, _Record] = {}
        for cell in post_handles:
            if cell in born:
                continue
            comp = H.component(cell)
            bottom = None
            for c in comp:
                nu = cell_to_nu.get(c)
                if nu is not None:
                    bottom = nu
                    break
            if bottom is None:
                raise InternalError("component with no anchor at its birth event")
            rec = _Record(k, bottom, comp)
            records.append(rec)
            born.update(dict.fromkeys(comp, rec))

        # vertices sitting exactly on this output level
        for v in by_level[k]:
            nu = cell_to_nu.get(v)
            if nu is not None:
                zeta_v[v] = ("vertex", nu)
            else:
                zeta_v[v] = ("vertex", canonical_vertex_name(k, rec_of[v].contents))

        for rec, _ in popped:
            for c in rec.contents:
                rec_of.pop(c, None)
        rec_of.update(born)
        for c, rec in born.items():
            if c in edge_records:
                edge_records[c].append(rec)

        # vertices sitting strictly inside the next gap
        if k < K - 1:
            for v in by_slot[k]:
                zeta_v[v] = ("edge", canonical_edge_name(k, rec_of[v].contents))

    levels_out = [list(names) for names in level_names]
    slots_out: list[list[str]] = [[] for _ in range(max(0, K - 1))]
    down: list[dict[str, str]] = [dict() for _ in range(max(0, K - 1))]
    up: list[dict[str, str]] = [dict() for _ in range(max(0, K - 1))]
    for rec in records:
        if rec.death is None:
            raise InternalError("unsealed component record after the sweep")
        for j in range(rec.birth + 1, rec.death):
            nm = canonical_vertex_name(j, rec.contents)
            levels_out[j].append(nm)
            provenance[nm] = rec.contents
        for j in range(rec.birth, rec.death):
            en = canonical_edge_name(j, rec.contents)
            slots_out[j].append(en)
            provenance[en] = rec.contents
            down[j][en] = (rec.bottom if j == rec.birth
                           else canonical_vertex_name(j, rec.contents))
            up[j][en] = (rec.top if j == rec.death - 1
                         else canonical_vertex_name(j + 1, rec.contents))
    smoothed = _assemble(B, levels_out, slots_out, down, up)

    zeta_e: dict[str, tuple[str, ...]] = {}
    for i, slot in enumerate(g.slots):
        # output slots met by the open span (S[i], S[i + 1])
        j_start, j_stop = pos[i] // 2, (pos[i + 1] + 1) // 2
        for e in slot:
            zeta_e[e] = tuple(canonical_edge_name(j, rec.contents)
                              for rec in edge_records[e]
                              for j in range(max(rec.birth, j_start),
                                             min(rec.death, j_stop)))
    zeta = RGraphMorphism(g, smoothed, zeta_v, zeta_e)
    return SmoothingResult(g, eps, smoothed, zeta, provenance)


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
    eps1 = as_rational(eps1)
    eps2 = as_rational(eps2)
    if eps1 < 0 or eps2 < 0:
        raise ValidationError("smoothing radius must be nonnegative")
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
