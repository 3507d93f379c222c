"""Value-preserving maps between graphs over the real line.

A morphism is stored compactly: every source vertex goes either to a
target vertex at the same value or into a target edge whose span
strictly contains that value, and every source edge goes to the monotone
path of target edges its image runs through. A valid morphism's stored
images are unique, so equality compares them directly. Over a common
critical set the same data flattens to one vertex map per level and one
edge map per slot (the "normal form"), which isomorphism checking and
inversion work with.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import (RGraph, RefineResult, ReduceResult, ValidationReport,
                   refine)
from .errors import InternalError, ValidationError
from .rationals import as_rational, format_rational, scaled


@dataclass(frozen=True)
class RGraphMorphism:
    source: RGraph
    target: RGraph
    vertex_map: dict[str, tuple[str, str]]   # vid -> ("vertex", wid) | ("edge", eid)
    edge_map: dict[str, tuple[str, ...]]     # eid -> bottom-to-top target edge path


def identity(g: RGraph) -> RGraphMorphism:
    return RGraphMorphism(g, g,
                          {v: ("vertex", v) for v in g.vertex_ids},
                          {e: (e,) for e in g.edge_ids})


def validate_morphism(phi: RGraphMorphism) -> ValidationReport:
    """The ways phi fails to be a morphism, in a report; it never raises.
    A vertex image must be ("vertex" | "edge", a str id), an edge image a
    non-empty sequence of str ids; anything else is a malformed image."""
    bad: list[str] = []
    src, tgt = phi.source, phi.target
    src_vs, tgt_vs = set(src.vertex_ids), set(tgt.vertex_ids)
    src_es, tgt_es = set(src.edge_ids), set(tgt.edge_ids)

    if set(phi.vertex_map) != src_vs:
        missing = sorted(src_vs - set(phi.vertex_map))
        extra = sorted(set(phi.vertex_map) - src_vs)
        if missing:
            bad.append(f"vertex map missing {missing}")
        if extra:
            bad.append(f"vertex map defined on unknown {extra}")
    if set(phi.edge_map) != src_es:
        missing = sorted(src_es - set(phi.edge_map))
        extra = sorted(set(phi.edge_map) - src_es)
        if missing:
            bad.append(f"edge map missing {missing}")
        if extra:
            bad.append(f"edge map defined on unknown {extra}")
    if bad:
        return ValidationReport(False, tuple(bad))

    for v in src.vertex_ids:
        img = phi.vertex_map[v]
        if not (isinstance(img, tuple) and len(img) == 2 and img[0] in ("vertex", "edge")
                and isinstance(img[1], str)):
            bad.append(f"vertex {v!r}: malformed image {img!r}")
            continue
        kind, tid = img
        val = src.value(v)
        if kind == "vertex":
            if tid not in tgt_vs:
                bad.append(f"vertex {v!r}: unknown target vertex {tid!r}")
            elif tgt.value(tid) != val:
                bad.append(f"vertex {v!r}: value {format_rational(val)} mapped to "
                           f"vertex at {format_rational(tgt.value(tid))}")
        else:
            if tid not in tgt_es:
                bad.append(f"vertex {v!r}: unknown target edge {tid!r}")
            else:
                lo, hi = tgt.span(tid)
                if not (lo < val < hi):
                    bad.append(f"vertex {v!r}: value {format_rational(val)} not strictly "
                               f"inside target edge {tid!r}")
    if bad:
        return ValidationReport(False, tuple(bad))

    for e in src.edge_ids:
        path = phi.edge_map[e]
        if not (isinstance(path, Sequence) and all(isinstance(p, str) for p in path)):
            bad.append(f"edge {e!r}: malformed image {path!r}")
            continue
        if not path:
            bad.append(f"edge {e!r}: empty path")
            continue
        if any(p not in tgt_es for p in path):
            bad.append(f"edge {e!r}: path uses unknown target edges")
            continue
        chained = all(tgt.endpoints(a)[1] == tgt.endpoints(b)[0]
                      for a, b in zip(path, path[1:]))
        if not chained:
            bad.append(f"edge {e!r}: path does not chain bottom-to-top")
            continue
        lo_v, hi_v = src.endpoints(e)
        kind, tid = phi.vertex_map[lo_v]
        if kind == "vertex":
            if tgt.endpoints(path[0])[0] != tid:
                bad.append(f"edge {e!r}: path does not start at the image of {lo_v!r}")
        else:
            if path[0] != tid:
                bad.append(f"edge {e!r}: path does not start inside the image of {lo_v!r}")
        kind, tid = phi.vertex_map[hi_v]
        if kind == "vertex":
            if tgt.endpoints(path[-1])[1] != tid:
                bad.append(f"edge {e!r}: path does not end at the image of {hi_v!r}")
        else:
            if path[-1] != tid:
                bad.append(f"edge {e!r}: path does not end inside the image of {hi_v!r}")
    return ValidationReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Normal form over a common critical set.

@dataclass(frozen=True)
class NormalForm:
    source: RGraph
    target: RGraph
    vertex_maps: tuple[dict[str, str], ...]
    edge_maps: tuple[dict[str, str], ...]
    source_refine: RefineResult
    target_refine: RefineResult


def normal_form(phi: RGraphMorphism) -> NormalForm:
    """Refine source and target at the union of their criticals and
    express the morphism as one vertex map per level and one edge map per
    slot: between graphs with equal criticals, every vertex image is a
    vertex and every edge image a single edge."""
    rs = refine(phi.source, phi.target.criticals)
    rt = refine(phi.target, phi.source.criticals)
    S, T = rs.graph, rt.graph
    m = compose(compose(refine_collapse(phi.source, rs), phi),
                refine_embed(phi.target, rt))
    vmaps = tuple({v: m.vertex_map[v][1] for v in lev} for lev in S.levels)
    emaps = tuple({e: m.edge_map[e][0] for e in slot} for slot in S.slots)
    return NormalForm(S, T, vmaps, emaps, rs, rt)


def levelwise_morphism(src: RGraph, tgt: RGraph, vmaps, emaps) -> RGraphMorphism:
    """Bundle per-level vertex maps and per-slot edge maps (between graphs
    with equal criticals) into a morphism."""
    vmap = {v: ("vertex", m[v]) for m in vmaps for v in m}
    emap = {e: (m[e],) for m in emaps for e in m}
    return RGraphMorphism(src, tgt, vmap, emap)


def refine_embed(g: RGraph, rr: RefineResult) -> RGraphMorphism:
    """The canonical isomorphism from a graph onto its refinement."""
    return RGraphMorphism(g, rr.graph,
                          {v: ("vertex", v) for v in g.vertex_ids},
                          {e: rr.edge_map[e] for e in g.edge_ids})


def refine_collapse(g: RGraph, rr: RefineResult) -> RGraphMorphism:
    """The inverse isomorphism, from the refinement back onto the graph."""
    owner = {seg: e for e, segs in rr.edge_map.items() for seg in segs}
    vmap = {}
    for v in rr.graph.vertex_ids:
        if v in rr.split_vertices:
            vmap[v] = ("edge", rr.split_vertices[v])
        else:
            vmap[v] = ("vertex", v)
    emap = {seg: (owner[seg],) for seg in rr.graph.edge_ids}
    return RGraphMorphism(rr.graph, g, vmap, emap)


def reduce_collapse(g: RGraph, red: ReduceResult) -> RGraphMorphism:
    """The canonical isomorphism from a graph onto its reduced form."""
    vmap = {}
    for v in g.vertex_ids:
        if v in red.dropped_vertices:
            vmap[v] = ("edge", red.dropped_vertices[v])
        else:
            vmap[v] = ("vertex", v)
    emap = {e: (red.edge_map[e],) for e in g.edge_ids}
    return RGraphMorphism(g, red.graph, vmap, emap)


def reduce_embed(g: RGraph, red: ReduceResult) -> RGraphMorphism:
    """The inverse isomorphism, from the reduced form back onto the graph."""
    return RGraphMorphism(red.graph, g,
                          {v: ("vertex", v) for v in red.graph.vertex_ids},
                          {e: red.chains[e] for e in red.graph.edge_ids})


# ---------------------------------------------------------------------------
# Equality and composition.

def morphism_first_difference(a: RGraphMorphism, b: RGraphMorphism) -> str | None:
    """Name the first source cell, in source order, whose stored image
    differs between the two morphisms, or None when they are equal. Both
    must share source and target and be valid (see `validate_morphism`):
    a valid morphism's stored images are unique, so comparing them cell
    by cell decides equality."""
    if a.source != b.source or a.target != b.target:
        raise ValidationError("cannot compare morphisms with different endpoints")
    g = a.source
    for v in g.vertex_ids:
        if a.vertex_map[v] != b.vertex_map[v]:
            return (f"vertex {v!r} at level {g.vertex_level[v]}: "
                    f"{a.vertex_map[v]!r} vs {b.vertex_map[v]!r}")
    for e in g.edge_ids:
        if a.edge_map[e] != b.edge_map[e]:
            return (f"edge {e!r} at slot {g.edge_slot[e]}: "
                    f"{a.edge_map[e]!r} vs {b.edge_map[e]!r}")
    return None


def morphism_equal(a: RGraphMorphism, b: RGraphMorphism) -> bool:
    return morphism_first_difference(a, b) is None


def path_cell_at(graph: RGraph, path, value: Fraction) -> tuple[str, str]:
    """The cell of the graph that a chained edge path passes through at the
    given function value."""
    for p in path:
        lo, hi = graph.span(p)
        if value == lo:
            return ("vertex", graph.endpoints(p)[0])
        if value < hi:
            return ("edge", p)
        if value == hi:
            return ("vertex", graph.endpoints(p)[1])
    raise InternalError(f"value {format_rational(value)} beyond the path")


def image_at(psi: RGraphMorphism, cell: tuple[str, str], value: Fraction) -> tuple[str, str]:
    """Where psi takes the point at the given value on cell, a ("vertex",
    id) or ("edge", id) of psi's source."""
    kind, tid = cell
    if kind == "vertex":
        return psi.vertex_map[tid]
    return path_cell_at(psi.target, psi.edge_map[tid], value)


def image_path(psi: RGraphMorphism, path, lo_img, hi_img) -> tuple[str, ...]:
    """psi's image of a chained path of its source's edges, cut down to the
    stretch between lo_img and hi_img, the images of the path's two ends,
    each a vertex or an edge of psi's target. Consecutive edge images that
    share their boundary edge are joined there. An end image that the
    joined images never reach is a ValidationError naming it."""
    merged: list[str] = []
    for q in path:
        seg = psi.edge_map[q]
        if merged and merged[-1] == seg[0]:
            merged.extend(seg[1:])
        else:
            merged.extend(seg)
    tgt = psi.target
    kind, tid = lo_img
    if kind == "edge":
        start = merged.index(tid) if tid in merged else None
    else:
        start = next((i for i, p in enumerate(merged)
                      if tgt.endpoints(p)[0] == tid), None)
    kind, tid = hi_img
    if kind == "edge":
        back = merged[::-1].index(tid) if tid in merged else None
    else:
        back = next((i for i, p in enumerate(reversed(merged))
                     if tgt.endpoints(p)[1] == tid), None)
    if start is None or back is None:
        end, (kind, tid) = ("lower", lo_img) if start is None else ("upper", hi_img)
        raise ValidationError(f"the image {' '.join(merged)} of edge path "
                              f"{' '.join(path)} misses its {end} end's image, "
                              f"{kind} {tid!r}")
    return tuple(merged[start:len(merged) - back])


def compose(phi: RGraphMorphism, psi: RGraphMorphism) -> RGraphMorphism:
    """The composite source(phi) -> target(psi)."""
    if phi.target != psi.source:
        raise ValidationError("composition endpoint mismatch")
    src = phi.source
    vmap = {v: image_at(psi, phi.vertex_map[v], src.value(v)) for v in src.vertex_ids}
    emap: dict[str, tuple[str, ...]] = {}
    for e in src.edge_ids:
        lo_v, hi_v = src.endpoints(e)
        emap[e] = image_path(psi, phi.edge_map[e], vmap[lo_v], vmap[hi_v])
    return RGraphMorphism(src, psi.target, vmap, emap)


# ---------------------------------------------------------------------------
# Isomorphisms.

def is_isomorphism(phi: RGraphMorphism) -> bool:
    """True when the morphism is invertible, i.e. its normal form is a
    bijection on every level and every slot."""
    nf = normal_form(phi)
    for ma, lev in zip(nf.vertex_maps, nf.target.levels):
        if len(set(ma.values())) != len(ma) or set(ma.values()) != set(lev):
            return False
    for me, slot in zip(nf.edge_maps, nf.target.slots):
        if len(set(me.values())) != len(me) or set(me.values()) != set(slot):
            return False
    return True


def invert_isomorphism(phi: RGraphMorphism) -> RGraphMorphism:
    nf = normal_form(phi)
    inv_v = [{w: v for v, w in m.items()} for m in nf.vertex_maps]
    inv_e = [{w: e for e, w in m.items()} for m in nf.edge_maps]
    for fwd, m, lev in zip(nf.vertex_maps, inv_v, nf.target.levels):
        if len(m) != len(fwd) or len(m) != len(lev):
            raise ValidationError("not an isomorphism: vertex maps are not bijective")
    for fwd, m, slot in zip(nf.edge_maps, inv_e, nf.target.slots):
        if len(m) != len(fwd) or len(m) != len(slot):
            raise ValidationError("not an isomorphism: edge maps are not bijective")
    core = levelwise_morphism(nf.target, nf.source, inv_v, inv_e)
    embed = refine_embed(phi.target, nf.target_refine)
    collapse = refine_collapse(phi.source, nf.source_refine)
    return compose(compose(embed, core), collapse)


# ---------------------------------------------------------------------------
# Window transport: the engine behind the smoothing functor's action on
# morphisms and the shifted composites.

def _where(pos: int) -> str:
    return f"{'slot' if pos % 2 else 'level'} {pos // 2}"


def _meets(graph: RGraph, values, c: str, lo: int, hi: int) -> bool:
    """Whether cell c meets the closed window [lo, hi], given the graph's
    criticals as integers: a vertex by its value, an edge by its open span."""
    k = graph.vertex_level.get(c)
    if k is not None:
        return lo <= values[k] <= hi
    j = graph.edge_slot[c]
    return values[j] < hi and values[j + 1] > lo


def transport(source_graph: RGraph, pull, sm_target) -> RGraphMorphism:
    """Map each cell of source_graph to the component of the window of
    sm_target.source, at radius sm_target.epsilon, spanned by that cell's
    witness cells.

    pull is (images, sm_mid, mid_radius), as `smoothed_pull` returns it.
    With sm_mid None, images maps every source_graph cell x to cells of
    sm_target.source that carry the image of x all along x. Otherwise
    images[x] are cells of sm_mid.smoothed, and at each value the ones
    meeting the window at mid_radius are carried on through sm_mid's
    provenance. Per position the witnesses that meet the window must land
    in a single smoothed component there, and each edge's pieces must
    chain between its endpoints' images (anything else is an internal
    error naming the cell: it would contradict the map being continuous).

    Every value the call compares is scaled once to an integer and
    doubled, so that every slot midpoint is an integer too: positions are
    bisects on the smoothed criticals, and the window tests read the
    base's and the middle graph's criticals from integer lists.
    """
    images, sm_mid, mid_radius = pull
    base, T = sm_target.source, sm_target.smoothed
    groups = [(sm_target.epsilon,), T.criticals,
              source_graph.criticals, base.criticals]
    if sm_mid is not None:
        groups += [(mid_radius,), sm_mid.smoothed.criticals]
    _, flat = scaled([x for grp in groups for x in grp])
    it = iter(flat)
    (radius,), B, S, V, *mid = [[2 * next(it) for _ in grp] for grp in groups]
    index = sm_target.position_index
    if mid:
        (mid_r,), M = mid

    def resolve(what, x, pos, t):
        cells = images[x]
        if mid:
            cells = {c for z in cells if _meets(sm_mid.smoothed, M, z, t - mid_r, t + mid_r)
                     for c in sm_mid.provenance[z]}
        lo, hi = t - radius, t + radius
        names = set()
        for c in cells:
            if _meets(base, V, c, lo, hi):
                hit = index.get((pos, c))
                if hit is None:
                    raise InternalError(f"{what} {x!r}: witness cell {c!r} "
                                        f"not tracked at {_where(pos)}")
                names.add(hit)
        if len(names) != 1:
            raise InternalError(f"{what} {x!r} at {_where(pos)}: the witnesses in "
                                f"its window land in components {sorted(names)}")
        name = names.pop()
        if (T.edge_slot.get(name) if pos % 2 else T.vertex_level.get(name)) != pos // 2:
            raise InternalError(f"{what} {x!r}: image {name!r} is not a cell at {_where(pos)}")
        return name

    vmap: dict[str, tuple[str, str]] = {}
    for k, level in enumerate(source_graph.levels):
        t, i = S[k], bisect.bisect_left(B, S[k])
        pos = 2 * i if i < len(B) and B[i] == t else 2 * i - 1
        if level and not 0 <= pos < 2 * len(B) - 1:
            raise InternalError(f"vertex {level[0]!r}: value "
                                f"{format_rational(source_graph.criticals[k])} "
                                "outside the smoothed range")
        kind = "edge" if pos % 2 else "vertex"
        for x in level:
            vmap[x] = (kind, resolve("vertex", x, pos, t))

    # an edge's endpoints lie in the smoothed range, so its pieces do: the
    # one from b1 up to the next smoothed critical lies in slot i - 1
    emap: dict[str, tuple[str, ...]] = {}
    for j, slot in enumerate(source_graph.slots):
        b1, b2 = S[j], S[j + 1]
        i = bisect.bisect_right(B, b1)
        cuts = [b1, *B[i:bisect.bisect_left(B, b2)], b2]
        pieces = [(2 * (i + m) - 1, (d1 + d2) // 2)
                  for m, (d1, d2) in enumerate(zip(cuts, cuts[1:]))]
        down, up, s0 = source_graph.down[j], source_graph.up[j], i - 1
        for x in slot:
            path = tuple(resolve("edge", x, pos, t) for pos, t in pieces)
            # piece m sits in slot s0 + m: each must end where the next
            # begins, and the ends must be the images of x's endpoints
            lower = [T.down[s0 + m][p] for m, p in enumerate(path)]
            upper = [T.up[s0 + m][p] for m, p in enumerate(path)]
            (lk, lo), (hk, hi) = vmap[down[x]], vmap[up[x]]
            if (upper[:-1] != lower[1:]
                    or (path[0] if lk == "edge" else lower[0]) != lo
                    or (path[-1] if hk == "edge" else upper[-1]) != hi):
                raise InternalError(f"edge {x!r}: image path {list(path)} does not chain "
                                    f"from the image of {down[x]!r} to that of {up[x]!r}")
            emap[x] = path
    return RGraphMorphism(source_graph, T, vmap, emap)


def smoothed_pull(alpha: RGraphMorphism, sm_source, sm_mid=None):
    """The witness images `transport` needs to carry sm_source.smoothed
    along alpha: each cell x gets every cell of alpha.target that the
    image of x's provenance runs through. When alpha.target is
    sm_mid.smoothed, transport carries those on through sm_mid's
    provenance, but only the ones meeting the window at radius
    sm_source.epsilon around the position: the provenance of a far-away
    cell can wander back into the window inside a different component."""
    image = {v: (alpha.vertex_map[v][1],) for v in alpha.source.vertex_ids}
    for e in alpha.source.edge_ids:
        path = alpha.edge_map[e]
        image[e] = (*path, *(alpha.target.endpoints(a)[1] for a in path[:-1]))
    images = {}
    for x in (*sm_source.smoothed.vertex_ids, *sm_source.smoothed.edge_ids):
        cells = set()
        for c in sm_source.provenance[x]:
            cells.update(image[c])
        images[x] = cells
    return images, sm_mid, sm_source.epsilon


def smooth_morphism(alpha: RGraphMorphism, eps) -> RGraphMorphism:
    """Apply the smoothing to a morphism: the smoothed source's window
    components map to the smoothed target's window components carrying
    their images."""
    from .smoothing import smooth
    eps = as_rational(eps)
    sm_source = smooth(alpha.source, eps)
    return transport(sm_source.smoothed, smoothed_pull(alpha, sm_source),
                     smooth(alpha.target, eps))


def shift_compose(alpha: RGraphMorphism, sm_source, sm_target,
                  sm_total) -> RGraphMorphism:
    """Turn alpha: f -> smooth(g, s) into the shifted composite
    smooth(f, r) -> smooth(g, r + s), given sm_source = smooth(f, r),
    sm_target = smooth(g, s) and sm_total = smooth(g, r + s): each window
    component of f maps to the wider window component of g carrying its
    image."""
    if sm_target.smoothed != alpha.target:
        raise ValidationError("alpha's target is not the given smoothing")
    if sm_source.source != alpha.source or sm_total.source != sm_target.source:
        raise ValidationError("smoothing results do not match the morphism's endpoints")
    if sm_total.epsilon != sm_source.epsilon + sm_target.epsilon:
        raise ValidationError(
            f"total smoothing radius {format_rational(sm_total.epsilon)} is not "
            f"the source radius {format_rational(sm_source.epsilon)} plus the "
            f"target radius {format_rational(sm_target.epsilon)}")
    return transport(sm_source.smoothed,
                     smoothed_pull(alpha, sm_source, sm_target), sm_total)
