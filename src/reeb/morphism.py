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
from dataclasses import dataclass
from fractions import Fraction

from .core import (RGraph, RefineResult, ReduceResult, ValidationReport,
                   refine)
from .errors import InternalError, ValidationError
from .rationals import as_rational, format_rational


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
        if not (isinstance(img, tuple) and len(img) == 2 and img[0] in ("vertex", "edge")):
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
    su = set(phi.source.criticals) | set(phi.target.criticals)
    rs = refine(phi.source, su)
    rt = refine(phi.target, su)
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


def merge_paths(segments) -> list[str]:
    """Concatenate edge paths, joining consecutive segments that share
    their boundary edge."""
    merged: list[str] = []
    for seg in segments:
        if merged and merged[-1] == seg[0]:
            merged.extend(seg[1:])
        else:
            merged.extend(seg)
    return merged


def trim_path(tgt: RGraph, merged, lo_img, hi_img) -> tuple[str, ...]:
    """Cut a chained path down to the stretch between the images of the
    two endpoints, each either a vertex or an edge of the target."""
    kind, tid = lo_img
    if kind == "edge":
        start = merged.index(tid)
    else:
        start = next(i for i, p in enumerate(merged)
                     if tgt.endpoints(p)[0] == tid)
    kind, tid = hi_img
    if kind == "edge":
        stop = len(merged) - 1 - merged[::-1].index(tid)
    else:
        stop = len(merged) - 1 - next(
            i for i, p in enumerate(reversed(merged))
            if tgt.endpoints(p)[1] == tid)
    return tuple(merged[start:stop + 1])


def compose(phi: RGraphMorphism, psi: RGraphMorphism) -> RGraphMorphism:
    """The composite source(phi) -> target(psi)."""
    if phi.target != psi.source:
        raise ValidationError("composition endpoint mismatch")
    src, tgt = phi.source, psi.target

    vmap: dict[str, tuple[str, str]] = {}
    for v in src.vertex_ids:
        kind, tid = phi.vertex_map[v]
        if kind == "vertex":
            vmap[v] = psi.vertex_map[tid]
        else:
            vmap[v] = path_cell_at(tgt, psi.edge_map[tid], src.value(v))

    emap: dict[str, tuple[str, ...]] = {}
    for e in src.edge_ids:
        merged = merge_paths(psi.edge_map[q] for q in phi.edge_map[e])
        lo_v, hi_v = src.endpoints(e)
        emap[e] = trim_path(tgt, merged, vmap[lo_v], vmap[hi_v])

    return RGraphMorphism(src, tgt, vmap, emap)


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

def _cell_meets(graph: RGraph, cell: str, lo: Fraction, hi: Fraction) -> bool:
    if cell in graph.vertex_level:
        return lo <= graph.value(cell) <= hi
    x, y = graph.span(cell)
    return x < hi and y > lo


def _position(criticals, value: Fraction) -> int:
    """Doubled position of a value among sorted criticals: 2k when it is
    the k-th of them, 2j+1 when it lies in the open gap of slot j."""
    k = bisect.bisect_left(criticals, value)
    if k < len(criticals) and criticals[k] == value:
        return 2 * k
    if k == 0 or k == len(criticals):
        raise InternalError(f"value {format_rational(value)} outside the smoothed range")
    return 2 * k - 1


def _where(pos: int) -> str:
    return f"{'slot' if pos % 2 else 'level'} {pos // 2}"


def transport(source_graph: RGraph, pull_at, sm_target) -> RGraphMorphism:
    """Map each cell of source_graph to the component of the window of
    sm_target.source, at radius sm_target.epsilon, spanned by that cell's
    witness cells.

    pull_at(x, value) gives, for every source_graph cell x, cells of
    sm_target.source known to carry the image of x at that value along x.
    Per position the witnesses that meet the window must land in a single
    smoothed component (anything else is reported as an internal error,
    since it would contradict the map being continuous).
    """
    base = sm_target.source
    radius = sm_target.epsilon
    B = sm_target.smoothed.criticals
    index = sm_target.position_index

    def resolve(what, x, value):
        pos = _position(B, value)
        lo, hi = value - radius, value + radius
        names = set()
        for c in pull_at(x, value):
            if _cell_meets(base, c, lo, hi):
                hit = index.get((pos, c))
                if hit is None:
                    raise InternalError(f"{what} {x!r}: witness cell {c!r} "
                                        f"not tracked at {_where(pos)}")
                names.add(hit)
        if len(names) != 1:
            raise InternalError(f"{what} {x!r} at {_where(pos)}: the witnesses in "
                                f"its window land in components {sorted(names)}")
        return pos, names.pop()

    vmap: dict[str, tuple[str, str]] = {}
    for x in source_graph.vertex_ids:
        pos, name = resolve("vertex", x, source_graph.value(x))
        vmap[x] = ("edge" if pos % 2 else "vertex", name)

    emap: dict[str, tuple[str, ...]] = {}
    for x in source_graph.edge_ids:
        b1, b2 = source_graph.span(x)
        cuts = [b1, *B[bisect.bisect_right(B, b1):bisect.bisect_left(B, b2)], b2]
        emap[x] = tuple(resolve("edge", x, (d1 + d2) / 2)[1]
                        for d1, d2 in zip(cuts, cuts[1:]))

    result = RGraphMorphism(source_graph, sm_target.smoothed, vmap, emap)
    rep = validate_morphism(result)
    if not rep.ok:
        raise InternalError("window transport produced an invalid morphism: "
                            + "; ".join(rep.violations))
    return result


def smoothed_pull(alpha: RGraphMorphism, sm_source, sm_mid=None):
    """The pull_at that `transport` needs to carry sm_source.smoothed along
    alpha: each cell x pulls every cell of alpha.target that the image of
    x's provenance runs through. When alpha.target is sm_mid.smoothed,
    those are pulled on through sm_mid's provenance, but only the ones
    meeting the window at radius sm_source.epsilon around the position:
    the provenance of a far-away cell can wander back into the window
    inside a different component."""
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
    if sm_mid is None:
        return lambda x, value: images[x]
    mid, eps = alpha.target, sm_source.epsilon

    def pull_at(x, value):
        lo, hi = value - eps, value + eps
        out = set()
        for z in images[x]:
            if _cell_meets(mid, z, lo, hi):
                out.update(sm_mid.provenance[z])
        return out

    return pull_at


def smooth_morphism(alpha: RGraphMorphism, eps, sm_source=None,
                    sm_target=None) -> RGraphMorphism:
    """Apply the smoothing to a morphism: the smoothed source's window
    components map to the smoothed target's window components carrying
    their images."""
    from .smoothing import smooth
    eps = as_rational(eps)
    if sm_source is None:
        sm_source = smooth(alpha.source, eps)
    if sm_target is None:
        sm_target = smooth(alpha.target, eps)
    if sm_source.source != alpha.source or sm_target.source != alpha.target:
        raise ValidationError("smoothing results do not match the morphism's endpoints")
    if sm_source.epsilon != eps or sm_target.epsilon != eps:
        raise ValidationError("smoothing results taken at a different epsilon")
    return transport(sm_source.smoothed, smoothed_pull(alpha, sm_source), sm_target)


def shift_compose(alpha: RGraphMorphism, sm_source_eps, sm_target_eps,
                  sm_target_2eps) -> RGraphMorphism:
    """Turn alpha: f -> smooth(g, eps) into the shifted composite
    smooth(f, eps) -> smooth(g, 2*eps): each window component of f maps to
    the doubled window component of g carrying its image."""
    eps = sm_target_eps.epsilon
    if sm_target_eps.smoothed != alpha.target:
        raise ValidationError("alpha's target is not the given smoothing")
    if (sm_source_eps.source != alpha.source
            or sm_target_2eps.source != sm_target_eps.source):
        raise ValidationError("smoothing results do not match the morphism's endpoints")
    if sm_source_eps.epsilon != eps or sm_target_2eps.epsilon != 2 * eps:
        raise ValidationError("smoothing results taken at a different epsilon")
    return transport(sm_source_eps.smoothed,
                     smoothed_pull(alpha, sm_source_eps, sm_target_eps),
                     sm_target_2eps)
