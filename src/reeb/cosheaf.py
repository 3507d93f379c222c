"""Set-valued cosheaves over the real line in zigzag form.

A constructible cosheaf is stored by its critical values, one finite set
per critical value (node sets), one per gap between neighbours (edge
sets), and maps from each edge set into the node sets on both sides.
The value on an arbitrary open interval is computed on demand: restrict
the zigzag to the interval and take connected components. Elements of an
evaluation are frozensets of back-references ("v", i, x) / ("e", k, x)
into the stored sets, so extension maps along interval inclusion come
down to containment of references.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .core import ValidationReport, _assemble, component_sets, refine, RGraph
from .errors import InternalError, ValidationError
from .iso import levelwise_bijections
from .rationals import as_rational
from .unionfind import UnionFind


# ---------------------------------------------------------------------------
# Open intervals, possibly unbounded.

@dataclass(frozen=True)
class Interval:
    lo: Fraction | None        # None: unbounded below
    hi: Fraction | None        # None: unbounded above
    empty: bool = False


EMPTY_INTERVAL = Interval(None, None, True)


def interval(lo=None, hi=None) -> Interval:
    lo = as_rational(lo) if lo is not None else None
    hi = as_rational(hi) if hi is not None else None
    if lo is not None and hi is not None and lo >= hi:
        return EMPTY_INTERVAL
    return Interval(lo, hi, False)


def expand(iv: Interval, eps) -> Interval:
    eps = as_rational(eps)
    if eps < 0:
        raise ValidationError("expansion radius must be nonnegative")
    if iv.empty:
        return iv
    return Interval(iv.lo - eps if iv.lo is not None else None,
                    iv.hi + eps if iv.hi is not None else None, False)


def intersect(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return EMPTY_INTERVAL
    if a.lo is None:
        lo = b.lo
    elif b.lo is None:
        lo = a.lo
    else:
        lo = max(a.lo, b.lo)
    if a.hi is None:
        hi = b.hi
    elif b.hi is None:
        hi = a.hi
    else:
        hi = min(a.hi, b.hi)
    if lo is not None and hi is not None and lo >= hi:
        return EMPTY_INTERVAL
    return Interval(lo, hi, False)


def interval_subset(a: Interval, b: Interval) -> bool:
    if a.empty:
        return True
    if b.empty:
        return False
    if b.lo is not None and (a.lo is None or a.lo < b.lo):
        return False
    if b.hi is not None and (a.hi is None or a.hi > b.hi):
        return False
    return True


def _hull(a: Interval, b: Interval) -> Interval:
    lo = None if (a.lo is None or b.lo is None) else min(a.lo, b.lo)
    hi = None if (a.hi is None or b.hi is None) else max(a.hi, b.hi)
    return Interval(lo, hi, False)


# ---------------------------------------------------------------------------
# The zigzag data.

@dataclass(frozen=True)
class Cosheaf:
    criticals: tuple[Fraction, ...]
    node_sets: tuple[tuple[str, ...], ...]          # one per critical value
    edge_sets: tuple[tuple[str, ...], ...]          # one per gap
    left_maps: tuple[dict[str, str], ...]           # edge set k -> node set k
    right_maps: tuple[dict[str, str], ...]          # edge set k -> node set k + 1
    # provenance, when the cosheaf was derived from something:
    node_contents: tuple[dict[str, frozenset], ...] | None = None   # graph cells
    node_merged: tuple[dict[str, frozenset], ...] | None = None     # source refs
    edge_merged: tuple[dict[str, frozenset], ...] | None = None


def validate_cosheaf(F: Cosheaf) -> ValidationReport:
    bad: list[str] = []
    crit = F.criticals
    for a, b in zip(crit, crit[1:]):
        if not a < b:
            bad.append(f"criticals not strictly increasing at {a}, {b}")
    if len(F.node_sets) != len(crit):
        bad.append(f"{len(F.node_sets)} node sets for {len(crit)} criticals")
    want = max(0, len(crit) - 1)
    if len(F.edge_sets) != want or len(F.left_maps) != want or len(F.right_maps) != want:
        bad.append("edge set or map count does not match the gap count")
        return ValidationReport(False, tuple(bad))
    seen: set[str] = set()
    for i, ns in enumerate(F.node_sets):
        for x in ns:
            if x in seen:
                bad.append(f"duplicate element id {x!r}")
            seen.add(x)
    for k, es in enumerate(F.edge_sets):
        for x in es:
            if x in seen:
                bad.append(f"duplicate element id {x!r}")
            seen.add(x)
        for x in es:
            if F.left_maps[k].get(x) not in F.node_sets[k]:
                bad.append(f"gap {k}: element {x!r} has no valid left image")
            if F.right_maps[k].get(x) not in F.node_sets[k + 1]:
                bad.append(f"gap {k}: element {x!r} has no valid right image")
    return ValidationReport(not bad, tuple(bad))


def _restriction(F: Cosheaf, iv: Interval):
    """Inclusive index ranges (v_lo, v_hi, e_lo, e_hi) of the zigzag data
    meeting the interval, or None when the restriction is empty."""
    S = F.criticals
    if iv.empty or not S:
        return None
    lo, hi = iv.lo, iv.hi
    i0 = 0 if lo is None else bisect.bisect_right(S, lo)
    i1 = len(S) - 1 if hi is None else bisect.bisect_left(S, hi) - 1
    if i0 <= i1:
        return (i0, i1, max(0, i0 - 1), min(len(S) - 2, i1))
    if hi is not None and hi <= S[0]:
        return None
    if lo is not None and lo >= S[-1]:
        return None
    k = bisect.bisect_right(S, lo) - 1      # the single gap holding the interval
    return (1, 0, k, k)


def evaluate(F: Cosheaf, iv: Interval) -> tuple[frozenset, ...]:
    """The cosheaf's value on an open interval: connected components of
    the restricted zigzag, each a frozenset of back-references."""
    rng = _restriction(F, iv)
    if rng is None:
        return ()
    v_lo, v_hi, e_lo, e_hi = rng
    uf = UnionFind()
    for i in range(v_lo, v_hi + 1):
        for x in F.node_sets[i]:
            uf.add(("v", i, x))
    for k in range(e_lo, e_hi + 1):
        for x in F.edge_sets[k]:
            uf.add(("e", k, x))
    for k in range(e_lo, e_hi + 1):
        for x in F.edge_sets[k]:
            if v_lo <= k <= v_hi:
                uf.union(("e", k, x), ("v", k, F.left_maps[k][x]))
            if v_lo <= k + 1 <= v_hi:
                uf.union(("e", k, x), ("v", k + 1, F.right_maps[k][x]))
    comps = [frozenset(grp) for grp in uf.groups()]
    return tuple(sorted(comps, key=min))


def extend_map(F: Cosheaf, small: Interval, big: Interval) -> dict[frozenset, frozenset]:
    """The extension along an inclusion of intervals, keyed by elements of
    the smaller evaluation."""
    if not interval_subset(small, big):
        raise ValidationError("extension requires the first interval inside the second")
    locate: dict[tuple, frozenset] = {}
    for elt in evaluate(F, big):
        for ref in elt:
            locate[ref] = elt
    out: dict[frozenset, frozenset] = {}
    for elt in evaluate(F, small):
        images = {locate[ref] for ref in elt}
        if len(images) != 1:
            raise InternalError("element split across components under extension")
        out[elt] = images.pop()
    return out


# ---------------------------------------------------------------------------
# From a graph, and back.

def reeb_cosheaf(g: RGraph) -> Cosheaf:
    """The cosheaf of components of preimages of small intervals: node set
    i holds the components around critical value i (its level plus both
    adjacent slots), edge set k holds the slot-k edges."""
    S = g.criticals
    node_sets = []
    node_contents = []
    lookup: list[dict[str, str]] = []
    for i in range(len(S)):
        vs = list(g.levels[i])
        es: list[str] = []
        if i > 0:
            es.extend(g.slots[i - 1])
        if i < len(S) - 1:
            es.extend(g.slots[i])
        ids = []
        contents = {}
        lk = {}
        for comp in component_sets(g, vs, es):
            x = "{" + ",".join(sorted(comp)) + "}"
            ids.append(x)
            contents[x] = comp
            for c in comp:
                lk[c] = x
        node_sets.append(tuple(sorted(ids)))
        node_contents.append(contents)
        lookup.append(lk)
    edge_sets = tuple(tuple(slot) for slot in g.slots)
    left = tuple({e: lookup[j][e] for e in g.slots[j]} for j in range(g.n_slots))
    right = tuple({e: lookup[j + 1][e] for e in g.slots[j]} for j in range(g.n_slots))
    return Cosheaf(S, tuple(node_sets), edge_sets, left, right,
                   node_contents=tuple(node_contents))


def display(F: Cosheaf) -> RGraph:
    """Read the zigzag itself as a graph over the line: node elements
    become vertices, edge elements become edges. Element ids must be
    globally unique (all construction paths here keep them so)."""
    return _assemble(F.criticals,
                     [list(ns) for ns in F.node_sets],
                     [list(es) for es in F.edge_sets],
                     [dict(m) for m in F.left_maps],
                     [dict(m) for m in F.right_maps])


# ---------------------------------------------------------------------------
# Smoothing on the cosheaf side.

def _format_ref(ref) -> str:
    kind, i, x = ref
    return f"{kind}{i}:{x}"


def _merged_name(prefix: str, elt: frozenset) -> str:
    """Position-qualified id: the same reference set can show up at many
    positions (a long edge, say), and display needs globally unique ids."""
    return prefix + "{" + ",".join(_format_ref(r) for r in sorted(elt)) + "}"


def smooth_cosheaf(F: Cosheaf, eps) -> Cosheaf:
    """Precompose with interval expansion by eps: the value on I becomes
    the old value on I expanded. Stored over the shifted criticals, with
    each new element remembering the set of old references it merged."""
    eps = as_rational(eps)
    if eps < 0:
        raise ValidationError("smoothing radius must be nonnegative")
    S = F.criticals
    if not S:
        return Cosheaf((), (), (), (), (), node_merged=(), edge_merged=())
    B = sorted({s - eps for s in S} | {s + eps for s in S})
    node_sets = []
    node_merged = []
    for k in range(len(B)):
        lo = B[k - 1] if k > 0 else None
        hi = B[k + 1] if k + 1 < len(B) else None
        elts = evaluate(F, expand(interval(lo, hi), eps))
        named = {_merged_name(f"n{k}", e): e for e in elts}
        node_sets.append(tuple(sorted(named)))
        node_merged.append(named)
    edge_sets = []
    edge_merged = []
    left = []
    right = []
    for k in range(len(B) - 1):
        gap = interval(B[k], B[k + 1])
        elts = evaluate(F, expand(gap, eps))
        named = {_merged_name(f"g{k}", e): e for e in elts}
        edge_sets.append(tuple(sorted(named)))
        edge_merged.append(named)
        lo_iv = expand(interval(B[k - 1] if k > 0 else None, B[k + 1]), eps)
        hi_iv = expand(interval(B[k], B[k + 2] if k + 2 < len(B) else None), eps)
        to_lo = extend_map(F, expand(gap, eps), lo_iv)
        to_hi = extend_map(F, expand(gap, eps), hi_iv)
        left.append({name: _merged_name(f"n{k}", to_lo[e])
                     for name, e in named.items()})
        right.append({name: _merged_name(f"n{k + 1}", to_hi[e])
                      for name, e in named.items()})
    return Cosheaf(tuple(B), tuple(node_sets), tuple(edge_sets),
                   tuple(left), tuple(right),
                   node_merged=tuple(node_merged), edge_merged=tuple(edge_merged))


# ---------------------------------------------------------------------------
# Refinement and the canonical map into a smoothing.

@dataclass(frozen=True)
class RefinedCosheaf:
    cosheaf: Cosheaf
    node_origin: tuple[dict[str, tuple], ...]   # element -> ref into the original
    edge_origin: tuple[dict[str, tuple], ...]


def refine_cosheaf(F: Cosheaf, extra) -> RefinedCosheaf:
    """Insert critical values without changing any evaluation: `refine`
    on the displayed zigzag. Values in a gap split each of its elements x
    into x:0, x:1, ... joined by copies x@value in the new node sets;
    a value outside the support adds empty sets."""
    D = display(F)
    rr = refine(D, extra)
    R = rr.graph
    owner = {seg: x for x, segs in rr.edge_map.items() for seg in segs}
    owner.update(rr.split_vertices)

    def origin(y):
        if y in owner:
            return ("e", D.edge_slot[owner[y]], owner[y])
        return ("v", D.vertex_level[y], y)

    cos = Cosheaf(R.criticals, R.levels, R.slots, R.down, R.up)
    return RefinedCosheaf(cos,
                          tuple({y: origin(y) for y in lev} for lev in R.levels),
                          tuple({y: origin(y) for y in slot} for slot in R.slots))


@dataclass(frozen=True)
class CosheafMorphism:
    source: Cosheaf
    target: Cosheaf
    node_maps: tuple[dict[str, str], ...]
    edge_maps: tuple[dict[str, str], ...]


def validate_cosheaf_morphism(ms: CosheafMorphism) -> ValidationReport:
    bad: list[str] = []
    src, tgt = ms.source, ms.target
    if src.criticals != tgt.criticals:
        return ValidationReport(False, ("criticals differ; compare over a "
                                        "common refinement",))
    for i, ns in enumerate(src.node_sets):
        m = ms.node_maps[i]
        for x in ns:
            if m.get(x) not in tgt.node_sets[i]:
                bad.append(f"node set {i}: {x!r} has no valid image")
    for k, es in enumerate(src.edge_sets):
        m = ms.edge_maps[k]
        for x in es:
            y = m.get(x)
            if y not in tgt.edge_sets[k]:
                bad.append(f"edge set {k}: {x!r} has no valid image")
                continue
            if ms.node_maps[k].get(src.left_maps[k][x]) != tgt.left_maps[k][y]:
                bad.append(f"edge set {k}: {x!r} breaks the left square")
            if ms.node_maps[k + 1].get(src.right_maps[k][x]) != tgt.right_maps[k][y]:
                bad.append(f"edge set {k}: {x!r} breaks the right square")
    return ValidationReport(not bad, tuple(bad))


def sigma_map(F: Cosheaf, eps) -> CosheafMorphism:
    """The canonical map from a cosheaf into its smoothing, expressed over
    the union of their criticals: every element goes to the smoothed
    element that merged its reference."""
    eps = as_rational(eps)
    G = smooth_cosheaf(F, eps)
    su = sorted(set(F.criticals) | set(G.criticals))
    RF = refine_cosheaf(F, su)
    RG = refine_cosheaf(G, su)
    src, tgt = RF.cosheaf, RG.cosheaf

    def merged_of(g_ref):
        kind, i, x = g_ref
        table = G.node_merged[i] if kind == "v" else G.edge_merged[i]
        return table[x]

    def image(ref, candidates, origins):
        hits = [y for y in candidates if ref in merged_of(origins[y])]
        if len(hits) != 1:
            raise InternalError(f"reference {ref!r} matched {len(hits)} smoothed elements")
        return hits[0]

    node_maps = []
    for i in range(len(src.node_sets)):
        node_maps.append({x: image(RF.node_origin[i][x], tgt.node_sets[i],
                                   RG.node_origin[i])
                          for x in src.node_sets[i]})
    edge_maps = []
    for k in range(len(src.edge_sets)):
        edge_maps.append({x: image(RF.edge_origin[k][x], tgt.edge_sets[k],
                                   RG.edge_origin[k])
                          for x in src.edge_sets[k]})
    ms = CosheafMorphism(src, tgt, tuple(node_maps), tuple(edge_maps))
    rep = validate_cosheaf_morphism(ms)
    if not rep.ok:
        raise InternalError("canonical cosheaf map is not a morphism: "
                            + "; ".join(rep.violations))
    return ms


def is_cosheaf_iso(F: Cosheaf, G: Cosheaf, budget: int = 200_000) -> CosheafMorphism | None:
    """Search for an isomorphism of cosheaves after refining both to the
    union of their criticals. Returns the levelwise witness, or None."""
    su = sorted(set(F.criticals) | set(G.criticals))
    rf = refine_cosheaf(F, su)
    rg = refine_cosheaf(G, su)
    found = levelwise_bijections(display(rf.cosheaf), display(rg.cosheaf), budget)
    if found is None:
        return None
    vmaps, emaps = found
    return CosheafMorphism(rf.cosheaf, rg.cosheaf, tuple(vmaps), tuple(emaps))


def check_gluing(F: Cosheaf, a: Interval, b: Interval) -> bool:
    """Does the value on the union arise by gluing the values on two
    overlapping intervals along their meet?"""
    meet = intersect(a, b)
    if meet.empty:
        raise ValidationError("gluing needs overlapping intervals")
    join = _hull(a, b)
    ma = extend_map(F, meet, a)
    mb = extend_map(F, meet, b)
    ua = extend_map(F, a, join)
    ub = extend_map(F, b, join)
    uf = UnionFind()
    for elt in evaluate(F, a):
        uf.add(("a", elt))
    for elt in evaluate(F, b):
        uf.add(("b", elt))
    for elt in evaluate(F, meet):
        uf.union(("a", ma[elt]), ("b", mb[elt]))
    classes = uf.groups()
    whole = evaluate(F, join)
    if len(classes) != len(whole):
        return False
    images = set()
    for grp in classes:
        tgts = {ua[elt] if side == "a" else ub[elt] for side, elt in grp}
        if len(tgts) != 1:
            return False
        images.add(tgts.pop())
    return len(images) == len(whole)
