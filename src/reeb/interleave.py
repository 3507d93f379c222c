"""Interleaving certificates between graphs over the real line.

A certificate at radius eps consists of maps alpha: f -> smooth(g, eps)
and beta: g -> smooth(f, eps) whose shifted round trips equal the
canonical maps into the doubled smoothings. Verification recomputes the
shifted composites and compares; search enumerates candidate maps
levelwise over a common refinement, so an exhausted search soundly
refutes the radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import RGraph, _build, num_components, reduce, refine
from .errors import BudgetExceeded, InternalError, ValidationError
from .iso import NodeBudget, is_isomorphic, levelwise_assignments
from .morphism import (RGraphMorphism, compose, identity, invert_isomorphism,
                       levelwise_morphism, merge_paths, morphism_equal,
                       morphism_first_difference, path_cell_at,
                       reduce_collapse, reduce_embed, refine_collapse,
                       refine_embed, shift_compose, smooth_morphism,
                       transport, trim_path, validate_morphism)
from .rationals import as_rational
from .smoothing import SmoothingResult, compose_smoothings, smooth


@dataclass(frozen=True)
class Certificate:
    epsilon: Fraction
    alpha: RGraphMorphism         # f -> smooth(g, epsilon)
    beta: RGraphMorphism          # g -> smooth(f, epsilon)
    sm_f: SmoothingResult         # smooth(f, epsilon)
    sm_g: SmoothingResult         # smooth(g, epsilon)
    sm_f2: SmoothingResult        # smooth(f, 2 * epsilon)
    sm_g2: SmoothingResult        # smooth(g, 2 * epsilon)


def build_certificate(f: RGraph, g: RGraph, eps, alpha: RGraphMorphism,
                      beta: RGraphMorphism) -> Certificate:
    """Assemble the certificate record around given maps, computing the
    four smoothings. No verification happens here."""
    eps = as_rational(eps)
    return Certificate(eps, alpha, beta,
                       smooth(f, eps), smooth(g, eps),
                       smooth(f, 2 * eps), smooth(g, 2 * eps))


def self_certificate(f: RGraph, eps) -> Certificate:
    """The certificate a graph always carries against itself: both maps
    are the canonical one into its smoothing."""
    eps = as_rational(eps)
    sm = smooth(f, eps)
    sm2 = smooth(f, 2 * eps)
    return Certificate(eps, sm.zeta, sm.zeta, sm, sm, sm2, sm2)


def smoothing_certificate(f: RGraph, eps) -> Certificate:
    """The certificate between a graph and its own eps-smoothing: alpha is
    the canonical map applied twice, beta the identity. Verified before it
    is returned."""
    eps = as_rational(eps)
    cs = compose_smoothings(f, eps, eps)
    g = cs.first.smoothed
    alpha = compose(cs.first.zeta, cs.second.zeta)
    cert = Certificate(eps, alpha, identity(g), cs.first, cs.second,
                       cs.total, smooth(g, 2 * eps))
    ok, msg = verify_certificate(cert)
    if not ok:
        raise InternalError("smoothing certificate failed verification: " + msg)
    return cert


def verify_certificate(cert: Certificate) -> tuple[bool, str]:
    """Check a certificate from scratch. Returns (ok, detail); on failure
    the detail names the first reason, including the first cell where a
    round trip leaves the canonical map."""
    eps = cert.epsilon
    f = cert.sm_f.source
    g = cert.sm_g.source
    if (cert.sm_f.epsilon != eps or cert.sm_g.epsilon != eps
            or cert.sm_f2.epsilon != 2 * eps or cert.sm_g2.epsilon != 2 * eps):
        return False, "smoothing radii do not match the certificate's epsilon"
    if cert.sm_f2.source != f or cert.sm_g2.source != g:
        return False, "doubled smoothings taken over different graphs"
    if cert.alpha.source != f or cert.alpha.target != cert.sm_g.smoothed:
        return False, "alpha does not run from the source graph into the smoothed target"
    if cert.beta.source != g or cert.beta.target != cert.sm_f.smoothed:
        return False, "beta does not run from the target graph into the smoothed source"
    rep = validate_morphism(cert.alpha)
    if not rep.ok:
        return False, "alpha is not a morphism: " + rep.violations[0]
    rep = validate_morphism(cert.beta)
    if not rep.ok:
        return False, "beta is not a morphism: " + rep.violations[0]
    beta_shift = shift_compose(cert.beta, cert.sm_g, cert.sm_f, cert.sm_f2)
    diff = morphism_first_difference(compose(cert.alpha, beta_shift), cert.sm_f2.zeta)
    if diff is not None:
        return False, ("round trip through the target leaves the canonical map: "
                       + diff)
    alpha_shift = shift_compose(cert.alpha, cert.sm_f, cert.sm_g, cert.sm_g2)
    diff = morphism_first_difference(compose(cert.beta, alpha_shift), cert.sm_g2.zeta)
    if diff is not None:
        return False, ("round trip through the source leaves the canonical map: "
                       + diff)
    return True, "ok"


# ---------------------------------------------------------------------------
# Exhaustive search.
#
# Candidate maps are enumerated levelwise over a common refinement, but the
# edge choices are kept as unexpanded candidate lists ("bundles"): parallel
# edges would otherwise force a cartesian blow-up. Only one side of the
# certificate is expanded map by map; the equation
#
#     compose(candidate, shift(expanded)) == canonical map
#
# pins the other side's composite cell by cell, so inside a bundle it
# filters each edge's candidates independently, and only the few surviving
# combinations are ever materialised.

@dataclass(frozen=True)
class _Bundle:
    va: dict                          # refined source vertex -> refined target vertex
    choices: tuple                    # (slot, refined piece, candidate list)


class _SearchSide:
    """One direction of the search: all morphisms src -> tgt, refined over
    the union of their critical sets, with the collapse data needed to read
    images back in the original graphs."""

    def __init__(self, src: RGraph, tgt: RGraph):
        su = set(src.criticals) | set(tgt.criticals)
        self.src = src
        self.tgt = tgt
        rs = refine(src, su)
        rt = refine(tgt, su)
        self.S = rs.graph
        self.T = rt.graph
        self.pieces = {e: tuple(rs.edge_map[e]) for e in src.edge_ids}
        self.embed = refine_embed(src, rs)
        self.collapse = refine_collapse(tgt, rt)


def _enumerate_bundles(side: _SearchSide, budget: NodeBudget):
    """Yield every vertex-level assignment whose edges all have at least
    one candidate, without expanding the edge choices.

    A vertex with edges into the level below draws its candidates from
    the targets adjacent to their already fixed images, so constraints
    propagate along chains instead of being discovered after the fact."""
    S, T = side.S, side.T
    for i in range(S.n_levels):
        if S.levels[i] and not T.levels[i]:
            return
    for j in range(S.n_slots):
        if S.slots[j] and not T.slots[j]:
            return

    def candidates(i, v, va):
        below = S.below_edges[v]
        if not below:
            return T.levels[i]
        pairs = T.edge_groups[i - 1]
        return [w for w in T.levels[i]
                if all((va[S.down[i - 1][e]], w) in pairs for e in below)]

    for va in levelwise_assignments(S, candidates, budget):
        choices = tuple(
            (j, e, T.edge_groups[j].get((va[S.down[j][e]], va[S.up[j][e]])))
            for j in range(S.n_slots) for e in S.slots[j])
        if all(cs for _, _, cs in choices):
            yield _Bundle(dict(va), choices)


def _bundle_count(bundle: _Bundle) -> int:
    total = 1
    for _, _, cands in bundle.choices:
        total *= len(cands)
    return total


def _materialise(side: _SearchSide, bundle: _Bundle, chosen: dict):
    """Build the original-graph morphism for one full choice of edge
    candidates (a dict refined piece -> refined target edge)."""
    S, T = side.S, side.T
    vmaps = [{v: bundle.va[v] for v in S.levels[i]} for i in range(S.n_levels)]
    emaps: list[dict[str, str]] = [dict() for _ in range(S.n_slots)]
    for j, piece, _ in bundle.choices:
        emaps[j][piece] = chosen[piece]
    m_ref = levelwise_morphism(S, T, vmaps, emaps)
    return compose(compose(side.embed, m_ref), side.collapse)


def _filter_bundle(side: _SearchSide, bundle: _Bundle, shifted: RGraphMorphism,
                   pin: RGraphMorphism, budget: NodeBudget):
    """Candidates y in the bundle with compose(y, shifted) == pin. The
    equation constrains each vertex image and each edge's image path
    separately, so the result is a per-edge table of surviving choices
    (None when some cell has no survivor at all)."""
    va = bundle.va
    tgt2 = shifted.target
    vimg = {}
    comp_v = {}
    for u in side.src.vertex_ids:
        img = side.collapse.vertex_map[va[u]]
        vimg[u] = img
        if img[0] == "vertex":
            c = shifted.vertex_map[img[1]]
        else:
            c = path_cell_at(tgt2, shifted.edge_map[img[1]], side.src.value(u))
        if c != pin.vertex_map[u]:
            return None
        comp_v[u] = c
    cand_of = {piece: cands for _, piece, cands in bundle.choices}
    table: dict[str, list[dict]] = {}
    for e in side.src.edge_ids:
        pieces = side.pieces[e]
        lo_v, hi_v = side.src.endpoints(e)
        want = pin.edge_map[e]
        valid: list[dict] = []
        for combo in product(*(cand_of[p] for p in pieces)):
            budget.spend()
            owners = merge_paths(side.collapse.edge_map[c] for c in combo)
            raw = trim_path(side.tgt, owners, vimg[lo_v], vimg[hi_v])
            comp = merge_paths(shifted.edge_map[q] for q in raw)
            if trim_path(tgt2, comp, comp_v[lo_v], comp_v[hi_v]) == want:
                valid.append(dict(zip(pieces, combo)))
        if not valid:
            return None
        table[e] = valid
    return table


def _expand_table(side: _SearchSide, bundle: _Bundle, table: dict,
                  budget: NodeBudget):
    """Every map of the bundle that picks one part (a dict refined piece
    -> refined target edge) per table entry, in product order."""
    for parts in product(*table.values()):
        budget.spend()
        chosen: dict = {}
        for part in parts:
            chosen.update(part)
        yield _materialise(side, bundle, chosen)


def _pair_search(exp_side, exp_bundles, exp_shift, bnd_side, bnd_bundles,
                 bnd_shift, pin_exp, pin_bnd, budget):
    """Expand one side morphism by morphism, filter the other side's
    bundles against its shifted composite, and check the other round trip
    on the few survivors. Returns (expanded, bundled) or None."""
    for bundle in exp_bundles:
        every = {piece: [{piece: c} for c in cands]
                 for _, piece, cands in bundle.choices}
        for x in _expand_table(exp_side, bundle, every, budget):
            sx = exp_shift(x)
            for other in bnd_bundles:
                budget.spend()
                table = _filter_bundle(bnd_side, other, sx, pin_exp, budget)
                if table is None:
                    continue
                for y in _expand_table(bnd_side, other, table, budget):
                    if morphism_equal(compose(x, bnd_shift(y)), pin_bnd):
                        return x, y
    return None


@dataclass(frozen=True)
class SearchOutcome:
    status: str                       # "found" | "exhausted" | "budget"
    certificate: Certificate | None
    epsilon: Fraction
    nodes: int


def search_certificate(f: RGraph, g: RGraph, eps, budget: int = 200_000) -> SearchOutcome:
    """Exhaustive search for a certificate at the given radius. "found"
    carries a verified certificate; "exhausted" means no candidate pair of
    maps satisfies the round-trip equations, refuting the radius;
    "budget" draws no conclusion."""
    eps = as_rational(eps)
    if eps < 0:
        raise ValidationError("interleaving radius must be nonnegative")
    sm_f = smooth(f, eps)
    sm_g = smooth(g, eps)
    sm_f2 = smooth(f, 2 * eps)
    sm_g2 = smooth(g, 2 * eps)
    meter = NodeBudget(budget, f"search exceeded {budget} nodes")

    # an isomorphism interleaves at every radius; take that exit before
    # enumerating maps, since the witness assembles into a certificate
    try:
        wit = is_isomorphic(f, g, budget)
    except BudgetExceeded:
        wit = None
    if wit is not None:
        pair = (compose(wit, sm_g.zeta),
                compose(invert_isomorphism(wit), sm_f.zeta))
        meter.nodes += 1        # the isomorphism test counts as one node
    else:
        try:
            pair = _certificate_pair(f, g, sm_f, sm_g, sm_f2, sm_g2, meter)
        except BudgetExceeded:
            return SearchOutcome("budget", None, eps, meter.nodes)
        if pair is None:
            return SearchOutcome("exhausted", None, eps, meter.nodes)
    cert = Certificate(eps, pair[0], pair[1], sm_f, sm_g, sm_f2, sm_g2)
    ok, msg = verify_certificate(cert)
    if not ok:
        raise InternalError("found certificate failed verification: " + msg)
    return SearchOutcome("found", cert, eps, meter.nodes)


def _certificate_pair(f, g, sm_f, sm_g, sm_f2, sm_g2, meter):
    """The first (alpha, beta) whose round trips both equal the canonical
    maps, or None when there is none."""
    side_a = _SearchSide(f, sm_g.smoothed)
    side_b = _SearchSide(g, sm_f.smoothed)
    bundles_a = list(_enumerate_bundles(side_a, meter))
    bundles_b = list(_enumerate_bundles(side_b, meter))
    if not (bundles_a and bundles_b):
        return None

    def shift_alpha(a):
        return shift_compose(a, sm_f, sm_g, sm_g2)

    def shift_beta(b):
        return shift_compose(b, sm_g, sm_f, sm_f2)

    # expand whichever side has fewer concrete maps
    if sum(map(_bundle_count, bundles_a)) <= sum(map(_bundle_count, bundles_b)):
        return _pair_search(side_a, bundles_a, shift_alpha, side_b, bundles_b,
                            shift_beta, sm_g2.zeta, sm_f2.zeta, meter)
    got = _pair_search(side_b, bundles_b, shift_beta, side_a, bundles_a,
                       shift_alpha, sm_f2.zeta, sm_g2.zeta, meter)
    return None if got is None else (got[1], got[0])


# ---------------------------------------------------------------------------
# Distance bracketing.

def finite_distance(f: RGraph, g: RGraph) -> bool:
    """The interleaving distance is finite exactly when the component
    counts agree."""
    return num_components(f) == num_components(g)


@dataclass(frozen=True)
class DistanceBracket:
    infinite: bool
    lower: Fraction | None            # refuted up to here (or 0)
    upper: Fraction | None            # witnessed at this radius
    witness: Certificate | None
    refutation: SearchOutcome | None  # the exhausted search behind `lower`
    unknown_gaps: bool                # a probe ran out of budget


def distance_bracket(f: RGraph, g: RGraph, tol, budget: int = 200_000) -> DistanceBracket:
    """Bisect the interleaving distance to within tol, certifying the
    upper end with a found certificate and the lower end with an
    exhausted search."""
    tol = as_rational(tol)
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if not finite_distance(f, g):
        return DistanceBracket(True, None, None, None, None, False)
    vals = list(f.criticals) + list(g.criticals)
    hi = (max(vals) - min(vals) if vals else Fraction(0)) + 1
    out = search_certificate(f, g, hi, budget)
    if out.status == "budget":
        return DistanceBracket(False, Fraction(0), None, None, None, True)
    if out.status == "exhausted":
        raise InternalError("no interleaving above the value diameter despite "
                            "matching component counts")
    lower = Fraction(0)
    upper = hi
    witness = out.certificate
    refutation = None
    unknown = False
    while upper - lower > tol:
        mid = (upper + lower) / 2
        out = search_certificate(f, g, mid, budget)
        if out.status == "found":
            upper, witness = mid, out.certificate
        elif out.status == "exhausted":
            lower, refutation = mid, out
        else:
            unknown = True
            break
    return DistanceBracket(False, lower, upper, witness, refutation, unknown)


# ---------------------------------------------------------------------------
# Certificate calculus.

def lift_certificate(cert: Certificate, eps2) -> Certificate:
    """Re-issue a certificate at a larger radius. The result is verified
    before it is returned."""
    eps2 = as_rational(eps2)
    delta = eps2 - cert.epsilon
    if delta < 0:
        raise ValidationError("can only lift to a radius at least the current one")
    if delta == 0:
        return cert
    f = cert.sm_f.source
    g = cert.sm_g.source
    cg = compose_smoothings(g, cert.epsilon, delta)
    alpha2 = compose(compose(cert.alpha, cg.second.zeta), cg.witness)
    cf = compose_smoothings(f, cert.epsilon, delta)
    beta2 = compose(compose(cert.beta, cf.second.zeta), cf.witness)
    new = Certificate(eps2, alpha2, beta2, cf.total, cg.total,
                      smooth(f, 2 * eps2), smooth(g, 2 * eps2))
    ok, msg = verify_certificate(new)
    if not ok:
        raise InternalError("lifted certificate failed verification: " + msg)
    return new


def compose_certificates(c1: Certificate, c2: Certificate) -> Certificate:
    """Chain a certificate between f and g at radius e1 with one between
    g and h at radius e2 into one between f and h at radius e1 + e2."""
    if c1.sm_g.source != c2.sm_f.source:
        raise ValidationError("certificates do not share their middle graph")
    f = c1.sm_f.source
    h = c2.sm_g.source
    e1, e2 = c1.epsilon, c2.epsilon
    ch = compose_smoothings(h, e2, e1)
    mid_alpha = smooth_morphism(c2.alpha, e1, sm_source=c1.sm_g, sm_target=ch.second)
    alpha3 = compose(compose(c1.alpha, mid_alpha), ch.witness)
    cf = compose_smoothings(f, e1, e2)
    mid_beta = smooth_morphism(c1.beta, e2, sm_source=c2.sm_f, sm_target=cf.second)
    beta3 = compose(compose(c2.beta, mid_beta), cf.witness)
    return Certificate(e1 + e2, alpha3, beta3, cf.total, ch.total,
                       smooth(f, 2 * (e1 + e2)),
                       smooth(h, 2 * (e1 + e2)))


def contract_certificate(cert: Certificate, delta) -> Certificate:
    """Turn a certificate between f and g into one, at the same radius,
    between their delta-smoothings. The result is verified before it is
    returned."""
    delta = as_rational(delta)
    if delta < 0:
        raise ValidationError("smoothing radius must be nonnegative")
    eps = cert.epsilon
    f = cert.sm_f.source
    g = cert.sm_g.source
    sm_f_d = smooth(f, delta)
    sm_g_d = smooth(g, delta)
    cg1 = compose_smoothings(g, eps, delta)
    a1 = smooth_morphism(cert.alpha, delta, sm_source=sm_f_d, sm_target=cg1.second)
    cg2 = compose_smoothings(g, delta, eps)
    alpha_c = compose(compose(a1, cg1.witness), invert_isomorphism(cg2.witness))
    cf1 = compose_smoothings(f, eps, delta)
    b1 = smooth_morphism(cert.beta, delta, sm_source=sm_g_d, sm_target=cf1.second)
    cf2 = compose_smoothings(f, delta, eps)
    beta_c = compose(compose(b1, cf1.witness), invert_isomorphism(cf2.witness))
    new = Certificate(eps, alpha_c, beta_c, cf2.second, cg2.second,
                      smooth(sm_f_d.smoothed, 2 * eps),
                      smooth(sm_g_d.smoothed, 2 * eps))
    ok, msg = verify_certificate(new)
    if not ok:
        raise InternalError("contracted certificate failed verification: " + msg)
    return new


# ---------------------------------------------------------------------------
# Stability: two value assignments on one domain graph.

def stability_certificate(edges, f_values, g_values) -> Certificate:
    """Given one abstract graph (vertex value dicts plus undirected edges
    as (id, end, end) triples) carrying two vertex value assignments, build
    a verified certificate between the two induced graphs at radius
    eps = max vertex difference. Both assignments must be injective on
    every edge's endpoints."""
    fv = {str(v): as_rational(x) for v, x in f_values.items()}
    gv = {str(v): as_rational(x) for v, x in g_values.items()}
    if set(fv) != set(gv):
        raise ValidationError("the two value assignments name different vertices")
    eps = Fraction(0)
    for v in fv:
        eps = max(eps, abs(fv[v] - gv[v]))

    if isinstance(edges, dict):
        edges = [(eid, a, b) for eid, (a, b) in edges.items()]
    oriented_f = []
    oriented_g = []
    ends: dict[str, tuple[str, str]] = {}
    for item in edges:
        eid, a, b = (str(x) for x in item)
        if a not in fv or b not in fv:
            raise ValidationError(f"edge {eid!r} uses unknown endpoints")
        if fv[a] == fv[b] or gv[a] == gv[b]:
            raise ValidationError(f"edge {eid!r} must have distinct endpoint "
                                  "values under both assignments")
        if eid in ends:
            raise ValidationError(f"duplicate edge id {eid!r}")
        ends[eid] = (a, b)
        oriented_f.append((eid, a, b) if fv[a] < fv[b] else (eid, b, a))
        oriented_g.append((eid, a, b) if gv[a] < gv[b] else (eid, b, a))

    verts_f = [(v, fv[v]) for v in sorted(fv)]
    verts_g = [(v, gv[v]) for v in sorted(gv)]
    gf, segf, split_f = _build(verts_f, oriented_f, ())
    gg, segg, split_g = _build(verts_g, oriented_g, ())

    sm_fu = smooth(gf, eps)
    sm_gu = smooth(gg, eps)

    def other_value(eid, c, va, vb):
        """Value under the other assignment of the point at value c on the
        edge, both parameterisations linear."""
        a, b = ends[eid]
        return vb[a] + (c - va[a]) * (vb[b] - vb[a]) / (va[b] - va[a])

    def chain_cell_at(graph, chain, value):
        """The cell of a refined edge chain lying at the given value,
        which must be strictly inside the chain's span."""
        for s in chain:
            x, y = graph.span(s)
            if x < value < y:
                return s
            if value == y:
                return graph.endpoints(s)[1]
        raise InternalError("point value left the edge's span")

    def chain_cells_between(graph, chain, glo, ghi):
        cells = []
        for s in chain:
            x, y = graph.span(s)
            if x < ghi and y > glo:
                cells.append(s)
            if glo < y < ghi:
                cells.append(graph.endpoints(s)[1])
        return cells

    def point_pull(src_graph, src_splits, src_seg, src_vals, dst_graph,
                   dst_seg, dst_vals):
        pull: dict[str, frozenset] = {}
        for v in src_graph.vertex_ids:
            if v in src_splits:
                eid = src_splits[v]
                u = other_value(eid, src_graph.value(v), src_vals, dst_vals)
                pull[v] = frozenset((chain_cell_at(dst_graph, dst_seg[eid], u),))
            else:
                pull[v] = frozenset((v,))
        owner = {s: e for e, segs in src_seg.items() for s in segs}
        for s in src_graph.edge_ids:
            eid = owner[s]
            c1, c2 = src_graph.span(s)
            u1 = other_value(eid, c1, src_vals, dst_vals)
            u2 = other_value(eid, c2, src_vals, dst_vals)
            glo, ghi = min(u1, u2), max(u1, u2)
            cells = chain_cells_between(dst_graph, dst_seg[eid], glo, ghi)
            pull[s] = frozenset(cells)
        return pull

    pull_f = point_pull(gf, split_f, segf, fv, gg, segg, gv)
    pull_g = point_pull(gg, split_g, segg, gv, gf, segf, fv)
    alpha_u = transport(gf, lambda x, value: pull_f[x], sm_gu)
    beta_u = transport(gg, lambda x, value: pull_g[x], sm_fu)

    red_f = reduce(gf)
    red_g = reduce(gg)
    f_red, g_red = red_f.graph, red_g.graph
    sm_f_red = smooth(f_red, eps)
    sm_g_red = smooth(g_red, eps)
    u_coll_g = smooth_morphism(reduce_collapse(gg, red_g), eps,
                               sm_source=sm_gu, sm_target=sm_g_red)
    u_coll_f = smooth_morphism(reduce_collapse(gf, red_f), eps,
                               sm_source=sm_fu, sm_target=sm_f_red)
    alpha = compose(compose(reduce_embed(gf, red_f), alpha_u), u_coll_g)
    beta = compose(compose(reduce_embed(gg, red_g), beta_u), u_coll_f)

    cert = Certificate(eps, alpha, beta, sm_f_red, sm_g_red,
                       smooth(f_red, 2 * eps), smooth(g_red, 2 * eps))
    ok, msg = verify_certificate(cert)
    if not ok:
        raise InternalError("stability certificate failed verification: " + msg)
    return cert


# ---------------------------------------------------------------------------
# Below the smallest gap, interleaved means isomorphic.

def quantified_iso_check(f: RGraph, g: RGraph,
                         budget: int = 200_000) -> RGraphMorphism | None:
    """Probe the interleaving at an eighth of the smallest gap between
    critical values. A found certificate forces the graphs isomorphic, and
    the isomorphism is returned; an exhausted search returns None."""
    su = sorted(set(f.criticals) | set(g.criticals))
    if len(su) >= 2:
        probe = min(b - a for a, b in zip(su, su[1:])) / 8
    else:
        probe = Fraction(1)
    out = search_certificate(f, g, probe, budget)
    if out.status == "budget":
        raise BudgetExceeded("interleaving search budget exhausted")
    if out.status == "exhausted":
        return None
    witness = is_isomorphic(f, g, budget)
    if witness is None:
        raise InternalError("interleaved below the gap threshold yet no "
                            "isomorphism was found")
    return witness
