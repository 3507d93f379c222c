"""Interleaving certificates between graphs over the real line.

A certificate at radius eps consists of maps alpha: f -> smooth(g, eps)
and beta: g -> smooth(f, eps) whose shifted round trips equal the
canonical maps into the doubled smoothings. A certificate holds f, g,
eps and the two maps; verification recomputes the four smoothings and
the shifted composites and compares; search enumerates candidate maps
levelwise over a common refinement, so an exhausted search soundly
refutes the radius. Before any of that, a rank count on the two Reeb
cosheaves refutes most radii with a witness `verify_refutation` re-checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, product
from math import prod

from .core import (RGraph, _build, _edge_triples, component_sets,
                   num_components, reduce, refine)
from .cosheaf import Interval, expand, interval
from .dynconn import RollbackUnionFind
from .errors import BudgetExceeded, InternalError, ValidationError
from .iso import NodeBudget, check_budget, is_isomorphic, levelwise_assignments
from .morphism import (RGraphMorphism, compose, identity, image_at, image_path,
                       invert_isomorphism, morphism_equal,
                       morphism_first_difference, reduce_embed,
                       refine_collapse, shift_compose, transport,
                       validate_morphism)
from .rationals import as_radius, as_rational, format_rational, scaled
from .smoothing import smooth


@dataclass(frozen=True)
class Certificate:
    """An eps-interleaving of f and g. The smoothings it runs between are
    functions of a graph and a radius, so it holds none of them."""
    f: RGraph
    g: RGraph
    epsilon: Fraction
    alpha: RGraphMorphism         # f -> smooth(g, epsilon)
    beta: RGraphMorphism          # g -> smooth(f, epsilon)


def _smoothings(f: RGraph, g: RGraph, eps: Fraction):
    """The memo sm(d, k): S_{k eps} of graph d (0 for f, 1 for g), built
    on first use and kept as long as the memo is."""
    return cache(lambda d, k: smooth((f, g)[d], k * eps))


def self_certificate(f: RGraph, eps) -> Certificate:
    """The certificate a graph always carries against itself: both maps
    are the canonical one into its smoothing."""
    eps = as_rational(eps)
    zeta = smooth(f, eps).zeta
    return Certificate(f, f, eps, zeta, zeta)


def smoothing_certificate(f: RGraph, eps) -> Certificate:
    """The certificate between a graph and its own eps-smoothing: alpha is
    the canonical map applied twice, beta the identity. Verified before it
    is returned."""
    eps = as_rational(eps)
    first = smooth(f, eps)
    g = first.smoothed
    rest = _smoothings(f, g, eps)

    def sm(d, k):                         # S_eps f is the one built already
        return first if (d, k) == (0, 1) else rest(d, k)
    return _verified("smoothing", Certificate(
        f, g, eps, compose(sm(0, 1).zeta, sm(1, 1).zeta), identity(g)), sm)


def _verified(what: str, cert: Certificate, sm) -> Certificate:
    """The certificate, once `verify_certificate`'s checks accept it on
    the smoothings of the memo sm it was built from, `_smoothings` of its
    own f, g and radius; a rejection is an internal error naming what
    kind of certificate failed."""
    ok, msg = _check(cert, sm)
    if not ok:
        raise InternalError(f"{what} certificate failed verification: {msg}")
    return cert


def verify_certificate(cert: Certificate) -> tuple[bool, str]:
    """Check a certificate from scratch, smoothing f and g at eps and 2 eps
    itself. Returns (ok, detail); on failure the detail names the first
    reason, including the first cell where a map leaves its graphs or a
    round trip leaves the canonical map."""
    eps = cert.epsilon
    if isinstance(eps, bool) or not isinstance(eps, (int, Fraction)):
        return False, f"the radius {eps!r} is not an int or a Fraction"
    if eps < 0:
        return False, f"the radius {format_rational(eps)} is negative"
    return _check(cert, _smoothings(cert.f, cert.g, eps))


def _check(cert: Certificate, sm) -> tuple[bool, str]:
    """`verify_certificate`'s checks on a nonnegative radius, reading
    S_{k eps} of graph d (0 for f, 1 for g) from the memo sm(d, k)."""
    graphs, maps = (cert.f, cert.g), (cert.alpha, cert.beta)
    for d, name in enumerate(("alpha", "beta")):
        own, into = "fg"[d], f"S_eps {'gf'[d]}"
        if maps[d].source != graphs[d]:
            return False, (f"{name} does not run from {own}: "
                           + _misplaced(maps[d].source, graphs[d], "its source", own))
        target = sm(1 - d, 1).smoothed
        if maps[d].target != target:
            return False, (f"{name} does not run into {into} at epsilon = "
                           f"{format_rational(cert.epsilon)}: "
                           + _misplaced(maps[d].target, target, "its target", into))
        rep = validate_morphism(maps[d])
        if not rep.ok:
            return False, f"{name} is not a morphism: " + rep.violations[0]
    # graph d's round trip is its own map followed by the other one shifted
    for d, through in ((0, "target"), (1, "source")):
        shifted = shift_compose(maps[1 - d], sm(1 - d, 1), sm(d, 1), sm(d, 2))
        diff = morphism_first_difference(compose(maps[d], shifted), sm(d, 2).zeta)
        if diff is not None:
            return False, f"round trip through the {through} leaves the canonical map: {diff}"
    return True, "ok"


def _misplaced(a: RGraph, b: RGraph, a_name: str, b_name: str) -> str:
    """Where graph a departs from graph b: the first cell, of a in level
    then slot order and then of b, that the other graph lacks or places
    elsewhere (a vertex at another value, an edge between other ends),
    or else their criticals."""
    for g, h, gn, hn in ((a, b, a_name, b_name), (b, a, b_name, a_name)):
        for v in g.vertex_ids:
            if v not in h.vertex_level or h.value(v) != g.value(v):
                return f"{gn} has vertex {v!r} at {format_rational(g.value(v))}, {hn} does not"
        for e in g.edge_ids:
            if e not in h.edge_slot or h.endpoints(e) != g.endpoints(e):
                lo, hi = g.endpoints(e)
                return f"{gn} has edge {e!r} from {lo!r} to {hi!r}, {hn} does not"
    return f"{a_name} and {b_name} have different criticals"


# ---------------------------------------------------------------------------
# Refutation by cosheaf ranks.
#
# If F and G are eps-interleaved, F(I) -> F(I^2eps) factors through G(I^eps)
# for every open interval I, so its image has at most |G(I^eps)| elements,
# and the same with F and G swapped: an interval that breaks the bound
# refutes eps before anything is smoothed.

@dataclass(frozen=True)
class Refutation:
    """An interval breaking the bound: side "f" bounds the first graph's
    extension by the second graph's value, side "g" the reverse."""
    epsilon: Fraction
    interval: Interval
    side: str                         # "f" | "g"
    image: int                        # elements in the extension's image
    bound: int                        # elements of the other value on I^eps


class _Ranks:
    """Components of a graph's preimages of open intervals, in integer
    coordinates (values times a common scale). An open interval meets a
    range of doubled positions, 2k on level k and 2k+1 on the slot above
    it; prefix sums count the cells of a range. Listed slot by slot, each
    slot's (edge, lower end) links, then its (edge, upper end) links, the
    links inside the range (p, q) are exactly groups[p:q], so a union-find
    sliding over that list gives its components as long as neither end
    of the ranges asked about moves back."""

    def __init__(self, g: RGraph, crit: list[int]):
        self.crit = crit
        num = {c: n for n, c in enumerate((*g.vertex_ids, *g.edge_ids))}
        self.at: list[list[int]] = []        # the cells at each position
        groups: list[list[tuple[int, int]]] = []
        for k, lev in enumerate(g.levels):
            self.at.append([num[v] for v in lev])
            if k < g.n_slots:
                slot, down, up = g.slots[k], g.down[k], g.up[k]
                self.at.append([num[e] for e in slot])
                groups += ([(num[e], num[down[e]]) for e in slot],
                           [(num[e], num[up[e]]) for e in slot])
        self.last = len(self.at) - 1
        self.before = [0, *accumulate(map(len, self.at))]   # cells before each position
        self._uf = RollbackUnionFind(len(num), groups)

    def span(self, lo, hi, r: int) -> tuple[int, int]:
        """The first and last doubled positions that (lo - r, hi + r) meets;
        an end of None is unbounded."""
        last = self.last
        p = 0 if lo is None else 2 * bisect_right(self.crit, lo - r) - 1
        q = last if hi is None else 2 * bisect_left(self.crit, hi + r) - 1
        return p if p > 0 else 0, q if q < last else last

    def cells(self, r: tuple[int, int]) -> int:
        """The number of cells on the positions of range r."""
        return self.before[r[1] + 1] - self.before[r[0]] if r[0] <= r[1] else 0

    def image(self, small: tuple[int, int], big: tuple[int, int]) -> int:
        """Elements in the image of the extension from the value on range
        `small` into that on range `big`; image(r, r) counts the value on r.
        Over `big`, an edge joins those of its endpoints in the range."""
        uf = self._uf
        uf.slide(*big)      # returns at once on a run of checks on one range
        if small == big:    # each union that merged two classes removes one
            return self.cells(big) - len(uf.undo)
        return len({uf.find(c) for cells in self.at[small[0]:small[1] + 1] for c in cells})


def _refute(f: RGraph, g: RGraph, eps: Fraction) -> Refutation | None:
    """The first interval that breaks the rank bound at eps, or None. Its
    ends are neighbouring or next-but-one candidates s + k eps (k in -2..2,
    s critical in either graph), or unbounded beyond the outermost, scanned
    by low end, then high end, then side f before side g. Each side has
    one `_Ranks` for its images at 2 eps and one for its bounds at eps;
    along this order both ends of each one's ranges never decrease, so
    each one's window only slides forward. An image has at most as many
    elements as I has cells, and a bound is at least 1 once I^eps holds a
    cell, so only a check with two cells over I, or one against an empty
    I^eps, counts components."""
    scale, (e, *crit) = scaled((eps, *f.criticals, *g.criticals))
    cf, cg = crit[:f.n_levels], crit[f.n_levels:]
    ends = [None, *sorted({s + k * e for s in crit for k in range(-2, 3)}), None]
    sides = (("f", _Ranks(f, cf), _Ranks(g, cg)), ("g", _Ranks(g, cg), _Ranks(f, cf)))
    for i, lo in enumerate(ends[:-1]):
        for hi in ends[i + 1:i + 3]:
            for side, own, other in sides:
                small, around = own.span(lo, hi, 0), other.span(lo, hi, e)
                n, some = own.cells(small), other.cells(around)
                if n == 0 or n == 1 and some:
                    continue
                image = own.image(small, own.span(lo, hi, 2 * e))
                bound = other.image(around, around) if some else 0
                if image > bound:
                    iv = interval(None if lo is None else Fraction(lo, scale),
                                  None if hi is None else Fraction(hi, scale))
                    return Refutation(eps, iv, side, image, bound)
    return None


def _over(g: RGraph, iv: Interval) -> list[frozenset[str]]:
    """g's Reeb cosheaf on an open interval: the components of the vertices
    strictly inside it and of the edges whose open span meets it."""
    S = g.criticals
    a = 0 if iv.lo is None else bisect_right(S, iv.lo)
    b = len(S) if iv.hi is None else bisect_left(S, iv.hi)
    return component_sets(g, [v for lev in g.levels[a:b] for v in lev],
                          [e for slot in g.slots[max(a - 1, 0):b] for e in slot])


def _rank_counts(own: RGraph, other: RGraph, iv: Interval, eps) -> tuple[int, int]:
    """The image of own's extension from iv to iv^2eps, as the number of
    components over iv^2eps that those over iv land in, and the number of
    other's components over iv^eps."""
    where = {c: n for n, comp in enumerate(_over(own, expand(iv, 2 * eps))) for c in comp}
    image = len({where[next(iter(comp))] for comp in _over(own, iv)})
    return image, len(_over(other, expand(iv, eps)))


def verify_refutation(f: RGraph, g: RGraph, ref: Refutation) -> tuple[bool, str]:
    """Re-evaluate a refutation from the two graphs, apart from `_refute`:
    both counts must be the recorded ones and the image must exceed the
    bound. Returns (ok, detail); the detail names the interval, side and counts."""
    iv, eps = ref.interval, ref.epsilon
    where = f"on {iv}, side {ref.side!r}"
    if ref.side not in ("f", "g") or eps < 0 or iv.empty:
        return False, (where + ": needs side 'f' or 'g', a nonempty interval "
                       "and a nonnegative radius")
    own, other = (f, g) if ref.side == "f" else (g, f)
    image, bound = _rank_counts(own, other, iv, eps)
    if (image, bound) != (ref.image, ref.bound) or image <= bound:
        return False, (f"{where}: the extension's image has {image} elements "
                       f"against a bound of {bound}; the witness records "
                       f"{ref.image} and {ref.bound}")
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
# combinations are ever built, directly in the original graphs. The filter
# and the expansion both use `compose`'s own two rules, `image_at` and
# `image_path`.

@dataclass(frozen=True)
class _Bundle:
    va: dict                          # refined source vertex -> refined target vertex
    choices: tuple                    # (refined piece, candidate list), slot by slot


class _SearchSide:
    """One direction of the search: all morphisms src -> tgt, enumerated
    over the union of their critical sets and read back in the original
    graphs through the collapse of the target's refinement."""

    def __init__(self, src: RGraph, tgt: RGraph):
        self.src = src
        self.tgt = tgt
        rs = refine(src, tgt.criticals)
        rt = refine(tgt, src.criticals)
        self.S = rs.graph
        self.T = rt.graph
        self.pieces = {e: tuple(rs.edge_map[e]) for e in src.edge_ids}
        self.collapse = refine_collapse(tgt, rt)

    def vertex_images(self, va: dict) -> dict:
        """Each source vertex's image in tgt under a bundle's vertex map."""
        cell = self.collapse.vertex_map
        return {u: cell[va[u]] for u in self.src.vertex_ids}

    def edge_image(self, e: str, combo, vimg: dict) -> tuple[str, ...]:
        """Edge e's image path in tgt when its pieces, in order, go to the
        refined target edges combo and its ends to their images in vimg."""
        lo_v, hi_v = self.src.endpoints(e)
        return image_path(self.collapse, combo, vimg[lo_v], vimg[hi_v])


def _enumerate_bundles(side: _SearchSide, budget: NodeBudget):
    """Yield every vertex-level assignment whose edges all have at least
    one candidate, without expanding the edge choices.

    A vertex with edges into the level below draws its candidates from
    the targets adjacent to their already fixed images, so constraints
    propagate along chains instead of being discovered after the fact:
    each target vertex holds a bitmask of its upper neighbours, bit k for
    the k-th vertex of the level above, and a vertex's candidates are the
    bits set in the masks of all its lower neighbours' images."""
    S, T = side.S, side.T
    for i in range(S.n_levels):
        if S.levels[i] and not T.levels[i]:
            return
    for j in range(S.n_slots):
        if S.slots[j] and not T.slots[j]:
            return
    above = dict.fromkeys(T.vertex_ids, 0)
    for j, slot in enumerate(T.slots):
        bit = {w: 1 << k for k, w in enumerate(T.levels[j + 1])}
        for e in slot:
            above[T.down[j][e]] |= bit[T.up[j][e]]
    edges = [(j, e, S.down[j][e], S.up[j][e]) for j, slot in enumerate(S.slots) for e in slot]
    lows: dict[str, list[str]] = {v: [] for v in S.vertex_ids}
    for _, _, lo, hi in edges:
        lows[hi].append(lo)

    def candidates(i, v, va):
        if not lows[v]:
            return T.levels[i]
        mask = -1
        for u in lows[v]:
            mask &= above[va[u]]
        return [w for k, w in enumerate(T.levels[i]) if mask >> k & 1]

    # each edge's upper end was drawn adjacent to its lower end's image
    for va in levelwise_assignments(S, candidates, budget):
        yield _Bundle(dict(va), tuple((e, T.edge_groups[j][va[lo], va[hi]])
                                      for j, e, lo, hi in edges))


def _filter_bundle(side: _SearchSide, bundle: _Bundle, shifted: RGraphMorphism,
                   pin: RGraphMorphism, budget: NodeBudget):
    """Candidates y in the bundle with compose(y, shifted) == pin. The
    equation constrains each vertex image and each edge's image path
    separately, so the result is a per-edge table of surviving choices
    (None when some cell has no survivor at all)."""
    src, pinned = side.src, pin.vertex_map
    vimg = side.vertex_images(bundle.va)
    for u, img in vimg.items():
        if image_at(shifted, img, src.value(u)) != pinned[u]:
            return None
    # from here on the composite's vertex images are the pinned ones
    cand_of = dict(bundle.choices)
    table: dict[str, list[dict]] = {}
    for e in src.edge_ids:
        pieces = side.pieces[e]
        lo_v, hi_v = src.endpoints(e)
        valid: list[dict] = []
        for combo in product(*(cand_of[p] for p in pieces)):
            budget.spend()
            raw = side.edge_image(e, combo, vimg)
            if image_path(shifted, raw, pinned[lo_v], pinned[hi_v]) == pin.edge_map[e]:
                valid.append(dict(zip(pieces, combo)))
        if not valid:
            return None
        table[e] = valid
    return table


def _expand_table(side: _SearchSide, bundle: _Bundle, table: dict,
                  budget: NodeBudget):
    """Every map of the bundle that picks one part (a dict refined piece
    -> refined target edge) per table entry, in product order, as a
    morphism of the original graphs."""
    vimg = side.vertex_images(bundle.va)
    for parts in product(*table.values()):
        budget.spend()
        chosen: dict = {}
        for part in parts:
            chosen.update(part)
        emap = {e: side.edge_image(e, [chosen[p] for p in pieces], vimg)
                for e, pieces in side.pieces.items()}
        yield RGraphMorphism(side.src, side.tgt, dict(vimg), emap)


def _pair_search(sides, bundles, d, sm, meter):
    """Expand direction d map by map, filter direction 1 - d's bundles
    against each map's shifted composite, and check the other round trip
    on the few survivors. Direction d maps graph d into sm(1 - d, 1).
    Returns (alpha, beta) or None."""
    def shifted(x, d):
        return shift_compose(x, sm(d, 1), sm(1 - d, 1), sm(1 - d, 2))

    e = 1 - d
    for bundle in bundles[d]:
        every = {piece: [{piece: c} for c in cands] for piece, cands in bundle.choices}
        for x in _expand_table(sides[d], bundle, every, meter):
            sx, pin = shifted(x, d), sm(e, 2).zeta
            for other in bundles[e]:
                meter.spend()
                table = _filter_bundle(sides[e], other, sx, pin, meter)
                if table is None:
                    continue
                for y in _expand_table(sides[e], other, table, meter):
                    if morphism_equal(compose(x, shifted(y, e)), sm(d, 2).zeta):
                        return (x, y) if d == 0 else (y, x)
    return None


@dataclass(frozen=True)
class SearchOutcome:
    status: str                       # "found" | "exhausted" | "budget"
    certificate: Certificate | None
    epsilon: Fraction
    nodes: int
    refutation: Refutation | None = None


def search_certificate(f: RGraph, g: RGraph, eps, budget: int = 200_000) -> SearchOutcome:
    """Exhaustive search for a certificate at the given radius. "found"
    carries a verified certificate; "exhausted" refutes the radius, either
    by a verified rank `Refutation` (spending no nodes) or because no
    candidate pair of maps satisfies the round-trip equations; "budget"
    draws no conclusion. One meter of `budget` nodes covers the whole
    probe, the isomorphism test included: `nodes` counts every node spent,
    and an overrun anywhere ends the probe as "budget"."""
    return _probe(f, g, eps, budget)[0]


def _probe(f: RGraph, g: RGraph, eps,
           budget: int) -> tuple[SearchOutcome, RGraphMorphism | None]:
    """`search_certificate`'s outcome, and the isomorphism its gate found,
    if the probe reached the gate and it found one."""
    meter = NodeBudget(budget, f"search exceeded {budget} nodes")
    eps = as_radius(eps, "interleaving")
    ref = _refute(f, g, eps)
    if ref is not None:
        ok, msg = verify_refutation(f, g, ref)
        if not ok:
            raise InternalError("rank refutation failed verification: " + msg)
        return SearchOutcome("exhausted", None, eps, 0, ref), None
    # the first enumeration, where most budget probes end, reads only sm(1, 1)
    sm = _smoothings(f, g, eps)
    try:
        # an isomorphism interleaves at every radius; take that exit before
        # enumerating maps, since the witness assembles into a certificate
        wit = is_isomorphic(f, g, meter)
        if wit is None:
            pair = _certificate_pair(f, g, sm, meter)
        else:
            pair = compose(wit, sm(1, 1).zeta), compose(invert_isomorphism(wit), sm(0, 1).zeta)
    except BudgetExceeded:
        return SearchOutcome("budget", None, eps, meter.nodes), None
    if pair is None:
        return SearchOutcome("exhausted", None, eps, meter.nodes), None
    cert = _verified("found", Certificate(f, g, eps, *pair), sm)
    return SearchOutcome("found", cert, eps, meter.nodes), wit


def _certificate_pair(f, g, sm, meter):
    """The first (alpha, beta) whose round trips both equal the canonical
    maps, or None if none. Direction d searches the maps from graph d (f,
    then g) into sm(1 - d, 1), where sm(d, k) is S_{k eps} of graph d."""
    sides, bundles = [], []
    for d, src in enumerate((f, g)):
        # direction 1 is refined only once direction 0's enumeration has
        # stayed within the budget
        sides.append(_SearchSide(src, sm(1 - d, 1).smoothed))
        bundles.append(list(_enumerate_bundles(sides[d], meter)))
    if not all(bundles):
        return None
    maps = [sum(prod(len(cands) for _, cands in bd.choices) for bd in bs) for bs in bundles]
    # expand whichever direction has fewer concrete maps
    return _pair_search(sides, bundles, int(maps[0] > maps[1]), sm, meter)


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
    refutation: SearchOutcome | None  # the exhausted search behind `lower`,
                                      # with its rank witness if it has one
    unknown_gaps: bool                # a probe ran out of budget


def distance_bracket(f: RGraph, g: RGraph, tol, budget: int = 200_000) -> DistanceBracket:
    """Bisect the interleaving distance to within tol, certifying the
    upper end with a found certificate and the lower end with an
    exhausted search."""
    check_budget(budget)
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
        raise InternalError(f"no interleaving at radius {format_rational(hi)}, above "
                            "the value diameter, despite matching component counts")
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
    """Re-issue a certificate at a larger radius, by composing it with
    the target graph's self-certificate at the difference. The result is
    verified before it is returned."""
    eps2 = as_rational(eps2)
    delta = eps2 - cert.epsilon
    if delta < 0:
        raise ValidationError("can only lift to a radius at least the current one")
    if delta == 0:
        return cert
    return compose_certificates(cert, self_certificate(cert.g, delta))


def compose_certificates(c1: Certificate, c2: Certificate) -> Certificate:
    """Chain a certificate between f and g at radius e1 with one between
    g and h at radius e2 into one between f and h at radius e1 + e2. The
    result is verified before it is returned."""
    if c1.g != c2.f:
        raise ValidationError("certificates do not share their middle graph")
    f, g, h = c1.f, c1.g, c2.g
    e1, e2 = c1.epsilon, c2.epsilon
    sm = _smoothings(f, h, e1 + e2)
    # c2's alpha shifts from S_e1 g, c1's beta from S_e2 g
    alpha = compose(c1.alpha, shift_compose(c2.alpha, smooth(g, e1), smooth(h, e2), sm(1, 1)))
    beta = compose(c2.beta, shift_compose(c1.beta, smooth(g, e2), smooth(f, e1), sm(0, 1)))
    return _verified("composed", Certificate(f, h, e1 + e2, alpha, beta), sm)


def contract_certificate(cert: Certificate, delta) -> Certificate:
    """Turn a certificate between f and g into one, at the same radius,
    between their delta-smoothings. The result is verified before it is
    returned."""
    delta = as_radius(delta, "smoothing")
    eps, graphs, maps = cert.epsilon, (cert.f, cert.g), (cert.alpha, cert.beta)
    near = [smooth(x, delta) for x in graphs]
    total = [smooth(x, eps + delta) for x in graphs]
    sm = _smoothings(near[0].smoothed, near[1].smoothed, eps)
    # alpha shifts to S_delta f -> S_{eps+delta} g, and the inverse of the
    # shifted identity S_eps S_delta g -> S_{eps+delta} g carries it on
    # into S_eps S_delta g; beta likewise
    back = [invert_isomorphism(shift_compose(identity(near[d].smoothed), sm(d, 1),
                                             near[d], total[d])) for d in (0, 1)]
    alpha, beta = (compose(shift_compose(maps[d], near[d], smooth(graphs[1 - d], eps),
                                         total[1 - d]), back[1 - d]) for d in (0, 1))
    return _verified("contracted", Certificate(near[0].smoothed, near[1].smoothed,
                                               eps, alpha, beta), sm)


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
    eps = max((abs(fv[v] - gv[v]) for v in fv), default=Fraction(0))

    oriented_f = []
    oriented_g = []
    for eid, a, b in _edge_triples(edges):
        if a not in fv or b not in fv:
            raise ValidationError(f"edge {eid!r} uses unknown endpoints")
        if fv[a] == fv[b] or gv[a] == gv[b]:
            raise ValidationError(f"edge {eid!r} must have distinct endpoint "
                                  "values under both assignments")
        oriented_f.append((eid, a, b) if fv[a] < fv[b] else (eid, b, a))
        oriented_g.append((eid, a, b) if gv[a] < gv[b] else (eid, b, a))

    verts_f = [(v, fv[v]) for v in sorted(fv)]
    verts_g = [(v, gv[v]) for v in sorted(gv)]
    gf, segf, split_f = _build(verts_f, oriented_f, ())
    gg, segg, split_g = _build(verts_g, oriented_g, ())
    red_f, red_g = reduce(gf), reduce(gg)
    sm = _smoothings(red_f.graph, red_g.graph, eps)

    def whole_edge_images(src, src_seg, src_splits, dst_seg, dst_splits, red):
        """Each cell of input edge e has all of e in the other graph, its
        segments and split vertices, as its images; any other cell of src
        is its own. Images are named by their cells in the other graph's
        reduced form. Both value functions are linear along e, so the cells
        `transport` keeps in a window form one connected run, and that
        run holds the point's image."""
        whole = {e: {red.edge_map[s] for s in segs} for e, segs in dst_seg.items()}
        for v, e in dst_splits.items():
            whole[e].add(red.dropped_vertices.get(v, v))
        pull = {s: whole[e] for e, segs in src_seg.items() for s in segs}
        pull.update((v, whole[e]) for v, e in src_splits.items())
        return {x: pull.get(x, (red.dropped_vertices.get(x, x),))
                for x in (*src.vertex_ids, *src.edge_ids)}, None, None

    alpha = compose(reduce_embed(gf, red_f), transport(
        gf, whole_edge_images(gf, segf, split_f, segg, split_g, red_g), sm(1, 1)))
    beta = compose(reduce_embed(gg, red_g), transport(
        gg, whole_edge_images(gg, segg, split_g, segf, split_f, red_f), sm(0, 1)))
    return _verified("stability", Certificate(red_f.graph, red_g.graph, eps, alpha, beta), sm)


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
    out, witness = _probe(f, g, probe, budget)
    if out.status == "budget":
        raise BudgetExceeded("interleaving search budget exhausted")
    if out.status == "exhausted":
        return None
    if witness is None:
        raise InternalError(f"interleaved at radius {format_rational(probe)}, below "
                            "the gap threshold, yet no isomorphism was found")
    return witness
