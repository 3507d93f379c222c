import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb import (EMPTY_INTERVAL, Cosheaf, ValidationError, build_rgraph,
                  check_gluing, display, evaluate, expand, extend_map, fork,
                  intersect, interval, interval_subset, is_cosheaf_iso,
                  is_isomorphic, line, loop, point, random_cosheaf,
                  random_rgraph, reeb_cosheaf, refine_cosheaf, sigma_map,
                  smooth, smooth_cosheaf, validate_cosheaf,
                  validate_cosheaf_morphism)

HALF = Fraction(1, 2)


def test_interval_basics():
    iv = interval(0, 1)
    assert not iv.empty and iv.lo == 0 and iv.hi == 1
    assert interval(1, 1).empty
    assert interval(2, 1).empty
    whole = interval()
    assert whole.lo is None and whole.hi is None
    assert interval_subset(iv, whole)
    assert interval_subset(EMPTY_INTERVAL, iv)
    assert not interval_subset(whole, iv)
    assert intersect(interval(0, 2), interval(1, 3)) == interval(1, 2)
    assert intersect(interval(0, 1), interval(2, 3)).empty
    assert expand(interval(0, 1), HALF) == interval(-HALF, Fraction(3, 2))
    assert expand(EMPTY_INTERVAL, HALF).empty
    with pytest.raises(ValidationError):
        expand(interval(0, 1), -1)


def loop_cosheaf():
    return reeb_cosheaf(loop(0, 1))


def test_reeb_cosheaf_of_loop_frozen():
    F = loop_cosheaf()
    assert F.criticals == (Fraction(0), Fraction(1))
    assert F.node_sets == (("{e0,e1,v0}",), ("{e0,e1,v1}",))
    assert F.edge_sets == (("e0", "e1"),)
    assert F.left_maps[0] == {"e0": "{e0,e1,v0}", "e1": "{e0,e1,v0}"}
    assert F.right_maps[0] == {"e0": "{e0,e1,v1}", "e1": "{e0,e1,v1}"}
    assert validate_cosheaf(F).ok


def test_evaluate_cases():
    F = loop_cosheaf()
    whole = evaluate(F, interval())
    assert len(whole) == 1
    assert whole[0] == frozenset({("v", 0, "{e0,e1,v0}"),
                                  ("v", 1, "{e0,e1,v1}"),
                                  ("e", 0, "e0"), ("e", 0, "e1")})
    # an interval inside the gap sees the two strands separately
    gap = evaluate(F, interval(0, 1))
    assert sorted(gap) == [frozenset({("e", 0, "e0")}),
                           frozenset({("e", 0, "e1")})]
    # covering one endpoint joins them
    left = evaluate(F, interval(-1, 1))
    assert len(left) == 1
    assert evaluate(F, interval(5, 9)) == ()
    assert evaluate(F, interval(-5, 0)) == ()
    assert evaluate(F, EMPTY_INTERVAL) == ()


def test_extend_map_tracks_inclusions():
    F = loop_cosheaf()
    small = interval(0, 1)
    big = interval()
    m = extend_map(F, small, big)
    whole = evaluate(F, big)[0]
    assert set(m.values()) == {whole}
    assert len(m) == 2
    with pytest.raises(ValidationError):
        extend_map(F, big, small)


def test_display_roundtrip_on_fixtures():
    for g in (line(0, 1), loop(0, 1), fork(), point(2)):
        F = reeb_cosheaf(g)
        assert validate_cosheaf(F).ok
        assert is_isomorphic(display(F), g) is not None


def test_roundtrip_on_random_graphs():
    rng = random.Random(3)
    for trial in range(25):
        g = random_rgraph(rng, max_vertices=6, max_edges=7)
        F = reeb_cosheaf(g)
        assert validate_cosheaf(F).ok
        assert is_isomorphic(display(F), g) is not None, trial


def test_smooth_cosheaf_matches_graph_smoothing():
    rng = random.Random(9)
    for trial in range(20):
        g = random_rgraph(rng, max_vertices=6, max_edges=6)
        eps = Fraction(rng.randint(0, 5), 4)
        F = reeb_cosheaf(g)
        G = smooth_cosheaf(F, eps)
        assert validate_cosheaf(G).ok
        sm = smooth(g, eps)
        assert is_isomorphic(display(G), sm.smoothed) is not None, trial
        if g.criticals and eps > 0:
            want = sorted({s - eps for s in g.criticals}
                          | {s + eps for s in g.criticals})
            assert list(G.criticals) == want


def test_smooth_cosheaf_preserves_evaluations_up_to_expansion():
    F = loop_cosheaf()
    G = smooth_cosheaf(F, HALF)
    # the value of the smoothing on I equals the old value on I expanded
    for lo, hi in ((-2, 3), (0, 1), (-1, HALF)):
        old = evaluate(F, expand(interval(lo, hi), HALF))
        new = evaluate(G, interval(lo, hi))
        assert len(old) == len(new), (lo, hi)


def test_sigma_map_validates():
    for g in (line(0, 1), loop(0, 1), fork()):
        ms = sigma_map(reeb_cosheaf(g), Fraction(1, 3))
        assert validate_cosheaf_morphism(ms).ok


def test_refine_cosheaf_keeps_values():
    F = loop_cosheaf()
    R = refine_cosheaf(F, [HALF, Fraction(-3), Fraction(7)])
    assert validate_cosheaf(R.cosheaf).ok
    assert R.cosheaf.criticals == (Fraction(-3), Fraction(0), HALF,
                                   Fraction(1), Fraction(7))
    for lo, hi in ((-4, 8), (0, 1), (0, HALF), (-1, 1), (1, 3)):
        assert len(evaluate(F, interval(lo, hi))) == \
            len(evaluate(R.cosheaf, interval(lo, hi))), (lo, hi)
    # origins are valid references into the source cosheaf: node sets
    # inserted inside a gap originate from that gap's edge elements
    for i, ns in enumerate(R.cosheaf.node_sets):
        for x in ns:
            kind, k, orig = R.node_origin[i][x]
            pool = F.node_sets[k] if kind == "v" else F.edge_sets[k]
            assert orig in pool
    mid_origins = {R.node_origin[2][x][0] for x in R.cosheaf.node_sets[2]}
    assert mid_origins == {"e"}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_refine_cosheaf_with_several_values_in_one_gap(seed):
    rng = random.Random(seed)
    F = random_cosheaf(rng)
    S = F.criticals
    extra = [Fraction(rng.randint(-9, 9))]
    if len(S) >= 2:
        k = rng.randrange(len(S) - 1)
        extra += [S[k] + (S[k + 1] - S[k]) * Fraction(t, 4) for t in (1, 2, 3)]
    R = refine_cosheaf(F, extra)
    assert validate_cosheaf(R.cosheaf).ok
    assert R.cosheaf.criticals == tuple(sorted(set(S) | set(extra)))
    ends = [None, *(Fraction(t, 4) for t in range(-40, 41, 3))]
    for _ in range(20):
        lo, hi = rng.choice(ends), rng.choice(ends)
        assert len(evaluate(F, interval(lo, hi))) == \
            len(evaluate(R.cosheaf, interval(lo, hi))), (lo, hi)
    # every origin names a cell of F lying over the refined cell
    T = R.cosheaf.criticals
    for i, ns in enumerate(R.cosheaf.node_sets):
        for x in ns:
            kind, k, orig = R.node_origin[i][x]
            if kind == "v":
                assert orig in F.node_sets[k] and S[k] == T[i]
            else:
                assert orig in F.edge_sets[k] and S[k] < T[i] < S[k + 1]
    for j, es in enumerate(R.cosheaf.edge_sets):
        for x in es:
            kind, k, orig = R.edge_origin[j][x]
            assert kind == "e" and orig in F.edge_sets[k]
            assert S[k] <= T[j] and T[j + 1] <= S[k + 1]


def test_is_cosheaf_iso():
    F = loop_cosheaf()
    assert is_cosheaf_iso(F, F) is not None
    assert is_cosheaf_iso(F, smooth_cosheaf(F, 0)) is not None
    assert is_cosheaf_iso(F, reeb_cosheaf(line(0, 1))) is None
    # smoothing twice agrees with smoothing once by the sum
    G1 = smooth_cosheaf(smooth_cosheaf(F, Fraction(1, 4)), Fraction(1, 8))
    G2 = smooth_cosheaf(F, Fraction(3, 8))
    assert is_cosheaf_iso(G1, G2) is not None


def test_cosheaf_iso_on_many_levels():
    # 2,000 levels, twice the default recursion limit
    F = reeb_cosheaf(build_rgraph([(f"p{i}", i) for i in range(2000)]))
    assert is_cosheaf_iso(F, F) is not None


def test_check_gluing_on_fixtures_and_random():
    F = loop_cosheaf()
    assert check_gluing(F, interval(-1, HALF), interval(0, 2))
    assert check_gluing(F, interval(0, 1), interval(HALF, 3))
    with pytest.raises(ValidationError):
        check_gluing(F, interval(0, HALF), interval(1, 2))
    rng = random.Random(17)
    for trial in range(30):
        G = random_cosheaf(rng)
        if not G.criticals:
            continue
        lo = G.criticals[0] - 1
        hi = G.criticals[-1] + 1
        mid = G.criticals[len(G.criticals) // 2]
        a = interval(lo, mid + HALF)
        b = interval(mid - HALF, hi)
        if intersect(a, b).empty:
            continue
        assert check_gluing(G, a, b), trial


def test_validate_cosheaf_catches_damage():
    F = loop_cosheaf()
    broken = Cosheaf(F.criticals, F.node_sets, F.edge_sets,
                     ({"e0": "{e0,e1,v0}", "e1": "nope"},), F.right_maps)
    rep = validate_cosheaf(broken)
    assert not rep.ok
    assert any("left image" in v for v in rep.violations)
