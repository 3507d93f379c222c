"""Interleaving certificates: verification, search, and the certificate algebra."""

import dataclasses
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reeb
from reeb import BudgetExceeded, ValidationError
from reeb.interleave import _enumerate_bundles, _expand_table, _SearchSide
from reeb.iso import NodeBudget


def parallel_pair(count_left, count_right):
    """Two graphs that are a matching of `count` parallel edges between two
    vertex rows.  All cheap invariants agree when counts do, so these force
    the search to actually work through edge assignments."""
    def build(count):
        verts = {"a": 0, "b": 1}
        edges = [(f"m{i}", "a", "b") for i in range(count)]
        return reeb.build_rgraph(verts, edges)
    return build(count_left), build(count_right)


class TestVerify:
    def test_self_certificate_verifies(self):
        for g in (reeb.line(0, 1), reeb.loop(0, 1), reeb.fork(), reeb.point(3)):
            for eps in (Fraction(0), Fraction(1, 4)):
                cert = reeb.self_certificate(g, eps)
                ok, msg = reeb.verify_certificate(cert)
                assert ok, msg
                assert cert.epsilon == eps
                assert cert.alpha.source is g and cert.beta.source is g

    def test_smoothing_certificate(self):
        g = reeb.loop(0, 1)
        cert = reeb.smoothing_certificate(g, Fraction(1, 5))
        ok, msg = reeb.verify_certificate(cert)
        assert ok, msg
        assert cert.epsilon == Fraction(1, 5)
        assert cert.alpha.source is g
        # The partner graph is the one-step smoothing of g.
        partner = cert.beta.source
        assert reeb.is_isomorphic(partner, reeb.smooth(g, Fraction(1, 5)).smoothed)

    def test_verify_catches_wrong_epsilon(self):
        cert = reeb.self_certificate(reeb.line(0, 1), Fraction(1, 4))
        bad = dataclasses.replace(cert, epsilon=Fraction(1, 8))
        ok, msg = reeb.verify_certificate(bad)
        assert not ok
        assert "epsilon" in msg

    def test_verify_catches_misdirected_map(self):
        out = reeb.search_certificate(reeb.line(0, 1), reeb.loop(0, 1), Fraction(1, 4))
        assert out.status == "found"
        bad = dataclasses.replace(out.certificate, alpha=out.certificate.beta)
        ok, msg = reeb.verify_certificate(bad)
        assert not ok
        assert "alpha" in msg


class TestSearch:
    def test_line_loop_threshold(self):
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        hit = reeb.search_certificate(line, loop, Fraction(1, 4))
        assert hit.status == "found"
        assert hit.epsilon == Fraction(1, 4)
        assert hit.nodes > 0
        ok, msg = reeb.verify_certificate(hit.certificate)
        assert ok, msg

        miss = reeb.search_certificate(line, loop, Fraction(1, 5))
        assert miss.status == "exhausted"
        assert miss.certificate is None
        assert miss.nodes > 0

    def test_line_stretch_threshold(self):
        a, b = reeb.line(0, 1), reeb.line(0, 2)
        assert reeb.search_certificate(a, b, Fraction(7, 8)).status == "exhausted"
        hit = reeb.search_certificate(a, b, Fraction(1))
        assert hit.status == "found"
        assert reeb.verify_certificate(hit.certificate)[0]

    def test_shifted_points(self):
        p, q = reeb.point(0), reeb.point(1)
        assert reeb.search_certificate(p, q, Fraction(99, 100)).status == "exhausted"
        assert reeb.search_certificate(p, q, Fraction(1)).status == "found"

    def test_many_points_do_not_hit_the_recursion_limit(self):
        # 2,000 levels, twice the default recursion limit; moving one
        # point breaks the isomorphism shortcut, so the bundle search runs
        pts = [(f"p{i}", i) for i in range(2000)]
        g = reeb.build_rgraph(pts)
        h = reeb.build_rgraph([("p7", Fraction(701, 100)) if v == "p7" else (v, x)
                               for v, x in pts])
        out = reeb.search_certificate(g, h, Fraction(1, 4))
        assert out.status == "found"
        assert reeb.verify_certificate(out.certificate)[0]

    def test_parallel_edges_stay_tractable(self):
        # 5 candidate images for each of 5 edges would be 3125 maps per side
        # if expanded eagerly; the search must finish on the default budget.
        g, same = parallel_pair(5, 5)
        hit = reeb.search_certificate(g, same, Fraction(0))
        assert hit.status == "found"
        g, other = parallel_pair(5, 4)
        assert reeb.search_certificate(g, other, Fraction(0)).status == "exhausted"

    def test_budget_is_reported_not_swallowed(self):
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        out = reeb.search_certificate(line, loop, Fraction(1, 4), budget=2)
        assert out.status == "budget"
        assert out.certificate is None
        with pytest.raises(BudgetExceeded):
            reeb.quantified_iso_check(line, loop, budget=2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            reeb.search_certificate(reeb.line(0, 1), reeb.line(0, 1), Fraction(-1, 4))


class TestCertificateAlgebra:
    def test_lift_raises_the_radius(self):
        cert = reeb.smoothing_certificate(reeb.loop(0, 1), Fraction(1, 5))
        lifted = reeb.lift_certificate(cert, Fraction(1, 4))
        assert lifted.epsilon == Fraction(1, 4)
        ok, msg = reeb.verify_certificate(lifted)
        assert ok, msg
        assert lifted.alpha.source is cert.alpha.source

    def test_lift_cannot_shrink(self):
        cert = reeb.smoothing_certificate(reeb.loop(0, 1), Fraction(1, 5))
        with pytest.raises(ValidationError):
            reeb.lift_certificate(cert, Fraction(1, 8))

    def test_compose_adds_radii(self):
        f = reeb.fork()
        c1 = reeb.smoothing_certificate(f, Fraction(1, 3))
        mid = c1.beta.source
        c2 = reeb.smoothing_certificate(mid, Fraction(1, 6))
        both = reeb.compose_certificates(c1, c2)
        assert both.epsilon == Fraction(1, 2)
        assert both.alpha.source is f
        assert both.beta.source is c2.beta.source
        ok, msg = reeb.verify_certificate(both)
        assert ok, msg

    def test_compose_needs_shared_middle(self):
        c1 = reeb.smoothing_certificate(reeb.fork(), Fraction(1, 3))
        c2 = reeb.smoothing_certificate(reeb.loop(0, 1), Fraction(1, 6))
        with pytest.raises(ValidationError):
            reeb.compose_certificates(c1, c2)

    def test_contract_smooths_both_sides(self):
        cert = reeb.smoothing_certificate(reeb.loop(0, 1), Fraction(1, 5))
        shrunk = reeb.contract_certificate(cert, Fraction(1, 10))
        assert shrunk.epsilon == cert.epsilon
        assert shrunk.alpha.source.criticals == reeb.smooth(
            reeb.loop(0, 1), Fraction(1, 10)).smoothed.criticals
        ok, msg = reeb.verify_certificate(shrunk)
        assert ok, msg


class TestStability:
    def test_radius_is_the_largest_value_change(self):
        edges = [("e0", "a", "b"), ("e1", "b", "c")]
        f = {"a": 0, "b": 1, "c": 2}
        g = {"a": Fraction(1, 2), "b": Fraction(3, 4), "c": Fraction(9, 4)}
        cert = reeb.stability_certificate(edges, f, g)
        assert cert.epsilon == Fraction(1, 2)
        assert cert.epsilon == max(abs(Fraction(f[v]) - g[v]) for v in f)
        ok, msg = reeb.verify_certificate(cert)
        assert ok, msg

    def test_rejects_flat_edges(self):
        with pytest.raises(ValidationError):
            reeb.stability_certificate([("e0", "a", "b")], {"a": 0, "b": 1},
                                        {"a": 1, "b": 1})

    def test_rejects_mismatched_vertex_sets(self):
        with pytest.raises(ValidationError):
            reeb.stability_certificate([("e0", "a", "b")], {"a": 0, "b": 1},
                                        {"a": 0, "c": 1})


class TestDistance:
    def test_finite_iff_matching_components(self):
        line = reeb.line(0, 1)
        assert reeb.finite_distance(line, reeb.loop(0, 1))
        extra = reeb.build_rgraph({"v0": 0, "v1": 1, "w": 0},
                                  [("e0", "v0", "v1")])
        assert not reeb.finite_distance(line, extra)
        br = reeb.distance_bracket(line, extra, Fraction(1, 4))
        assert br.infinite
        assert br.lower is None and br.upper is None

    def test_bracket_pins_line_versus_loop(self):
        br = reeb.distance_bracket(reeb.line(0, 1), reeb.loop(0, 1),
                                   Fraction(1, 16))
        assert not br.infinite and not br.unknown_gaps
        assert (br.lower, br.upper) == (Fraction(3, 16), Fraction(1, 4))
        ok, msg = reeb.verify_certificate(br.witness)
        assert ok, msg
        assert br.witness.epsilon == Fraction(1, 4)

    def test_identical_graphs_bracket_near_zero(self):
        g = reeb.fork()
        br = reeb.distance_bracket(g, g, Fraction(1, 8))
        assert br.lower == 0
        assert br.upper - br.lower <= Fraction(1, 8)
        assert reeb.verify_certificate(br.witness)[0]


class TestQuantifiedIso:
    def test_witness_on_relabelled_loop(self):
        g = reeb.loop(0, 1)
        h = reeb.build_rgraph({"top": 1, "bot": 0},
                              [("left", "bot", "top"), ("right", "bot", "top")])
        wit = reeb.quantified_iso_check(g, h)
        assert wit is not None
        assert reeb.validate_morphism(wit).ok
        assert wit.source is g and wit.target is h
        assert reeb.is_isomorphism(wit)

    def test_refutes_line_versus_loop(self):
        assert reeb.quantified_iso_check(reeb.line(0, 1), reeb.loop(0, 1)) is None
        assert reeb.quantified_iso_check(reeb.fork(), reeb.line(-1, 1)) is None


# ---------------------------------------------------------------------------
# Properties over random graph pairs.

pairs = st.integers(0, 2**32 - 1).map(lambda seed: tuple(
    reeb.random_rgraph(random.Random(seed + k), max_vertices=6, max_edges=7)
    for k in (0, 1)))
radii = st.integers(1, 8).map(lambda n: Fraction(n, 4))
props = settings(max_examples=100, deadline=None)


def normal_form_equal(a, b):
    na, nb = reeb.normal_form(a), reeb.normal_form(b)
    return na.vertex_maps == nb.vertex_maps and na.edge_maps == nb.edge_maps


def search_candidates(f, g, eps, limit=8):
    """Up to limit candidate maps f -> smooth(g, eps) per bundle, from
    the first few bundles of the search's enumeration."""
    side = _SearchSide(f, reeb.smooth(g, eps).smoothed)
    budget = NodeBudget(10**6, "unused")
    out = []
    for bundle in islice(_enumerate_bundles(side, budget), 4):
        every = {piece: [{piece: c} for c in cands]
                 for _, piece, cands in bundle.choices}
        out.extend(islice(_expand_table(side, bundle, every, budget), limit))
    return out


@props
@given(pairs, radii)
def test_stored_image_equality_agrees_with_normal_forms(pair, eps):
    f, g = pair
    maps = search_candidates(f, g, eps)
    sm_f, sm_g, sm_g2 = reeb.smooth(f, eps), reeb.smooth(g, eps), reeb.smooth(g, 2 * eps)
    shifted = [reeb.shift_compose(x, sm_f, sm_g, sm_g2) for x in maps]
    for group in (maps, shifted):
        for a in group:
            for b in group:
                same = reeb.morphism_equal(a, b)
                assert same == normal_form_equal(a, b)
                if not same:
                    diff = reeb.morphism_first_difference(a, b)
                    assert " at level " in diff or " at slot " in diff


@props
@given(pairs, radii)
def test_found_certificates_pass_the_verifier(pair, eps):
    f, g = pair
    out = reeb.search_certificate(f, g, eps, budget=300)
    if out.status == "found":
        ok, msg = reeb.verify_certificate(out.certificate)
        assert ok, msg
