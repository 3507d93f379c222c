"""Interleaving certificates: verification, search, and the certificate algebra."""

import dataclasses
import json
import random
import re
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reeb
from reeb import BudgetExceeded, ValidationError, interleave
from reeb.interleave import (Certificate, Refutation, _Bundle, _certificate_pair,
                             _enumerate_bundles, _expand_table, _filter_bundle,
                             _rank_counts, _refute, _SearchSide)
from reeb.iso import NodeBudget, levelwise_assignments

import search_outcomes


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

    @pytest.mark.parametrize("eps, named", [
        (Fraction(-1, 4), "the radius -1/4 is negative"),
        (-1, "the radius -1 is negative"),
        (0.25, "the radius 0.25 is not an int or a Fraction"),
        ("1/4", "the radius '1/4' is not an int or a Fraction"),
        (True, "the radius True is not an int or a Fraction"),
    ])
    def test_verify_rejects_a_bad_radius_by_name(self, eps, named):
        cert = reeb.self_certificate(reeb.loop(0, 1), Fraction(1, 4))
        assert reeb.verify_certificate(dataclasses.replace(cert, epsilon=eps)) == (False, named)

    def test_a_certificate_is_its_graphs_radius_and_maps(self):
        assert [fd.name for fd in dataclasses.fields(Certificate)] == \
            ["f", "g", "epsilon", "alpha", "beta"]

    def test_verify_names_the_cell_of_a_wrong_target(self):
        cert = reeb.self_certificate(reeb.loop(0, 1), Fraction(1, 4))
        bad = dataclasses.replace(cert, epsilon=Fraction(1, 8))
        assert reeb.verify_certificate(bad) == (
            False, "alpha does not run into S_eps g at epsilon = 1/8: its target has "
            "vertex 'v(0;v0)' at -1/4, S_eps g does not")
        bad = dataclasses.replace(cert, f=reeb.line(0, 1))
        assert reeb.verify_certificate(bad) == (
            False, "alpha does not run from f: its source has edge 'e1' from 'v0' "
            "to 'v1', f does not")

    @pytest.mark.parametrize("part, cell, image", [
        ("vertex_map", "v0", ("vertex", ["nope"])),
        ("edge_map", "e0", 5),
        ("edge_map", "e0", [["x"]]),
    ])
    def test_verify_rejects_a_malformed_image_without_raising(self, part, cell, image):
        cert = reeb.search_certificate(reeb.line(), reeb.line(), Fraction(1, 2)).certificate
        kind = "vertex" if part == "vertex_map" else "edge"
        alpha = dataclasses.replace(cert.alpha, **{part: {**getattr(cert.alpha, part),
                                                           cell: image}})
        assert reeb.verify_certificate(dataclasses.replace(cert, alpha=alpha)) == (
            False, f"alpha is not a morphism: {kind} {cell!r}: malformed image {image!r}")

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
        # refuted by the rank pass, before any search node is spent
        assert miss.nodes == 0
        assert miss.refutation is not None

    def test_line_loop_refuted_on_a_named_interval(self):
        # over (2/5, 3/5) the loop has two strands, still two over
        # (0, 1), but the line has one over (1/5, 4/5)
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        ref = reeb.search_certificate(line, loop, Fraction(1, 5)).refutation
        assert ref == reeb.Refutation(Fraction(1, 5),
                                      reeb.interval(Fraction(2, 5), Fraction(3, 5)),
                                      "g", 2, 1)
        assert reeb.verify_refutation(line, loop, ref) == (True, "ok")

    def test_verify_refutation_names_interval_side_and_counts(self):
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        ref = reeb.search_certificate(line, loop, Fraction(1, 5)).refutation
        ok, msg = reeb.verify_refutation(line, loop,
                                         dataclasses.replace(ref, side="f"))
        assert not ok
        assert msg == ("on (2/5, 3/5), side 'f': the extension's image has 1 "
                       "elements against a bound of 2; the witness records "
                       "2 and 1")
        ok, msg = reeb.verify_refutation(
            line, loop, dataclasses.replace(ref, epsilon=Fraction(1, 4)))
        assert not ok
        assert msg == ("on (2/5, 3/5), side 'g': the extension's image has 1 "
                       "elements against a bound of 1; the witness records "
                       "2 and 1")
        ok, msg = reeb.verify_refutation(
            line, loop, dataclasses.replace(ref, image=1, bound=1,
                                            epsilon=Fraction(1, 4)))
        assert not ok
        assert msg.endswith("image has 1 elements against a bound of 1; "
                            "the witness records 1 and 1")

    def test_unverifiable_refutation_is_an_internal_error(self, monkeypatch):
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        bogus = reeb.Refutation(Fraction(1, 4), reeb.interval(0, None), "f", 2, 1)
        monkeypatch.setattr(interleave, "_refute", lambda f, g, eps: bogus)
        with pytest.raises(reeb.InternalError, match=r"\(0, inf\), side 'f'"):
            reeb.search_certificate(line, loop, Fraction(1, 4))

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
        # the rank pass decides line against loop without spending nodes;
        # an isomorphic pair has no refutation and must search
        assert reeb.quantified_iso_check(line, loop, budget=2) is None
        fork = reeb.fork()
        renamed = reeb.build_rgraph(
            [("r" + v, fork.value(v)) for v in fork.vertex_ids],
            [("r" + e, "r" + fork.endpoints(e)[0], "r" + fork.endpoints(e)[1])
             for e in fork.edge_ids])
        with pytest.raises(BudgetExceeded):
            reeb.quantified_iso_check(fork, renamed, budget=2)

    @pytest.mark.parametrize("budget", [-1, -5, "5", None, 2.5, True])
    def test_invalid_budget_is_rejected_before_any_search(self, budget):
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        calls = [
            lambda: reeb.search_certificate(line, line, Fraction(1, 4), budget=budget),
            lambda: reeb.search_certificate(line, loop, Fraction(1, 5), budget=budget),
            lambda: reeb.distance_bracket(line, loop, Fraction(1, 4), budget=budget),
            lambda: reeb.quantified_iso_check(line, line, budget=budget),
            lambda: reeb.is_isomorphic(line, line, budget=budget),
        ]
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == ("node budget must be a nonnegative "
                                       f"integer, got {budget!r}")

    @pytest.mark.parametrize("entry", [
        "search_certificate", "distance_bracket", "quantified_iso_check",
        "is_isomorphic", "levelwise_bijections", "is_cosheaf_iso"])
    def test_every_budget_entry_checks_its_budget_first(self, entry):
        # each call below needs no search, so only the budget check can
        # raise: an infinite distance, a rank refutation, mismatched levels
        # or criticals
        line, loop, longer = reeb.line(0, 1), reeb.loop(0, 1), reeb.line(0, 2)
        call = {
            "search_certificate": lambda b: reeb.search_certificate(
                line, loop, Fraction(1, 5), budget=b),
            "distance_bracket": lambda b: reeb.distance_bracket(
                line, reeb.empty_rgraph(), Fraction(1, 4), budget=b),
            "quantified_iso_check": lambda b: reeb.quantified_iso_check(line, loop, budget=b),
            "is_isomorphic": lambda b: reeb.is_isomorphic(line, loop, budget=b),
            "levelwise_bijections": lambda b: reeb.levelwise_bijections(line, longer, b),
            "is_cosheaf_iso": lambda b: reeb.is_cosheaf_iso(
                reeb.reeb_cosheaf(line), reeb.reeb_cosheaf(longer), b),
        }[entry]
        for budget in ("x", None, -1, 1.5, True):
            with pytest.raises(ValidationError) as info:
                call(budget)
            assert str(info.value) == ("node budget must be a nonnegative "
                                       f"integer, got {budget!r}")
        call(0)

    def test_zero_budget_still_refutes(self):
        # a rank refutation spends no nodes, so it needs none
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        out = reeb.search_certificate(line, loop, Fraction(1, 5), budget=0)
        assert (out.status, out.nodes) == ("exhausted", 0)
        assert out.refutation is not None
        assert reeb.search_certificate(line, loop, Fraction(1, 4), budget=0).status == "budget"

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            reeb.search_certificate(reeb.line(0, 1), reeb.line(0, 1), Fraction(-1, 4))


def tower_pair(k):
    """Tower i is a path 0-1-2-3 with i + 1 parallel edges from its top to
    a cap at 4; the second graph holds the same k towers renamed in
    reverse, so the two are isomorphic."""
    def build(order):
        verts, edges = {}, []
        for t, i in enumerate(order):
            verts.update((f"t{t}v{h}", h) for h in range(5))
            edges += [(f"t{t}e{h}", f"t{t}v{h}", f"t{t}v{h + 1}") for h in range(3)]
            edges += [(f"t{t}c{c}", f"t{t}v3", f"t{t}v4") for c in range(i + 1)]
        return reeb.build_rgraph(verts, edges)
    return build(range(k)), build(reversed(range(k)))


def count_spends(monkeypatch):
    """A list that gains one entry per `NodeBudget.spend` call."""
    spends, spend = [], NodeBudget.spend
    monkeypatch.setattr(NodeBudget, "spend", lambda self: spends.append(1) or spend(self))
    return spends


class TestOneMeterPerProbe:
    @pytest.mark.parametrize("budget", [200, 2_000])
    def test_the_isomorphism_gate_spends_the_probes_budget(self, monkeypatch, budget):
        f, g = tower_pair(9)
        spends = count_spends(monkeypatch)
        out = reeb.search_certificate(f, g, Fraction(1, 4), budget=budget)
        assert out.status == "budget"
        assert out.nodes == len(spends) <= budget + 1

    def test_a_pair_the_gate_decides_reports_the_gates_nodes(self, monkeypatch):
        g = reeb.loop(0, 1)
        h = reeb.build_rgraph({"top": 1, "bot": 0},
                              [("left", "bot", "top"), ("right", "bot", "top")])
        spends = count_spends(monkeypatch)
        gate, is_isomorphic = [], interleave.is_isomorphic

        def counted(f, g, meter):
            wit = is_isomorphic(f, g, meter)
            gate.append(len(spends))
            return wit
        monkeypatch.setattr(interleave, "is_isomorphic", counted)
        monkeypatch.setattr(interleave, "_certificate_pair", None)
        out = reeb.search_certificate(g, h, Fraction(1, 4))
        assert out.status == "found"
        assert out.nodes == len(spends) == gate[0] == 2


def loop_certificate():
    return reeb.smoothing_certificate(reeb.loop(0, 1), Fraction(1, 5))


def smooth_calls(monkeypatch):
    """The radius of every sweep run from now on, in order."""
    calls = []
    sweep = reeb.smoothing.smooth_sweep
    monkeypatch.setattr(reeb.smoothing, "smooth_sweep",
                        lambda g, eps: calls.append(eps) or sweep(g, eps))
    return calls


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

    def test_contract_and_compose_smooth_then_verify(self, monkeypatch):
        # contraction smooths f and g at eps, delta and eps + delta and
        # their delta-smoothings at eps; composition g at both radii, f
        # and h at their own and the sum; the check then reads the
        # result's smoothings at its radius from those and smooths its two
        # graphs at the double only
        calls = smooth_calls(monkeypatch)
        cert = loop_certificate()
        mid = reeb.self_certificate(cert.g, Fraction(1, 7))
        del calls[:]
        reeb.contract_certificate(cert, Fraction(1, 10))
        assert len(calls) == 8 + 2
        del calls[:]
        reeb.compose_certificates(cert, mid)
        assert len(calls) == 6 + 2

    def test_lift_stability_and_smoothing_smooth_then_verify(self, monkeypatch):
        # a lift smooths g for its self certificate, then composes; the
        # stability certificate smooths its two graphs at eps, and the
        # smoothing certificate f at eps for g, then g at eps; each check
        # then smooths the two graphs at the doubled radius only
        calls = smooth_calls(monkeypatch)
        cert = loop_certificate()
        del calls[:]
        reeb.lift_certificate(cert, Fraction(2, 5))
        assert len(calls) == 1 + 6 + 2
        del calls[:]
        reeb.stability_certificate([("e0", "a", "b")], {"a": 0, "b": 1}, {"a": 0, "b": 2})
        assert len(calls) == 2 + 2
        del calls[:]
        reeb.smoothing_certificate(reeb.loop(0, 1), Fraction(1, 5))
        assert len(calls) == 1 + 1 + 2

    def test_a_probe_smooths_only_what_its_outcome_reads(self, monkeypatch):
        # a rank refutation smooths nothing; the doubled smoothings wait
        # for the first shifted composite, so a probe that runs out of
        # nodes enumerating bundles smooths f and g at eps only
        calls, searched = [], []
        sweep, pair_search = reeb.smoothing.smooth_sweep, interleave._pair_search
        monkeypatch.setattr(reeb.smoothing, "smooth_sweep",
                            lambda g, eps: calls.append(eps) or sweep(g, eps))
        monkeypatch.setattr(interleave, "_pair_search",
                            lambda *args: searched.append(1) or pair_search(*args))
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        out = reeb.search_certificate(line, loop, Fraction(1, 5))
        assert (out.refutation is not None, calls) == (True, [])
        out = reeb.search_certificate(*parallel_pair(1, 2), Fraction(1, 4), budget=5)
        assert (out.status, searched, calls) == ("budget", [], [Fraction(1, 4)] * 2)
        del calls[:]
        out = reeb.search_certificate(line, loop, Fraction(1, 4))
        assert out.status == "found"
        # the probe's own check reads the smoothings it built
        assert sorted(calls) == [Fraction(1, 4)] * 2 + [Fraction(1, 2)] * 2
        assert reeb.verify_certificate(out.certificate) == (True, "ok")

    def test_rank_refuted_probe_builds_no_cosheaf(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("reeb_cosheaf called")
        monkeypatch.setattr(reeb.cosheaf, "reeb_cosheaf", forbidden)
        monkeypatch.setattr(interleave, "reeb_cosheaf", forbidden, raising=False)
        out = reeb.search_certificate(reeb.line(0, 1), reeb.loop(0, 1), Fraction(1, 5))
        assert out.refutation is not None

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 10)])
    def test_contract_at_zero_radii(self, delta):
        # a radius-0 contraction, and contractions of a radius-0 certificate
        for cert in (loop_certificate(), reeb.self_certificate(reeb.fork(), 0)):
            shrunk = reeb.contract_certificate(cert, delta)
            assert shrunk.epsilon == cert.epsilon
            ok, msg = reeb.verify_certificate(shrunk)
            assert ok, msg

    def test_compose_with_a_radius_zero_certificate_on_either_side(self):
        cert = loop_certificate()
        f, g = cert.f, cert.g
        for c1, c2 in ((reeb.self_certificate(f, 0), cert),
                       (cert, reeb.self_certificate(g, 0)),
                       (reeb.self_certificate(f, 0), reeb.self_certificate(f, 0))):
            both = reeb.compose_certificates(c1, c2)
            assert both.epsilon == c1.epsilon + c2.epsilon
            assert both.alpha.source is c1.alpha.source
            ok, msg = reeb.verify_certificate(both)
            assert ok, msg

    @pytest.mark.parametrize("what, prepare", [
        ("smoothing", lambda: partial(
            reeb.smoothing_certificate, reeb.fork(), Fraction(1, 3))),
        ("composed", lambda: partial(
            reeb.lift_certificate, loop_certificate(), Fraction(1, 4))),
        ("composed", lambda: partial(
            reeb.compose_certificates,
            reeb.self_certificate(reeb.fork(), Fraction(1, 3)),
            reeb.self_certificate(reeb.fork(), Fraction(1, 6)))),
        ("contracted", lambda: partial(
            reeb.contract_certificate, loop_certificate(), Fraction(1, 10))),
        ("stability", lambda: partial(
            reeb.stability_certificate, [("e0", "a", "b")], {"a": 0, "b": 1},
            {"a": Fraction(1, 2), "b": 2})),
        ("found", lambda: partial(
            reeb.search_certificate, reeb.line(0, 1), reeb.line(0, 2), Fraction(1))),
    ], ids=["smoothing", "lift", "compose", "contract", "stability", "search"])
    def test_every_verifying_constructor_verifies(self, monkeypatch, what, prepare):
        build = prepare()
        monkeypatch.setattr(interleave, "_check", lambda cert, sm: (False, "forced"))
        with pytest.raises(reeb.InternalError,
                           match=f"^{what} certificate failed verification: forced$"):
            build()


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

    @pytest.mark.parametrize("edges", [[("e0", "a")], {"e0": ("a",)}],
                             ids=["list", "dict"])
    def test_rejects_malformed_edge_items(self, edges):
        with pytest.raises(ValidationError, match=r"edge item \('e0', 'a'\)"):
            reeb.stability_certificate(edges, {"a": 0, "b": 1}, {"a": 1, "b": 2})

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

    def test_bracket_lower_end_carries_a_rank_witness(self):
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        br = reeb.distance_bracket(line, loop, Fraction(1, 16))
        ref = br.refutation.refutation
        assert ref is not None and ref.epsilon == br.lower
        assert reeb.verify_refutation(line, loop, ref) == (True, "ok")

    def test_reprs_stay_short(self):
        # the maps and graphs are left out: radius, status, nodes, the
        # refutation and each graph's vertex and edge counts
        out = reeb.search_certificate(reeb.line(0, 1), reeb.loop(0, 1), 1, budget=200)
        assert repr(out) == (
            "SearchOutcome(status='found', epsilon=1, nodes=9, refutation=None, "
            "certificate=Certificate(epsilon=1, f=RGraph(vertices=2, edges=1), "
            "g=RGraph(vertices=2, edges=2)))")
        br = reeb.distance_bracket(*chorded_pair(20), Fraction(1, 8))
        assert br.witness is not None and br.refutation.refutation is not None
        for x in (out, out.certificate, br, br.witness, br.refutation):
            assert len(repr(x)) <= 500

    def test_identical_graphs_bracket_near_zero(self):
        g = reeb.fork()
        br = reeb.distance_bracket(g, g, Fraction(1, 8))
        assert br.lower == 0
        assert br.upper - br.lower <= Fraction(1, 8)
        assert reeb.verify_certificate(br.witness)[0]

    def test_a_budget_run_out_while_bisecting_keeps_the_bracket(self):
        line, loop = reeb.line(0, 1), reeb.loop(0, 1)
        br = reeb.distance_bracket(line, loop, Fraction(1, 16), budget=9)
        assert (br.infinite, br.lower, br.upper, br.unknown_gaps) == (False, 0, 1, True)
        assert br.refutation is None and br.witness.epsilon == 1
        assert reeb.verify_certificate(br.witness) == (True, "ok")

    def test_a_budget_run_out_above_the_diameter_leaves_no_upper_end(self):
        br = reeb.distance_bracket(reeb.line(0, 1), reeb.loop(0, 1), Fraction(1, 16), budget=0)
        assert br == reeb.DistanceBracket(False, 0, None, None, None, True)

    @pytest.mark.parametrize("tol", [0, -1, Fraction(-1, 16)])
    def test_a_nonpositive_tolerance_is_refused(self, tol):
        with pytest.raises(ValidationError, match="^tolerance must be positive$"):
            reeb.distance_bracket(reeb.line(0, 1), reeb.loop(0, 1), tol)

    def test_no_interleaving_above_the_diameter_names_the_radius(self, monkeypatch):
        monkeypatch.setattr(interleave, "search_certificate",
                            lambda f, g, eps, budget: interleave.SearchOutcome(
                                "exhausted", None, eps, 0))
        with pytest.raises(reeb.InternalError, match=re.escape(
                "no interleaving at radius 2, above the value diameter,")):
            reeb.distance_bracket(reeb.line(0, 1), reeb.line(0, 1), Fraction(1, 4))


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

    def test_the_gate_witness_is_returned_without_a_second_search(self, monkeypatch):
        calls = []
        real = interleave.is_isomorphic

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(interleave, "is_isomorphic", counted)
        g = reeb.loop(0, 1)
        h = reeb.build_rgraph({"top": 1, "bot": 0},
                              [("left", "bot", "top"), ("right", "bot", "top")])
        wit = reeb.quantified_iso_check(g, h)
        assert len(calls) == 1
        assert wit.source is g and wit.target is h and reeb.is_isomorphism(wit)
        # the probe's outcome is the public search's, nodes included
        del calls[:]
        out = reeb.search_certificate(g, h, Fraction(1, 8))
        assert len(calls) == 1
        probe, gate = interleave._probe(g, h, Fraction(1, 8), 200_000)
        assert probe.status == out.status == "found" and probe.nodes == out.nodes
        assert reeb.morphism_equal(gate, wit)

    def test_refutes_line_versus_loop(self):
        assert reeb.quantified_iso_check(reeb.line(0, 1), reeb.loop(0, 1)) is None
        assert reeb.quantified_iso_check(reeb.fork(), reeb.line(-1, 1)) is None

    def test_interleaved_without_an_isomorphism_names_the_probe(self, monkeypatch):
        monkeypatch.setattr(interleave, "_probe",
                            lambda f, g, eps, budget: (interleave.SearchOutcome(
                                "found", None, eps, 0), None))
        with pytest.raises(reeb.InternalError, match=re.escape(
                "interleaved at radius 1/8, below the gap threshold,")):
            reeb.quantified_iso_check(reeb.line(0, 1), reeb.loop(0, 1))


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


def every_choice(bundle):
    """The unfiltered table of a bundle: each piece's candidates, one
    part per candidate."""
    return {piece: [{piece: c} for c in cands] for piece, cands in bundle.choices}


def search_candidates(f, g, eps, limit=8):
    """Up to limit candidate maps f -> smooth(g, eps) per bundle, from
    the first few bundles of the search's enumeration that a million
    nodes reach; they must reach one."""
    side = _SearchSide(f, reeb.smooth(g, eps).smoothed)
    budget = NodeBudget(10**6, "unused")
    out, reached = [], 0
    try:
        for bundle in islice(_enumerate_bundles(side, budget), 4):
            reached += 1
            out.extend(islice(_expand_table(side, bundle, every_choice(bundle), budget), limit))
    except BudgetExceeded:
        assert reached, "a million nodes reached no bundle"
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


# ---------------------------------------------------------------------------
# The rank refutation against the search and an exhaustive oracle.

def equal_count_pair(seed, **sizes):
    """The first pair of random graphs from the seed with equal component
    counts, so that the distance is finite."""
    rng = random.Random(seed)
    while True:
        f, g = (reeb.random_rgraph(rng, **sizes) for _ in range(2))
        if reeb.num_components(f) == reeb.num_components(g):
            return f, g


finite_pairs = st.integers(0, 2**32 - 1).map(
    lambda seed: equal_count_pair(seed, max_vertices=6, max_edges=7))
small_pairs = st.integers(0, 2**32 - 1).map(
    lambda seed: equal_count_pair(seed, max_vertices=4, max_edges=5,
                                  extra_criticals=1))


def search_past_refutation(f, g, eps, budget):
    """The bundle search alone, without the rank pass in front: a verified
    certificate, None when exhausted, or "budget"."""
    sms = {(d, k): reeb.smooth(h, k * eps) for k in (1, 2) for d, h in enumerate((f, g))}
    try:
        pair = _certificate_pair(f, g, lambda d, k: sms[d, k], NodeBudget(budget, "budget"))
    except BudgetExceeded:
        return "budget"
    if pair is None:
        return None
    cert = Certificate(eps, *pair, *sms.values())
    assert reeb.verify_certificate(cert)[0]
    return cert


def cosheaf_rank_counts(F, G, iv, eps):
    """Test oracle for `interleave._rank_counts`, through whole Reeb
    cosheaves: the image of F's extension from iv to iv^2eps, and the
    number of elements of G on iv^eps."""
    image = set(reeb.extend_map(F, iv, reeb.expand(iv, 2 * eps)).values())
    return len(image), len(reeb.evaluate(G, reeb.expand(iv, eps)))


def exhaustive_refutation(f, g, eps):
    """Test oracle: every interval between two candidate points s + k eps
    (k in -2..2, s critical in either graph) or an unbounded end, checked
    through the Fraction cosheaf path. The first interval that breaks the
    rank bound, as (lo, hi, side), or None."""
    F, G = reeb.reeb_cosheaf(f), reeb.reeb_cosheaf(g)
    pts = sorted({s + k * eps for s in (*f.criticals, *g.criticals)
                  for k in range(-2, 3)})
    for lo in (None, *pts):
        for hi in (*pts, None):
            iv = reeb.interval(lo, hi)
            if iv.empty:
                continue
            for side, own, other in (("f", F, G), ("g", G, F)):
                image, bound = cosheaf_rank_counts(own, other, iv, eps)
                if image > bound:
                    return lo, hi, side
    return None


def rank_case(seed, shape):
    """Two graphs, a radius and an open interval of the given shape. The
    graphs are in quarters or in sevenths against tenths; the radius is 0,
    in quarters, or in elevenths or thirteenths; the ends are drawn from
    the criticals, from them moved by one or two radii (where windows end
    exactly on a critical), and from values in thirds and twelfths."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        f, g = (reeb.random_rgraph(rng, max_vertices=5, max_edges=6) for _ in "fg")
    else:
        f, g = mixed_pair(rng.getrandbits(32))
    eps = rng.choice((Fraction(0), Fraction(rng.randint(1, 8), 4),
                      Fraction(rng.randint(1, 30), rng.choice((11, 13)))))
    crit = (*f.criticals, *g.criticals)
    pool = sorted({*crit, *(s + k * eps for s in crit for k in (-2, -1, 1, 2)),
                   *(Fraction(rng.randint(-12, 36), rng.choice((3, 12))) for _ in range(3)),
                   Fraction(-1, 3), Fraction(5, 2)})
    lo, hi = sorted(rng.sample(pool, 2))
    lo, hi = {"bounded": (lo, hi), "below": (None, hi), "above": (lo, None),
              "whole": (None, None)}[shape]
    return f, g, eps, reeb.interval(lo, hi)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["bounded", "below", "above", "whole"]))
def test_rank_counts_match_the_cosheaf_route(seed, shape):
    f, g, eps, iv = rank_case(seed, shape)
    F, G = reeb.reeb_cosheaf(f), reeb.reeb_cosheaf(g)
    for side, own, other, cosheaves in (("f", f, g, (F, G)), ("g", g, f, (G, F))):
        counts = cosheaf_rank_counts(*cosheaves, iv, eps)
        assert _rank_counts(own, other, iv, eps) == counts
        ref = reeb.Refutation(eps, iv, side, *counts)
        assert reeb.verify_refutation(f, g, ref)[0] == (counts[0] > counts[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4).map(lambda n: Fraction(n, 4)))
def test_every_constructor_verifies_from_scratch(seed, r):
    # a seeded stability pair's certificate at its radius delta, and what
    # each other constructor builds from it: the search at delta (if it
    # finds one within 300 nodes), f's self and smoothing certificates at
    # r, the composition with g's self certificate at r, the lift to
    # delta + r and the contraction by r. The public verifier smooths for
    # itself and reads no field but the five
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed),
                                               max_vertices=5, max_edges=6)
    cert = reeb.stability_certificate(edges, fv, gv)
    found = reeb.search_certificate(cert.f, cert.g, cert.epsilon, budget=300).certificate
    for c in (cert, found, reeb.self_certificate(cert.f, r), reeb.smoothing_certificate(cert.f, r),
              reeb.compose_certificates(cert, reeb.self_certificate(cert.g, r)),
              reeb.lift_certificate(cert, cert.epsilon + r), reeb.contract_certificate(cert, r)):
        if c is not None:
            bare = SimpleNamespace(f=c.f, g=c.g, epsilon=c.epsilon, alpha=c.alpha, beta=c.beta)
            assert reeb.verify_certificate(bare) == (True, "ok")


def redirected(m):
    """m with one image moved to another cell of the same level or slot of
    its target, for every such move: (whether the move breaks m as a
    morphism, the moved map). A vertex with edges at it, or an edge piece
    moved to an edge between other ends, breaks it; a move onto a parallel
    edge, or of an isolated vertex, keeps it a morphism."""
    src, tgt = m.source, m.target
    for v, (kind, c) in m.vertex_map.items():
        cells = (tgt.levels[tgt.vertex_level[c]] if kind == "vertex"
                 else tgt.slots[tgt.edge_slot[c]])
        for c2 in cells:
            if c2 != c:
                breaks = bool(src.below_edges[v] or src.above_edges[v])
                yield breaks, dataclasses.replace(
                    m, vertex_map={**m.vertex_map, v: (kind, c2)})
    for e, path in m.edge_map.items():
        for i, c in enumerate(path):
            for c2 in tgt.slots[tgt.edge_slot[c]]:
                if c2 != c:
                    new = (*path[:i], c2, *path[i + 1:])
                    breaks = tgt.endpoints(c2) != tgt.endpoints(c)
                    yield breaks, dataclasses.replace(m, edge_map={**m.edge_map, e: new})


def round_trips_hold(cert):
    """Both round trips, each map shifted by `smooth_morphism` and the
    iterated-smoothing witness instead of `shift_compose`."""
    eps = cert.epsilon
    for x, y, a in ((cert.alpha, cert.beta, cert.f), (cert.beta, cert.alpha, cert.g)):
        cs = reeb.compose_smoothings(a, eps, eps)
        shifted = reeb.compose(reeb.smooth_morphism(y, eps), cs.witness)
        if not reeb.morphism_equal(reeb.compose(x, shifted), cs.total.zeta):
            return False
    return True


NAMES_A_CELL = re.compile(r".*\b(vertex|edge) '[^']+'.*")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mutated_alphas_are_rejected_by_cell_and_never_raise(seed):
    # one alpha image redirected within its level or slot: a move that
    # breaks the morphism is rejected naming a cell, and any other is
    # accepted only if its round trips hold by the smooth_morphism route.
    # alpha retargeted at the half-radius smoothing is rejected naming
    # the first misplaced cell
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed),
                                               max_vertices=5, max_edges=6)
    cert = reeb.stability_certificate(edges, fv, gv)
    found = reeb.search_certificate(cert.f, cert.g, cert.epsilon, budget=300).certificate
    for c in (cert, found):
        if c is None:
            continue
        for breaks, alpha in redirected(c.alpha):
            mutant = dataclasses.replace(c, alpha=alpha)
            ok, msg = reeb.verify_certificate(mutant)
            if ok:
                assert not breaks and round_trips_hold(mutant)
            else:
                assert NAMES_A_CELL.fullmatch(msg), msg
        if c.epsilon > 0:
            half = reeb.smooth(c.g, c.epsilon / 2).smoothed
            ok, msg = reeb.verify_certificate(
                dataclasses.replace(c, alpha=dataclasses.replace(c.alpha, target=half)))
            assert not ok
            assert re.fullmatch(r"alpha does not run into S_eps g at epsilon = \S+: its target "
                                r"has vertex '[^']+' at \S+, S_eps g does not", msg), msg


@props
@given(finite_pairs, radii)
def test_refutations_verify_and_spend_no_nodes(pair, eps):
    f, g = pair
    out = reeb.search_certificate(f, g, eps, budget=300)
    if out.refutation is None:
        assert out.status != "exhausted" or out.nodes > 0
        return
    assert (out.status, out.nodes, out.certificate) == ("exhausted", 0, None)
    assert reeb.verify_refutation(f, g, out.refutation) == (True, "ok")
    assert out.refutation.epsilon == eps
    assert out.refutation.image > out.refutation.bound


@props
@given(finite_pairs, radii)
def test_no_certificate_where_refuted(pair, eps):
    f, g = pair
    if _refute(f, g, eps) is not None:
        assert not isinstance(search_past_refutation(f, g, eps, 2_000), Certificate)


@props
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_stability_radius_is_never_refuted(seed, extra):
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed),
                                               max_vertices=5, max_edges=6)
    cert = reeb.stability_certificate(edges, fv, gv)
    assert _refute(cert.f, cert.g, cert.epsilon + Fraction(extra, 4)) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stability_maps_each_vertex_into_the_component_around_it(seed):
    # a domain vertex kept in one reduced graph maps to the smoothed cell
    # whose members hold the same point of the other graph: the vertex
    # itself, or the merged edge through it when that reduction dropped it
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed),
                                               max_vertices=5, max_edges=6)
    cert = reeb.stability_certificate(edges, fv, gv)
    for m, sm, values in ((cert.alpha, reeb.smooth(cert.g, cert.epsilon), gv),
                          (cert.beta, reeb.smooth(cert.f, cert.epsilon), fv)):
        rising = [(e, a, b) if values[a] < values[b] else (e, b, a)
                  for e, (a, b) in edges.items()]
        dropped = reeb.reduce(reeb.build_rgraph(values, rising)).dropped_vertices
        for v in m.source.vertex_ids:
            if v in values:
                assert dropped.get(v, v) in sm.provenance[m.vertex_map[v][1]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_lifting_only_grows_the_image_components(seed, extra):
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed),
                                               max_vertices=5, max_edges=6)
    cert = reeb.stability_certificate(edges, fv, gv)
    lifted = reeb.lift_certificate(cert, cert.epsilon + Fraction(extra, 4))
    for old, new, x in ((cert.alpha, lifted.alpha, cert.g), (cert.beta, lifted.beta, cert.f)):
        sm, sm2 = reeb.smooth(x, cert.epsilon), reeb.smooth(x, lifted.epsilon)
        for v in old.source.vertex_ids:
            assert (sm.provenance[old.vertex_map[v][1]]
                    <= sm2.provenance[new.vertex_map[v][1]])


@settings(max_examples=40, deadline=None)
@given(small_pairs, radii)
def test_exhaustive_oracle_covers_the_scan_and_is_sound(pair, eps):
    f, g = pair
    oracle = exhaustive_refutation(f, g, eps)
    if _refute(f, g, eps) is not None:
        assert oracle is not None
    if oracle is not None:
        assert not isinstance(search_past_refutation(f, g, eps, 2_000), Certificate)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(radii, min_size=2, max_size=3, unique=True))
def test_outcomes_are_monotone_in_the_radius(seed, rs):
    f, g = equal_count_pair(seed, max_vertices=4, max_edges=5)
    statuses = [reeb.search_certificate(f, g, eps, budget=500).status
                for eps in sorted(rs)]
    if "found" in statuses:
        assert "exhausted" not in statuses[statuses.index("found"):]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(6)
@example(60)
def test_stability_outcomes_are_monotone_in_the_radius(seed):
    # the two examples find a certificate at the stability radius delta
    # and run out of budget above it, so a budget overrun reported as
    # "exhausted" breaks monotonicity there
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed),
                                               max_vertices=5, max_edges=6)
    cert = reeb.stability_certificate(edges, fv, gv)
    f, g, delta = cert.f, cert.g, cert.epsilon
    statuses = [reeb.search_certificate(f, g, delta * k / 4, budget=50).status
                for k in (1, 2, 3, 4, 6)]
    assert statuses[3] != "exhausted"
    if "found" in statuses:
        assert "exhausted" not in statuses[statuses.index("found"):]


def test_search_outcomes_are_frozen():
    # status, nodes and rank refutation of every probe, as recorded in
    # search_outcomes.json (see search_outcomes.py for how to regenerate)
    want = json.loads(search_outcomes.TABLE.read_text())
    assert search_outcomes.outcome_rows() == want


# ---------------------------------------------------------------------------
# Certificate maps frozen as the text emit_morphism writes: alpha, a "--"
# line, then beta. The texts were recorded before transport moved onto
# integer coordinates, and every map they hold went through transport.

def mixed_pair(seed):
    """Two random graphs from the seed, one in sevenths, one in tenths."""
    rng = random.Random(seed)
    return (reeb.random_rgraph(rng, max_vertices=5, max_edges=6, denominator=7),
            reeb.random_rgraph(rng, max_vertices=5, max_edges=6, denominator=10))


def certificate_text(cert):
    return reeb.emit_morphism(cert.alpha) + "--\n" + reeb.emit_morphism(cert.beta)


@pytest.mark.parametrize("seed,eps,text", [
    (208, Fraction(9, 13), """\
vmap p0 edge e(1;p0)
vmap w0@5/7 edge e(2;w0:0)
vmap p1 edge e(4;p1)
emap w0:0 e(1;p0) e(2;w0:0)
emap w0:1 e(2;w0:0) e(3;w0:0) e(4;p1)
--
vmap p0 edge e(0;p0)
vmap p2 edge e(2;p0)
vmap w0@9/10 edge e(2;p0)
vmap w0@3/2 edge e(5;p1)
vmap p1 edge e(5;p1)
emap w0:0 e(0;p0) e(1;p0) e(2;p0)
emap w1 e(0;p0) e(1;p0) e(2;p0)
emap w0:1 e(2;p0) e(3;p1) e(4;p1) e(5;p1)
emap w0:2 e(5;p1)
"""),
    (235, Fraction(9, 13), """\
vmap p1 edge e(1;p0)
vmap p0 edge e(2;p0)
emap w0 e(1;p0) e(2;p0)
emap w1 e(1;p0) e(2;p0)
emap w2 e(1;p0) e(2;p0)
emap w3 e(1;p0) e(2;p0)
emap w4 e(1;p0) e(2;p0)
emap w5 e(1;p0) e(2;p0)
--
vmap p1 edge e(0;p1)
vmap p0 edge e(1;p0)
emap w0 e(0;p1) e(1;p0)
emap w1 e(0;p1) e(1;p0)
emap w2 e(0;p1) e(1;p0)
"""),
    (109, Fraction(15, 11), """\
vmap p0 edge e(0;p1)
vmap p1 edge e(2;p0)
emap w0 e(0;p1) e(1;p1) e(2;p0)
emap w1 e(0;p1) e(1;p1) e(2;p0)
emap w2 e(0;p1) e(1;p1) e(2;p0)
--
vmap p1 edge e(1;p0)
vmap p2 edge e(2;p1)
vmap p0 edge e(2;p1)
emap w1 e(1;p0) e(2;p1)
emap w4 e(1;p0) e(2;p1)
emap w0 e(2;p1)
emap w2 e(2;p1)
emap w3 e(2;p1)
emap w5 e(2;p1)
"""),
], ids=["208", "235", "109"])
def test_found_certificate_maps_are_frozen(seed, eps, text):
    out = reeb.search_certificate(*mixed_pair(seed), eps, budget=2000)
    assert out.status == "found"
    assert certificate_text(out.certificate) == text


def test_stability_certificate_maps_are_frozen():
    # split vertices (w1@5/3, w4@19/12), parallel edges, and vertex images
    # as well as edge images
    edges = [("w0", "p2", "p0"), ("w1", "p1", "p0"), ("w2", "p2", "p0"),
             ("w3", "p0", "p2"), ("w4", "p1", "p2")]
    fv = {"p0": Fraction(11, 6), "p1": Fraction(-1, 6), "p2": Fraction(5, 3)}
    gv = {"p0": Fraction(19, 12), "p1": Fraction(-1, 6), "p2": Fraction(11, 6)}
    cert = reeb.stability_certificate(edges, fv, gv)
    assert cert.epsilon == Fraction(1, 4)
    assert certificate_text(cert) == """\
vmap p1 edge e(0;p1)
vmap p2 edge e(3;p0)
vmap w1@5/3 edge e(3;p0)
vmap p0 vertex v(4;p0)
emap w1:0 e(0;p1) e(1;w1) e(2;p0) e(3;p0)
emap w4 e(0;p1) e(1;w4:0) e(2;w4:0) e(3;p0)
emap w0 e(3;p0)
emap w1:1 e(3;p0)
emap w2 e(3;p0)
emap w3 e(3;p0)
--
vmap p1 edge e(0;p1)
vmap p0 vertex v(3;p0)
vmap w4@19/12 vertex v(3;p0)
vmap p2 edge e(3;p0)
emap w1 e(0;p1) e(1;w1:0) e(2;w1:0)
emap w4:0 e(0;p1) e(1;w4) e(2;p2)
emap w0 e(3;p0)
emap w2 e(3;p0)
emap w3 e(3;p0)
emap w4:1 e(3;p0)
"""


# ---------------------------------------------------------------------------
# The probe's setup kernels against the routes they replaced.

def unfiltered_refute(f, g, eps):
    """Test oracle for `_refute`: the same candidate ends and order, but
    every check counts its image and its bound with `_rank_counts`, on
    `Fraction` intervals and name-keyed components."""
    ends = [None, *sorted({s + k * eps for s in (*f.criticals, *g.criticals)
                           for k in range(-2, 3)}), None]
    for i, lo in enumerate(ends[:-1]):
        for hi in ends[i + 1:i + 3]:
            iv = reeb.interval(lo, hi)
            for side, own, other in (("f", f, g), ("g", g, f)):
                image, bound = _rank_counts(own, other, iv, eps)
                if image > bound:
                    return Refutation(eps, iv, side, image, bound)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_refute_by_cell_counts_matches_the_unfiltered_scan(seed):
    # graphs in quarters, or in sevenths against tenths; radii 0, in
    # quarters, elevenths or thirteenths, or half a gap between criticals
    rng = random.Random(seed)
    if rng.random() < 0.5:
        f, g = (reeb.random_rgraph(rng, max_vertices=6, max_edges=7) for _ in "fg")
    else:
        f, g = mixed_pair(rng.getrandbits(32))
    crit = sorted({*f.criticals, *g.criticals})
    gaps = [(b - a) / 2 for a, b in zip(crit, crit[1:])] or [Fraction(1, 2)]
    eps = rng.choice((Fraction(0), Fraction(rng.randint(1, 12), 4),
                      Fraction(rng.randint(1, 40), rng.choice((11, 13))), rng.choice(gaps)))
    assert _refute(f, g, eps) == unfiltered_refute(f, g, eps)


def stability_pair(rng, max_vertices, max_edges):
    """The two graphs of a random stability pair of the given size."""
    edges, *values = reeb.random_stability_pair(rng, max_vertices, max_edges)
    return [reeb.build_rgraph(vals, [(e, a, b) if vals[a] < vals[b] else (e, b, a)
                                     for e, (a, b) in edges.items()]) for vals in values]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_refute_on_sliding_windows_matches_the_unfiltered_scan(seed, close):
    # about 30 vertices, so that the windows slide far: independent draws,
    # which mostly refute early, or a stability pair, which mostly scans
    # every interval
    rng = random.Random(seed)
    if close:
        f, g = stability_pair(rng, 30, 45)
    else:
        f, g = (reeb.random_rgraph(rng, max_vertices=30, max_edges=45) for _ in "fg")
    for eps in (Fraction(rng.randint(1, 12), 4), Fraction(rng.randint(1, 20), 7)):
        assert _refute(f, g, eps) == unfiltered_refute(f, g, eps)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_refute_matches_the_unfiltered_scan_on_bench_shaped_pairs(seed, n):
    # stability pairs of 2 to n vertices probed at delta times 1/4, 1/2,
    # 3/4 and 1, as the benchmark does; each witness's counts match the
    # whole-cosheaf route
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed), n, n + 5)
    assume(len(fv) >= 2)
    f, g = (reeb.build_rgraph(vals, [(e, a, b) if vals[a] < vals[b] else (e, b, a)
                                     for e, (a, b) in edges.items()]) for vals in (fv, gv))
    delta = max(abs(fv[v] - gv[v]) for v in fv)
    cosheaves = reeb.reeb_cosheaf(f), reeb.reeb_cosheaf(g)
    for k in range(1, 5):
        eps = delta * Fraction(k, 4)
        ref = _refute(f, g, eps)
        assert ref == unfiltered_refute(f, g, eps)
        if ref is not None:
            d = "fg".index(ref.side)
            counts = _rank_counts((f, g)[d], (f, g)[1 - d], ref.interval, eps)
            assert counts == cosheaf_rank_counts(cosheaves[d], cosheaves[1 - d],
                                                 ref.interval, eps)


def test_verify_refutation_shares_nothing_with_the_rank_pass(monkeypatch):
    line, loop = reeb.line(0, 1), reeb.loop(0, 1)
    ref = _refute(line, loop, Fraction(1, 5))

    def unused(*args):
        raise AssertionError("the re-check reached the rank pass")
    monkeypatch.setattr(interleave, "_cell_table", unused)
    monkeypatch.setattr(interleave, "RollbackUnionFind", unused)
    assert reeb.verify_refutation(line, loop, ref) == (True, "ok")
    raised = dataclasses.replace(ref, bound=ref.bound + 1)
    assert reeb.verify_refutation(line, loop, raised) == (
        False, "on (2/5, 3/5), side 'g': the extension's image has 2 elements "
               "against a bound of 1; the witness records 2 and 2")


def chorded_pair(n):
    """The chorded path v0..v{n-1} at 0..n-1, edges v_i-v_{i+1} and chords
    v_i-v_{i+2} for i divisible by 3, and the same path shifted by 1/3."""
    def chorded(shift):
        values = {f"v{i}": i + shift for i in range(n)}
        edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
        edges += [(f"c{i}", f"v{i}", f"v{i + 2}") for i in range(0, n - 2, 3)]
        return reeb.build_rgraph(values, edges)
    return chorded(0), chorded(Fraction(1, 3))


def count_link_applications(monkeypatch):
    """A one-element list that counts the links the sliding union-find
    applies from here on, redone ones included."""
    count = [0]
    push = reeb.dynconn.RollbackUnionFind._push

    def counted(self, gs, is_a):
        count[0] += sum(len(self.groups[g]) for g in gs)
        return push(self, gs, is_a)
    monkeypatch.setattr(reeb.dynconn.RollbackUnionFind, "_push", counted)
    return count


def test_refute_above_the_diameter_unions_each_range_once(monkeypatch):
    # above the diameter every image range is the whole graph, so a held
    # range must serve every check instead of being redone per check
    f, g = chorded_pair(500)
    assert len(f.vertex_ids) + len(f.edge_ids) == 1497
    links = count_link_applications(monkeypatch)
    assert _refute(f, g, Fraction(501)) is None
    assert links[0] <= 8 * 1497


def test_refute_at_an_intermediate_radius_slides_its_windows(monkeypatch):
    # at eps = 63 consecutive ranges overlap almost entirely: the windows
    # slide instead of redoing each range, which took 1,616,926 unions
    f, g = chorded_pair(500)
    links = count_link_applications(monkeypatch)
    assert _refute(f, g, Fraction(63)) is None
    assert links[0] <= 60_000


def name_keyed_bundles(side, budget):
    """Test oracle for `_enumerate_bundles`: its candidates callback probes
    the target's `edge_groups` with (lower image, candidate) name pairs."""
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
            (e, T.edge_groups[j].get((va[S.down[j][e]], va[S.up[j][e]])))
            for j in range(S.n_slots) for e in S.slots[j])
        if all(cs for _, cs in choices):
            yield _Bundle(dict(va), choices)


def bundle_trace(enumerate_bundles, side, limit):
    """Every bundle with the node count at its yield, the final count, and
    whether the budget ran out."""
    budget = NodeBudget(limit, "budget")
    seen = []
    try:
        for bundle in enumerate_bundles(side, budget):
            seen.append((bundle, budget.nodes))
    except BudgetExceeded:
        return seen, budget.nodes, True
    return seen, budget.nodes, False


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([Fraction(1, 2), Fraction(1)]),
       st.sampled_from([7, 40, 200, 5_000]))
@example(0, Fraction(1, 2), 200)       # two vertices of a level ask with one mask
@example(3, Fraction(1, 2), 5_000)     # a vertex has two parallel edges to one below
def test_bitmask_candidates_enumerate_like_name_pairs(seed, k, limit):
    f, g, delta = search_outcomes.stability_graphs(seed)
    eps = delta * k
    for src, tgt in ((f, g), (g, f)):
        side = _SearchSide(src, reeb.smooth(tgt, eps).smoothed)
        assert bundle_trace(_enumerate_bundles, side, limit) == \
            bundle_trace(name_keyed_bundles, side, limit)


# ---------------------------------------------------------------------------
# Candidate maps against the refined route and against brute force.

def materialise_through_refinement(side, bundle, chosen):
    """Test oracle for `_expand_table`: the map of one full choice (a dict
    refined piece -> refined target edge), built as a levelwise morphism
    between the refined graphs and carried back to the original ones."""
    S, T = side.S, side.T
    vmaps = [{v: bundle.va[v] for v in lev} for lev in S.levels]
    emaps = [{e: chosen[e] for e in slot} for slot in S.slots]
    embed = reeb.refine_embed(side.src, reeb.refine(side.src, side.tgt.criticals))
    return reeb.compose(reeb.compose(embed, reeb.levelwise_morphism(S, T, vmaps, emaps)),
                        side.collapse)


def bundle_maps(side, bundle):
    """Every map of the bundle in product order, built by the oracle."""
    pieces = [piece for piece, _ in bundle.choices]
    for combo in product(*(cands for _, cands in bundle.choices)):
        yield materialise_through_refinement(side, bundle, dict(zip(pieces, combo)))


stability_probes = st.tuples(st.integers(0, 2**32 - 1),
                             st.sampled_from([Fraction(1, 2), Fraction(1)]))


@settings(max_examples=60, deadline=None)
@given(stability_probes)
@example((36174, Fraction(1, 2)))
def test_expanded_maps_match_the_refined_route(probe):
    # each direction checks the bundles its own million nodes reach, and
    # must reach one: on (36174, 1/2) the first direction reaches one of four
    seed, k = probe
    f, g, delta = search_outcomes.stability_graphs(seed)
    eps = delta * k
    for src, tgt in ((f, g), (g, f)):
        side = _SearchSide(src, reeb.smooth(tgt, eps).smoothed)
        budget = NodeBudget(10**6, "unused")
        reached = 0
        try:
            for bundle in islice(_enumerate_bundles(side, budget), 4):
                reached += 1
                got = _expand_table(side, bundle, every_choice(bundle), budget)
                for x, want in islice(zip(got, bundle_maps(side, bundle)), 8):
                    assert x == want
        except BudgetExceeded:
            assert reached, "a million nodes reached no bundle"


@settings(max_examples=60, deadline=None)
@given(stability_probes)
@example((13, Fraction(1)))
@example((16, Fraction(1)))
@example((96, Fraction(1, 2)))
@example((189, Fraction(1, 2)))
@example((36174, Fraction(1, 2)))
def test_filtered_bundles_keep_exactly_the_round_trips(probe):
    # the maps a filtered table expands to are the bundle's maps y with
    # compose(y, shift(x)) equal to the canonical map, found by brute force;
    # x runs over side a's first maps and a found certificate's alpha,
    # which some bundle's map completes. Each side's bundles are enumerated
    # under their own budget, and the bundles reached before it runs out
    # are checked: on (189, 1/2) a million nodes reach 21 of side b's, on
    # (36174, 1/2) one of the four side a's maps are taken from
    seed, k = probe
    f, g, delta = search_outcomes.stability_graphs(seed)
    eps = delta * k
    sm_f, sm_g, sm_g2 = reeb.smooth(f, eps), reeb.smooth(g, eps), reeb.smooth(g, 2 * eps)
    budget = NodeBudget(10**6, "unused")
    side_b = _SearchSide(g, sm_f.smoothed)
    xs = search_candidates(f, g, eps)[:3]
    out = reeb.search_certificate(f, g, eps, budget=200)
    if out.status == "found":
        xs.append(out.certificate.alpha)
    small = []
    try:
        for bundle in islice(_enumerate_bundles(side_b, NodeBudget(10**6, "side b")), 200):
            if prod(len(cands) for _, cands in bundle.choices) <= 500:
                small.append(bundle)
    except BudgetExceeded:
        pass
    ys = [list(bundle_maps(side_b, bundle)) for bundle in small]
    for x in xs:
        shifted = reeb.shift_compose(x, sm_f, sm_g, sm_g2)
        for bundle, maps in zip(small, ys):
            want = {reeb.emit_morphism(y) for y in maps
                    if reeb.morphism_equal(reeb.compose(y, shifted), sm_g2.zeta)}
            table = _filter_bundle(side_b, bundle, shifted, sm_g2.zeta, budget)
            got = set() if table is None else {
                reeb.emit_morphism(y) for y in _expand_table(side_b, bundle, table, budget)}
            assert got == want
