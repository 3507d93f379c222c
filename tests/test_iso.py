from fractions import Fraction

import pytest

from reeb import (BudgetExceeded, build_rgraph, compose, fork, identity,
                  is_isomorphic, is_isomorphism, levelwise_bijections, line,
                  loop, morphism_equal, point, refine, validate_morphism)
from reeb.iso import NodeBudget, levelwise_assignments


def test_iso_to_itself_and_relabelled_copy():
    g = fork()
    w = is_isomorphic(g, g)
    assert w is not None and is_isomorphism(w)
    h = build_rgraph(
        [("A", -1), ("B", 0), ("C", 1), ("D", 1)],
        [("e1", "A", "B"), ("e2", "B", "C"), ("e3", "B", "D")])
    w = is_isomorphic(g, h)
    assert w is not None
    assert validate_morphism(w).ok
    assert is_isomorphism(w)


def test_iso_ignores_presentation_refinement():
    g = line(0, 1)
    h = refine(g, [Fraction(1, 7), Fraction(2, 7)]).graph
    w = is_isomorphic(g, h)
    assert w is not None and is_isomorphism(w)


def test_non_isomorphic_pairs():
    assert is_isomorphic(line(0, 1), loop(0, 1)) is None
    assert is_isomorphic(line(0, 1), line(0, 2)) is None
    assert is_isomorphic(point(0), point(1)) is None
    # same criticals and counts, different attachment
    g = build_rgraph([("a", 0), ("b", 0), ("c", 1), ("d", 1)],
                     [("e1", "a", "c"), ("e2", "a", "d")])
    h = build_rgraph([("a", 0), ("b", 0), ("c", 1), ("d", 1)],
                     [("e1", "a", "c"), ("e2", "b", "d")])
    assert is_isomorphic(g, h) is None


def test_parallel_edge_multiplicity_matters():
    g = loop(0, 1)
    h = build_rgraph([("v0", 0), ("v1", 1)],
                     [("e0", "v0", "v1"), ("e1", "v0", "v1"),
                      ("e2", "v0", "v1")])
    assert is_isomorphic(g, h) is None


def test_levelwise_bijections_requires_equal_criticals():
    assert levelwise_bijections(line(0, 1), line(0, 2)) is None
    got = levelwise_bijections(loop(0, 1), loop(0, 1))
    assert got is not None
    vmaps, emaps = got
    assert vmaps[0] == {"v0": "v0"}
    assert sorted(emaps[0]) == ["e0", "e1"]


def test_iso_witness_composes_to_identity():
    g = loop(0, 1)
    w = is_isomorphic(g, g)
    assert morphism_equal(compose(w, is_isomorphic(g, g)), identity(g)) or \
        is_isomorphism(compose(w, w))


def test_budget_is_honest():
    # one 16-cycle versus two 8-cycles: every cheap signature agrees, so
    # refutation needs real backtracking
    verts = [(f"a{i}", 0) for i in range(8)] + [(f"b{i}", 1) for i in range(8)]

    def cyc(i, shift, tag):
        return (f"{tag}{i}", f"a{i}", f"b{(i + shift) % 8}")

    g = build_rgraph(verts, [cyc(i, 0, "m") for i in range(8)]
                     + [cyc(i, 1, "s") for i in range(8)])
    h_edges = ([(f"m{i}", f"a{i}", f"b{i}") for i in range(8)]
               + [(f"s{i}", f"a{i}", f"b{(i + 1) % 4}") for i in range(4)]
               + [(f"s{i}", f"a{i}", f"b{4 + (i + 1) % 4}") for i in range(4, 8)])
    h = build_rgraph(verts, h_edges)
    with pytest.raises(BudgetExceeded):
        is_isomorphic(g, h, budget=20)
    assert is_isomorphic(g, h, budget=500_000) is None


def test_levelwise_assignments_enumerates_all_and_counts_values_tried():
    g = build_rgraph([("a", 0), ("b", 0), ("c", 1)])

    def two(i, v, assignment):
        return ("x", "y")

    budget = NodeBudget(100, "over")
    got = [dict(a) for a in levelwise_assignments(g, two, budget)]
    assert len(got) == 8
    assert got[0] == {"a": "x", "b": "x", "c": "x"}
    assert got[-1] == {"a": "y", "b": "y", "c": "y"}
    assert budget.nodes == 2 + 4 + 8
    with pytest.raises(BudgetExceeded, match="over"):
        list(levelwise_assignments(g, two, NodeBudget(13, "over")))


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # one level per point, twice the default recursion limit
    g = build_rgraph([(f"p{i}", i) for i in range(2000)])
    w = is_isomorphic(g, g)
    assert w is not None and is_isomorphism(w)
