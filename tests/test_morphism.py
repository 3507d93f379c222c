import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb import (RGraphMorphism, ValidationError, build_rgraph, compose,
                  compose_smoothings, fork, identity, invert_isomorphism,
                  is_isomorphism, levelwise_morphism, line, loop,
                  morphism_equal, morphism_first_difference, normal_form,
                  path_cell_at, point,
                  random_rgraph, reduce, reduce_collapse, reduce_embed,
                  refine, refine_collapse, refine_embed, shift_compose,
                  smooth, smooth_morphism, validate_morphism)


def collapse_line_onto_point_family():
    """A two-prong fork mapping onto a line by folding the prongs."""
    src = fork()
    tgt = build_rgraph([("p", -1), ("q", 0), ("r", 1)],
                       [("pq", "p", "q"), ("qr", "q", "r")])
    phi = RGraphMorphism(src, tgt,
                         {"u": ("vertex", "p"), "w": ("vertex", "q"),
                          "x": ("vertex", "r"), "y": ("vertex", "r")},
                         {"uw": ("pq",), "wx": ("qr",), "wy": ("qr",)})
    return src, tgt, phi


def test_identity_validates_and_is_iso():
    g = fork()
    phi = identity(g)
    assert validate_morphism(phi).ok
    assert is_isomorphism(phi)
    assert morphism_equal(compose(phi, phi), phi)


def test_fold_morphism_validates_but_is_not_iso():
    _, _, phi = collapse_line_onto_point_family()
    assert validate_morphism(phi).ok
    assert not is_isomorphism(phi)
    with pytest.raises(ValidationError):
        invert_isomorphism(phi)


def test_validate_morphism_catches_value_errors():
    g = line(0, 1)
    h = line(0, 2)
    # v1 sits at 1, but its image sits at 2
    phi = RGraphMorphism(g, h, {"v0": ("vertex", "v0"), "v1": ("vertex", "v1")},
                         {"e0": ("e0",)})
    rep = validate_morphism(phi)
    assert not rep.ok
    # mapping v1 into the interior of the target edge is fine
    rr = refine(h, [Fraction(1)])
    phi2 = RGraphMorphism(g, h, {"v0": ("vertex", "v0"), "v1": ("edge", "e0")},
                          {"e0": ("e0",)})
    assert validate_morphism(phi2).ok
    assert rr.graph.criticals == (0, 1, 2)


def test_validate_morphism_catches_broken_paths():
    g = line(0, 2)
    h = build_rgraph([("a", 0), ("b", 1), ("c", 2), ("b2", 1)],
                     [("ab", "a", "b"), ("bc", "b", "c"), ("ab2", "a", "b2"),
                      ("b2c", "b2", "c")])
    ok = RGraphMorphism(g, h, {"v0": ("vertex", "a"), "v1": ("vertex", "c")},
                        {"e0": ("ab", "bc")})
    assert validate_morphism(ok).ok
    broken = RGraphMorphism(g, h, {"v0": ("vertex", "a"), "v1": ("vertex", "c")},
                            {"e0": ("ab", "b2c")})
    rep = validate_morphism(broken)
    assert not rep.ok


def test_compose_through_edge_images():
    src, tgt, phi = collapse_line_onto_point_family()
    red = reduce(tgt)
    psi = reduce_collapse(tgt, red)     # q is a pass-through point
    comp = compose(phi, psi)
    assert validate_morphism(comp).ok
    assert comp.vertex_map["w"][0] == "edge"
    e = red.graph.edge_ids[0]
    assert comp.edge_map["uw"] == (e,)


def test_refine_embed_collapse_roundtrip():
    g = fork()
    rr = refine(g, [Fraction(1, 2), Fraction(-1, 3)])
    emb = refine_embed(g, rr)
    col = refine_collapse(g, rr)
    assert is_isomorphism(emb) and is_isomorphism(col)
    assert morphism_equal(compose(emb, col), identity(g))
    assert morphism_equal(invert_isomorphism(emb), col)


def test_reduce_embed_collapse_roundtrip():
    g = refine(line(0, 1), [Fraction(1, 2)]).graph
    red = reduce(g)
    emb = reduce_embed(g, red)
    col = reduce_collapse(g, red)
    assert morphism_equal(compose(col, emb), identity(g))
    assert is_isomorphism(col)


def test_normal_form_levelwise_maps():
    g = line(0, 1)
    h = line(0, 2)
    rr = refine(h, [Fraction(1)])
    phi = RGraphMorphism(g, h, {"v0": ("vertex", "v0"), "v1": ("edge", "e0")},
                         {"e0": ("e0",)})
    nf = normal_form(phi)
    assert nf.source.criticals == (0, 1, 2)
    assert rr.graph == nf.target
    # v1 maps to the split vertex of e0 at value 1
    img = nf.vertex_maps[1]["v1"]
    assert nf.target.value(img) == 1


def test_morphism_first_difference_reports_cell():
    g = loop(0, 1)
    h = loop(0, 1)
    a = RGraphMorphism(g, h, {"v0": ("vertex", "v0"), "v1": ("vertex", "v1")},
                       {"e0": ("e0",), "e1": ("e1",)})
    b = RGraphMorphism(g, h, {"v0": ("vertex", "v0"), "v1": ("vertex", "v1")},
                       {"e0": ("e1",), "e1": ("e0",)})
    diff = morphism_first_difference(a, b)
    assert diff == "edge 'e0' at slot 0: ('e0',) vs ('e1',)"
    assert morphism_first_difference(a, a) is None
    with pytest.raises(ValidationError):
        morphism_first_difference(a, identity(line(0, 2)))
    # a vertex difference names the vertex's level
    a = RGraphMorphism(point(1), fork(), {"v0": ("vertex", "x")}, {})
    b = RGraphMorphism(point(1), fork(), {"v0": ("vertex", "y")}, {})
    assert morphism_first_difference(a, b) == \
        "vertex 'v0' at level 0: ('vertex', 'x') vs ('vertex', 'y')"


def test_path_cell_at():
    g = build_rgraph([("a", 0), ("b", 1), ("c", 2)],
                     [("ab", "a", "b"), ("bc", "b", "c")])
    path = ("ab", "bc")
    assert path_cell_at(g, path, Fraction(0)) == ("vertex", "a")
    assert path_cell_at(g, path, Fraction(1, 2)) == ("edge", "ab")
    assert path_cell_at(g, path, Fraction(1)) == ("vertex", "b")
    assert path_cell_at(g, path, Fraction(2)) == ("vertex", "c")


def test_smooth_morphism_of_fold():
    src, tgt, phi = collapse_line_onto_point_family()
    eps = Fraction(1, 4)
    phi_s = smooth_morphism(phi, eps)
    assert validate_morphism(phi_s).ok
    assert phi_s.source == smooth(src, eps).smoothed
    assert phi_s.target == smooth(tgt, eps).smoothed


def test_smooth_morphism_rejects_mismatched_smoothings():
    _, _, phi = collapse_line_onto_point_family()
    wrong = smooth(line(0, 1), Fraction(1, 4))
    with pytest.raises(ValidationError):
        smooth_morphism(phi, Fraction(1, 4), sm_source=wrong)


# ---------------------------------------------------------------------------
# Functor laws of the smoothing on random graphs.

graphs = st.integers(0, 2**32 - 1).map(
    lambda seed: random_rgraph(random.Random(seed), max_vertices=5, max_edges=6))
radii = st.integers(1, 8).map(lambda n: Fraction(n, 4))
laws = settings(max_examples=100, deadline=None)


def map_out(g, a):
    """A morphism out of g that folds and thickens: reduce, then smooth."""
    red = reduce(g)
    return compose(reduce_collapse(g, red), smooth(red.graph, a).zeta)


@laws
@given(graphs, radii)
def test_smoothing_preserves_identities(g, eps):
    assert morphism_equal(smooth_morphism(identity(g), eps),
                          identity(smooth(g, eps).smoothed))


@laws
@given(graphs, radii, radii, radii)
def test_smoothing_preserves_composition(g, a, b, eps):
    phi = map_out(g, a)
    psi = map_out(phi.target, b)
    assert morphism_equal(smooth_morphism(compose(phi, psi), eps),
                          compose(smooth_morphism(phi, eps),
                                  smooth_morphism(psi, eps)))


@laws
@given(graphs, radii, radii)
def test_zeta_is_natural(g, a, eps):
    phi = map_out(g, a)
    assert morphism_equal(compose(phi, smooth(phi.target, eps).zeta),
                          compose(smooth(g, eps).zeta, smooth_morphism(phi, eps)))


@laws
@given(graphs, radii)
def test_shifted_zeta_is_the_iterated_smoothing_witness(g, eps):
    sm = smooth(g, eps)
    cs = compose_smoothings(g, eps, eps)
    assert morphism_equal(shift_compose(sm.zeta, sm, sm, smooth(g, 2 * eps)),
                          compose(cs.second.zeta, cs.witness))


@laws
@given(graphs, radii, radii)
def test_normal_form_round_trips(g, a, eps):
    phi = map_out(g, a)
    phi = compose(phi, smooth(phi.target, eps).zeta)
    nf = normal_form(phi)
    core = levelwise_morphism(nf.source, nf.target, nf.vertex_maps, nf.edge_maps)
    assert validate_morphism(core).ok
    back = compose(compose(refine_embed(phi.source, nf.source_refine), core),
                   refine_collapse(phi.target, nf.target_refine))
    assert morphism_equal(back, phi)
