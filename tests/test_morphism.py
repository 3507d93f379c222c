import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb import (InternalError, RGraphMorphism, ValidationError,
                  build_rgraph, compose, compose_smoothings, fork, identity,
                  invert_isomorphism, is_isomorphism, levelwise_morphism,
                  line, loop, morphism_equal, morphism_first_difference,
                  normal_form, parse_morphism, path_cell_at, point, random_rgraph,
                  random_stability_pair, reduce, reduce_collapse,
                  reduce_embed, refine, refine_collapse, refine_embed,
                  shift_compose, smooth, smooth_morphism,
                  stability_certificate, transport, validate_morphism)
from reeb.morphism import smoothed_pull
from test_smoothing import mixed_graph


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


# valid maps of line(0, 2): onto two routes a -> b -> c and a -> b2 -> c
# over [0, 2], and into two edges p -> q -> r over [-1, 3]
DROP = object()
TARGETS = {
    "routes": (build_rgraph([("a", 0), ("b", 1), ("c", 2), ("b2", 1)],
                            [("ab", "a", "b"), ("bc", "b", "c"), ("ab2", "a", "b2"),
                             ("b2c", "b2", "c")]),
               {"v0": ("vertex", "a"), "v1": ("vertex", "c")}, {"e0": ("ab", "bc")}),
    "inside": (build_rgraph([("p", -1), ("q", 1), ("r", 3)],
                            [("pq", "p", "q"), ("qr", "q", "r")]),
               {"v0": ("edge", "pq"), "v1": ("edge", "qr")}, {"e0": ("pq", "qr")}),
}


@pytest.mark.parametrize("target, vertex_map, edge_map, message", [
    ("routes", {"v1": DROP}, {}, "vertex map missing ['v1']"),
    ("routes", {"x": ("vertex", "a")}, {}, "vertex map defined on unknown ['x']"),
    ("routes", {}, {"e0": DROP}, "edge map missing ['e0']"),
    ("routes", {}, {"x": ("ab",)}, "edge map defined on unknown ['x']"),
    ("routes", {"v0": ("vertex", ["nope"])}, {},
     "vertex 'v0': malformed image ('vertex', ['nope'])"),
    ("routes", {"v0": ("point", "a")}, {}, "vertex 'v0': malformed image ('point', 'a')"),
    ("routes", {"v0": "a"}, {}, "vertex 'v0': malformed image 'a'"),
    ("routes", {"v0": ("vertex", "x")}, {}, "vertex 'v0': unknown target vertex 'x'"),
    ("routes", {"v0": ("vertex", "b")}, {}, "vertex 'v0': value 0 mapped to vertex at 1"),
    ("routes", {"v0": ("edge", "x")}, {}, "vertex 'v0': unknown target edge 'x'"),
    ("routes", {"v0": ("edge", "ab")}, {},
     "vertex 'v0': value 0 not strictly inside target edge 'ab'"),
    ("routes", {}, {"e0": 5}, "edge 'e0': malformed image 5"),
    ("routes", {}, {"e0": [["x"]]}, "edge 'e0': malformed image [['x']]"),
    ("routes", {}, {"e0": None}, "edge 'e0': malformed image None"),
    ("routes", {}, {"e0": ()}, "edge 'e0': empty path"),
    ("routes", {}, {"e0": ("ab", "x")}, "edge 'e0': path uses unknown target edges"),
    ("routes", {}, {"e0": ("ab", "b2c")}, "edge 'e0': path does not chain bottom-to-top"),
    ("routes", {}, {"e0": ("bc",)}, "edge 'e0': path does not start at the image of 'v0'"),
    ("routes", {}, {"e0": ("ab",)}, "edge 'e0': path does not end at the image of 'v1'"),
    ("inside", {}, {"e0": ("qr",)},
     "edge 'e0': path does not start inside the image of 'v0'"),
    ("inside", {}, {"e0": ("pq",)}, "edge 'e0': path does not end inside the image of 'v1'"),
])
def test_validate_morphism_reports_each_violation(target, vertex_map, edge_map, message):
    # each case changes a valid map by the entries given, DROP removing
    # one, and breaks it in exactly one way; nothing is raised
    g = line(0, 2)
    h, vmap, emap = TARGETS[target]
    assert validate_morphism(RGraphMorphism(g, h, vmap, emap)).ok

    def changed(base, new):
        return {k: v for k, v in {**base, **new}.items() if v is not DROP}

    phi = RGraphMorphism(g, h, changed(vmap, vertex_map), changed(emap, edge_map))
    assert validate_morphism(phi).violations == (message,)


def test_validate_morphism_keeps_list_and_str_paths():
    # a path may be any sequence of edge ids, as before
    g = line(0, 2)
    h, vmap, _ = TARGETS["routes"]
    assert validate_morphism(RGraphMorphism(g, h, vmap, {"e0": ["ab", "bc"]})).ok
    h = build_rgraph([("p", 0), ("q", 2)], [("x", "p", "q")])
    assert validate_morphism(RGraphMorphism(g, h, {"v0": ("vertex", "p"),
                                                   "v1": ("vertex", "q")}, {"e0": "x"})).ok


def test_compose_through_edge_images():
    src, tgt, phi = collapse_line_onto_point_family()
    red = reduce(tgt)
    psi = reduce_collapse(tgt, red)     # q is a pass-through point
    comp = compose(phi, psi)
    assert validate_morphism(comp).ok
    assert comp.vertex_map["w"][0] == "edge"
    e = red.graph.edge_ids[0]
    assert comp.edge_map["uw"] == (e,)


@pytest.mark.parametrize("top, text, target, message", [
    (2, "vmap v0 vertex b\nvmap v1 vertex b\nemap e0 x\n",
     ({"a": 0, "m": 1, "b": 2}, [("x", "a", "m"), ("y", "m", "b")]),
     "lower end's image, vertex 'b'"),
    (1, "vmap v0 vertex a\nvmap v1 edge w\nemap e0 x\n",
     ({"a": 0, "b": 2}, [("x", "a", "b"), ("w", "a", "b")]),
     "upper end's image, edge 'w'"),
], ids=["vertex-off-path", "edge-off-path"])
def test_an_edge_image_that_misses_an_end_image_is_a_validation_error(top, text, target,
                                                                      message):
    # parsing checks shape only, so these reach compose; every caller of
    # compose names the end image that the edge's image never reaches
    src = line(0, top)
    phi = parse_morphism(text, src, build_rgraph(*target))
    for call in (lambda: compose(identity(src), phi), lambda: normal_form(phi),
                 lambda: is_isomorphism(phi), lambda: invert_isomorphism(phi)):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"the image x of edge path e0 misses its {message}"


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


# ---------------------------------------------------------------------------
# transport's internal errors name the cell and where it sits.

def everything(g, h):
    """Witness images that send every cell of g to every cell of h."""
    cells = {*h.vertex_ids, *h.edge_ids}
    return {x: cells for x in (*g.vertex_ids, *g.edge_ids)}, None, None


def test_transport_names_a_witness_the_smoothing_does_not_track():
    g, eps = line(0, 1), Fraction(1, 4)
    sm = smooth(g, eps)
    # the smoothed vertex at 1/4 holds v0 and e0; drop v0 from it
    assert sm.provenance["v(1;e0)"] == frozenset({"v0", "e0"})
    broken = dataclasses.replace(sm)
    broken.__dict__["provenance"] = {**sm.provenance, "v(1;e0)": frozenset({"e0"})}
    with pytest.raises(InternalError, match="^" + re.escape(
            "vertex 'v(1;e0)': witness cell 'v0' not tracked at level 1") + "$"):
        transport(sm.smoothed, smoothed_pull(identity(g), sm), broken)


def test_transport_names_witnesses_in_two_components():
    two = build_rgraph({"a0": 0, "a1": 1, "b0": 0, "b1": 1},
                       [("a", "a0", "a1"), ("b", "b0", "b1")])
    sm = smooth(two, Fraction(1, 4))
    g = line(0, 1)
    with pytest.raises(InternalError, match="^" + re.escape(
            "vertex 'v0' at slot 0: the witnesses in its window land in "
            "components ['e(0;a)', 'e(0;b)']") + "$"):
        transport(g, everything(g, two), sm)


def forged_index(sm, wrong):
    """A copy of sm whose position index sends the (doubled position,
    source cell) keys of `wrong` to the smoothed cells given there."""
    broken = dataclasses.replace(sm)
    broken.__dict__["position_index"] = {**sm.position_index, **wrong}
    return broken


# two strands a: a0 -> a1 and b: b0 -> b1 over [0, 1], smoothed at 1/4
# (criticals -1/4, 1/4, 3/4, 5/4); the line's v0 and e0 map into strand a
strands = build_rgraph({"a0": 0, "a1": 1, "b0": 0, "b1": 1},
                       [("a", "a0", "a1"), ("b", "b0", "b1")])
onto_a = ({"v0": {"a0"}, "v1": {"a1"}, "e0": {"a"}}, None, None)


def test_transport_names_a_vertex_image_off_its_position():
    sm = forged_index(smooth(strands, Fraction(1, 4)), {(1, "a0"): "v(1;a)"})
    with pytest.raises(InternalError, match="^" + re.escape(
            "vertex 'v0': image 'v(1;a)' is not a cell at slot 0") + "$"):
        transport(line(0, 1), onto_a, sm)


def test_transport_names_an_edge_path_that_does_not_chain():
    sm = smooth(strands, Fraction(1, 4))
    assert validate_morphism(transport(line(0, 1), onto_a, sm)).ok
    with pytest.raises(InternalError, match="^" + re.escape(
            "edge 'e0': image path ['e(0;a)', 'e(1;b)', 'e(2;a)'] does not chain "
            "from the image of 'v0' to that of 'v1'") + "$"):
        transport(line(0, 1), onto_a, forged_index(sm, {(3, "a"): "e(1;b)"}))


def test_transport_names_a_value_outside_the_smoothed_range():
    # the smoothed line spans [-1/4, 5/4]; q sits above it
    h = line(0, 1)
    g = build_rgraph({"p": 0, "q": Fraction(3, 2)}, [("pq", "p", "q")])
    with pytest.raises(InternalError, match="^" + re.escape(
            "vertex 'q': value 3/2 outside the smoothed range") + "$"):
        transport(g, everything(g, h), smooth(h, Fraction(1, 4)))


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


def valid(m):
    """m, once `validate_morphism`, the Fraction oracle for what
    `transport` checks on integers, accepts it."""
    rep = validate_morphism(m)
    assert rep.ok, rep.violations
    return m


@laws
@given(graphs, radii)
def test_smoothing_preserves_identities(g, eps):
    assert morphism_equal(valid(smooth_morphism(identity(g), eps)),
                          identity(smooth(g, eps).smoothed))


def composition_law(g, a, b, eps):
    phi = map_out(g, a)
    psi = map_out(phi.target, b)
    assert morphism_equal(valid(smooth_morphism(compose(phi, psi), eps)),
                          compose(valid(smooth_morphism(phi, eps)),
                                  valid(smooth_morphism(psi, eps))))


def naturality_law(g, a, eps):
    phi = map_out(g, a)
    assert morphism_equal(compose(phi, smooth(phi.target, eps).zeta),
                          compose(smooth(g, eps).zeta, valid(smooth_morphism(phi, eps))))


def shifted_zeta_law(g, r, s, cert):
    # the canonical map S_r g -> S_{r+s} g, shifted from zeta or iterated
    cs = compose_smoothings(g, r, s)
    sm = smooth(g, s)
    assert morphism_equal(valid(shift_compose(sm.zeta, cs.first, sm, cs.total)),
                          compose(cs.second.zeta, valid(cs.witness)))
    # for any m: A -> S_s B, the shifted composite is the smoothed map
    # followed by S_r S_s B -> S_{r+s} B
    m, sm_a = cert.alpha, smooth(cert.alpha.source, r)
    cb = compose_smoothings(cert.g, cert.epsilon, r)
    assert morphism_equal(valid(shift_compose(m, sm_a, cb.first, cb.total)),
                          compose(valid(smooth_morphism(m, r)),
                                  cb.witness))


@laws
@given(graphs, radii, radii, radii)
def test_smoothing_preserves_composition(g, a, b, eps):
    composition_law(g, a, b, eps)


@laws
@given(graphs, radii, radii)
def test_zeta_is_natural(g, a, eps):
    naturality_law(g, a, eps)


stability_certs = st.integers(0, 2**32 - 1).map(
    lambda seed: stability_certificate(*random_stability_pair(
        random.Random(seed), max_vertices=5, max_edges=6)))


@laws
@given(graphs, radii, radii, stability_certs)
def test_shifted_zeta_is_the_iterated_smoothing_witness(g, r, s, cert):
    shifted_zeta_law(g, r, s, cert)


# The same laws where transport's one integer scale is large: values in
# sevenths, ninths and tenths, radii in elevenths or thirteenths, or half
# a gap between two criticals, so that windows around different
# positions end at the same value.

def mixed_draw(seed, kind, count):
    """A graph in sevenths, ninths and tenths and `count` radii for it."""
    rng = random.Random(seed)
    g = mixed_graph(rng)
    S = g.criticals

    def radius():
        if kind == "tie" and len(S) >= 2:
            i, j = sorted(rng.sample(range(len(S)), 2))
            return (S[j] - S[i]) / 2
        return Fraction(rng.randint(1, 60), rng.choice((11, 13)))
    return g, [radius() for _ in range(count)], rng


mixed = (st.integers(0, 2**32 - 1), st.sampled_from(["coprime", "tie"]))


@laws
@given(*mixed)
def test_smoothing_preserves_composition_on_mixed_denominators(seed, kind):
    g, rs, _ = mixed_draw(seed, kind, 3)
    composition_law(g, *rs)


@laws
@given(*mixed)
def test_zeta_is_natural_on_mixed_denominators(seed, kind):
    g, rs, _ = mixed_draw(seed, kind, 2)
    naturality_law(g, *rs)


@laws
@given(*mixed)
def test_shifted_zeta_is_the_iterated_smoothing_witness_on_mixed_denominators(seed, kind):
    g, rs, rng = mixed_draw(seed, kind, 2)
    cert = stability_certificate(*random_stability_pair(
        rng, max_vertices=5, max_edges=6, denominator=rng.choice((7, 9, 10))))
    shifted_zeta_law(g, *rs, cert)


def test_shift_compose_rejects_radii_that_do_not_add_up():
    g = loop(0, 1)
    sm = smooth(g, Fraction(1, 4))
    with pytest.raises(ValidationError, match=r"^total smoothing radius 1/3 is not "
                       r"the source radius 1/5 plus the target radius 1/4$"):
        shift_compose(sm.zeta, smooth(g, Fraction(1, 5)), sm, smooth(g, Fraction(1, 3)))


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
