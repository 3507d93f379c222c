import io
import random
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reeb import (NaiveDynForest, SimplicialField, ValidationError,
                  build_rgraph, collision_free_epsilon, compose_smoothings,
                  emit_morphism, emit_rgraph, fork, is_cosheaf_iso,
                  is_isomorphic, is_isomorphism, line, loop, morphism_equal,
                  num_components, point, random_rgraph, reduce, reeb_cosheaf,
                  reeb_of_complex, smooth, smooth_cosheaf, smooth_naive,
                  smooth_sweep, validate, validate_morphism)
from reeb import cli, smoothing
from reeb.core import keyed_name
from reeb.dynconn import RollbackUnionFind

EPS = Fraction(1, 4)


def partition(nodes, find):
    groups = {}
    for x in nodes:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(s) for s in groups.values()}


def cycle_rank(g):
    return len(g.edge_ids) - len(g.vertex_ids) + num_components(g)


def test_point_smooths_to_segment():
    sm = smooth(point(0), EPS)
    assert emit_rgraph(sm.smoothed) == (
        "criticals -1/4 1/4\n"
        "vertex v(0;v0) -1/4\n"
        "vertex v(1;v0) 1/4\n"
        "edge e(0;v0) v(0;v0) v(1;v0)\n")
    assert is_isomorphic(sm.smoothed, line(-EPS, EPS)) is not None


def test_line_smooths_to_longer_line():
    sm = smooth(line(0, 1), EPS)
    assert sm.smoothed.criticals == (Fraction(-1, 4), Fraction(1, 4),
                                     Fraction(3, 4), Fraction(5, 4))
    assert is_isomorphic(sm.smoothed, line(-EPS, 1 + EPS)) is not None
    red = reduce(sm.smoothed)
    assert red.graph.criticals == (Fraction(-1, 4), Fraction(5, 4))


def test_fork_branch_vertex_rises_by_eps():
    sm = smooth(fork(), EPS)
    branch = [v for v in sm.smoothed.vertex_ids
              if sm.smoothed.up_degree(v) == 2]
    assert len(branch) == 1
    assert sm.smoothed.value(branch[0]) == Fraction(0) + EPS
    assert sm.provenance[branch[0]] == frozenset({"w", "wx", "wy"})
    # the underlying shape is still a fork with stretched limbs
    red = reduce(sm.smoothed)
    assert is_isomorphic(
        red.graph,
        build_rgraph([("u", Fraction(-5, 4)), ("w", EPS),
                      ("x", Fraction(5, 4)), ("y", Fraction(5, 4))],
                     [("uw", "u", "w"), ("wx", "w", "x"),
                      ("wy", "w", "y")])) is not None


@pytest.mark.parametrize("eps,has_cycle", [
    (Fraction(1, 4), True), (Fraction(49, 100), True),
    (Fraction(1, 2), False), (Fraction(3, 4), False),
])
def test_loop_cycle_survives_below_half(eps, has_cycle):
    sm = smooth(loop(0, 1), eps)
    assert cycle_rank(sm.smoothed) == (1 if has_cycle else 0)
    if has_cycle:
        doubled = [j for j, slot in enumerate(sm.smoothed.slots)
                   if len(slot) == 2]
        assert len(doubled) == 1
        j = doubled[0]
        e1, e2 = sm.smoothed.slots[j]
        assert sm.smoothed.span(e1) == (eps, 1 - eps)
        assert sm.smoothed.endpoints(e1)[0] == sm.smoothed.endpoints(e2)[0]
        assert sm.smoothed.endpoints(e1)[1] == sm.smoothed.endpoints(e2)[1]


def test_loop_smoothing_frozen_form():
    # each cell is named by the least member of its window component; the
    # members themselves are in the provenance
    sm = smooth(loop(0, 1), EPS)
    assert emit_rgraph(sm.smoothed) == (
        "criticals -1/4 1/4 3/4 5/4\n"
        "vertex v(0;v0) -1/4\n"
        "vertex v(1;e0) 1/4\n"
        "vertex v(2;e0) 3/4\n"
        "vertex v(3;v1) 5/4\n"
        "edge e(0;e0) v(0;v0) v(1;e0)\n"
        "edge e(1;e0) v(1;e0) v(2;e0)\n"
        "edge e(1;e1) v(1;e0) v(2;e0)\n"
        "edge e(2;e0) v(2;e0) v(3;v1)\n")
    assert sm.provenance == {
        "v(0;v0)": {"v0"}, "v(1;e0)": {"e0", "e1", "v0"},
        "v(2;e0)": {"e0", "e1", "v1"}, "v(3;v1)": {"v1"},
        "e(0;e0)": {"e0", "e1", "v0"}, "e(1;e0)": {"e0"}, "e(1;e1)": {"e1"},
        "e(2;e0)": {"e0", "e1", "v1"}}


def test_zero_radius_is_a_renaming():
    g = fork()
    sm = smooth(g, 0)
    assert sm.smoothed.criticals == g.criticals
    assert is_isomorphic(sm.smoothed, g) is not None
    assert is_isomorphism(sm.zeta)
    assert all(len(p) == 1 for p in sm.provenance.values())
    assert smooth_naive(g, 0).smoothed == sm.smoothed


def test_negative_radius_rejected():
    with pytest.raises(ValidationError):
        smooth(line(0, 1), Fraction(-1, 2))


def test_empty_and_far_apart_components():
    from reeb import empty_rgraph
    sm = smooth(empty_rgraph(), EPS)
    assert sm.smoothed.is_empty
    g = build_rgraph([("a", 0), ("b", 10)])
    sm = smooth(g, EPS)
    assert num_components(sm.smoothed) == 2
    assert sm.smoothed.criticals == (Fraction(-1, 4), Fraction(1, 4),
                                     Fraction(39, 4), Fraction(41, 4))


def test_disjoint_points_never_merge():
    # both points lie in the window at 1/2, but nothing connects them:
    # smoothing preserves the component count
    g = build_rgraph([("a", 0), ("b", 1)])
    sm = smooth(g, Fraction(1, 2))
    assert num_components(sm.smoothed) == 2
    assert sm.smoothed.criticals == (Fraction(-1, 2), Fraction(1, 2),
                                     Fraction(3, 2))
    mid = sm.smoothed.levels[1]
    assert [sm.provenance[v] for v in mid] == [frozenset({"a"}),
                                               frozenset({"b"})]


def test_cycle_collapse_keeps_one_component():
    sm = smooth(loop(0, 1), Fraction(1, 2))
    assert num_components(sm.smoothed) == 1
    mid = sm.smoothed.levels[1]
    assert len(mid) == 1
    assert sm.provenance[mid[0]] == frozenset({"e0", "e1", "v0", "v1"})


def test_zeta_is_a_validated_morphism_with_matching_provenance():
    for g in (line(0, 1), loop(0, 1), fork()):
        sm = smooth(g, EPS)
        assert validate_morphism(sm.zeta).ok
        for v in g.vertex_ids:
            kind, cell = sm.zeta.vertex_map[v]
            assert v in sm.provenance[cell]


def test_smoothed_criticals_are_the_shifted_criticals():
    rng = random.Random(5)
    for _ in range(40):
        g = random_rgraph(rng)
        if not g.criticals:
            continue
        eps = collision_free_epsilon(g, rng)
        sm = smooth(g, eps)
        want = sorted({a - eps for a in g.criticals}
                      | {a + eps for a in g.criticals})
        assert list(sm.smoothed.criticals) == want


def test_naive_and_sweep_agree_exactly():
    rng = random.Random(11)
    for trial in range(60):
        g = random_rgraph(rng)
        span = (max(g.criticals) - min(g.criticals)) if g.criticals else None
        radii = [Fraction(0), Fraction(1, 3)]
        if span:
            radii += [collision_free_epsilon(g, rng), span / 2, 2 * span]
        for eps in radii:
            a = smooth_naive(g, eps)
            b = smooth_sweep(g, eps)
            assert a.smoothed == b.smoothed, (trial, eps)
            assert a.provenance == b.provenance, (trial, eps)
            assert morphism_equal(a.zeta, b.zeta), (trial, eps)
            assert validate(a.smoothed).ok


RADII = st.sampled_from(["collision-free", "span/2", "2 span"])


def draw(seed, radius):
    """A random graph with two or more criticals and a radius of the named
    kind for it."""
    rng = random.Random(seed)
    g = random_rgraph(rng)
    assume(len(g.criticals) >= 2)
    span = g.criticals[-1] - g.criticals[0]
    return g, {"collision-free": collision_free_epsilon(g, rng),
               "span/2": span / 2, "2 span": 2 * span}[radius]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), RADII)
def test_sweep_matches_both_oracles(seed, radius):
    g, eps = draw(seed, radius)
    sweep = smooth_sweep(g, eps)
    naive = smooth_naive(g, eps)
    assert sweep.smoothed == naive.smoothed
    assert sweep.provenance == naive.provenance
    assert morphism_equal(sweep.zeta, naive.zeta)
    assert is_cosheaf_iso(reeb_cosheaf(sweep.smoothed),
                          smooth_cosheaf(reeb_cosheaf(g), eps)) is not None


def mixed_graph(rng):
    """A random graph whose values are sevenths, ninths and tenths."""
    values = {f"p{i}": Fraction(rng.randint(-30, 30), rng.choice((7, 9, 10)))
              for i in range(rng.randint(2, 8))}
    edges = []
    for k in range(rng.randint(0, 10)):
        a, b = sorted(rng.sample(sorted(values), 2), key=values.get)
        if values[a] < values[b]:
            edges.append((f"e{k}", a, b))
    return build_rgraph(values, edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["coprime", "tie"]))
def test_sweep_matches_naive_on_mixed_denominators(seed, radius):
    # the sweep works on integers over lcm(eps, criticals); a radius of
    # elevenths or thirteenths makes that scale large, and a radius half a
    # gap between two criticals makes some S_i - eps equal S_j + eps
    rng = random.Random(seed)
    g = mixed_graph(rng)
    S = g.criticals
    assume(len(S) >= 2)
    if radius == "coprime":
        eps = Fraction(rng.randint(1, 60), rng.choice((11, 13)))
    else:
        i, j = sorted(rng.sample(range(len(S)), 2))
        eps = (S[j] - S[i]) / 2
        assert S[j] - eps == S[i] + eps
    sweep = smooth_sweep(g, eps)
    naive = smooth_naive(g, eps)
    assert sweep.smoothed == naive.smoothed
    assert sweep.provenance == naive.provenance
    assert morphism_equal(sweep.zeta, naive.zeta)
    assert emit_rgraph(sweep.smoothed) == emit_rgraph(naive.smoothed)
    assert emit_morphism(sweep.zeta) == emit_morphism(naive.zeta)
    assert sweep.smoothed.criticals == tuple(sorted({s + d for s in S for d in (-eps, eps)}))


def thickening(g, eps):
    """X x [-eps, eps] under f(x) + t as a simplicial field: each vertex v
    becomes an edge from v- to v+, each edge u -> w a square cut by its
    diagonal u- w+. The function is linear on the square, so the field
    is exact."""
    values, edges, triangles = {}, {}, {}
    for v in g.vertex_ids:
        values[f"{v}-"], values[f"{v}+"] = g.value(v) - eps, g.value(v) + eps
        edges[f"|{v}"] = (f"{v}-", f"{v}+")
    for e in g.edge_ids:
        u, w = g.endpoints(e)
        edges[f"{e}-"] = (f"{u}-", f"{w}-")
        edges[f"{e}+"] = (f"{u}+", f"{w}+")
        edges[f"/{e}"] = (f"{u}-", f"{w}+")
        triangles[f"{e}<"] = (f"|{u}", f"{e}+", f"/{e}")
        triangles[f"{e}>"] = (f"{e}-", f"|{w}", f"/{e}")
    return SimplicialField(values, edges, triangles)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), RADII)
def test_smoothing_is_the_reeb_graph_of_the_thickening(seed, radius):
    g, eps = draw(seed, radius)
    assert is_isomorphic(smooth(g, eps).smoothed,
                         reeb_of_complex(thickening(g, eps)).graph) is not None


def path(m):
    """A path v0 < ... < v(m-1) at integer values, as vertices and edges."""
    verts = {f"v{i}": i for i in range(m)}
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(m - 1)]
    return verts, edges


def chorded_path(m):
    """A path v0 < ... < v(m-1) at integer values, with a chord from every
    other vertex rising 2, 3 or 4 steps (split at the levels it crosses)."""
    verts = {f"v{i}": i for i in range(m)}
    edges = [(f"p{i}", f"v{i}", f"v{i + 1}") for i in range(m - 1)]
    edges += [(f"c{i}", f"v{i}", f"v{i + 2 + i % 3}") for i in range(0, m - 4, 2)]
    return build_rgraph(verts, edges)


@pytest.mark.parametrize("eps", [Fraction(3, 2), Fraction(4), Fraction(9)])
def test_sweep_matches_naive_on_a_long_chorded_path(eps):
    # a window many levels wide, so an edge's component is reborn several
    # times before its own span starts and only the later records may
    # enter its image
    g = chorded_path(40)
    sweep = smooth_sweep(g, eps)
    naive = smooth_naive(g, eps)
    assert sweep.smoothed == naive.smoothed
    assert sweep.provenance == naive.provenance
    assert morphism_equal(sweep.zeta, naive.zeta)


def chorded_band(rng, n):
    """A path of n vertices, vertex i at i plus a random quarter, with
    about n/2 chords each rising 2 to 4 steps: split chords put several
    segments in one slot."""
    verts = {f"a{i}": i + Fraction(rng.randrange(4), 4) for i in range(n)}
    edges = [(f"p{i}", f"a{i}", f"a{i + 1}") for i in range(n - 1)]
    for k in range(n // 2):
        i = rng.randrange(n - 2)
        edges.append((f"c{k}", f"a{i}", f"a{min(n - 1, i + rng.randint(2, 4))}"))
    return build_rgraph(verts, edges)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["3/2", "span/5"]))
def test_sweep_matches_naive_on_chorded_bands(seed, radius):
    rng = random.Random(seed)
    g = chorded_band(rng, rng.randint(4, 40))
    span = g.criticals[-1] - g.criticals[0]
    eps = Fraction(3, 2) if radius == "3/2" else span / 5
    sweep = smooth_sweep(g, eps)
    naive = smooth_naive(g, eps)
    assert emit_rgraph(sweep.smoothed) == emit_rgraph(naive.smoothed)
    assert sweep.provenance == naive.provenance
    assert morphism_equal(sweep.zeta, naive.zeta)


@pytest.mark.parametrize("eps,graph_sha,zeta_sha,provenance_sha", [
    (Fraction(3, 2),
     "6e4fb6165457bb7d3246217af403c9fb4fbc7c69240aff7f792dad3dd27ee17e",
     "35d46218af09a6de84971be568df892b6e215738a002d64629bdb7d82690fada",
     "dfc6ec4d69da6926a88576c993ad6bb28e9d9e4a0213fefd9aebc83b6a43e581"),
    (Fraction(40),
     "09369f2c58285fc352613537528a49915cbdd0d80993f0a2373546b545ac4ec1",
     "48e45600dc287c0d37d8147001bca9251d1a7b991c1aca297f2bc641f11b2cf1",
     "b1a01caeb375dc374200cde71e278c5d6ccbf8b11b0d3695cb12662ce532244e"),
], ids=["3/2", "40"])
def test_smoothed_text_is_frozen(eps, graph_sha, zeta_sha, provenance_sha):
    # the emitted smoothing and canonical map, byte for byte; names,
    # their order and the file layout all feed the digests. The member
    # lists the names no longer carry are pinned through the provenance.
    sm = smooth(chorded_path(30), eps)
    assert sha256(emit_rgraph(sm.smoothed).encode()).hexdigest() == graph_sha
    assert sha256(emit_morphism(sm.zeta).encode()).hexdigest() == zeta_sha
    members = "".join(f"{name} {','.join(sorted(cells))}\n"
                      for name, cells in sorted(sm.provenance.items()))
    assert sha256(members.encode()).hexdigest() == provenance_sha


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), RADII)
def test_cells_are_named_by_their_least_member(seed, radius):
    g, eps = draw(seed, radius)
    for sm in (smooth_sweep(g, eps), smooth_naive(g, eps)):
        h = sm.smoothed
        for k, level in enumerate(h.levels):
            for name in level:
                assert name == keyed_name("v", k, min(sm.provenance[name]))
        for j, slot in enumerate(h.slots):
            for name in slot:
                assert name == keyed_name("e", j, min(sm.provenance[name]))


def test_wide_smoothing_text_is_linear_in_its_cells():
    # a 2,000-vertex path at a radius 250 levels wide: each output cell's
    # component holds hundreds of input cells, but its line stays short
    h = smooth(build_rgraph(*path(2000)), 250).smoothed
    cells = len(h.vertex_ids) + len(h.edge_ids)
    assert cells == 4999
    assert len(emit_rgraph(h)) < 50 * cells


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), RADII, st.randoms(use_true_random=False))
def test_provenance_read_in_any_order_matches_the_oracle(seed, radius, rnd):
    # the sweep walks each component on its first read; the naive oracle
    # built every one eagerly
    g, eps = draw(seed, radius)
    sweep = smooth_sweep(g, eps)
    naive = smooth_naive(g, eps)
    names = list(naive.provenance)
    rnd.shuffle(names)
    assert len(sweep.provenance) == len(names)
    for name in names:
        assert name in sweep.provenance
        assert sweep.provenance[name] == naive.provenance[name], name
    assert sweep.position_index == naive.position_index
    assert sweep.provenance == naive.provenance


def test_provenance_is_walked_once_per_record_and_only_when_read(tmp_path, monkeypatch):
    walks = []
    real_walk = smoothing._walk

    def counted(adjacent, start, pos):
        walks.append((start, pos))
        return real_walk(adjacent, start, pos)

    monkeypatch.setattr(smoothing, "_walk", counted)
    verts, edges = path(2000)
    text = tmp_path / "path.txt"
    text.write_text(emit_rgraph(build_rgraph(verts, edges)))
    out = io.StringIO()
    assert cli.main(["smooth", str(text), "250"], stdout=out) == 0
    assert out.getvalue() and walks == []

    # a point beside the path lies in one window component, untouched by
    # the path's events, from 100 - 25 to 100 + 25: one record
    verts, edges = path(200)
    sm = smooth(build_rgraph({**verts, "w": 100}, edges), 25)
    assert walks == []
    prov = sm.provenance
    # the first read walks each (doubled position, least cell) once, and
    # the names that share one share its frozenset
    assert len(set(walks)) == len(walks) == len({id(c) for c in prov.values()})
    assert len(walks) < len(prov)
    B = sm.smoothed.criticals
    birth, death = B.index(75), B.index(125)
    record = [keyed_name("e", j, "w") for j in range(birth, death)]
    record += [keyed_name("v", k, "w") for k in range(birth + 1, death)]
    assert prov[record[0]] == {"w"}
    assert all(prov[name] is prov[record[0]] for name in record)
    # a slot in the middle of the path: its whole window of the path
    j = B.index(100)
    [name] = [e for e in sm.smoothed.slots[j] if not e.endswith(";w)")]
    assert len(prov[name]) > 90
    # a second read walks nothing
    del walks[:]
    assert sm.provenance is prov and sm.position_index and walks == []


def test_zeta_is_named_only_when_read(tmp_path, monkeypatch):
    names = []
    real_name = smoothing.keyed_name

    def counted(kind, index, member):
        names.append((kind, index, member))
        return real_name(kind, index, member)

    monkeypatch.setattr(smoothing, "keyed_name", counted)
    g = chorded_path(30)
    text = tmp_path / "chorded.txt"
    text.write_text(emit_rgraph(g))
    for eps in (Fraction(3, 2), Fraction(1, 2), Fraction(3)):
        # the graph alone names each output cell once and no image of zeta;
        # the text is the reference implementation's, byte for byte
        naive = smooth_naive(g, eps)
        h = naive.smoothed
        del names[:]
        out = io.StringIO()
        assert cli.main(["smooth", str(text), str(eps)], stdout=out) == 0
        assert out.getvalue() == emit_rgraph(h)
        assert len(names) == len(h.vertex_ids) + len(h.edge_ids)

        out = io.StringIO()
        assert cli.main(["smooth", str(text), str(eps), "--zeta"], stdout=out) == 0
        assert out.getvalue() == emit_morphism(naive.zeta)

        # the first read names each vertex's image and each edge's pieces,
        # and the map is kept
        sm = smooth(g, eps)
        del names[:]
        zeta = sm.zeta
        named = len(names)
        assert named == len(g.vertex_ids) + sum(map(len, zeta.edge_map.values()))
        assert sm.zeta is zeta and len(names) == named
        assert type(zeta.vertex_map) is dict and type(zeta.edge_map) is dict
        assert morphism_equal(zeta, naive.zeta)


def sweep_lifetimes(g, eps):
    """Per input slot j, the doubled output positions over which its
    (edge, lower end) and its (edge, upper end) links are live, computed
    from the window rule: a vertex at S[i] is in the window over
    [S[i] - eps, S[i] + eps], an edge over slot j from just above
    S[j] - eps to just below S[j + 1] + eps."""
    S = g.criticals
    B = sorted({s - eps for s in S} | {s + eps for s in S})
    enter = [B.index(s - eps) for s in S]
    leave = [B.index(s + eps) for s in S]
    return [life for j in range(g.n_slots)
            for life in ((2 * enter[j] + 1, 2 * leave[j]),
                         (2 * enter[j + 1], 2 * leave[j + 1] - 1))]


def test_sweep_links_replay_through_the_naive_forest(monkeypatch):
    # the link groups each sweep slides over, pushed through the weighted
    # forest oracle over their lifetimes (weight = last position, deletions
    # in position order), give the union-find's partition at every position
    visited = []

    class Recording(RollbackUnionFind):
        __slots__ = ()

        def slide(self, lo, hi):
            super().slide(lo, hi)
            visited.append((lo, hi, self.groups, partition(range(len(self.parent)), self.find)))

    monkeypatch.setattr(smoothing, "make_forest", Recording)
    rng = random.Random(11)
    for trial in range(60):
        g = random_rgraph(rng)
        span = (max(g.criticals) - min(g.criticals)) if g.criticals else None
        radii = [Fraction(1, 3)]
        if span:
            radii += [collision_free_epsilon(g, rng), span / 2, 2 * span]
        for eps in radii:
            del visited[:]
            K = len(smooth_sweep(g, eps).smoothed.criticals)
            assert len(visited) == max(0, 2 * K - 1), (trial, eps)
            lifetimes = sweep_lifetimes(g, eps)
            for a, b in zip(lifetimes, lifetimes[1:]):
                assert a[0] < b[0] and a[1] < b[1], (trial, eps)
            naive = NaiveDynForest()
            cells = range(len(g.vertex_ids) + len(g.edge_ids))
            for x in cells:
                naive.add_node(x)
            for p, (lo, hi, groups, parts) in enumerate(visited):
                assert len(groups) == len(lifetimes)
                assert [i for i, (first, last) in enumerate(lifetimes)
                        if first <= p <= last] == list(range(lo, hi)), (trial, eps, p)
                for (first, last), group in zip(lifetimes, groups):
                    for a, b in group:
                        if last == p - 1:
                            naive.delete(a, b)
                for (first, last), group in zip(lifetimes, groups):
                    for a, b in group:
                        if first == p:
                            naive.insert(a, b, last)
                assert parts == partition(cells, naive.find), (trial, eps, p)


def test_compose_smoothings_is_additive():
    rng = random.Random(23)
    for trial in range(15):
        g = random_rgraph(rng, max_vertices=6, max_edges=6)
        e1 = Fraction(rng.randint(0, 4), 4)
        e2 = Fraction(rng.randint(0, 4), 8)
        cs = compose_smoothings(g, e1, e2)
        assert is_isomorphism(cs.witness), trial
        assert cs.coherent, trial
        assert cs.total.smoothed == smooth(g, e1 + e2).smoothed
