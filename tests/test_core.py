import ast
import dataclasses
import importlib
import importlib.util
import random
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reeb

from reeb import (ParseError, RGraph, ValidationError, build_rgraph,
                  common_refinement, component_sets, empty_rgraph, fork, line,
                  loop, minimum_gap, num_components, point, reduce, refine,
                  validate)
from reeb.core import RefineResult, _build
from reeb.rationals import as_rational, format_rational


def test_build_basic_line():
    g = line(0, 1)
    assert g.criticals == (Fraction(0), Fraction(1))
    assert g.levels == (("v0",), ("v1",))
    assert g.slots == (("e0",),)
    assert g.endpoints("e0") == ("v0", "v1")
    assert g.span("e0") == (Fraction(0), Fraction(1))
    assert g.value("v0") == 0 and g.value("v1") == 1
    assert validate(g).ok


def test_build_accepts_dicts_and_pairs():
    a = build_rgraph({"a": 0, "b": 1}, {"e": ("a", "b")})
    b = build_rgraph([("a", 0), ("b", 1)], [("e", "a", "b")])
    assert a == b


def test_build_ranks_equal_values_onto_one_level_and_names_splits_as_before():
    # "1/2", "2/4" and "0.5" are one value, so one level; values of
    # coprime denominators interleave; split vertices are named after the
    # critical they sit on, primed when a name is taken
    vertices = [("h1", "1/2"), ("h2", "2/4"), ("h3", "0.5"), ("lo", Fraction(-1, 3)),
                ("s7", "1/7"), ("n9", "2/9"), ("t10", "3/10"), ("top", 1),
                ("e0@1/7", "5/7"), ("mid", "0.75")]
    edges = [("e0", "lo", "top"), ("e0:0", "s7", "mid"), ("e1", "lo", "h2"),
             ("e2", "n9", "top"), ("e3", "h3", "mid"), ("e0:1", "lo", "e0@1/7")]
    g, edge_map, split = reeb.core._build(vertices, edges, ["-1", "9/10", Fraction(1, 2)])
    assert [str(c) for c in g.criticals] == [
        "-1", "-1/3", "1/7", "2/9", "3/10", "1/2", "5/7", "3/4", "9/10", "1"]
    assert g.levels[5] == ("e0:0@1/2", "e0:1@1/2", "e0@1/2", "e2@1/2", "h1", "h2", "h3")
    assert " ".join(split) == (
        "e0@1/7' e0@2/9 e0@3/10 e0@1/2 e0@5/7 e0@3/4 e0@9/10 e0:0@2/9 e0:0@3/10 "
        "e0:0@1/2 e0:0@5/7 e1@1/7 e1@2/9 e1@3/10 e2@3/10 e2@1/2 e2@5/7 e2@3/4 "
        "e2@9/10 e3@5/7 e0:1@1/7 e0:1@2/9 e0:1@3/10 e0:1@1/2")
    assert edge_map["e0"] == ("e0:0'", "e0:1'", "e0:2", "e0:3", "e0:4", "e0:5",
                              "e0:6", "e0:7")
    text = reeb.emit_rgraph(g)
    assert sha256(text.encode()).hexdigest() == (
        "f5a8e9f6f67c1793c42c40d9b14dfab70f8b6243f80d6b9a2d325a8777cb3c23")
    assert validate(g).ok


def test_build_sorts_within_levels():
    g = build_rgraph([("z", 0), ("a", 0), ("m", 0)])
    assert g.levels == (("a", "m", "z"),)


def test_build_splits_long_edges():
    g = build_rgraph([("a", 0), ("b", 2), ("c", 1)],
                     [("e", "a", "b")])
    # the level at 1 exists because of c, so e is split there
    assert g.n_levels == 3
    assert len(g.slots[0]) == 1 and len(g.slots[1]) == 1
    seg0, seg1 = g.slots[0][0], g.slots[1][0]
    mid = g.up[0][seg0]
    assert g.down[1][seg1] == mid
    assert g.value(mid) == 1
    assert validate(g).ok


def test_build_extra_criticals_make_empty_levels():
    g = build_rgraph([("a", 0)], (), criticals=(Fraction(5),))
    assert g.criticals == (Fraction(0), Fraction(5))
    assert g.levels[1] == ()
    assert g.slots == ((),)
    assert validate(g).ok


def test_build_rejects_duplicates_and_bad_edges():
    with pytest.raises(ValidationError):
        build_rgraph([("a", 0), ("a", 1)])
    with pytest.raises(ValidationError):
        build_rgraph([("a", 0)], [("e", "a", "zz")])
    with pytest.raises(ValidationError):
        # an edge needs strictly increasing endpoint values
        build_rgraph([("a", 0), ("b", 0)], [("e", "a", "b")])
    with pytest.raises(ValidationError):
        build_rgraph([("a", 1), ("b", 0)], [("e", "a", "b")])


@pytest.mark.parametrize("edges", [[("e0", "a")], {"e0": ("a",)},
                                   [("e0", "a", "b", "c")], [5]],
                         ids=["short", "dict-short", "long", "not-a-tuple"])
def test_build_rejects_malformed_edge_items(edges):
    item = "5" if edges == [5] else r"\('e0', 'a'"
    with pytest.raises(ValidationError, match=r"edge item " + item):
        build_rgraph({"a": 0, "b": 1}, edges)


@pytest.mark.parametrize("item", [("a",), ("a", 0, 1), None],
                         ids=["short", "long", "not-a-tuple"])
def test_build_rejects_malformed_vertex_items(item):
    with pytest.raises(ValidationError) as info:
        build_rgraph([item])
    assert str(info.value) == f"vertex item {item!r} is not an (id, value) pair"
    # a dict's items are always pairs
    assert build_rgraph({"a": 0}).vertex_ids == ("a",)


def test_empty_graph_is_legal():
    g = empty_rgraph()
    assert g.is_empty
    assert validate(g).ok
    assert num_components(g) == 0
    assert minimum_gap(g) is None


def test_validate_reports_structural_damage():
    g = line()
    bad = RGraph(g.criticals, g.levels, ({"e0": "nope"},), g.up)
    rep = validate(bad)
    assert not rep.ok
    assert any("lower endpoint" in v for v in rep.violations)
    assert not validate(RGraph((Fraction(1), Fraction(0)), ((), ()),
                               ({},), ({},))).ok


@pytest.mark.parametrize("down, up, message", [
    (({"e0": "v0"},), ({},), "slot 0: edge 'e0': partial attaching map (no upper endpoint)"),
    (({"e0": "v0"},), ({"e0": "v1", "x": "v1"},),
     "slot 0: upper attach defined on unknown edge 'x'"),
    (({"e0": "v1"},), ({"e0": "v1"},), "slot 0: edge 'e0': lower endpoint 'v1' not in level 0"),
    (({"e0": "v0"}, {}), ({"e0": "v1"}, {}), "2 slots for 2 criticals"),
    (({"e0": "v0"},), ({"e0": "v1"}, {}), "attach map count does not match slot count"),
], ids=["up-missing", "up-extra", "lower-off-level", "slot-count", "map-count"])
def test_validate_names_each_attach_map_fault(down, up, message):
    # a slot's edges are its down map's keys, so up must have exactly those
    g = line()
    assert validate(RGraph(g.criticals, g.levels, g.down, g.up)).ok
    assert validate(RGraph(g.criticals, g.levels, down, up)).violations == (message,)


def test_a_slot_is_the_domain_of_its_attach_maps():
    assert [f.name for f in dataclasses.fields(RGraph)] == ["criticals", "levels", "down", "up"]
    assert "edge_sets" not in [f.name for f in dataclasses.fields(reeb.Cosheaf)]


def test_refine_inserts_levels_and_splits():
    g = line(0, 1)
    rr = refine(g, [Fraction(1, 2)])
    assert rr.graph.criticals == (Fraction(0), Fraction(1, 2), Fraction(1))
    assert len(rr.edge_map["e0"]) == 2
    (v, owner), = rr.split_vertices.items()
    assert owner == "e0"
    assert rr.graph.value(v) == Fraction(1, 2)
    # refining at existing values or out of range changes structure minimally
    rr2 = refine(g, [Fraction(0)])
    assert rr2.graph == g
    rr3 = refine(g, [Fraction(4)])
    assert rr3.graph.levels[-1] == ()


def build_refine(g, extra):
    """Test oracle for `refine`: rebuild g through `_build` from its
    vertices and edges, with the union of its criticals and the extras."""
    vertices = [(v, g.criticals[i]) for i, lev in enumerate(g.levels) for v in lev]
    edges = [(e, g.down[j][e], g.up[j][e]) for j, slot in enumerate(g.slots) for e in slot]
    crit = set(g.criticals) | {as_rational(x) for x in extra}
    return RefineResult(*_build(vertices, edges, crit))


def split_named_graph(rng):
    """A random graph in quarters, sevenths or tenths, some of whose ids
    look like the names refinement generates (`w3@1/2` for a vertex,
    `w3:0` for an edge), so that fresh names need primes."""
    den = rng.choice((4, 7, 10))
    grid = [Fraction(rng.randint(-12, 12), den) for _ in range(6)]
    values, edges = {}, []
    for i in range(rng.randint(0, 6)):
        name = f"p{i}"
        if rng.random() < 0.4:
            name = f"w{rng.randint(0, 5)}@{format_rational(rng.choice(grid))}"
        if name not in values:
            values[name] = rng.choice(grid)
    names = sorted(values)
    taken = set()
    for k in range(rng.randint(0, 8) if len(names) > 1 else 0):
        a, b = sorted(rng.sample(names, 2), key=values.get)
        eid = f"w{rng.randint(0, 5)}:{rng.randint(0, 2)}" if rng.random() < 0.4 else f"w{k}"
        if values[a] < values[b] and eid not in taken:
            taken.add(eid)
            edges.append((eid, a, b))
    return build_rgraph(values, edges, rng.sample(grid, rng.randint(0, 2))), grid


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_refine_matches_the_build_route(seed):
    # extras on, between, below and above the graph's criticals and on its
    # grid, in its own and other denominators; the empty graph included
    rng = random.Random(seed)
    g, grid = (empty_rgraph(), [Fraction(1, 3)]) if rng.random() < 0.05 else split_named_graph(rng)
    crit = list(g.criticals)
    pool = [*crit, *grid, *((a + b) / 2 for a, b in zip(crit, crit[1:])),
            *(Fraction(rng.randint(-40, 40), rng.choice((3, 7, 9, 10))) for _ in range(3))]
    if crit:
        pool += [crit[0] - Fraction(1, 3), crit[-1] + 2]
    extra = rng.sample(pool, rng.randint(0, min(len(pool), 5)))
    extra = [rng.choice((x, str(x))) if x.denominator > 1 else int(x) for x in extra]
    got, want = refine(g, extra), build_refine(g, extra)
    assert got.graph == want.graph
    assert got.edge_map == want.edge_map
    assert got.split_vertices == want.split_vertices


def built_graphs(rng):
    """One graph from each route the library builds graphs by."""
    g = reeb.random_rgraph(rng)
    text = reeb.emit_rgraph(g)
    extra = [Fraction(rng.randint(-12, 12), rng.choice((3, 4, 5))) for _ in range(2)]
    eps = rng.choice((Fraction(1, 3), Fraction(3, 2), reeb.collision_free_epsilon(g, rng)))
    return {"build_rgraph": g,
            "parse_rgraph": reeb.parse_rgraph(text),
            "refine": refine(g, extra).graph,
            "reduce": reduce(g).graph,
            "smooth_sweep": reeb.smooth_sweep(g, eps).smoothed,
            "smooth_naive": reeb.smooth_naive(g, eps).smoothed,
            "reeb_of_complex": reeb.reeb_of_complex(reeb.random_field(rng)).graph,
            "display": reeb.display(reeb.random_cosheaf(rng))}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_built_graph_keys_its_attach_maps_by_its_slots(seed):
    # a slot's edges are the keys of its down map, and the graph keeps the
    # attach dicts its builder hands over, so each builder must key up by
    # exactly down's keys
    for route, g in built_graphs(random.Random(seed)).items():
        for j, slot in enumerate(g.slots):
            assert set(g.down[j]) == set(g.up[j]) == set(slot), (route, j)
        assert validate(g).ok, route


def test_refine_primes_fresh_names_like_the_build_route():
    g = build_rgraph({"a": 0, "b": 1, "e@1/2": 2},
                     [("e", "a", "b"), ("e:0", "b", "e@1/2")])
    extra = ["1/2", Fraction(3, 4), Fraction(3, 2)]
    got, want = refine(g, extra), build_refine(g, extra)
    assert got == want
    assert got.edge_map == {"e": ("e:0'", "e:1", "e:2"), "e:0": ("e:0:0", "e:0:1")}
    assert got.split_vertices == {"e@1/2'": "e", "e@3/4": "e", "e:0@3/2": "e:0"}


def test_refine_rejects_a_float_extra():
    for g in (line(0, 1), empty_rgraph()):
        with pytest.raises(ParseError):
            refine(g, [0.5])
        with pytest.raises(ParseError):
            build_refine(g, [0.5])


def test_reduce_drops_pass_through_levels():
    g = line(0, 1)
    rr = refine(g, [Fraction(1, 3), Fraction(2, 3)])
    red = reduce(rr.graph)
    assert red.graph.criticals == (Fraction(0), Fraction(1))
    assert len(red.graph.edge_ids) == 1
    e = red.graph.edge_ids[0]
    assert len(red.chains[e]) == 3
    assert set(red.edge_map.values()) == {e}
    # branch points are never dropped
    f = fork()
    assert reduce(f).graph == f


def test_reduce_empty_and_isolated():
    assert reduce(empty_rgraph()).graph.is_empty
    p = point(3)
    assert reduce(p).graph == p


def test_common_refinement_aligns_criticals():
    g = line(0, 2)
    h = line(1, 3)
    rg, rh = common_refinement(g, h)
    assert rg.graph.criticals == rh.graph.criticals
    assert rg.graph.criticals == tuple(Fraction(x) for x in (0, 1, 2, 3))


def test_components():
    g = build_rgraph([("a", 0), ("b", 1), ("c", 5), ("d", 6)],
                     [("e1", "a", "b"), ("e2", "c", "d")])
    assert num_components(g) == 2
    comps = component_sets(g, g.vertex_ids, g.edge_ids)
    assert sorted(sorted(c) for c in comps) == [
        ["a", "b", "e1"], ["c", "d", "e2"]]
    # leaving out the joining cells splits components
    comps = component_sets(g, ("a", "b"), ())
    assert len(comps) == 2


def test_minimum_gap():
    g = build_rgraph([("a", 0), ("b", Fraction(1, 3)), ("c", 2)])
    assert minimum_gap(g) == Fraction(1, 3)
    assert minimum_gap(point()) is None


def test_loop_fixture():
    g = loop(0, 1)
    assert len(g.slots[0]) == 2
    assert num_components(g) == 1


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants must raise InternalError
    found = []
    for path in sorted(Path(reeb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def load_bench_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_patch_points_exist():
    # the benchmark's tracer wraps library functions by module attribute
    # name, so a rename would only show when a traced run breaks
    tracing = load_bench_tracing()
    points = [(mod, attr) for mod, attr, _ in tracing.PATCHES]
    points.append(("reeb.smoothing", "make_forest"))
    missing = [f"{mod}.{attr}" for mod, attr in points
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_bench_tracer_counts_the_sweeps_connectivity_calls(monkeypatch):
    # a sweep that stopped obtaining its structure from make_forest would
    # trace zero connectivity calls, and zeros repeat from run to run; the
    # calls counted are the sweep's slides, as it walks its roots inline
    calls = {"slide": 0, "find": 0}
    for name in calls:
        method = getattr(reeb.dynconn.RollbackUnionFind, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(reeb.dynconn.RollbackUnionFind, name, counted)
    tracing = load_bench_tracing()
    names = {mod for mod, _, _ in tracing.PATCHES} | {"reeb.smoothing"}
    tracer = tracing.Tracer()
    tracer.install({name: importlib.import_module(name) for name in names})
    try:
        reeb.smooth(loop(0, 1), Fraction(1, 4))
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    assert calls["slide"] > 0 and counts["dynconn.ops"] == calls["slide"] + calls["find"]
    # names come from the least cell at each root: no component is walked
    assert counts["dynconn.component_cells"] == 0
