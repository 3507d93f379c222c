"""Text formats: graph and field files, morphism files, DOT export."""

import io
import random
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reeb
from complex_oracle import reeb_of_complex_oracle
from reeb import ParseError, SimplicialField, cli
from reeb.fileio import _file_safe
from reeb.unionfind import UnionFind


def octahedron_field():
    """Height on the octahedron: poles at -2 and 2, a square equator at 0."""
    vals = {"n": 2, "s": -2, "a": 0, "b": 0, "c": 0, "d": 0}
    ring = ["a", "b", "c", "d"]
    edges = {}
    for i, x in enumerate(ring):
        y = ring[(i + 1) % 4]
        edges[f"{x}{y}"] = (x, y)
        edges[f"n{x}"] = ("n", x)
        edges[f"s{x}"] = ("s", x)
    tris = {}
    for i, x in enumerate(ring):
        y = ring[(i + 1) % 4]
        tris[f"N{i}"] = (f"n{x}", f"{x}{y}", f"n{y}")
        tris[f"S{i}"] = (f"s{x}", f"{x}{y}", f"s{y}")
    return SimplicialField(
        {k: Fraction(v) for k, v in vals.items()}, edges, tris)


def torus_field(heights, columns):
    """A triangulated torus: `len(heights)` rows that wrap vertically,
    `columns` columns that wrap horizontally, vertex value = row height."""
    m = len(heights)
    vals, edges, tris = {}, {}, {}

    def v(i, j):
        return f"x{i % m}.{j % columns}"

    for i in range(m):
        for j in range(columns):
            vals[v(i, j)] = Fraction(heights[i])
    index = {}

    def e(a, b):
        key = tuple(sorted((a, b)))
        if key not in index:
            index[key] = f"{key[0]}~{key[1]}"
            edges[index[key]] = key
        return index[key]

    t = 0
    for i in range(m):
        for j in range(columns):
            a, b = v(i, j), v(i + 1, j)
            c, d = v(i + 1, j + 1), v(i, j + 1)
            tris[f"T{t}"] = (e(a, b), e(b, c), e(a, c))
            t += 1
            tris[f"T{t}"] = (e(a, d), e(d, c), e(a, c))
            t += 1
    return SimplicialField(vals, edges, tris)


def ledge_field():
    """A horizontal side (ab, under triangle T1), a flat triangle (T2, all
    at 0), a triangle with a middle vertex (T3) and a lone edge (gc) that
    crosses the level of d."""
    return SimplicialField(
        {"a": Fraction(0), "b": Fraction(0), "c": Fraction(2), "d": Fraction(1),
         "e": Fraction(0), "g": Fraction(1, 2)},
        {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c"), "ae": ("a", "e"),
         "be": ("b", "e"), "ad": ("a", "d"), "dc": ("d", "c"), "gc": ("g", "c")},
        {"T1": ("ab", "bc", "ac"), "T2": ("ab", "be", "ae"),
         "T3": ("ad", "dc", "ac")})


# `reeb` output for the fixtures above, frozen: the names are part of the
# file format, so a rewrite of reeb_of_complex must reproduce them exactly
OCTAHEDRON_REEB = (
    'criticals -2 0 2\n'
    'vertex {v:s}@-2 -2\n'
    'vertex {v:a,v:b,v:c,v:d}@0 0\n'
    'vertex {v:n}@2 2\n'
    'edge {e:sa,e:sb,e:sc,e:sd,t:S0,t:S1,t:S2,t:S3}@(-2,0) {v:s}@-2 {v:a,v:b,v:c,v:d}@0\n'
    'edge {e:na,e:nb,e:nc,e:nd,t:N0,t:N1,t:N2,t:N3}@(0,2) {v:a,v:b,v:c,v:d}@0 {v:n}@2\n'
)
TORUS_REEB = (
    'criticals 0 1 2\n'
    'vertex {v:x0.0,v:x0.1,v:x0.2}@0 0\n'
    'vertex {v:x1.0,v:x1.1,v:x1.2}@1 1\n'
    'vertex {v:x3.0,v:x3.1,v:x3.2}@1 1\n'
    'vertex {v:x2.0,v:x2.1,v:x2.2}@2 2\n'
    'edge {e:x0.0~x1.0,e:x0.0~x1.1,e:x0.1~x1.1,e:x0.1~x1.2,e:x0.2~x1.0,e:x0.2~x1.2,'
    't:T0,t:T1,t:T2,t:T3,t:T4,t:T5}@(0,1) {v:x0.0,v:x0.1,v:x0.2}@0 {v:x1.0,v:x1.1,v:x1.2}@1\n'
    'edge {e:x0.0~x3.0,e:x0.0~x3.2,e:x0.1~x3.0,e:x0.1~x3.1,e:x0.2~x3.1,e:x0.2~x3.2,'
    't:T18,t:T19,t:T20,t:T21,t:T22,t:T23}@(0,1) {v:x0.0,v:x0.1,v:x0.2}@0 {v:x3.0,v:x3.1,v:x3.2}@1\n'
    'edge {e:x1.0~x2.0,e:x1.0~x2.1,e:x1.1~x2.1,e:x1.1~x2.2,e:x1.2~x2.0,e:x1.2~x2.2,'
    't:T10,t:T11,t:T6,t:T7,t:T8,t:T9}@(1,2) {v:x1.0,v:x1.1,v:x1.2}@1 {v:x2.0,v:x2.1,v:x2.2}@2\n'
    'edge {e:x2.0~x3.0,e:x2.0~x3.1,e:x2.1~x3.1,e:x2.1~x3.2,e:x2.2~x3.0,e:x2.2~x3.2,'
    't:T12,t:T13,t:T14,t:T15,t:T16,t:T17}@(1,2) {v:x3.0,v:x3.1,v:x3.2}@1 {v:x2.0,v:x2.1,v:x2.2}@2\n'
)
LEDGE_REEB = (
    'criticals 0 1/2 1 2\n'
    'vertex {v:a,v:b,v:e}@0 0\n'
    'vertex {e:ac,e:ad,e:bc}@1/2 1/2\n'
    'vertex {v:g}@1/2 1/2\n'
    'vertex {e:ac,e:bc,v:d}@1 1\n'
    'vertex {e:gc}@1 1\n'
    'vertex {v:c}@2 2\n'
    'edge {e:ac,e:ad,e:bc,t:T1,t:T3}@(0,1/2) {v:a,v:b,v:e}@0 {e:ac,e:ad,e:bc}@1/2\n'
    'edge {e:ac,e:ad,e:bc,t:T1,t:T3}@(1/2,1) {e:ac,e:ad,e:bc}@1/2 {e:ac,e:bc,v:d}@1\n'
    'edge {e:gc}@(1/2,1) {v:g}@1/2 {e:gc}@1\n'
    'edge {e:ac,e:bc,e:dc,t:T1,t:T3}@(1,2) {e:ac,e:bc,v:d}@1 {v:c}@2\n'
    'edge {e:gc}@(1,2) {e:gc}@1 {v:c}@2\n'
)


class TestGraphFiles:
    def test_parse_basic(self):
        text = """
        # a slanted edge over a forced critical value
        criticals 1/2
        vertex a 0
        vertex b 1   # endpoints
        edge ab a b
        """
        g = reeb.parse_rgraph(text)
        assert g.criticals == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert len(g.vertex_ids) == 3 and len(g.edge_ids) == 2
        assert g.value("a") == 0 and g.value("b") == 1

    def test_emit_parse_round_trip_fixtures(self):
        for g in (reeb.line(0, 1), reeb.loop(0, 1), reeb.fork(),
                  reeb.point(-3), reeb.empty_rgraph()):
            assert reeb.parse_rgraph(reeb.emit_rgraph(g)) == g

    def test_emit_parse_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            g = reeb.random_rgraph(rng)
            assert reeb.parse_rgraph(reeb.emit_rgraph(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_emit_parse_round_trip_property(self, seed, denominator):
        rng = random.Random(seed)
        g = reeb.random_rgraph(rng, denominator=denominator)
        # one more isolated vertex, at a value some vertex already has
        values = [g.value(v) for v in g.vertex_ids] or [Fraction(0)]
        g = reeb.build_rgraph(
            [*((v, g.value(v)) for v in g.vertex_ids), ("lone", rng.choice(values))],
            [(e, *g.endpoints(e)) for e in g.edge_ids], g.criticals)
        assert reeb.parse_rgraph(reeb.emit_rgraph(g)) == g

    def test_emit_refuses_unwritable_ids(self):
        spacey = reeb.build_rgraph({"a b": 0, "c": 1}, [("e", "a b", "c")])
        with pytest.raises(reeb.ValidationError):
            reeb.emit_rgraph(spacey)
        commenty = reeb.build_rgraph({"a": 0, "c": 1}, [("e#0", "a", "c")])
        with pytest.raises(reeb.ValidationError):
            reeb.emit_rgraph(commenty)

    @pytest.mark.parametrize("text,lineno,hint", [
        ("vertex a 0\nvertex a 1", 2, "duplicate vertex"),
        ("vertex a 0\nedge e a b", 2, "unknown vertex"),
        ("vertex a 0\nvertex b 1\nedge e b a", 3, "strictly lower"),
        ("vertex a 0\nvertex b 0\nedge e a b", 3, "strictly lower"),
        # equal values written apart, and a later fault on another line
        ("vertex a 1/2\nvertex b 2/4\nedge e a b", 3,
         "edge 'e' must go from a strictly lower vertex to a strictly higher one"),
        ("vertex a 1\nvertex b 0\nedge e a b\nvertex c 2\nfrobnicate", 3,
         "strictly lower"),
        ("vertex a 0.5.1", 1, "bad rational token"),
        ("foo bar", 1, "unknown directive"),
        ("vertex a", 1, "takes an id and a value"),
        ("vertex a 1\nedge e a", 2, "two vertex ids"),
        # the record loop: a glued comment, a blank line, other line breaks,
        # a token too many, a bad critical value
        ("vertex a 0#c\nvertex a 1", 2, "duplicate vertex"),
        ("vertex a#c 0", 1, "takes an id and a value"),
        ("vertex a 0\n \t \nvertex a 1", 3, "duplicate vertex"),
        ("vertex a 0\x1cvertex a 1", 2, "duplicate vertex"),
        ("vertex a 0\u2028vertex b 1\u2028edge e a b c", 3, "two vertex ids"),
        ("vertex a 0 1", 1, "takes an id and a value"),
        ("vertex a 0\ncriticals 1/2 x", 2, "bad rational token 'x'"),
    ])
    def test_parse_errors_name_the_line(self, text, lineno, hint):
        with pytest.raises(ParseError) as info:
            reeb.parse_rgraph(text)
        assert info.value.line == lineno
        assert hint in str(info.value)
        assert f"line {lineno}:" in str(info.value)


class TestGraphFileRise:
    """The parser checks each edge's rise on the values' numerators and
    denominators and places what it read with no second check."""

    @pytest.mark.parametrize("lo,hi", [
        ("-3/4", "-2/3"),
        ("-1", "1/3"),
        ("-7/2", "-3"),
        ("5/6", "7/8"),
        ("2.4", "5/2"),
        ("1/" + "9" * 300, "1/" + "9" * 299),
        ("-" + "3" * 400 + "/7", "-" + "3" * 400 + "/11"),
        ("1" + "0" * 300 + "/3", "1" + "0" * 299 + "1/3"),
    ])
    def test_rise_is_compared_exactly(self, lo, hi):
        assert Fraction(lo) < Fraction(hi)
        g = reeb.parse_rgraph(f"vertex a {lo}\nvertex b {hi}\nedge e a b\n")
        assert g.criticals == (Fraction(lo), Fraction(hi))
        with pytest.raises(ParseError, match="strictly lower") as info:
            reeb.parse_rgraph(f"vertex a {lo}\nvertex b {hi}\nedge e b a\n")
        assert info.value.line == 3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**300, 10**300), st.integers(1, 10**300),
           st.integers(-10**300, 10**300), st.integers(1, 10**300))
    def test_rise_agrees_with_fraction_order(self, p, q, r, t):
        x, y = Fraction(p, q), Fraction(r, t)
        text = (f"vertex a {reeb.format_rational(x)}\n"
                f"vertex b {reeb.format_rational(y)}\nedge e a b\n")
        if x < y:
            assert reeb.parse_rgraph(text).criticals == (x, y)
        else:
            with pytest.raises(ParseError, match="line 3: edge 'e' must go"):
                reeb.parse_rgraph(text)

    def test_id_of_both_kinds_is_the_same_error(self, tmp_path):
        text = "vertex x 0\nvertex y 1\nedge x x y\n"
        message = "ids used for both a vertex and an edge: ['x']"
        with pytest.raises(reeb.ValidationError) as built:
            reeb.build_rgraph({"x": 0, "y": 1}, [("x", "x", "y")])
        with pytest.raises(reeb.ValidationError) as parsed:
            reeb.parse_rgraph(text)
        assert str(built.value) == str(parsed.value) == message
        path = tmp_path / "clash.rg"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(["smooth", str(path), "1"], stdout=out, stderr=err) == 1
        assert (out.getvalue(), err.getvalue()) == ("", f"error: {message}\n")


class TestFieldFiles:
    def test_round_trip(self):
        field = octahedron_field()
        again = reeb.parse_field(reeb.emit_field(field))
        assert again == field

    @pytest.mark.parametrize("text,hint", [
        ("v a 0\ne loop a a", "repeats a vertex"),
        ("v a 0\nv b 1\ne ab a b\nt T ab ab ab", "repeats an edge"),
        ("v a 0\nv b 1\nv c 2\nv d 3\ne ab a b\ne bc b c\ne ad a d\n"
         "t T ab bc ad", "do not close"),
        ("v a 0\ne ab a b", "unknown vertex"),
        ("v a 0\nt T x y z", "unknown edge"),
        ("v a 0#c\nv a 1", "line 2: duplicate vertex id 'a'"),
        ("v a 0\n\t \nv b 1/0", "line 3: bad rational token '1/0'"),
        ("v a 0\x1cv b 1\x1ce ab a b c", "line 3: e takes an id and two vertex ids"),
        ("v a 0\u2028v b 1\u2028v c 2\u2028e ab a b\u2028e bc b c\u2028e ca c a\u2028"
         "t T ab bc ca ab", "line 7: t takes an id and three edge ids"),
        ("v a 0\nv b 1\nv c 2\ne ab a b\ne bc b c\ne ba b a\nt T ab bc ba",
         "line 7: the edges of triangle 'T' do not close up"),
    ])
    def test_field_errors(self, text, hint):
        with pytest.raises(ParseError) as info:
            reeb.parse_field(text)
        assert hint in str(info.value)

    def test_a_closing_triangle_reads_alike_in_every_order_and_orientation(self, tmp_path):
        # the sides of a 0 < b 1 < c 2 in all 6 orders, each side either way
        # round: every one parses, and the Reeb graph's text is one text
        texts = set()
        for order in permutations([("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")]):
            for flips in product((False, True), repeat=3):
                sides = [(e, y, x) if flip else (e, x, y) for (e, x, y), flip in zip(order, flips)]
                text = "v a 0\nv b 1\nv c 2\n" + "".join(f"e {e} {x} {y}\n" for e, x, y in sides)
                text += "t T " + " ".join(e for e, _, _ in sides) + "\n"
                assert reeb.parse_field(text).triangles == {"T": tuple(e for e, _, _ in sides)}
                path = tmp_path / "field.txt"
                path.write_text(text)
                out = io.StringIO()
                assert cli.main(["reeb", str(path)], stdout=out) == 0
                texts.add(out.getvalue())
        assert len(texts) == 1

    @pytest.mark.parametrize("sides", [
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d")],     # a path
        [("ab", "a", "b"), ("ac", "a", "c"), ("ad", "a", "d")],     # a star
        [("ab", "a", "b"), ("cd", "c", "d"), ("ac", "a", "c")],
    ])
    def test_a_triple_that_does_not_close_is_refused_in_every_order(self, sides):
        for order in permutations(sides):
            for flips in product((False, True), repeat=3):
                oriented = [(e, y, x) if flip else (e, x, y)
                            for (e, x, y), flip in zip(order, flips)]
                text = "v a 0\nv b 1\nv c 2\nv d 3\n"
                text += "".join(f"e {e} {x} {y}\n" for e, x, y in oriented)
                text += "t T " + " ".join(e for e, _, _ in oriented) + "\n"
                with pytest.raises(ParseError, match="'T' do not close up"):
                    reeb.parse_field(text)

    def test_parallel_sides_do_not_close_up(self):
        # the six ends name exactly three vertices, but two sides join the
        # same pair u-v: no triangle has that boundary
        text = ("v u 0\nv v 1\nv w 2\ne uv u v\ne vu v u\ne vw v w\n"
                "t T uv vu vw\n")
        with pytest.raises(ParseError, match="'T' do not close up") as info:
            reeb.parse_field(text)
        assert info.value.line == 7


class TestReebOfComplex:
    def test_octahedron_collapses_to_a_line(self):
        res = reeb.reeb_of_complex(octahedron_field())
        g = res.graph
        assert reeb.validate(g).ok
        assert g.criticals == (Fraction(-2), Fraction(0), Fraction(2))
        assert reeb.num_components(g) == 1
        assert reeb.is_isomorphic(reeb.reduce(g).graph, reeb.line(-2, 2))
        # the whole equator lands on one graph vertex
        assert len({res.vertex_image[v] for v in "abcd"}) == 1
        assert set(res.vertex_image) == {"n", "s", "a", "b", "c", "d"}

    def test_torus_keeps_one_cycle(self):
        res = reeb.reeb_of_complex(torus_field([0, 1, 2, 1], 3))
        g = res.graph
        assert reeb.validate(g).ok
        rank = len(g.edge_ids) - len(g.vertex_ids) + reeb.num_components(g)
        assert rank == 1
        assert reeb.is_isomorphic(reeb.reduce(g).graph, reeb.loop(0, 2))

    def test_disjoint_pieces_stay_apart(self):
        field = SimplicialField(
            {"a": Fraction(0), "b": Fraction(1),
             "c": Fraction(0), "d": Fraction(2)},
            {"ab": ("a", "b"), "cd": ("c", "d")}, {})
        res = reeb.reeb_of_complex(field)
        assert reeb.num_components(res.graph) == 2
        assert reeb.is_isomorphic(
            reeb.reduce(res.graph).graph,
            reeb.build_rgraph({"p": 0, "q": 1, "r": 0, "s": 2},
                              [("e", "p", "q"), ("f", "r", "s")]))

    def test_triangle_that_does_not_close_up_is_rejected(self):
        field = SimplicialField(
            {v: Fraction(k) for k, v in enumerate("abcd")},
            {"ab": ("a", "b"), "bc": ("b", "c"), "ad": ("a", "d")},
            {"T": ("ab", "bc", "ad")})
        with pytest.raises(reeb.ValidationError, match="'T' do not close up"):
            reeb.reeb_of_complex(field)

    @pytest.mark.parametrize("field,text", [
        (octahedron_field, OCTAHEDRON_REEB),
        (lambda: torus_field([0, 1, 2, 1], 3), TORUS_REEB),
        (ledge_field, LEDGE_REEB),
    ], ids=["octahedron", "torus", "ledge"])
    def test_frozen_output(self, field, text):
        res = reeb.reeb_of_complex(field())
        assert reeb.emit_rgraph(res.graph) == text
        assert set(res.vertex_image.values()) <= set(res.graph.vertex_ids)

    def test_frozen_vertex_image(self):
        image = reeb.reeb_of_complex(ledge_field()).vertex_image
        assert image == {"a": "{v:a,v:b,v:e}@0", "b": "{v:a,v:b,v:e}@0",
                         "e": "{v:a,v:b,v:e}@0", "c": "{v:c}@2",
                         "d": "{e:ac,e:bc,v:d}@1", "g": "{v:g}@1/2"}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_names_do_not_depend_on_insertion_order(self, seed):
        rng = random.Random(seed)
        field = reeb.random_field(rng, max_vertices=12, max_triangles=10,
                                  denominator=rng.randint(1, 3))

        def shuffled(d):
            items = list(d.items())
            rng.shuffle(items)
            return dict(items)

        again = SimplicialField(shuffled(field.values), shuffled(field.edges),
                                shuffled(field.triangles))
        a, b = reeb.reeb_of_complex(field), reeb.reeb_of_complex(again)
        assert reeb.emit_rgraph(a.graph) == reeb.emit_rgraph(b.graph)
        assert a.vertex_image == b.vertex_image

    @pytest.mark.parametrize("edges,triangles,hint", [
        ({"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
         {"T": ("ab", "bc", "cd")}, "triangle 'T': unknown edge 'cd'"),
        ({"ab": ("a", "b"), "bz": ("b", "z")}, {}, "edge 'bz': unknown vertex 'z'"),
        ({"ab": ("a", "b"), "bb": ("b", "b")}, {}, "edge 'bb' repeats vertex 'b'"),
    ], ids=["unknown-edge", "unknown-vertex", "self-loop"])
    def test_malformed_fields_built_in_code(self, edges, triangles, hint):
        field = SimplicialField(
            {v: Fraction(k) for k, v in enumerate("abc")}, edges, triangles)
        with pytest.raises(reeb.ValidationError) as info:
            reeb.reeb_of_complex(field)
        assert str(info.value) == hint

    def test_values_are_exact(self):
        field = SimplicialField({"a": 0, "b": Fraction(1, 2)}, {"ab": ("a", "b")}, {})
        assert reeb.reeb_of_complex(field).graph.criticals == (0, Fraction(1, 2))
        with pytest.raises(ParseError, match="not a rational value"):
            reeb.reeb_of_complex(SimplicialField({"a": 0.5}, {}, {}))

    def test_random_fields_match_component_count(self):
        rng = random.Random(5)
        for _ in range(40):
            field = reeb.random_field(rng)
            res = reeb.reeb_of_complex(field)
            assert reeb.validate(res.graph).ok
            groups: dict[str, str] = {}

            def find(x):
                while groups.get(x, x) != x:
                    groups[x] = groups.get(groups[x], groups[x])
                    x = groups[x]
                return x

            for a, b in field.edges.values():
                groups[find(a)] = find(b)
            want = len({find(v) for v in field.values})
            assert reeb.num_components(res.graph) == want
            assert set(res.vertex_image) == set(field.values)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 7))
    def test_matches_the_oracle_on_sound_and_malformed_fields(self, seed, flaw):
        """The text, the vertex image and every error message are the
        oracle's; flaws 1-6 put one malformed record at a random place."""
        rng = random.Random(seed)
        field = reeb.random_field(rng, denominator=rng.randint(1, 3))
        values, edges, triangles = (dict(field.values), dict(field.edges),
                                    dict(field.triangles))
        vs, es = list(values), list(edges)
        some_v = rng.choice(vs) if vs else "a"
        picks = [rng.choice(es) for _ in range(4)] if es else ["zz"] * 4

        def insert(d, key, item):
            items = list(d.items())
            items.insert(rng.randint(0, len(items)), (key, item))
            return dict(items)

        if flaw == 1:
            edges = insert(edges, "bad", (some_v, "zz"))
        elif flaw == 2:
            edges = insert(edges, "bad", (some_v, some_v))
        elif flaw == 3:
            triangles = insert(triangles, "bad", (*picks[:2], "zz"))
        elif flaw == 4:
            triangles = insert(triangles, "bad", tuple(picks[:3]))
        elif flaw == 5:
            triangles = insert(triangles, "bad", tuple(picks[:rng.choice([2, 4])]))
        elif flaw == 6:
            values = insert(values, "bad", 0.5)
        field = SimplicialField(values, edges, triangles)
        try:
            want = reeb_of_complex_oracle(field)
        except reeb.ReebError as exc:
            with pytest.raises(type(exc)) as info:
                reeb.reeb_of_complex(field)
            assert str(info.value) == str(exc)
            return
        got = reeb.reeb_of_complex(field)
        assert reeb.emit_rgraph(got.graph) == reeb.emit_rgraph(want.graph)
        assert got.vertex_image == want.vertex_image

    def test_reeb_command_prints_the_oracle_text_on_a_strip(self, tmp_path):
        text = strip_field_text(random.Random(26), 60)
        path = tmp_path / "strip.txt"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(["reeb", str(path)], stdout=out, stderr=err) == 0
        want = reeb_of_complex_oracle(reeb.parse_field(text))
        assert out.getvalue() == reeb.emit_rgraph(want.graph)
        assert err.getvalue() == ""


def strip_field_text(rng, squares):
    """A field file of two rows of squares (three rows of vertices), each
    square cut into two triangles along a diagonal of seeded direction.
    Values follow a seeded walk along the strip plus a row offset and a
    little noise, on a 1/8 grid, so levels are shared and some edges lie
    level."""
    cols = squares // 2 + 1
    lines, edges, height = [], {}, 0
    for c in range(cols):
        height += rng.choice((-2, -1, 1, 2, 3))
        for r in range(3):
            value = Fraction(height + 4 * r + rng.randint(-2, 2), 8)
            lines.append(f"v x{r}_{c} {reeb.format_rational(value)}")

    def edge(a, b):
        if (a, b) not in edges and (b, a) not in edges:
            edges[a, b] = f"s{len(edges)}"
            lines.append(f"e {edges[a, b]} {a} {b}")
        return edges.get((a, b)) or edges[b, a]

    for r in range(2):
        for c in range(cols - 1):
            p, q = f"x{r}_{c}", f"x{r}_{c + 1}"
            s, t = f"x{r + 1}_{c}", f"x{r + 1}_{c + 1}"
            for i, (a, b, d) in enumerate(
                    [(p, q, t), (p, t, s)] if rng.random() < 0.5 else [(p, q, s), (q, t, s)]):
                lines.append(f"t T{r}_{c}_{i} {edge(a, b)} {edge(b, d)} {edge(a, d)}")
    return "\n".join(lines) + "\n"


def preimage_components(field, iv):
    """Components of the preimage of the open interval iv under the
    piecewise linear map: each simplex's part of the preimage is convex, so
    the simplices whose value range meets iv, each joined to its faces that
    also meet it, are the pieces."""
    vals = field.values

    def meets(vs):
        lo, hi = min(vals[v] for v in vs), max(vals[v] for v in vs)
        return (iv.lo is None or hi > iv.lo) and (iv.hi is None or lo < iv.hi)

    uf = UnionFind()
    for v in vals:
        if meets((v,)):
            uf.add(("v", v))
    for e, ends in field.edges.items():
        if meets(ends):
            uf.add(("e", e))
            for v in ends:
                if meets((v,)):
                    uf.union(("e", e), ("v", v))
    for t, sides in field.triangles.items():
        if meets({v for e in sides for v in field.edges[e]}):
            uf.add(("t", t))
            for e in sides:
                if meets(field.edges[e]):
                    uf.union(("t", t), ("e", e))
    return len(uf.groups())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reeb_cosheaf_counts_preimage_components(seed):
    rng = random.Random(seed)
    field = reeb.random_field(rng, denominator=rng.randint(1, 3))
    F = reeb.reeb_cosheaf(reeb.reeb_of_complex(field).graph)
    ends = [None, *field.values.values(),
            *(Fraction(n, 12) for n in range(-30, 31, 5))]
    for _ in range(30):
        iv = reeb.interval(rng.choice(ends), rng.choice(ends))
        if iv.empty:
            continue
        assert len(reeb.evaluate(F, iv)) == preimage_components(field, iv), \
            (iv.lo, iv.hi)


class TestMorphismFiles:
    def fold(self):
        src = reeb.fork()
        tgt = reeb.build_rgraph({"p": -1, "q": 0, "r": 1},
                                [("pq", "p", "q"), ("qr", "q", "r")])
        phi = reeb.RGraphMorphism(src, tgt, {
            "u": ("vertex", "p"), "w": ("vertex", "q"),
            "x": ("vertex", "r"), "y": ("vertex", "r"),
        }, {"uw": ("pq",), "wx": ("qr",), "wy": ("qr",)})
        return src, tgt, phi

    def test_round_trip(self):
        src, tgt, phi = self.fold()
        text = reeb.emit_morphism(phi)
        again = reeb.parse_morphism(text, src, tgt)
        assert reeb.morphism_equal(phi, again)
        assert reeb.validate_morphism(again).ok

    def test_vertex_to_edge_images_survive(self):
        line = reeb.line(0, 1)
        tall = reeb.line(-1, 2)
        phi = reeb.RGraphMorphism(line, tall,
                                  {"v0": ("edge", "e0"), "v1": ("edge", "e0")},
                                  {"e0": ("e0",)})
        assert reeb.validate_morphism(phi).ok
        again = reeb.parse_morphism(reeb.emit_morphism(phi), line, tall)
        assert reeb.morphism_equal(phi, again)

    @pytest.mark.parametrize("text,hint", [
        ("vmap z vertex p", "unknown source vertex"),
        ("vmap u vertex nope", "unknown target vertex"),
        ("vmap u middle p", "the word vertex or edge"),
        ("vmap u vertex p\nvmap u vertex p", "repeated vmap"),
        ("emap uw zz", "unknown target edge"),
        ("emap zz pq", "unknown source edge"),
        ("route x y", "unknown directive"),
        ("", "source vertex 'u' is left unmapped"),
        ("vmap u vertex p\nvmap w vertex q\nvmap x vertex r\nvmap y vertex r\n"
         "emap uw pq\nemap wy qr", "source edge 'wx' is left unmapped"),
        ("vmap u vertex p#c\nvmap u vertex p", "line 2: repeated vmap"),
        ("vmap u vertex p\n \t\nvmap u vertex p", "line 3: repeated vmap"),
        ("vmap u vertex p\u2028emap zz pq", "line 2: unknown source edge"),
        ("vmap u vertex p\x1cvmap w vertex q r", "line 2: vmap takes a vertex id"),
    ])
    def test_errors(self, text, hint):
        src, tgt, _ = self.fold()
        with pytest.raises(ParseError) as info:
            reeb.parse_morphism(text, src, tgt)
        assert hint in str(info.value)

    def test_parsing_does_not_check_commutativity(self):
        # the file format is shape only; semantic checks are a separate pass
        src, tgt, _ = self.fold()
        bad = reeb.parse_morphism(
            "vmap u vertex r\nvmap w vertex q\nvmap x vertex p\n"
            "vmap y vertex p\nemap uw qr\nemap wx pq\nemap wy pq\n",
            src, tgt)
        report = reeb.validate_morphism(bad)
        assert not report.ok


class TestDot:
    def test_line_layout(self):
        out = reeb.export_dot(reeb.line(0, 1))
        assert out.startswith("digraph reeb {")
        assert '"v0" -> "v1" [label="e0"];' in out
        assert '"v0" [label="v0 @ 0"];' in out
        assert out.count("rank=same") == 2

    def test_unranked(self):
        out = reeb.export_dot(reeb.loop(0, 1), ranked=False)
        assert "rank=same" not in out
        assert out.count("->") == 2

    def test_quoting(self):
        g = reeb.build_rgraph({'a"b': 0, "c": 1}, [("e", 'a"b', "c")])
        out = reeb.export_dot(g)
        assert '"a\\"b"' in out


# every character str.isspace accepts, so generated ids meet the rare ones
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


class TestUnwritableIds:
    # empty, a comment mark, ASCII and non-ASCII whitespace
    UNWRITABLE = ["", "a#b", "#", "a b", "a\tb", " a", "\x1c", "x\x85",
                  "\u2028", "\u3000y"]

    @staticmethod
    def emitters(bad):
        g = reeb.build_rgraph({"w": 0, bad: 1}, [("e", "w", bad)])
        field = SimplicialField({"w": Fraction(0), bad: Fraction(1)},
                                {"e": ("w", bad)}, {})
        return {"emit_rgraph": lambda: reeb.emit_rgraph(g),
                "emit_field": lambda: reeb.emit_field(field),
                "emit_morphism": lambda: reeb.emit_morphism(reeb.identity(g))}

    @pytest.mark.parametrize("bad", UNWRITABLE)
    @pytest.mark.parametrize("emitter", ["emit_rgraph", "emit_field", "emit_morphism"])
    def test_emitters_name_the_unwritable_id(self, emitter, bad):
        with pytest.raises(reeb.ValidationError) as info:
            self.emitters(bad)[emitter]()
        assert str(info.value) == f"id {bad!r} cannot be written to a record file"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=st.one_of(st.characters(),
                                               st.sampled_from(WHITESPACE + "#"))),
                    max_size=4))
    def test_check_matches_the_per_character_rule(self, ids):
        bad = [s for s in ids if not s or "#" in s or any(c.isspace() for c in s)]
        if not bad:
            _file_safe(*ids)
            return
        with pytest.raises(reeb.ValidationError) as info:
            _file_safe(*ids)
        assert str(info.value) == f"id {bad[0]!r} cannot be written to a record file"
