"""Text formats: graphs over the line, simplicial fields, morphisms, DOT.

Graph files hold one record per line. `vertex <id> <value>` declares a
vertex, `edge <id> <low> <high>` an edge between two vertices with
strictly increasing values (edges crossing other critical values are
subdivided on load), and an optional `criticals <v> <v> ...` line forces
extra critical values. `#` starts a comment.

Field files describe a 2-complex with `v <id> <value>`, `e <id> <v1>
<v2>` and `t <id> <e1> <e2> <e3>` lines; every triangle's edges must
close up into the boundary of a 2-simplex.

Morphism files give `vmap <vid> vertex <wid>`, `vmap <vid> edge <eid>`
and `emap <eid> <e1> <e2> ...` lines against a separately loaded source
and target.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import RGraph, _assemble, _build, build_rgraph
from .errors import InternalError, ParseError, ValidationError
from .morphism import RGraphMorphism
from .rationals import format_rational, parse_rational
from .unionfind import UnionFind


def _records(text: str):
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line.split()


def _rational(token: str, n: int) -> Fraction:
    try:
        return parse_rational(token)
    except ParseError as exc:
        raise ParseError(str(exc), line=n) from None


def _file_safe(*ids: str) -> None:
    """Reject ids the record format cannot write back: they would tokenize
    differently (whitespace, where str.split and str.isspace agree) or be
    eaten as a comment (#)."""
    for s in ids:
        if not s or "#" in s or s.split() != [s]:
            raise ValidationError(
                f"id {s!r} cannot be written to a record file")


# ---------------------------------------------------------------------------
# Graphs.

def parse_rgraph(text: str) -> RGraph:
    vertices: dict[str, Fraction] = {}
    edges: dict[str, tuple[str, str]] = {}
    criticals: list[Fraction] = []
    for n, toks in _records(text):
        kind, args = toks[0], toks[1:]
        if kind == "criticals":
            criticals.extend(_rational(t, n) for t in args)
        elif kind == "vertex":
            if len(args) != 2:
                raise ParseError("vertex takes an id and a value", line=n)
            vid, val = args
            if vid in vertices:
                raise ParseError(f"duplicate vertex id {vid!r}", line=n)
            vertices[vid] = _rational(val, n)
        elif kind == "edge":
            if len(args) != 3:
                raise ParseError("edge takes an id and two vertex ids", line=n)
            eid, lo, hi = args
            if eid in edges:
                raise ParseError(f"duplicate edge id {eid!r}", line=n)
            for v in (lo, hi):
                if v not in vertices:
                    raise ParseError(f"unknown vertex {v!r}", line=n)
            if not vertices[lo] < vertices[hi]:
                raise ParseError(f"edge {eid!r} must go from a strictly lower "
                                 "vertex to a strictly higher one", line=n)
            edges[eid] = (lo, hi)
        else:
            raise ParseError(f"unknown directive {kind!r}", line=n)
    return build_rgraph(vertices, edges, criticals)


def emit_rgraph(g: RGraph) -> str:
    _file_safe(*g.vertex_ids, *g.edge_ids)
    lines = []
    if g.criticals:
        lines.append("criticals " + " ".join(format_rational(c) for c in g.criticals))
    for level in g.levels:
        for v in level:
            lines.append(f"vertex {v} {format_rational(g.value(v))}")
    for j in range(g.n_slots):
        for e in g.slots[j]:
            lines.append(f"edge {e} {g.down[j][e]} {g.up[j][e]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Simplicial fields.

@dataclass(frozen=True)
class SimplicialField:
    values: dict[str, Fraction]
    edges: dict[str, tuple[str, str]]
    triangles: dict[str, tuple[str, str, str]]


def parse_field(text: str) -> SimplicialField:
    values: dict[str, Fraction] = {}
    edges: dict[str, tuple[str, str]] = {}
    triangles: dict[str, tuple[str, str, str]] = {}
    for n, toks in _records(text):
        kind, args = toks[0], toks[1:]
        if kind == "v":
            if len(args) != 2:
                raise ParseError("v takes an id and a value", line=n)
            vid, val = args
            if vid in values:
                raise ParseError(f"duplicate vertex id {vid!r}", line=n)
            values[vid] = _rational(val, n)
        elif kind == "e":
            if len(args) != 3:
                raise ParseError("e takes an id and two vertex ids", line=n)
            eid, a, b = args
            if eid in edges:
                raise ParseError(f"duplicate edge id {eid!r}", line=n)
            for v in (a, b):
                if v not in values:
                    raise ParseError(f"unknown vertex {v!r}", line=n)
            if a == b:
                raise ParseError(f"edge {eid!r} repeats a vertex", line=n)
            edges[eid] = (a, b)
        elif kind == "t":
            if len(args) != 4:
                raise ParseError("t takes an id and three edge ids", line=n)
            tid, *sides = args
            if tid in triangles:
                raise ParseError(f"duplicate triangle id {tid!r}", line=n)
            for e in sides:
                if e not in edges:
                    raise ParseError(f"unknown edge {e!r}", line=n)
            if len(set(sides)) != 3:
                raise ParseError(f"triangle {tid!r} repeats an edge", line=n)
            ends = Counter(v for e in sides for v in edges[e])
            if len(ends) != 3 or set(ends.values()) != {2}:
                raise ParseError(f"the edges of triangle {tid!r} do not close "
                                 "up", line=n)
            triangles[tid] = (sides[0], sides[1], sides[2])
        else:
            raise ParseError(f"unknown directive {kind!r}", line=n)
    return SimplicialField(values, edges, triangles)


def emit_field(field: SimplicialField) -> str:
    _file_safe(*field.values, *field.edges, *field.triangles)
    lines = [f"v {v} {format_rational(val)}" for v, val in sorted(field.values.items())]
    lines += [f"e {e} {a} {b}" for e, (a, b) in sorted(field.edges.items())]
    lines += [f"t {t} {x} {y} {z}" for t, (x, y, z) in sorted(field.triangles.items())]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComplexReeb:
    graph: RGraph
    vertex_image: dict[str, str]    # complex vertex -> graph vertex


def reeb_of_complex(field: SimplicialField) -> ComplexReeb:
    """The Reeb graph of the piecewise linear map the field describes, as a
    quotient of its 1-skeleton refined at the vertex values: horizontal
    edges and triangles merge the cells they connect, so each class is one
    component of a level set at a vertex value (a graph vertex) or of the
    preimage of a gap between values (a graph edge). A class is named by
    the sorted `v:`/`e:` ids of its cells, plus `t:` for each triangle
    spanning a gap, then `@value` or `@(lo,hi)`."""
    vals = field.values
    rising = {f"e:{e}": tuple(f"v:{v}" for v in sorted(ends, key=vals.__getitem__))
              for e, ends in field.edges.items() if vals[ends[0]] != vals[ends[1]]}
    g, segs, splits = _build({f"v:{v}": x for v, x in vals.items()}, rising, ())
    owner = {s: e for e, pieces in segs.items() for s in pieces}
    level = g.vertex_level

    def piece(e: str, j: int) -> str:
        """The segment of the skeleton edge e over slot j."""
        return segs[e][j - level[rising[e][0]]]

    uf = UnionFind((*g.vertex_ids, *g.edge_ids))
    for a, b in field.edges.values():
        if vals[a] == vals[b]:
            uf.union(f"v:{a}", f"v:{b}")
    triangles_over: dict[str, list[str]] = {}   # long edge's segment -> triangles
    for t, sides in field.triangles.items():
        edge_of = {frozenset(field.edges[e]): f"e:{e}" for e in sides}
        corners = {v for pair in edge_of for v in pair}
        if len(edge_of) != 3 or len(corners) != 3:
            raise ValidationError(f"the edges of triangle {t!r} do not close up")
        x, y, z = sorted(corners, key=vals.__getitem__)
        lo, mid, hi = (level[f"v:{v}"] for v in (x, y, z))
        if lo == hi:
            continue
        # x-z spans every slot from lo to hi, x-y those below mid and
        # y-z those above; a horizontal side spans none
        long, low, high = (edge_of[frozenset(p)] for p in ((x, z), (x, y), (y, z)))
        for j in range(lo, hi):
            seg = piece(long, j)
            uf.union(seg, piece(low if j < mid else high, j))
            triangles_over.setdefault(seg, []).append(f"t:{t}")
        for k in range(lo + 1, hi):
            uf.union(g.down[k][piece(long, k)], f"v:{y}" if k == mid
                     else g.down[k][piece(low if k < mid else high, k)])

    def classes(cells, refs, where: str) -> dict[str, list[str]]:
        """The classes among cells, by name, each with its members."""
        groups: dict[str, list[str]] = {}
        for c in cells:
            groups.setdefault(uf.find(c), []).append(c)
        return {"{" + ",".join(sorted(r for c in members for r in refs(c))) + "}@" + where:
                members for members in groups.values()}

    name: dict[str, str] = {}
    level_names = []
    for k, lev in enumerate(g.levels):
        named = classes(lev, lambda c: (splits.get(c, c),), format_rational(g.criticals[k]))
        for n, members in named.items():
            name.update((c, n) for c in members)
        level_names.append(list(named))
    slot_names, down_maps, up_maps = [], [], []
    for j, slot in enumerate(g.slots):
        lo, hi = g.criticals[j], g.criticals[j + 1]
        where = f"({format_rational(lo)},{format_rational(hi)})"
        named = classes(slot, lambda c: (owner[c], *triangles_over.get(c, ())), where)
        down, up = {}, {}
        for n, members in named.items():
            downs = {name[g.down[j][s]] for s in members}
            ups = {name[g.up[j][s]] for s in members}
            if len(downs) != 1 or len(ups) != 1:
                raise InternalError(f"gap component {n} at slot {j} touches several "
                                    "level components")
            down[n], up[n] = downs.pop(), ups.pop()
        slot_names.append(list(named))
        down_maps.append(down)
        up_maps.append(up)

    graph = _assemble(g.criticals, level_names, slot_names, down_maps, up_maps)
    return ComplexReeb(graph, {v: name[f"v:{v}"] for v in vals})


# ---------------------------------------------------------------------------
# Morphisms.

def parse_morphism(text: str, source: RGraph, target: RGraph) -> RGraphMorphism:
    vertex_map: dict[str, tuple[str, str]] = {}
    edge_map: dict[str, tuple[str, ...]] = {}
    src_vs, src_es = set(source.vertex_ids), set(source.edge_ids)
    tgt_vs, tgt_es = set(target.vertex_ids), set(target.edge_ids)
    for n, toks in _records(text):
        kind, args = toks[0], toks[1:]
        if kind == "vmap":
            if len(args) != 3 or args[1] not in ("vertex", "edge"):
                raise ParseError("vmap takes a vertex id, the word vertex or "
                                 "edge, and a target id", line=n)
            vid, cell_kind, wid = args
            if vid not in src_vs:
                raise ParseError(f"unknown source vertex {vid!r}", line=n)
            if vid in vertex_map:
                raise ParseError(f"repeated vmap for {vid!r}", line=n)
            pool = tgt_vs if cell_kind == "vertex" else tgt_es
            if wid not in pool:
                raise ParseError(f"unknown target {cell_kind} {wid!r}", line=n)
            vertex_map[vid] = (cell_kind, wid)
        elif kind == "emap":
            if len(args) < 2:
                raise ParseError("emap takes an edge id and a target edge "
                                 "path", line=n)
            eid, *path = args
            if eid not in src_es:
                raise ParseError(f"unknown source edge {eid!r}", line=n)
            if eid in edge_map:
                raise ParseError(f"repeated emap for {eid!r}", line=n)
            for p in path:
                if p not in tgt_es:
                    raise ParseError(f"unknown target edge {p!r}", line=n)
            edge_map[eid] = tuple(path)
        else:
            raise ParseError(f"unknown directive {kind!r}", line=n)
    return RGraphMorphism(source, target, vertex_map, edge_map)


def emit_morphism(phi: RGraphMorphism) -> str:
    _file_safe(*phi.source.vertex_ids, *phi.source.edge_ids,
               *phi.target.vertex_ids, *phi.target.edge_ids)
    lines = []
    for v in phi.source.vertex_ids:
        kind, wid = phi.vertex_map[v]
        lines.append(f"vmap {v} {kind} {wid}")
    for e in phi.source.edge_ids:
        lines.append(f"emap {e} " + " ".join(phi.edge_map[e]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export.

def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: RGraph, ranked: bool = True) -> str:
    lines = ["digraph reeb {", "  rankdir=BT;"]
    for i, level in enumerate(g.levels):
        label = format_rational(g.criticals[i]) if g.criticals else ""
        for v in level:
            lines.append(f"  {_dot_quote(v)} [label={_dot_quote(f'{v} @ {label}')}];")
        if ranked and level:
            lines.append("  { rank=same; "
                         + " ".join(_dot_quote(v) + ";" for v in level) + " }")
    for j in range(g.n_slots):
        for e in g.slots[j]:
            lines.append(f"  {_dot_quote(g.down[j][e])} -> {_dot_quote(g.up[j][e])}"
                         f" [label={_dot_quote(e)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
