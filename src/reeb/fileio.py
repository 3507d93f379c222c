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
and target, one for every source vertex and edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import RGraph, _assemble, _place, _ranked
from .errors import InternalError, ParseError, ValidationError
from .morphism import RGraphMorphism
from .rationals import as_rational, format_rational, parse_rational


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
    for n, line in enumerate(text.splitlines(), start=1):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "criticals":
            criticals.extend(_rational(t, n) for t in toks[1:])
        elif kind == "vertex":
            if len(toks) != 3:
                raise ParseError("vertex takes an id and a value", line=n)
            _, vid, val = toks
            if vid in vertices:
                raise ParseError(f"duplicate vertex id {vid!r}", line=n)
            vertices[vid] = _rational(val, n)
        elif kind == "edge":
            if len(toks) != 4:
                raise ParseError("edge takes an id and two vertex ids", line=n)
            _, eid, lo, hi = toks
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
    g, _, _ = _place(vertices, edges, criticals)
    return g


def emit_rgraph(g: RGraph) -> str:
    _file_safe(*g.vertex_ids, *g.edge_ids)
    fmt = [format_rational(c) for c in g.criticals]
    lines = ["criticals " + " ".join(fmt)] if fmt else []
    for level, x in zip(g.levels, fmt):
        lines += [f"vertex {v} {x}" for v in level]
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
    for n, line in enumerate(text.splitlines(), start=1):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "v":
            if len(toks) != 3:
                raise ParseError("v takes an id and a value", line=n)
            _, vid, val = toks
            if vid in values:
                raise ParseError(f"duplicate vertex id {vid!r}", line=n)
            values[vid] = _rational(val, n)
        elif kind == "e":
            if len(toks) != 4:
                raise ParseError("e takes an id and two vertex ids", line=n)
            _, eid, a, b = toks
            if eid in edges:
                raise ParseError(f"duplicate edge id {eid!r}", line=n)
            for v in (a, b):
                if v not in values:
                    raise ParseError(f"unknown vertex {v!r}", line=n)
            if a == b:
                raise ParseError(f"edge {eid!r} repeats a vertex", line=n)
            edges[eid] = (a, b)
        elif kind == "t":
            if len(toks) != 5:
                raise ParseError("t takes an id and three edge ids", line=n)
            _, tid, x, y, z = toks
            if tid in triangles:
                raise ParseError(f"duplicate triangle id {tid!r}", line=n)
            for e in (x, y, z):
                if e not in edges:
                    raise ParseError(f"unknown edge {e!r}", line=n)
            if x == y or y == z or x == z:
                raise ParseError(f"triangle {tid!r} repeats an edge", line=n)
            # no edge is a loop, so the sides close up exactly when two
            # share one vertex and the third joins their other ends
            (a, b), (c, d), ends = edges[x], edges[y], edges[z]
            if b == c or b == d:
                a, b = b, a
            if a == d:
                c, d = d, c
            if a != c or ends not in ((b, d), (d, b)):
                raise ParseError(f"the edges of triangle {tid!r} do not close "
                                 "up", line=n)
            triangles[tid] = (x, y, z)
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
    quotient of its 1-skeleton refined at the vertex values.

    The distinct values are ranked once into levels; a position is then an
    integer code, 2k for level k and 2k+1 for the gap (slot) above it. The
    complex vertices are cells 0..n-1 by value, and an edge rising from
    cell a at code lo to cell b > a at code hi owns a block of hi-lo-1
    cells, its pieces at codes lo+1 .. hi-1. A triangle u < v < w, whose
    sides sort as u-v, u-w, v-w, glues its long edge u-w to u-v below v's
    code and to v-w above it, two runs of cells at a fixed offset, and to
    v at v's code; a horizontal edge is a run of one. One loop unites the
    runs pair by pair, each root the least cell of its class, and one pass
    points every cell at its root. Each class is a graph vertex or edge,
    named by the sorted `v:`/`e:` ids of its cells, plus `t:` for each
    triangle over a gap, then `@value` or `@(lo,hi)`."""
    ids = list(field.values)
    criticals, level = _ranked([as_rational(x) for x in field.values.values()])
    fmt = [format_rational(c) for c in criticals]
    at = [f"({fmt[w // 2]},{fmt[w // 2 + 1]})" if w & 1 else fmt[w // 2]
          for w in range(2 * len(fmt) - 1)]

    order = sorted(range(len(ids)), key=level.__getitem__)
    number = {ids[i]: c for c, i in enumerate(order)}
    ref = [f"v:{ids[i]}" for i in order]    # per cell: the id it names
    code = [2 * level[i] for i in order]    # per cell: its code
    # per edge: (lower end, upper end, offset): its piece at code w is
    # cell offset + w
    chains: dict[str, tuple[int, int, int]] = {}
    runs = []       # (first cell, offset to its partner, length) to unite
    for e, (a, b) in field.edges.items():
        try:
            c, d = number[a], number[b]
        except KeyError as exc:
            raise ValidationError(f"edge {e!r}: unknown vertex "
                                  f"{exc.args[0]!r}") from None
        if c == d:
            raise ValidationError(f"edge {e!r} repeats vertex {a!r}")
        a, b = (c, d) if c < d else (d, c)
        lo, hi = code[a], code[b]
        chains[e] = (a, b, len(ref) - lo - 1)
        if lo == hi:
            runs.append((a, b - a, 1))
        else:
            ref += [f"e:{e}"] * (hi - lo - 1)
            code += range(lo + 1, hi)

    over = []       # (first and stop cell of a long edge's segments, `t:` ref)
    for t, sides in field.triangles.items():
        try:
            trio = sorted([chains[e] for e in sides])
        except KeyError as exc:
            raise ValidationError(f"triangle {t!r}: unknown edge "
                                  f"{exc.args[0]!r}") from None
        # the sides of a triangle u < v < w sort as u-v, u-w, v-w
        if len(trio) == 3:
            (u, v, uv), (u2, w, uw), (v2, w2, vw) = trio
        if len(trio) != 3 or (u2, v2, w2) != (u, v, w):
            raise ValidationError(f"the edges of triangle {t!r} do not close up")
        lo, mid, hi = code[u], code[v], code[w]
        runs += ((uw + lo + 1, uv - uw, mid - lo - 1),
                 (uw + mid + 1, vw - uw, hi - mid - 1))
        if lo < mid < hi:
            runs.append((uw + mid, v - uw - mid, 1))
        over.append((uw + lo + 1, uw + hi, f"t:{t}"))

    parent = list(range(len(ref)))
    for first, offset, length in runs:
        for a in range(first, first + length):
            b = a + offset
            while (r := parent[a]) != a:    # path halving
                parent[a] = a = parent[r]
            while (r := parent[b]) != b:
                parent[b] = b = parent[r]
            if a > b:
                a, b = b, a
            parent[b] = a
    for c, r in enumerate(parent):          # each parent is at most its cell
        parent[c] = parent[r]

    refs: dict[int, list[str]] = {}
    for r, s in zip(parent, ref):
        refs.setdefault(r, []).append(s)
    for first, stop, s in over:
        for c in range(first, stop, 2):
            refs[parent[c]].append(s)
    name = [""] * len(ref)
    level_names: list[list[str]] = [[] for _ in criticals]
    for r, rs in refs.items():
        rs.sort()
        name[r] = "{" + ",".join(rs) + "}@" + at[code[r]]
        if not code[r] & 1:
            level_names[code[r] // 2].append(name[r])

    down_maps: list[dict[str, str]] = [{} for _ in criticals[1:]]
    up_maps: list[dict[str, str]] = [{} for _ in criticals[1:]]
    for a, b, offset in chains.values():
        lo, hi = code[a], code[b]
        d = name[parent[a]]                 # the piece below the next segment
        for w in range(lo + 1, hi, 2):
            n, j = name[parent[offset + w]], w // 2
            u = name[parent[b if w == hi - 1 else offset + w + 1]]
            if down_maps[j].setdefault(n, d) != d or up_maps[j].setdefault(n, u) != u:
                raise InternalError(f"gap component {n} at slot {j} touches "
                                    "several level components")
            d = u

    graph = _assemble(criticals, level_names, [list(m) for m in down_maps],
                      down_maps, up_maps)
    return ComplexReeb(graph, {v: name[parent[number[v]]] for v in ids})


# ---------------------------------------------------------------------------
# Morphisms.

def parse_morphism(text: str, source: RGraph, target: RGraph) -> RGraphMorphism:
    vertex_map: dict[str, tuple[str, str]] = {}
    edge_map: dict[str, tuple[str, ...]] = {}
    src_vs, src_es = set(source.vertex_ids), set(source.edge_ids)
    tgt_vs, tgt_es = set(target.vertex_ids), set(target.edge_ids)
    for n, line in enumerate(text.splitlines(), start=1):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "vmap":
            if len(toks) != 4 or toks[2] not in ("vertex", "edge"):
                raise ParseError("vmap takes a vertex id, the word vertex or "
                                 "edge, and a target id", line=n)
            _, vid, cell_kind, wid = toks
            if vid not in src_vs:
                raise ParseError(f"unknown source vertex {vid!r}", line=n)
            if vid in vertex_map:
                raise ParseError(f"repeated vmap for {vid!r}", line=n)
            pool = tgt_vs if cell_kind == "vertex" else tgt_es
            if wid not in pool:
                raise ParseError(f"unknown target {cell_kind} {wid!r}", line=n)
            vertex_map[vid] = (cell_kind, wid)
        elif kind == "emap":
            if len(toks) < 3:
                raise ParseError("emap takes an edge id and a target edge "
                                 "path", line=n)
            _, eid, *path = toks
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
    for kind, ids, mapped in (("vertex", source.vertex_ids, vertex_map),
                              ("edge", source.edge_ids, edge_map)):
        for cid in ids:
            if cid not in mapped:
                raise ParseError(f"source {kind} {cid!r} is left unmapped")
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
