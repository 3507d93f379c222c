"""The level-by-level union-find quotient `reeb_of_complex` computed before
its unions ran inline on runs of cells, kept as a test-only oracle: the
production function must print the same graph text, the same vertex
image and the same error messages on every field.

Each union goes through `find`/`union` closures one cell pair at a time,
roots come from a final `find` on every cell, and the attach maps look up
both neighbours of a gap piece afresh.
"""

from __future__ import annotations

from reeb.core import _assemble, _ranked
from reeb.errors import InternalError, ValidationError
from reeb.fileio import ComplexReeb, SimplicialField
from reeb.rationals import as_rational, format_rational


def reeb_of_complex_oracle(field: SimplicialField) -> ComplexReeb:
    """The Reeb graph of the piecewise linear map the field describes, as a
    quotient of its 1-skeleton refined at the vertex values.

    The distinct values are ranked once into levels; a position is then an
    integer code, 2k for level k and 2k+1 for the gap (slot) above it. The
    complex vertices are cells 0..n-1 in field order, and an edge rising
    from code lo to code hi owns a block of hi-lo-1 cells, its pieces at
    codes lo+1 .. hi-1: segments over the slots alternating with interior
    points at the levels between. One union-find merges the ends of each
    horizontal edge and, at each code strictly inside a triangle's span,
    the piece of its long edge with the piece of a shorter edge, or with
    the middle vertex at its level. Each class is a component of a level
    set (a graph vertex) or of a gap's preimage (a graph edge), named by
    the sorted `v:`/`e:` ids of its cells, plus `t:` for each triangle
    over the gap, then `@value` or `@(lo,hi)`."""
    ids = list(field.values)
    criticals, level = _ranked([as_rational(x) for x in field.values.values()])
    fmt = [format_rational(c) for c in criticals]
    at = [f"({fmt[w // 2]},{fmt[w // 2 + 1]})" if w & 1 else fmt[w // 2]
          for w in range(2 * len(fmt) - 1)]

    number = {v: i for i, v in enumerate(ids)}
    ref = [f"v:{v}" for v in ids]           # per cell: the id it names
    code = [2 * k for k in level]           # per cell: its code
    # per edge: (lower end, upper end, offset): its piece at code w is
    # cell offset + w
    chains: dict[str, tuple[int, int, int]] = {}
    horizontal = []
    for e, (a, b) in field.edges.items():
        for v in (a, b):
            if v not in number:
                raise ValidationError(f"edge {e!r}: unknown vertex {v!r}")
        if a == b:
            raise ValidationError(f"edge {e!r} repeats vertex {a!r}")
        a, b = number[a], number[b]
        lo, hi = code[a], code[b]
        if (lo, a) > (hi, b):
            a, b, lo, hi = b, a, hi, lo
        chains[e] = (a, b, len(ref) - lo - 1)
        if lo == hi:
            horizontal.append((a, b))
        else:
            ref += [f"e:{e}"] * (hi - lo - 1)
            code += range(lo + 1, hi)
    parent = list(range(len(ref)))

    def find(x):
        while (p := parent[x]) != x:    # path halving
            parent[x] = x = parent[p]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for a, b in horizontal:
        union(a, b)

    over: list[tuple[int, str]] = []     # (long edge's segment, triangle ref)
    for t, sides in field.triangles.items():
        try:
            trio = [chains[e] for e in sides]
        except KeyError as exc:
            raise ValidationError(f"triangle {t!r}: unknown edge "
                                  f"{exc.args[0]!r}") from None
        if (len(trio) != 3 or len({(a, b) for a, b, _ in trio}) != 3
                or len({c for a, b, _ in trio for c in (a, b)}) != 3):
            raise ValidationError(f"the edges of triangle {t!r} do not close up")
        # the long edge x-z spans every code from lo to hi, x-y those below
        # mid and y-z those above; a horizontal side spans none
        spans = [code[b] - code[a] for a, b, _ in trio]
        i = spans.index(max(spans))
        x, z, long = trio[i]
        lo, hi = code[x], code[z]
        p, q = trio[i - 1], trio[i - 2]
        low, high = (p, q) if x in p[:2] else (q, p)
        y = low[1] if low[0] == x else low[0]
        mid = code[y]
        for w in range(lo + 1, mid):
            union(long + w, low[2] + w)
        if lo < mid < hi:
            union(long + mid, y)
        for w in range(mid + 1, hi):
            union(long + w, high[2] + w)
        tref = f"t:{t}"
        over += ((long + w, tref) for w in range(lo + 1, hi, 2))

    root = list(map(find, range(len(ref))))
    refs: dict[int, list[str]] = {}
    for r, s in zip(root, ref):
        refs.setdefault(r, []).append(s)
    for c, s in over:
        refs[root[c]].append(s)
    name = [""] * len(ref)
    level_names: list[list[str]] = [[] for _ in criticals]
    for r, rs in refs.items():
        name[r] = "{" + ",".join(sorted(rs)) + "}@" + at[code[r]]
        if not code[r] & 1:
            level_names[code[r] // 2].append(name[r])

    down_maps: list[dict[str, str]] = [{} for _ in criticals[1:]]
    up_maps: list[dict[str, str]] = [{} for _ in criticals[1:]]
    for a, b, offset in chains.values():
        lo, hi = code[a], code[b]
        for w in range(lo + 1, hi, 2):
            n, j = name[root[offset + w]], w // 2
            d = name[root[a if w == lo + 1 else offset + w - 1]]
            u = name[root[b if w == hi - 1 else offset + w + 1]]
            if down_maps[j].setdefault(n, d) != d or up_maps[j].setdefault(n, u) != u:
                raise InternalError(f"gap component {n} at slot {j} touches "
                                    "several level components")

    graph = _assemble(criticals, level_names, [list(m) for m in down_maps],
                      down_maps, up_maps)
    return ComplexReeb(graph, {v: name[root[i]] for i, v in enumerate(ids)})
