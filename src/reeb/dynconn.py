"""Connectivity of a graph whose links each live over a known range of
positions.

The smoothing sweep knows every link's lifetime before it starts, so it
needs no fully dynamic structure: `walk_positions` puts each link on the
nodes of a segment tree over the positions that cover its range, then
visits the tree once, left to right, on a `RollbackUnionFind`, applying
a node's unions on entry and undoing them on exit. `NaiveDynForest`, a
fully dynamic forest, is the oracle the tests replay the same lifetimes
through.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .errors import ForestError, InternalError


class RollbackUnionFind:
    """Union-find on the cells 0..n-1 whose unions are undone newest first.
    Union by size without path compression, so undoing a union resets one
    parent; each root also holds the least cell of its class, so a union
    and its undo each set one `least` entry."""
    __slots__ = ("parent", "size", "least", "undo")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.least = list(range(n))     # at a root, the least cell of its class
        # per union, oldest first: (absorbed root, survivor's least before it)
        self.undo: list[tuple[int, int]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; True when they were distinct."""
        parent, size, least = self.parent, self.size, self.least
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return False
        ra, rb = (a, b) if size[a] >= size[b] else (b, a)
        parent[rb] = ra
        size[ra] += size[rb]
        self.undo.append((rb, least[ra]))
        if least[rb] < least[ra]:
            least[ra] = least[rb]
        return True

    def rollback(self, count: int) -> None:
        """Undo the newest `count` unions that merged two classes."""
        parent, size, least, undo = self.parent, self.size, self.least, self.undo
        for _ in range(count):
            rb, old = undo.pop()
            ra = parent[rb]
            parent[rb] = rb
            size[ra] -= size[rb]
            least[ra] = old


def make_forest(n_cells: int) -> RollbackUnionFind:
    """The connectivity structure behind the smoothing sweep. The sweep
    looks this name up at each call, so a profiler can wrap what it
    returns."""
    return RollbackUnionFind(n_cells)


def walk_positions(uf: RollbackUnionFind, n_positions: int,
                   links: list[tuple[int, int, int, int]]) -> Iterator[int]:
    """Yield 0..n_positions-1 in order. Each link is (first, last, a, b):
    while position p is yielded, `uf` has united a and b for exactly the
    links with first <= p <= last, and nothing else. Links sharing a
    lifetime (first, last) go on the segment tree once, as one group, and
    the walk unites and rolls back on `uf`'s own lists."""
    size = 1
    while size < n_positions:
        size *= 2
    lifetimes: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    for link in links:
        lifetimes.setdefault(link[:2], []).append(link)
    # the nodes of a bottom-up segment tree covering each lifetime (node 1
    # is the root and leaf p is node size + p). Each node's groups are
    # chained through one flat list of (group, older entry) pairs from
    # `head`, its newest entry or -1.
    head = [-1] * (2 * size)
    chain: list = []
    for (first, last), group in lifetimes.items():
        lo, hi = first + size, last + size + 1
        while lo < hi:
            if lo & 1:
                chain += (group, head[lo])
                head[lo] = len(chain) - 2
                lo += 1
            if hi & 1:
                hi -= 1
                chain += (group, head[hi])
                head[hi] = len(chain) - 2
            lo >>= 1
            hi >>= 1

    # RollbackUnionFind.union and .rollback, inlined
    parent, size_of, least, undo = uf.parent, uf.size, uf.least, uf.undo
    # a nonnegative entry is a node to enter; ~count undoes count unions
    stack = [1]
    while stack:
        node = stack.pop()
        if node < 0:
            for _ in range(~node):
                rb, old = undo.pop()
                ra = parent[rb]
                parent[rb] = rb
                size_of[ra] -= size_of[rb]
                least[ra] = old
            continue
        done = 0
        entry = head[node]
        while entry >= 0:
            for _, _, a, b in chain[entry]:
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b:
                    if size_of[a] < size_of[b]:
                        a, b = b, a
                    parent[b] = a
                    size_of[a] += size_of[b]
                    undo.append((b, least[a]))
                    if least[b] < least[a]:
                        least[a] = least[b]
                    done += 1
            entry = chain[entry + 1]
        if done:
            stack.append(~done)
        if node < size:
            stack += (2 * node + 1, 2 * node)
        elif node - size < n_positions:
            yield node - size


class NaiveDynForest:
    """Reference maximum-weight spanning forest under timed deletions:
    parent pointers plus an adjacency mirror, every operation by direct
    walking. Edge weights are their scheduled deletion times. As long as
    edges are deleted in nondecreasing weight order, the `insert` rule
    (replace the minimum-weight edge on the cycle a new edge would close,
    when that minimum is strictly smaller) keeps the forest maximum-weight,
    so a deleted edge that is absent from the forest never needs a
    replacement search: any cycle it once closed survives it."""

    def __init__(self):
        # node -> (parent node, weight of the connecting edge) or None
        self._up: dict[str, tuple[str, Fraction] | None] = {}
        self._adj: dict[str, dict[str, Fraction]] = {}

    def add_node(self, x: str) -> None:
        if x in self._up:
            raise ForestError(f"node {x!r} already present")
        self._up[x] = None
        self._adj[x] = {}

    def remove_node(self, x: str) -> None:
        if self._adj[x]:
            raise ForestError(f"node {x!r} still has edges")
        del self._up[x]
        del self._adj[x]

    def has_node(self, x: str) -> bool:
        return x in self._up

    def has_edge(self, x1: str, x2: str) -> bool:
        return x2 in self._adj.get(x1, ())

    def parent(self, x: str) -> str | None:
        rel = self._up[x]
        return rel[0] if rel else None

    def find(self, x: str) -> str:
        """The root of x's tree."""
        while True:
            rel = self._up[x]
            if rel is None:
                return x
            x = rel[0]

    def connected(self, x1: str, x2: str) -> bool:
        return self.find(x1) == self.find(x2)

    def component(self, x: str) -> frozenset[str]:
        """Every node in x's tree."""
        seen = {x}
        stack = [x]
        while stack:
            cur = stack.pop()
            for nbr in self._adj[cur]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return frozenset(seen)

    def insert(self, x1: str, x2: str, weight: Fraction) -> bool:
        """Add an edge. When it would close a cycle, keep it only if the
        cycle's minimum weight is strictly smaller than the new weight (the
        minimum edge is then cut). Returns True when the edge enters the
        forest."""
        if self.has_edge(x1, x2):
            raise ForestError(f"edge {x1!r}-{x2!r} already present")
        if self.find(x1) != self.find(x2):
            self.link(x1, x2, weight)
            return True
        self.evert(x1)
        hit = self.min_weight(x2)
        if hit is not None and hit[1] < weight:
            node, _ = hit
            self.cut(node, self.parent(node))
            self.link(x1, x2, weight)
            return True
        return False

    def delete(self, x1: str, x2: str) -> None:
        """Remove an edge if the forest holds it; silently ignore edges
        that were never kept."""
        if self.has_edge(x1, x2):
            self.cut(x1, x2)

    def evert(self, x: str) -> None:
        """Re-root x's tree at x by reversing the pointers along its path."""
        path = []
        cur = x
        while True:
            rel = self._up[cur]
            if rel is None:
                break
            path.append((cur, rel))
            cur = rel[0]
        self._up[x] = None
        for child, (par, w) in path:
            self._up[par] = (child, w)

    def link(self, x1: str, x2: str, weight: Fraction) -> None:
        if self.find(x1) == self.find(x2):
            raise ForestError(f"linking {x1!r}-{x2!r} would close a cycle")
        self.evert(x1)
        self._up[x1] = (x2, weight)
        self._adj[x1][x2] = weight
        self._adj[x2][x1] = weight

    def cut(self, x1: str, x2: str) -> None:
        if not self.has_edge(x1, x2):
            raise ForestError(f"no edge {x1!r}-{x2!r}")
        rel = self._up[x1]
        if rel and rel[0] == x2:
            self._up[x1] = None
        else:
            rel = self._up[x2]
            if not (rel and rel[0] == x1):
                raise InternalError(f"edge {x1!r}-{x2!r} is in the adjacency "
                                    "mirror but neither end points at the other")
            self._up[x2] = None
        del self._adj[x1][x2]
        del self._adj[x2][x1]

    def min_weight(self, x: str) -> tuple[str, Fraction] | None:
        """Minimum-weight edge on the path from x to its root, reported as
        (lower endpoint, weight); ties resolve to the edge nearest x."""
        best = None
        cur = x
        while True:
            rel = self._up[cur]
            if rel is None:
                break
            if best is None or rel[1] < best[1]:
                best = (cur, rel[1])
            cur = rel[0]
        return best

    def forest_edges(self) -> set[frozenset[str]]:
        return {frozenset((a, b)) for a, nbrs in self._adj.items() for b in nbrs}
