"""Connectivity of a graph whose links come in groups, each group live
over a window of a fixed list.

Both readers of window components list their edge-endpoint links the
same way: slot by slot, each slot's lower links, then its upper links.
Along that list the links live at one place form a window whose two ends
only move forward, so a `RollbackUnionFind` slides over it: the
smoothing sweep from one position to the next, the rank pass from one
range to the next. `NaiveDynForest`, a fully dynamic forest, is the
oracle the tests replay the sweep's link lifetimes through.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ForestError, InternalError


class RollbackUnionFind:
    """Union-find on the cells 0..n-1 that holds the unions of a sliding
    window of `groups`, a fixed list of link groups, each a list of cell
    pairs: `slide(lo, hi)` makes it hold exactly those of groups[lo:hi].
    Union by size without path compression, so undoing a union resets one
    parent; each root also holds the least cell of its class.

    The held groups sit on a stack, each entry (group, is A, the length
    of the undo list before it), so undoing the entries from one up is
    undoing the merges from its mark. The oldest group leaves by the
    queue-undo trick: a group entering at the back is a B entry; the A
    entries are the oldest groups, the oldest on top, so each group is
    applied O(log n) times amortised over the slides."""
    __slots__ = ("parent", "size", "least", "groups", "undo", "stack",
                 "n_a", "lo", "hi")

    def __init__(self, n: int, groups: list[list[tuple[int, int]]]):
        self.parent = list(range(n))
        self.size = [1] * n
        self.least = list(range(n))     # at a root, the least cell of its class
        self.groups = groups
        # per merge, oldest first: (absorbed root, survivor's least before it)
        self.undo: list[tuple[int, int]] = []
        self.stack: list[tuple[int, bool, int]] = []
        self.n_a = 0                    # A entries on the stack
        self.lo = self.hi = 0           # the held window, groups[lo:hi]

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def _push(self, gs, is_a: bool) -> None:
        """Unite the links of each group in gs, in order, as one entry each."""
        parent, size, least, undo, stack = (self.parent, self.size, self.least,
                                            self.undo, self.stack)
        for g in gs:
            stack.append((g, is_a, len(undo)))
            for a, b in self.groups[g]:
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
                    undo.append((b, least[a]))
                    if least[b] < least[a]:
                        least[a] = least[b]

    def _rollback(self, mark: int) -> None:
        """Undo the merges after the first `mark`, newest first."""
        parent, size, least, undo = self.parent, self.size, self.least, self.undo
        while len(undo) > mark:
            rb, old = undo.pop()
            ra = parent[rb]
            parent[rb] = rb
            size[ra] -= size[rb]
            least[ra] = old

    def slide(self, lo: int, hi: int) -> None:
        """Hold exactly the unions of groups[lo:hi]. Neither end may move
        back from the held window's. Asking for the held window returns
        at once, with nothing undone or redone."""
        if lo == self.lo and hi == self.hi:
            return
        held, end, stack, n_a = self.lo, self.hi, self.stack, self.n_a
        if not held <= lo <= hi or hi < end:
            raise InternalError(f"window [{lo}, {hi}) moves back from the held "
                                f"window [{held}, {end})")
        if lo >= end:           # nothing held stays: start from an empty stack
            self._rollback(0)
            stack.clear()
            n_a, held, end = 0, lo, lo
        while held < lo:
            if not n_a:
                # redo every group that stays as A, newest first
                self._rollback(0)
                stack.clear()
                self._push(range(end - 1, lo - 1, -1), True)
                n_a = end - lo
                break
            if stack[-1][1]:    # the top A entry is the oldest group
                self._rollback(stack.pop()[2])
            else:
                # take entries off, the top one a B, until as many A as B
                # are off or every A is; redo the B entries, then the A
                # entries but the oldest (the topmost), each in its
                # original order
                i, a, b = len(stack) - 1, 0, 1
                while a < b and a < n_a:
                    i -= 1
                    if stack[i][1]:
                        a += 1
                    else:
                        b += 1
                off = stack[i:]
                del stack[i:]
                self._rollback(off[0][2])
                self._push([g for g, is_a, _ in off if not is_a], False)
                if a > 1:
                    self._push([g for g, is_a, _ in off if is_a][:-1], True)
            n_a -= 1
            held += 1
        if end < hi:
            self._push(range(end, hi), False)
        self.lo, self.hi, self.n_a = lo, hi, n_a


def make_forest(n_cells: int, groups: list[list[tuple[int, int]]]) -> RollbackUnionFind:
    """The connectivity structure behind the smoothing sweep, sliding over
    `groups`. The sweep looks this name up at each call, so a profiler
    can wrap what it returns."""
    return RollbackUnionFind(n_cells, groups)


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
