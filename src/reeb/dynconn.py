"""Weighted spanning forests under timed deletions.

Both structures below maintain a spanning forest of a graph whose edges
carry weights equal to their scheduled deletion times. As long as edges
are deleted in nondecreasing weight order, the `insert` rule (replace
the minimum-weight edge on the cycle a new edge would close, when that
minimum is strictly smaller) keeps the forest maximum-weight, so a
deleted edge that is absent from the forest never needs a replacement
search: any cycle it once closed survives it.

`NaiveDynForest` stores explicit parent pointers and answers path
queries by walking; `LinkCutForest` keeps the same interface in
amortised logarithmic time via splay-based link-cut trees with lazy path
reversal. Edges are materialised as forest nodes sitting between their
endpoints so that the minimum query can name the edge it found.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ForestError, InternalError


class _ForestBase:
    """Shared high-level operations; subclasses provide the primitives."""

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

    def connected(self, x1: str, x2: str) -> bool:
        return self.find(x1) == self.find(x2)

    def component(self, x: str) -> frozenset[str]:
        """Every node in x's tree, read from the subclass's adjacency
        mirror `_adj`."""
        seen = {x}
        stack = [x]
        while stack:
            cur = stack.pop()
            for nbr in self._adj[cur]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return frozenset(seen)


class NaiveDynForest(_ForestBase):
    """Reference implementation: parent pointers plus an adjacency mirror,
    every operation by direct walking."""

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

    def root(self, x: str) -> str:
        while True:
            rel = self._up[x]
            if rel is None:
                return x
            x = rel[0]

    find = root

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
        if self.root(x1) == self.root(x2):
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


class _LctNode:
    __slots__ = ("id", "weight", "left", "right", "parent", "flip",
                 "min_weight", "min_node")

    def __init__(self, node_id, weight):
        self.id = node_id
        self.weight = weight          # None for endpoint nodes
        self.left = None
        self.right = None
        self.parent = None
        self.flip = False
        self.min_weight = weight
        self.min_node = self if weight is not None else None


class LinkCutForest(_ForestBase):
    """Splay-based link-cut trees with lazy path reversal and a path
    minimum aggregate. Each forest edge is its own tree node wedged between
    its endpoints, carrying the edge weight."""

    def __init__(self):
        self._nodes: dict[str, _LctNode] = {}
        self._edges: dict[frozenset[str], _LctNode] = {}
        self._adj: dict[str, set[str]] = {}

    # -- splay machinery ----------------------------------------------

    @staticmethod
    def _is_splay_root(x: _LctNode) -> bool:
        p = x.parent
        return p is None or (p.left is not x and p.right is not x)

    @staticmethod
    def _push(x: _LctNode) -> None:
        if x.flip:
            x.left, x.right = x.right, x.left
            if x.left is not None:
                x.left.flip = not x.left.flip
            if x.right is not None:
                x.right.flip = not x.right.flip
            x.flip = False

    @staticmethod
    def _pull(x: _LctNode) -> None:
        mw, mn = x.weight, (x if x.weight is not None else None)
        lt = x.left
        if lt is not None and lt.min_weight is not None:
            if mw is None or lt.min_weight < mw:
                mw, mn = lt.min_weight, lt.min_node
        rt = x.right
        if rt is not None and rt.min_weight is not None:
            if mw is None or rt.min_weight < mw:
                mw, mn = rt.min_weight, rt.min_node
        x.min_weight, x.min_node = mw, mn

    def _rotate(self, x: _LctNode) -> None:
        p = x.parent
        g = p.parent
        if p.left is x:
            p.left = x.right
            if x.right is not None:
                x.right.parent = p
            x.right = p
        else:
            p.right = x.left
            if x.left is not None:
                x.left.parent = p
            x.left = p
        p.parent = x
        x.parent = g
        if g is not None:
            if g.left is p:
                g.left = x
            elif g.right is p:
                g.right = x
            # otherwise p was a path child; x inherits the pointer as-is
        self._pull(p)
        self._pull(x)

    def _splay(self, x: _LctNode) -> None:
        chain = [x]
        cur = x
        while not self._is_splay_root(cur):
            cur = cur.parent
            chain.append(cur)
        for nd in reversed(chain):
            self._push(nd)
        while not self._is_splay_root(x):
            p = x.parent
            if self._is_splay_root(p):
                self._rotate(x)
            else:
                g = p.parent
                if (g.left is p) == (p.left is x):
                    self._rotate(p)
                    self._rotate(x)
                else:
                    self._rotate(x)
                    self._rotate(x)

    def _access(self, x: _LctNode) -> None:
        self._splay(x)
        if x.right is not None:
            x.right = None
            self._pull(x)
        while x.parent is not None:
            y = x.parent
            self._splay(y)
            y.right = x
            self._pull(y)
            self._rotate(x)
        # x is now the root of its splay tree and holds the whole
        # root-to-x path, with x rightmost

    def _make_root(self, x: _LctNode) -> None:
        self._access(x)
        x.flip = not x.flip
        self._push(x)

    def _leftmost(self, x: _LctNode) -> _LctNode:
        self._push(x)
        while x.left is not None:
            x = x.left
            self._push(x)
        return x

    def _find_root(self, x: _LctNode) -> _LctNode:
        self._access(x)
        r = self._leftmost(x)
        self._splay(r)
        return r

    # -- public interface ----------------------------------------------

    def add_node(self, x: str) -> None:
        if x in self._nodes:
            raise ForestError(f"node {x!r} already present")
        self._nodes[x] = _LctNode(x, None)
        self._adj[x] = set()

    def remove_node(self, x: str) -> None:
        if self._adj[x]:
            raise ForestError(f"node {x!r} still has edges")
        nd = self._nodes[x]
        self._access(nd)
        if nd.left is not None or nd.right is not None:
            raise InternalError(f"edgeless node {x!r} still has a path in its splay tree")
        del self._nodes[x]
        del self._adj[x]

    def has_node(self, x: str) -> bool:
        return x in self._nodes

    def has_edge(self, x1: str, x2: str) -> bool:
        return frozenset((x1, x2)) in self._edges

    def find(self, x: str) -> str:
        return self._find_root(self._nodes[x]).id

    root = find

    def evert(self, x: str) -> None:
        self._make_root(self._nodes[x])

    def parent(self, x: str) -> str | None:
        nd = self._nodes[x]
        self._access(nd)
        if nd.left is None:
            return None
        edge = self._rightmost(nd.left)
        self._splay(edge)
        if edge.left is None:
            raise InternalError(f"edge {sorted(edge.id)} above {x!r} has no "
                                "upper endpoint")
        return self._rightmost(edge.left).id

    def _rightmost(self, x: _LctNode) -> _LctNode:
        self._push(x)
        while x.right is not None:
            x = x.right
            self._push(x)
        return x

    def link(self, x1: str, x2: str, weight: Fraction) -> None:
        n1, n2 = self._nodes[x1], self._nodes[x2]
        if self._find_root(n1) is self._find_root(n2):
            raise ForestError(f"linking {x1!r}-{x2!r} would close a cycle")
        key = frozenset((x1, x2))
        edge = _LctNode(key, weight)
        self._edges[key] = edge
        self._adj[x1].add(x2)
        self._adj[x2].add(x1)
        self._make_root(n1)
        n1.parent = edge
        edge.parent = n2

    def cut(self, x1: str, x2: str) -> None:
        key = frozenset((x1, x2))
        edge = self._edges.get(key)
        if edge is None:
            raise ForestError(f"no edge {x1!r}-{x2!r}")
        self._make_root(self._nodes[x1])
        self._access(self._nodes[x2])
        self._splay(edge)
        self._push(edge)
        if edge.left is not None:
            edge.left.parent = None
            edge.left = None
        if edge.right is not None:
            edge.right.parent = None
            edge.right = None
        self._pull(edge)
        del self._edges[key]
        self._adj[x1].discard(x2)
        self._adj[x2].discard(x1)

    def min_weight(self, x: str) -> tuple[str, Fraction] | None:
        """Minimum-weight edge on the path from x to the current root,
        reported as (endpoint farther from the root, weight)."""
        nd = self._nodes[x]
        self._access(nd)
        if nd.min_weight is None:
            return None
        edge = nd.min_node
        self._splay(edge)
        self._push(edge)
        if edge.right is None:
            raise InternalError(f"minimum edge {sorted(edge.id)} on the path from "
                                f"{x!r} has no lower endpoint")
        below = self._leftmost(edge.right)
        return (below.id, edge.weight)

    def forest_edges(self) -> set[frozenset[str]]:
        return set(self._edges)


def make_forest(kind: str = "lct") -> _ForestBase:
    if kind == "lct":
        return LinkCutForest()
    if kind == "naive":
        return NaiveDynForest()
    raise ValueError(f"unknown forest kind {kind!r}")
