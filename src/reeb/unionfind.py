"""Union-find over arbitrary hashable keys, with deterministic component
reporting (components are listed in first-seen key order, members sorted)."""

from __future__ import annotations


class UnionFind:
    def __init__(self, keys=()):
        self._parent: dict = {}
        self._rank: dict = {}
        self._order: list = []
        for k in keys:
            self.add(k)

    def add(self, key) -> None:
        if key not in self._parent:
            self._parent[key] = key
            self._rank[key] = 0
            self._order.append(key)

    def find(self, key):
        parent = self._parent
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a, b) -> bool:
        """Merge the classes of a and b. Returns True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def groups(self) -> list[list]:
        """All classes, each sorted, ordered by first insertion of any member."""
        seen: dict = {}
        for key in self._order:
            seen.setdefault(self.find(key), []).append(key)
        return [sorted(members) for members in seen.values()]
