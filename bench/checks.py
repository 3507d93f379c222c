"""Output checks for the benchmark, independent of the code they check
wherever that is possible. Each returns a list of failure messages
(empty when the output is right); none of them runs inside a timer.
"""

from __future__ import annotations

from fractions import Fraction


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x: str) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(a)] = self.find(b)

    def count(self) -> int:
        return sum(1 for x in self.parent if self.parent[x] == x)


def _components(vertices, edges) -> int:
    uf = _UnionFind()
    for v in vertices:
        uf.add(v)
    for a, b in edges:
        uf.union(a, b)
    return uf.count()


def _graph_records(text: str):
    """Vertex ids and (lo, hi) edge endpoints of a graph file."""
    vertices, edges = [], []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] == "vertex":
            vertices.append(toks[1])
        elif toks and toks[0] == "edge":
            edges.append((toks[2], toks[3]))
    return vertices, edges


def check_smoothing(text: str, values, eps: Fraction, parse, validate) -> list[str]:
    """The smoothed criticals are exactly (S - eps) | (S + eps) for the
    input's vertex values S, and the emitted graph re-parses and passes
    validation."""
    first = text.split("\n", 1)[0].split()
    if not first or first[0] != "criticals":
        return ["smoothed output does not start with its criticals"]
    got = [Fraction(t) for t in first[1:]]
    S = set(values.values())
    want = sorted({s - eps for s in S} | {s + eps for s in S})
    if got != want:
        return [f"smoothed criticals differ from S -/+ eps ({len(got)} vs {len(want)})"]
    report = validate(parse(text))
    if not report.ok:
        return ["smoothed graph fails validation: " + report.violations[0]]
    return []


def check_reeb(text: str, values, edges, parse, validate) -> list[str]:
    """The Reeb graph has as many components as the field's 1-skeleton,
    and it re-parses and passes validation."""
    want = _components(values, [(a, b) for _, a, b in edges])
    got = _components(*_graph_records(text))
    if got != want:
        return [f"Reeb graph has {got} components, the complex has {want}"]
    report = validate(parse(text))
    if not report.ok:
        return ["Reeb graph fails validation: " + report.violations[0]]
    return []


def check_probes(probes) -> list[str]:
    """Probes of one pair, as (radius, status, verified) in increasing
    radius, the last at the sup-norm distance delta. Every "found" carries
    a certificate the verifier accepts; at delta the stability theorem
    rules out "exhausted"; and outcomes are monotone in the radius: no
    "exhausted" above a "found"."""
    bad = []
    for eps, status, verified in probes:
        if status == "found" and not verified:
            bad.append(f"certificate found at {eps} fails verification")
        if status not in ("found", "exhausted", "budget"):
            bad.append(f"unknown search status {status!r} at {eps}")
    if probes and probes[-1][1] == "exhausted":
        bad.append(f"search refuted the stability radius {probes[-1][0]}")
    found_at = [eps for eps, status, _ in probes if status == "found"]
    if found_at and any(status == "exhausted" and eps > found_at[0]
                        for eps, status, _ in probes):
        bad.append("exhausted above a radius where a certificate was found")
    return bad
