"""Isomorphism search between graphs over the real line.

Two graphs are isomorphic exactly when their reduced forms admit a
level-by-level vertex bijection (and slot-by-slot edge bijection)
commuting with the attach maps. The search below backtracks over vertex
assignments one level at a time; edges never need backtracking because
once both endpoint levels are matched, parallel edges between a matched
endpoint pair can be paired off arbitrarily.

The backtracking engine, `levelwise_assignments`, also drives the
interleaving search's enumeration of candidate maps. Every search spends
one `NodeBudget`: a budget given as a count gets a fresh meter, and a
meter already being spent, as by an interleaving probe, is spent on.
"""

from __future__ import annotations

from .core import RGraph, reduce
from .errors import BudgetExceeded, InternalError, ValidationError
from .morphism import (RGraphMorphism, compose, levelwise_morphism,
                       reduce_collapse, reduce_embed)


class NodeBudget:
    """Counts search nodes; raises BudgetExceeded with the given message
    once more than `limit`, a nonnegative int, have been spent."""

    def __init__(self, limit: int, message: str):
        check_budget(limit)
        self.limit = limit
        self.message = message
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(self.message)


def check_budget(budget) -> None:
    """Reject a node budget that is not a nonnegative int. Zero is a
    budget: a rank refutation spends no nodes."""
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValidationError(f"node budget must be a nonnegative integer, got {budget!r}")


def _meter(budget) -> NodeBudget:
    """budget itself if it is a meter already being spent, else a fresh one."""
    if isinstance(budget, NodeBudget):
        return budget
    return NodeBudget(budget, f"isomorphism search exceeded {budget} nodes")


_EXHAUSTED = object()


def levelwise_assignments(g: RGraph, candidates, budget: NodeBudget):
    """Yield every assignment of g's vertices that takes each vertex's
    value from candidates(level, vertex, assignment so far).

    Vertices are assigned level by level from the bottom up, in stored
    order within a level, so a vertex's lower neighbours are always
    assigned when its candidates are asked for. The search keeps an
    explicit stack of candidate iterators, so its depth is not bounded by
    the recursion limit. Each value tried costs one budget node.

    The yielded dict is the live assignment: copy it to keep it. A
    candidate iterator is resumed only after every vertex after its own
    has been unassigned, so a generator may keep state across its
    yields."""
    order = g.vertex_ids
    level = g.vertex_level
    assignment: dict[str, str] = {}
    if not order:
        yield assignment
        return
    last = len(order) - 1
    stack = [iter(candidates(level[order[0]], order[0], assignment))]
    while stack:
        k = len(stack) - 1
        v = order[k]
        w = next(stack[k], _EXHAUSTED)
        if w is _EXHAUSTED:
            stack.pop()
            assignment.pop(v, None)
            continue
        budget.spend()
        assignment[v] = w
        if k == last:
            yield assignment
        else:
            u = order[k + 1]
            stack.append(iter(candidates(level[u], u, assignment)))


def levelwise_bijections(ga: RGraph, gb: RGraph, budget: int | NodeBudget = 200_000):
    """Search for per-level vertex bijections and per-slot edge bijections
    commuting with the attach maps. Returns (vertex_maps, edge_maps) or
    None; raises BudgetExceeded when the node budget runs out."""
    meter = _meter(budget)
    if (ga.criticals != gb.criticals or list(map(len, ga.levels)) != list(map(len, gb.levels))
            or list(map(len, ga.slots)) != list(map(len, gb.slots))):
        return None
    n = ga.n_levels

    def sig(g, v):
        return (g.down_degree(v), g.up_degree(v))

    for i in range(n):
        if sorted(sig(ga, v) for v in ga.levels[i]) != \
           sorted(sig(gb, w) for w in gb.levels[i]):
            return None

    def lower_ok(i, v, w, vmap):
        # every already-matched lower neighbour must contribute the same
        # number of parallel edges on both sides; equal down-degrees then
        # rule out unmatched extras
        if i == 0:
            return True
        j = i - 1
        for e in ga.below_edges[v]:
            u = ga.down[j][e]
            if len(ga.edge_groups[j][(u, v)]) != \
               len(gb.edge_groups[j].get((vmap[u], w), ())):
                return False
        return True

    used: set[str] = set()

    def candidates(i, v, vmap):
        sv = sig(ga, v)
        for w in gb.levels[i]:
            if w in used or sig(gb, w) != sv or not lower_ok(i, v, w, vmap):
                continue
            used.add(w)
            yield w
            used.discard(w)

    vmap = next(levelwise_assignments(ga, candidates, meter), None)
    if vmap is None:
        return None

    emaps: list[dict[str, str]] = []
    for j in range(ga.n_slots):
        groups_b = gb.edge_groups[j]
        m: dict[str, str] = {}
        for (d, u), eas in ga.edge_groups[j].items():
            ebs = groups_b.get((vmap[d], vmap[u]), ())
            if len(eas) != len(ebs):
                raise InternalError(
                    f"slot {j}: {len(eas)} edges {d!r}-{u!r} matched to "
                    f"{len(ebs)} edges {vmap[d]!r}-{vmap[u]!r}")
            m.update(zip(eas, ebs))
        emaps.append(m)

    vmaps = [{v: vmap[v] for v in ga.levels[i]} for i in range(n)]
    return vmaps, emaps


def is_isomorphic(g: RGraph, h: RGraph,
                  budget: int | NodeBudget = 200_000) -> RGraphMorphism | None:
    """An isomorphism g -> h, or None when there is none. Works on the
    reduced forms, so presentations differing only by removable levels
    still compare equal."""
    meter = _meter(budget)
    rg = reduce(g)
    rh = reduce(h)
    found = levelwise_bijections(rg.graph, rh.graph, meter)
    if found is None:
        return None
    vmaps, emaps = found
    core = levelwise_morphism(rg.graph, rh.graph, vmaps, emaps)
    return compose(compose(reduce_collapse(g, rg), core), reduce_embed(h, rh))
