import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb import (ForestError, InternalError, NaiveDynForest,
                  RollbackUnionFind, make_forest)
from reeb.unionfind import UnionFind


def kruskal_max(nodes, edges):
    """Maximum-weight spanning forest weight by sorting; weights distinct."""
    uf = UnionFind()
    for x in nodes:
        uf.add(x)
    total = Fraction(0)
    for (a, b), w in sorted(edges.items(), key=lambda kv: kv[1], reverse=True):
        if uf.find(a) != uf.find(b):
            uf.union(a, b)
            total += w
    return total


def partition(nodes, find):
    groups = {}
    for x in nodes:
        groups.setdefault(find(x), set()).add(x)
    return sorted(frozenset(s) for s in groups.values())


def drive(forest_class, seed, steps, max_nodes, check_every=1):
    """Random contract-respecting op stream: edges carry their scheduled
    deletion time as weight, and deletions always take the minimum-weight
    alive edge, so weights leave in nondecreasing order."""
    rng = random.Random(seed)
    forest = forest_class()
    alive = {}                      # frozen pair -> weight
    nodes = []
    clock = Fraction(0)
    serial = 0

    for step in range(steps):
        ops = ["insert", "insert", "query"]
        if alive:
            ops.append("delete")
        if len(nodes) < max_nodes:
            ops += ["add"] * 2
        op = rng.choice(ops)

        if op == "add" or len(nodes) < 2:
            x = f"n{len(nodes)}"
            forest.add_node(x)
            nodes.append(x)
        elif op == "insert":
            a, b = rng.sample(nodes, 2)
            if frozenset((a, b)) in alive:
                continue
            serial += 1
            w = clock + rng.randint(1, 30) + Fraction(serial, 10 ** 6)
            forest.insert(a, b, w)
            alive[frozenset((a, b))] = w
        elif op == "delete":
            pair = min(alive, key=alive.get)
            w = alive.pop(pair)
            clock = max(clock, w)
            a, b = sorted(pair)
            forest.delete(a, b)
        # query op: nothing to mutate, the checks below are the query

        if step % check_every:
            continue
        uf = UnionFind()
        for x in nodes:
            uf.add(x)
        for a, b in alive:
            uf.union(a, b)
        assert partition(nodes, forest.find) == partition(nodes, uf.find), \
            (seed, step)
        kept = forest.forest_edges()
        assert all(frozenset(p) in alive for p in kept)
        got = sum(alive[frozenset(p)] for p in kept)
        assert got == kruskal_max(nodes, alive), (seed, step)
    return len(nodes), len(alive)


@pytest.mark.parametrize("forest_class", [NaiveDynForest], ids=["naive"])
def test_forest_matches_brute_force(forest_class):
    for seed in (1, 2, 3):
        drive(forest_class, seed, steps=400, max_nodes=30)


@pytest.mark.parametrize("forest_class", [NaiveDynForest], ids=["naive"])
def test_tie_weights_within_a_batch(forest_class):
    # equal-weight edges may be deleted in any order as long as the whole
    # batch goes before the next query
    forest = forest_class()
    for x in "abc":
        forest.add_node(x)
    w = Fraction(5)
    forest.insert("a", "b", w)
    forest.insert("b", "c", w)
    forest.insert("a", "c", w)         # discarded: cycle min equals weight
    forest.delete("a", "b")
    forest.delete("b", "c")
    forest.delete("a", "c")
    assert not forest.connected("a", "b")
    assert forest.forest_edges() == set()


@pytest.mark.parametrize("forest_class", [NaiveDynForest], ids=["naive"])
def test_basic_shape(forest_class):
    forest = forest_class()
    for x in ("a", "b", "c", "d"):
        forest.add_node(x)
    assert forest.insert("a", "b", Fraction(3))
    assert forest.insert("c", "d", Fraction(4))
    assert not forest.connected("a", "c")
    assert forest.insert("b", "c", Fraction(5))
    assert forest.connected("a", "d")
    # closing a cycle with a heavier edge swaps out the cycle minimum
    assert forest.insert("a", "d", Fraction(6))
    assert not forest.has_edge("a", "b")
    assert forest.connected("a", "b")
    # and with a lighter one leaves the forest alone
    assert not forest.insert("a", "c", Fraction(2))
    assert forest.component("a") == frozenset("abcd")


@pytest.mark.parametrize("forest_class", [NaiveDynForest], ids=["naive"])
def test_error_paths(forest_class):
    forest = forest_class()
    forest.add_node("a")
    with pytest.raises(ForestError):
        forest.add_node("a")
    forest.add_node("b")
    forest.insert("a", "b", Fraction(1))
    with pytest.raises(ForestError):
        forest.insert("a", "b", Fraction(2))
    with pytest.raises(ForestError):
        forest.remove_node("a")
    forest.delete("a", "b")
    forest.delete("a", "b")            # absent edges are ignored
    forest.remove_node("a")
    assert not forest.has_node("a")


def forward_windows(rng, n_groups, steps):
    """Random windows [lo, hi) of n_groups groups whose two ends only move
    forward; now and then a window starts at or past the last one's end."""
    lo = hi = 0
    for _ in range(steps):
        if rng.random() < 0.1:
            lo = min(n_groups, hi + rng.randint(0, 3))
            hi = min(n_groups, lo + rng.randint(0, 4))
        else:
            hi = min(n_groups, hi + rng.choice((0, 0, 1, 1, 2, 5)))
            lo = min(hi, lo + rng.choice((0, 0, 1, 1, 2, 5)))
        yield lo, hi


def assert_holds(uf, n, groups, lo, hi):
    """uf's classes and least cells are those of the links of groups[lo:hi]."""
    fresh = UnionFind(range(n))
    for group in groups[lo:hi]:
        for a, b in group:
            fresh.union(a, b)
    assert partition(range(n), uf.find) == partition(range(n), fresh.find), (lo, hi)
    for x in range(n):
        root = fresh.find(x)
        assert uf.least[uf.find(x)] == min(y for y in range(n) if fresh.find(y) == root)


def assert_empty(uf, n):
    assert uf.stack == [] and uf.undo == []
    assert uf.parent == list(range(n)) and uf.size == [1] * n and uf.least == list(range(n))


@pytest.mark.parametrize("n_groups", [0, 1, 2, 5, 8, 13])
def test_slide_holds_exactly_the_window_groups(n_groups):
    rng = random.Random(n_groups)
    n = 12
    groups = [[(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
              for _ in range(n_groups)]
    uf = make_forest(n, groups)
    assert isinstance(uf, RollbackUnionFind)
    for lo, hi in forward_windows(rng, n_groups, 4 * n_groups + 2):
        uf.slide(lo, hi)
        assert_holds(uf, n, groups, lo, hi)
    uf.slide(n_groups, n_groups)
    assert_empty(uf, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_slide_with_many_links_per_group(seed):
    # a few cells and groups of many links (as a slot's links share one
    # group in the sweep), some links repeated or joining a cell to itself
    rng = random.Random(seed)
    n, n_groups = rng.randint(1, 15), rng.randint(1, 40)
    groups = [[(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
              for _ in range(n_groups)]
    uf = RollbackUnionFind(n, groups)
    for lo, hi in forward_windows(rng, n_groups, rng.randint(1, 3 * n_groups)):
        uf.slide(lo, hi)
        assert_holds(uf, n, groups, lo, hi)
    uf.slide(n_groups, n_groups)
    assert_empty(uf, n)


def test_rollback_restores_every_component_exactly():
    # after every slide the groups that left hold nothing: a cell in no
    # held link is a singleton with its own size and least cell, each
    # held group sits on the stack once, and each merge is one undo entry
    rng = random.Random(7)
    n, n_groups = 40, 300
    groups = [[(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2))]
              for _ in range(n_groups)]
    uf = RollbackUnionFind(n, groups)
    for lo, hi in forward_windows(rng, n_groups, 1000):
        uf.slide(lo, hi)
        held = {c for group in groups[lo:hi] for link in group for c in link}
        for x in set(range(n)) - held:
            assert (uf.parent[x], uf.size[x], uf.least[x]) == (x, 1, x), (lo, hi)
        classes = partition(range(n), uf.find)
        for members in classes:
            root = uf.find(next(iter(members)))
            assert uf.size[root] == len(members) and uf.least[root] == min(members)
        assert sorted(g for g, _, _ in uf.stack) == list(range(lo, hi))
        marks = [mark for _, _, mark in uf.stack]
        assert marks == sorted(marks) and all(m <= len(uf.undo) for m in marks)
        assert len(uf.undo) == n - len(classes)
        assert uf.n_a == sum(is_a for _, is_a, _ in uf.stack)


def test_slide_refuses_a_window_that_moves_back():
    uf = RollbackUnionFind(3, [[(0, 1)], [(1, 2)], [], [(0, 2)], []])
    uf.slide(2, 4)
    for lo, hi in ((1, 4), (2, 3), (3, 2)):
        with pytest.raises(InternalError, match=re.escape(
                f"window [{lo}, {hi}) moves back from the held window [2, 4)")):
            uf.slide(lo, hi)
    uf.slide(5, 5)
    assert_empty(uf, 3)


def test_min_weight_names_the_edge():
    forest = NaiveDynForest()
    for x in ("a", "b", "c"):
        forest.add_node(x)
    forest.insert("a", "b", Fraction(7))
    forest.insert("b", "c", Fraction(2))
    forest.evert("a")
    node, w = forest.min_weight("c")
    assert w == Fraction(2)
