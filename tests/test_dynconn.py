import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb import ForestError, NaiveDynForest, RollbackUnionFind, make_forest
from reeb.dynconn import walk_positions
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


def test_rollback_restores_every_component_exactly():
    # a random stream of unions and rollbacks, checked at every step
    # against a UnionFind built afresh from the unions still in force
    rng = random.Random(7)
    n = 40
    uf = make_forest(n)
    assert isinstance(uf, RollbackUnionFind)
    merged = []                   # the pairs whose union merged two classes

    def state():
        return list(uf.parent), list(uf.size), list(uf.least)

    snapshots = [state()]
    fresh = UnionFind(range(n))
    for step in range(3000):
        if merged and rng.random() < 0.3:
            count = rng.randint(1, min(len(merged), 6))
            uf.rollback(count)
            del merged[len(merged) - count:]
            del snapshots[len(snapshots) - count:]
            # parents, sizes and least cells read exactly as before those unions
            assert state() == snapshots[-1], step
        else:
            a, b = rng.randrange(n), rng.randrange(n)
            merges = uf.union(a, b)
            assert merges == (fresh.find(a) != fresh.find(b)), step
            if merges:
                merged.append((a, b))
                snapshots.append(state())
        fresh = UnionFind(range(n))
        for x, y in merged:
            fresh.union(x, y)
        assert partition(range(n), uf.find) == partition(range(n), fresh.find), step
        for x in range(n):
            root = fresh.find(x)
            assert uf.least[uf.find(x)] == min(y for y in range(n) if fresh.find(y) == root)
    assert len(uf.undo) == len(merged)


@pytest.mark.parametrize("n_positions", [0, 1, 2, 5, 8, 13])
def test_walk_positions_holds_exactly_the_live_links(n_positions):
    rng = random.Random(n_positions)
    n = 12
    links = []
    for _ in range(3 * n_positions):
        first = rng.randrange(n_positions)
        last = rng.randrange(first, n_positions)
        links.append((first, last, rng.randrange(n), rng.randrange(n)))
    uf = RollbackUnionFind(n)
    seen = []
    for p in walk_positions(uf, n_positions, links):
        seen.append(p)
        fresh = UnionFind(range(n))
        for first, last, a, b in links:
            if first <= p <= last:
                fresh.union(a, b)
        assert partition(range(n), uf.find) == partition(range(n), fresh.find), p
    assert seen == list(range(n_positions))
    assert uf.undo == [] and uf.parent == list(range(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_walk_positions_with_many_links_per_lifetime(seed):
    # a few lifetimes, each shared by many links (as the sweep's links of
    # one slot share theirs), some links repeated or joining a cell to itself
    rng = random.Random(seed)
    n, n_positions = rng.randint(1, 15), rng.randint(1, 40)
    links = []
    for _ in range(rng.randint(1, 5)):
        first = rng.randrange(n_positions)
        last = rng.randrange(first, n_positions)
        links += [(first, last, rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(1, 12))]
    rng.shuffle(links)
    uf = RollbackUnionFind(n)
    seen = []
    for p in walk_positions(uf, n_positions, links):
        seen.append(p)
        fresh = UnionFind(range(n))
        for first, last, a, b in links:
            if first <= p <= last:
                fresh.union(a, b)
        assert partition(range(n), uf.find) == partition(range(n), fresh.find), p
        for x in range(n):
            root = fresh.find(x)
            assert uf.least[uf.find(x)] == min(y for y in range(n) if fresh.find(y) == root)
    assert seen == list(range(n_positions))
    assert uf.undo == [] and uf.parent == list(range(n))
    assert uf.size == [1] * n and uf.least == list(range(n))


def test_min_weight_names_the_edge():
    forest = NaiveDynForest()
    for x in ("a", "b", "c"):
        forest.add_node(x)
    forest.insert("a", "b", Fraction(7))
    forest.insert("b", "c", Fraction(2))
    forest.evert("a")
    node, w = forest.min_weight("c")
    assert w == Fraction(2)
