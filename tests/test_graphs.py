import gc
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from rtdensity import WeightedGraph
from rtdensity.graphs import (
    SimpleGraph,
    bits,
    clique_number,
    color_order,
    greedy_clique_cover,
    greedy_independent_set,
    has_clique,
    independence_number,
    lex_cliques,
    max_clique,
    maximal_cliques,
)
from rtdensity.sphere import BEConfig, realize


def brute_clique_number(g: SimpleGraph) -> int:
    best = 0
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return k
    return best


def test_edges_lists_each_edge_once_in_order():
    rng = random.Random(3)
    for n in (0, 1, 2, 7, 9, 40):
        for density in (0.0, 0.3, 1.0):
            pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
            g = SimpleGraph.from_edges(n, pairs)
            assert g.edges() == pairs
            # the comprehension that visited every edge from both ends
            assert g.edges() == [(u, v) for u in range(n) for v in bits(g.adj[u]) if u < v]


def test_clique_number_examples():
    assert clique_number(SimpleGraph.complete(5)) == 5
    c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert clique_number(c5) == 2
    t24 = SimpleGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert clique_number(t24) == 2
    assert clique_number(SimpleGraph(0, ())) == 0
    assert clique_number(SimpleGraph(3, (0, 0, 0))) == 1


def test_max_clique_against_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.2, 0.5, 0.8])
        ]
        g = SimpleGraph.from_edges(n, edges)
        size, mask = max_clique(g.adj)
        assert size == brute_clique_number(g)
        members = [v for v in range(n) if mask >> v & 1]
        assert len(members) == size
        assert all(g.has_edge(u, v) for u, v in combinations(members, 2))


def test_has_clique_cutoff():
    g = SimpleGraph.complete(6)
    assert has_clique(g.adj, 6)
    assert not has_clique(g.adj, 7)
    assert has_clique(g.adj, 0)


def test_maximal_cliques_cover_all_edges():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = SimpleGraph.from_edges(n, edges)
        cliques = maximal_cliques(g.adj)
        # every vertex appears, every clique is a clique, none contains another
        union = 0
        for m in cliques:
            union |= m
            members = [v for v in range(n) if m >> v & 1]
            assert all(g.has_edge(u, v) for u, v in combinations(members, 2))
        assert union == (1 << n) - 1
        for a in cliques:
            for b in cliques:
                assert a == b or (a & b) != a


def test_lex_cliques_against_combinations():
    # the walk yields exactly the cliques C inside pool with |C| <= most whose
    # size plus candidates (pool vertices above max C joined to all of C)
    # reaches least, in sorted-tuple order: lexicographic, parents first
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 8)
        g = SimpleGraph.from_edges(
            n, [e for e in combinations(range(n), 2) if rng.random() < rng.choice([0.3, 0.6, 0.9])]
        )
        pool = rng.getrandbits(n) if rng.random() < 0.7 else (1 << n) - 1
        least, most = rng.randint(-1, n + 1), rng.randint(-1, n + 1)
        members = list(bits(pool))
        want = []
        for k in range(max(most, -1) + 1):
            for c in combinations(members, k):
                if not all(g.has_edge(u, v) for u, v in combinations(c, 2)):
                    continue
                cand = [w for w in members if w > max(c, default=-1) and all(g.has_edge(u, w) for u in c)]
                if k + len(cand) >= least:
                    want.append(c)
        got = list(lex_cliques(g.adj, pool, least, most))
        assert got == sorted(want)
        assert all(len(c) <= most for c in got)
        # nothing that can reach `least` is pruned
        for c in combinations(members, max(least, 0)):
            if max(least, 0) <= most and all(g.has_edge(u, v) for u, v in combinations(c, 2)):
                assert c in got


def first_fit(g: SimpleGraph) -> int:
    """Reference clique cover: each vertex joins the first clique it fits."""
    cliques: list[tuple[int, int]] = []  # (mask, common neighbourhood mask)
    for v in range(g.n):
        for i, (mask, common) in enumerate(cliques):
            if common >> v & 1:
                cliques[i] = (mask | 1 << v, common & g.adj[v])
                break
        else:
            cliques.append((1 << v, g.adj[v]))
    return len(cliques)


def assert_color_order_invariants(adj, p):
    order = color_order(adj, p)
    assert sorted(v for v, _ in order) == list(bits(p))
    colors = [c for _, c in order]
    assert colors == sorted(colors) and set(colors) == set(range(1, max(colors, default=0) + 1))
    for c in set(colors):
        members = [v for v, cv in order if cv == c]
        assert all(not adj[u] >> v & 1 for u, v in combinations(members, 2))


def test_independence_bounds():
    rng = random.Random(13)
    for density in (0.1, 0.4, 0.8):
        for _ in range(20):
            n = rng.randint(0, 40)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
            ]
            g = SimpleGraph.from_edges(n, edges)
            cover = greedy_clique_cover(g)
            assert cover == first_fit(g)
            assert len(greedy_independent_set(g)) <= independence_number(g) <= cover
            assert_color_order_invariants(g.adj, (1 << n) - 1)
            assert_color_order_invariants(g.adj, rng.getrandbits(n))
            assert_color_order_invariants(g.complement().adj, (1 << n) - 1)
    # a realization of the s = 5, t = 10 graph: six parts of 1/6, three half pairs
    edges = {(u, v): F(1) for u, v in combinations(range(6), 2)}
    for pair in [(0, 1), (2, 3), (4, 5)]:
        edges[pair] = F(1, 2)
    g = realize(WeightedGraph.build([F(1, 6)] * 6, edges), 300, BEConfig(0.2, 16, seed=7)).graph
    assert greedy_clique_cover(g) == first_fit(g)
    assert len(greedy_independent_set(g)) <= greedy_clique_cover(g)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 3)])


def test_clique_searches_leave_no_reference_cycles():
    # a recursive closure that keeps itself alive would hold adj until a GC pass
    rng = random.Random(11)
    g = SimpleGraph.from_edges(30, [e for e in combinations(range(30), 2) if rng.random() < 0.5])
    gc.collect()
    gc.disable()
    try:
        assert has_clique(g.adj, 4)
        assert gc.collect() == 0
        assert maximal_cliques(g.adj)
        assert gc.collect() == 0
        assert next(lex_cliques(g.adj, (1 << 30) - 1, 4, 4)) == ()
        assert gc.collect() == 0
    finally:
        gc.enable()
