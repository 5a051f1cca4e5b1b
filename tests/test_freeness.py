import gc
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from rtdensity import (
    SimpleGraph,
    WeightedGraph,
    complete_balanced,
    h_density,
    is_ckt_free,
    ks_density,
    max_weighted_clique_score,
    realize_spec,
    round_edges_up,
    threshold_subgraph,
    uniform_assignment,
)
from rtdensity.partitions import enumerate_specs


def brute_force_score(g: WeightedGraph) -> int:
    """Max |S1| + |S2| by direct enumeration of every pair S2 <= S1."""
    pos = threshold_subgraph(g, 0)
    half = threshold_subgraph(g, F(1, 2))
    best = 0
    n = g.n
    for size1 in range(1, n + 1):
        for s1 in combinations(range(n), size1):
            if not all(pos.has_edge(u, v) for u, v in combinations(s1, 2)):
                continue
            for size2 in range(1, size1 + 1):
                for s2 in combinations(s1, size2):
                    if all(half.has_edge(u, v) for u, v in combinations(s2, 2)):
                        best = max(best, size1 + size2)
    return best


def uniform_triangle():
    return WeightedGraph.build(
        [F(1, 3)] * 3, {(0, 1): F(1, 2), (0, 2): F(1, 2), (1, 2): F(1, 2)}
    )


def test_score_examples():
    score, w = max_weighted_clique_score(complete_balanced(5))
    assert score == 10
    assert w.s1 == (0, 1, 2, 3, 4) and w.s2 == (0, 1, 2, 3, 4)
    score, w = max_weighted_clique_score(uniform_triangle())
    assert score == 4
    assert len(w.s1) == 3 and len(w.s2) == 1
    single = WeightedGraph.build([F(1)], {})
    assert max_weighted_clique_score(single)[0] == 2


def test_score_matches_brute_force(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        assert max_weighted_clique_score(g)[0] == brute_force_score(g)


def test_is_ckt_free_examples():
    k5 = complete_balanced(5)
    assert is_ckt_free(k5, 11).free
    res = is_ckt_free(k5, 10)
    assert not res.free and res.witness.score == 10 and res.trimmed.score == 10

    g = WeightedGraph.build(
        [F(1, 3)] * 3, {(0, 1): F(1), (0, 2): F(1, 2), (1, 2): F(1, 2)}
    )
    res = is_ckt_free(g, 5)
    assert not res.free
    assert res.trimmed.score == 5
    assert len(res.trimmed.s1) == 3 and len(res.trimmed.s2) == 2


def test_recursive_searches_leave_no_reference_cycles():
    k5 = complete_balanced(5)
    gc.collect()
    gc.disable()
    try:
        assert is_ckt_free(k5, 10).trimmed.score == 10
        assert gc.collect() == 0
        assert ks_density(k5, 3) == h_density(k5, SimpleGraph.complete(3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_is_ckt_free_agrees_with_enumeration(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        score = brute_force_score(g)
        for t in range(2, score + 3):
            assert is_ckt_free(g, t).free == (score < t)


def test_freeness_monotone_in_t(rng):
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6))
        for t in range(2, 10):
            if is_ckt_free(g, t).free:
                assert all(is_ckt_free(g, tp).free for tp in range(t, 12))
                break


@st.composite
def weighted_graphs_with_raise(draw):
    """A weighted graph and a copy whose edge weights are each at least as high."""
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    # edge weights in quarters; each pair is raised by 0 to 4 quarters, capped at 1
    quarters = st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs))
    low, lift = draw(quarters), draw(quarters)
    high = [min(4, k + d) for k, d in zip(low, lift)]
    return tuple(
        WeightedGraph.build([F(1, n)] * n, {pair: F(k, 4) for pair, k in zip(pairs, ks)})
        for ks in (low, high)
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(weighted_graphs_with_raise())
def test_score_monotone_in_edge_weights(graphs):
    low, high = graphs
    assert max_weighted_clique_score(low)[0] <= max_weighted_clique_score(high)[0]


def test_rounding_preserves_score(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        assert (
            max_weighted_clique_score(round_edges_up(g))[0]
            == max_weighted_clique_score(g)[0]
        )


def test_partition_graphs_score_exactly_a_plus_b(rng):
    for s, t in [(2, 5), (3, 6), (3, 8), (4, 9), (5, 10), (5, 11)]:
        for spec in enumerate_specs(s, t):
            g = realize_spec(spec, uniform_assignment(spec))
            score, _ = max_weighted_clique_score(g)
            assert score == spec.a + spec.b == t - 1


def test_trimmed_witness_is_valid_and_lex_least():
    # one raised edge: score 10 via S1 = everything, S2 = the weight-1 edge
    edges = {}
    for u in range(6):
        for v in range(u + 1, 6):
            edges[(u, v)] = F(1, 2)
    edges[(2, 4)] = F(1)
    g = WeightedGraph.build([F(1, 6)] * 6, edges)
    res = is_ckt_free(g, 8)
    assert not res.free
    trimmed = res.trimmed
    assert trimmed.score == 8
    pos = threshold_subgraph(g, 0)
    half = threshold_subgraph(g, F(1, 2))
    assert set(trimmed.s2) <= set(trimmed.s1)
    assert all(pos.has_edge(u, v) for u, v in combinations(trimmed.s1, 2))
    assert all(half.has_edge(u, v) for u, v in combinations(trimmed.s2, 2))
    # lexicographically least: S1 starts at the smallest vertices
    assert trimmed.s1[:2] == (0, 1)


def brute_force_trimmed(g: WeightedGraph, t: int):
    """Least (S1, S2) of score exactly t over every valid pair, or None."""
    pos = threshold_subgraph(g, 0)
    half = threshold_subgraph(g, F(1, 2))
    pairs = [
        (s1, s2)
        for size1 in range(1, t)
        for s1 in combinations(range(g.n), size1)
        if all(pos.has_edge(u, v) for u, v in combinations(s1, 2))
        for s2 in combinations(s1, t - size1)
        if all(half.has_edge(u, v) for u, v in combinations(s2, 2))
    ]
    return min(pairs, default=None)


def test_trimmed_witness_matches_brute_force_minimum(rng):
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 7))
        for t in range(2, 2 * g.n + 2):
            res = is_ckt_free(g, t)
            want = brute_force_trimmed(g, t)
            assert res.free == (want is None)
            got = None if res.trimmed is None else (res.trimmed.s1, res.trimmed.s2)
            assert got == want


def test_domain_errors():
    g = uniform_triangle()
    with pytest.raises(ValueError):
        is_ckt_free(g, 1)
    empty = WeightedGraph((), ())
    with pytest.raises(ValueError):
        max_weighted_clique_score(empty)
