import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from conftest import random_graph
from rtdensity import (
    WeightedGraph,
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    h_density,
    ks_density,
    ks_density_with,
    loads_graph,
    merge_zero_edge,
    round_edges_up,
    threshold_subgraph,
    validate,
)
from rtdensity.graphs import SimpleGraph
from rtdensity.weighted import EnumerationLimitError, GraphFormatError


def uniform_triangle(edge=F(1, 2)):
    return WeightedGraph.build(
        [F(1, 3)] * 3, {(0, 1): edge, (0, 2): edge, (1, 2): edge}
    )


def test_validate_accepts_valid_graph():
    g = WeightedGraph.build([F(1, 2), F(1, 2)], {(0, 1): F(1)})
    rep = validate(g)
    assert rep.ok and not rep.warnings


def test_validate_flags_bad_weight_sum():
    g = WeightedGraph.build([F(1, 2), F(1, 3)], {(0, 1): F(1)})
    rep = validate(g)
    assert not rep.ok
    assert any("5/6" in e for e in rep.errors)


def test_validate_flags_self_edge():
    g = WeightedGraph.build([F(1, 2), F(1, 2)], {})
    bad = WeightedGraph(g.vertex_weights, ((F(1, 2), F(0)), (F(0), F(0))))
    rep = validate(bad)
    assert any("w(0,0)" in e for e in rep.errors)


def test_validate_warns_on_zero_weight_vertex():
    g = WeightedGraph.build([F(1), F(0)], {(0, 1): F(1)})
    rep = validate(g)
    assert rep.ok
    assert any("zero weight" in w for w in rep.warnings)


def test_threshold_subgraph_strictness():
    g = WeightedGraph.build(
        [F(1, 3)] * 3, {(0, 1): F(1), (0, 2): F(1, 2), (1, 2): F(1, 2)}
    )
    assert threshold_subgraph(g, F(1, 2)).edges() == [(0, 1)]
    assert len(threshold_subgraph(g, 0).edges()) == 3
    assert threshold_subgraph(g, 1).edges() == []
    with pytest.raises(ValueError):
        threshold_subgraph(g, F(3, 2))


def test_h_density_single_edge():
    g = WeightedGraph.build([F(1, 2), F(1, 2)], {(0, 1): F(1)})
    k2 = SimpleGraph.complete(2)
    assert h_density(g, k2) == F(1, 2)


def test_h_density_isolated_vertices():
    g = random_graph(random.Random(3), 4)
    empty2 = SimpleGraph(2, (0, 0))
    assert h_density(g, empty2) == 1


def test_h_density_triangle():
    assert h_density(uniform_triangle(), SimpleGraph.complete(3)) == F(1, 36)


def test_h_density_refuses_oversized_enumeration():
    g = random_graph(random.Random(5), 10)
    with pytest.raises(EnumerationLimitError):
        h_density(g, SimpleGraph.complete(8))


def test_ks_density_examples():
    from rtdensity import complete_balanced

    k5 = complete_balanced(5)
    assert ks_density(k5, 5) == F(24, 625)
    assert ks_density(k5, 6) == 0
    assert ks_density(uniform_triangle(), 3) == F(1, 36)


def test_ks_matches_all_maps_oracle(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 5))
        s = rng.randint(0, 4)
        assert ks_density(g, s) == h_density(g, SimpleGraph.complete(s))


def test_ks_density_trivial_orders(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 5))
        assert ks_density(g, 0) == 1
        assert ks_density(g, 1) == 1


def test_ks_density_monotone_in_edge_weights(rng):
    for _ in range(20):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        s = rng.randint(2, n)
        base = ks_density(g, s)
        u = rng.randrange(n)
        v = (u + 1 + rng.randrange(n - 1)) % n
        w = g.edge_weights[u][v]
        raised = min(F(1), w + F(1, 3))
        mat = [list(row) for row in g.edge_weights]
        mat[u][v] = mat[v][u] = raised
        g2 = WeightedGraph(g.vertex_weights, tuple(tuple(r) for r in mat))
        assert ks_density(g2, s) >= base


def test_ks_density_with_modes():
    from rtdensity import complete_balanced

    k5 = complete_balanced(5)
    assert ks_density_with(k5, 5, range(5), "within") == ks_density(k5, 5)
    assert ks_density_with(k5, 2, range(5), "avoiding") == 0
    assert ks_density_with(k5, 5, [2], "containing") == F(24, 625)
    assert ks_density_with(k5, 3, range(5), "containing") == 0  # |S| > s


def test_ks_density_with_inclusion_exclusion(rng):
    # d(g, s) - avoiding(S) equals the signed sum of containing(T) over T in S
    for _ in range(20):
        n = rng.randint(3, 5)
        g = random_graph(rng, n)
        s = rng.randint(2, n)
        size = rng.randint(1, 3)
        subset = rng.sample(range(n), size)
        total = ks_density(g, s)
        avoiding = ks_density_with(g, s, subset, "avoiding")
        signed = F(0)
        for k in range(1, size + 1):
            for t_sub in combinations(subset, k):
                signed += (-1) ** (k + 1) * ks_density_with(g, s, t_sub, "containing")
        assert total - avoiding == signed


def test_merge_zero_edge_bookkeeping():
    g = WeightedGraph.build(
        [F(1, 3)] * 3, {(0, 1): F(1, 2), (1, 2): F(1, 2)}
    )  # path u-x-v with w(u,v)=0
    merged = merge_zero_edge(g, 0, 2, keep=0)
    assert merged.n == 2
    assert merged.vertex_weights == (F(2, 3), F(1, 3))


def test_merge_zero_edge_requires_zero_weight():
    g = uniform_triangle()
    with pytest.raises(ValueError):
        merge_zero_edge(g, 0, 1, keep=0)


def test_merge_zero_edge_density_identity(rng):
    for _ in range(30):
        n = rng.randint(3, 5)
        g = random_graph(rng, n, zero_edge=True)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if g.edge_weights[u][v] == 0
        ]
        u, v = pairs[0]
        s = rng.randint(2, 4)
        wu, wv = g.vertex_weights[u], g.vertex_weights[v]
        a1 = wu / (wu + wv)
        a2 = wv / (wu + wv)
        d1 = ks_density(merge_zero_edge(g, u, v, keep=u), s)
        d2 = ks_density(merge_zero_edge(g, u, v, keep=v), s)
        assert a1 * d1 + a2 * d2 == ks_density(g, s)


def test_round_edges_up():
    g = WeightedGraph.build(
        [F(1, 4)] * 4,
        {(0, 1): F(1, 4), (0, 2): F(1, 2), (0, 3): F(3, 4), (1, 2): F(1), (1, 3): F(0)},
    )
    r = round_edges_up(g)
    assert r.edge_weights[0][1] == F(1, 2)
    assert r.edge_weights[0][2] == F(1, 2)
    assert r.edge_weights[0][3] == F(1)
    assert r.edge_weights[1][2] == F(1)
    assert r.edge_weights[1][3] == F(0)


def test_graph_json_roundtrip(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6))
        back = loads_graph(dumps_graph(g))
        assert back == g


def test_graph_json_serializer_shape():
    g = WeightedGraph.build([F(1, 6), F(5, 6)], {(1, 0): F(1, 2)})
    d = graph_to_dict(g)
    assert d["vertices"] == [{"id": 0, "w": "1/6"}, {"id": 1, "w": "5/6"}]
    assert d["edges"] == [{"u": 0, "v": 1, "w": "1/2"}]


def test_graph_json_missing_pairs_default_zero():
    g = graph_from_dict({"vertices": [{"id": 0, "w": "1/2"}, {"id": 1, "w": "1/2"}]})
    assert g.edge_weights[0][1] == 0


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ('{"vertices": [{"id": 0, "w": "1/2"}, {"id": 2, "w": "1/2"}]}', "0..n-1"),
        ('{"vertices": [{"id": 0, "w": "0.5"}]}', "malformed rational"),
        ('{"vertices": [{"id": 0, "w": "1/0"}]}', "malformed rational"),
        ('{"vertices": [{"id": 0, "w": " 1"}]}', '"p/q" string'),
        ('{"vertices": [{"id": 0, "w": "1_0/1_0"}]}', '"p/q" string'),
        ('{"vertices": [{"id": 0, "w": "1/-2"}]}', '"p/q" string'),
        (
            '{"vertices": [{"id": 0, "w": "1/2"}, {"id": 1, "w": "1/2"}],'
            ' "edges": [{"u": 0, "v": 0, "w": "1"}]}',
            "self-edge",
        ),
        ('{"vertices": [{"id": 0', "line 1"),
        ('{"vertices": [{"id": false, "w": "1"}]}', "nonnegative integer"),
        (
            '{"vertices": [{"id": 0, "w": "1/2"}, {"id": 1, "w": "1/2"}],'
            ' "edges": [{"u": 0, "v": true, "w": "1"}]}',
            "must be integers",
        ),
        ('{"vertices": [{"id": 0, "w": true}]}', "vertex 0"),
    ],
)
def test_graph_json_rejects_malformed(payload, fragment):
    with pytest.raises(GraphFormatError) as err:
        loads_graph(payload)
    assert fragment in str(err.value)


def test_zero_weight_vertex_contributes_nothing():
    g = WeightedGraph.build([F(1, 2), F(1, 2), F(0)], {(0, 1): F(1), (0, 2): F(1), (1, 2): F(1)})
    h = WeightedGraph.build([F(1, 2), F(1, 2)], {(0, 1): F(1)})
    assert ks_density(g, 2) == ks_density(h, 2)
