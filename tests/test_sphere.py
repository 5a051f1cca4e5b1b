import dataclasses
import hashlib
import math
import random
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner

from rtdensity import WeightedGraph, complete_balanced, dumps_graph, sphere
from rtdensity.cli import main
from rtdensity.graphs import (
    SimpleGraph,
    bits,
    clique_number,
    greedy_clique_cover,
    has_clique,
    independence_number,
    max_clique,
)
from rtdensity.sphere import (
    _SAMPLE_BLOCK,
    BEConfig,
    _floyd_samples,
    _sq_dists,
    be_graph,
    graph_stats,
    greedy_independent_set,
    random_rotation,
    realize,
    sample_sphere,
)


def half_edge_graph():
    return WeightedGraph.build([F(1, 2), F(1, 2)], {(0, 1): F(1, 2)})


def counterexample_graph():
    """The s = 5, t = 10 graph: six parts of 1/6, three half-weight pairs."""
    edges = {(u, v): F(1) for u, v in combinations(range(6), 2)}
    for pair in [(0, 1), (2, 3), (4, 5)]:
        edges[pair] = F(1, 2)
    return WeightedGraph.build([F(1, 6)] * 6, edges)


def test_sample_sphere_unit_norm_and_determinism():
    x = sample_sphere(100, 16, seed=1)
    assert x.shape == (100, 16)
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12
    assert np.array_equal(x, sample_sphere(100, 16, seed=1))
    assert not np.array_equal(x, sample_sphere(100, 16, seed=2))


def test_sample_sphere_mean_inner_product_small():
    x = sample_sphere(2000, 64, seed=3)
    gram = x @ x.T
    vals = gram[np.triu_indices(2000, 1)]
    assert abs(float(np.mean(vals))) < 0.05


def test_sample_sphere_domain():
    with pytest.raises(ValueError):
        sample_sphere(0, 16, 1)
    with pytest.raises(ValueError):
        sample_sphere(4, 1, 1)


def test_random_rotation_is_special_orthogonal():
    rng = np.random.default_rng(5)
    for h in (3, 8, 16):
        q = random_rotation(h, rng)
        assert np.allclose(q @ q.T, np.eye(h), atol=1e-10)
        assert abs(np.linalg.det(q) - 1.0) < 1e-9


def test_be_graph_unit_vector_rules():
    h = 16
    mu = 0.1 / math.sqrt(h)
    e1 = np.zeros((1, h))
    e1[0, 0] = 1.0
    e2 = np.zeros((1, h))
    e2[0, 1] = 1.0
    # same point on both sides: cross distance 0 < sqrt(2) - mu
    g = be_graph(e1, e1.copy(), mu)
    assert g.has_edge(0, 1)
    # antipodal same-side points: distance 2 > 2 - mu
    g = be_graph(np.vstack([e1, -e1]), np.zeros((0, h)), mu)
    assert g.has_edge(0, 1)
    # orthogonal same-side points: distance sqrt(2), no edge
    g = be_graph(np.vstack([e1, e2]), np.zeros((0, h)), mu)
    assert not g.has_edge(0, 1)
    with pytest.raises(ValueError):
        be_graph(np.zeros((1, 4)), np.zeros((1, 5)), mu)


def test_be_config_validation():
    with pytest.raises(ValueError):
        BEConfig(0.0, 16)
    with pytest.raises(ValueError):
        BEConfig(0.5, 8)
    assert BEConfig(0.2, 16).mu == 0.2 / 4.0


def test_realize_complete_weights():
    rg = realize(complete_balanced(3), 30, BEConfig(0.2, 16, seed=3))
    assert rg.part_sizes == (10, 10, 10)
    assert rg.graph.edge_count() == 300
    stats = graph_stats(rg, 3, 4)
    assert stats["omega"] == {"value": 3, "exact": True}
    assert stats["alpha"]["exact"] == 10
    assert not stats["contains_kt"]["value"]


def test_realize_determinism_and_part_floors():
    g = half_edge_graph()
    cfg = BEConfig(0.2, 36, seed=11)
    a = realize(g, 201, cfg)
    b = realize(g, 201, cfg)
    assert a.graph == b.graph
    assert sum(a.part_sizes) == 201
    for size, w in zip(a.part_sizes, g.vertex_weights):
        assert size >= math.floor(float(w) * 201)


def test_realize_half_pair_structure():
    g = half_edge_graph()
    rg = realize(g, 300, BEConfig(0.2, 36, seed=1))
    adj = rg.graph.adj
    masks = []
    for part in rg.parts():
        m = 0
        for v in part:
            m |= 1 << v
        masks.append(m)
    # within-side graphs triangle-free, full pair K_4-free
    assert not has_clique(adj, 3, masks[0])
    assert not has_clique(adj, 3, masks[1])
    assert not has_clique(adj, 4)
    assert rg.provenance[0][1] == "BE-rotated"
    assert rg.provenance[0][0] == "within-part"


def test_realize_cross_density_lower_bound():
    # measured half-pair density >= 1/2 - sqrt(2) eps - 3 sigma
    g = half_edge_graph()
    eps = 0.2
    rg = realize(g, 200, BEConfig(eps, 36, seed=1))
    stats = graph_stats(rg, 2, 4, clique_budget=0)
    cross = next(r for r in stats["pair_densities"] if r["i"] == 0 and r["j"] == 1)
    n_i, n_j = rg.part_sizes
    sigma = 1.0 / (2.0 * math.sqrt(n_i * n_j))
    assert cross["density"] >= 0.5 - math.sqrt(2) * eps - 3 * sigma


def test_realize_rounds_edge_weights_up():
    g = WeightedGraph.build([F(1, 2), F(1, 2)], {(0, 1): F(3, 4)})
    rg = realize(g, 20, BEConfig(0.2, 16, seed=2))
    assert rg.provenance[0][1] == "complete"
    assert rg.source.edge_weights[0][1] == F(1)


def test_realize_counterexample_graph_stays_clique_free():
    rg = realize(counterexample_graph(), 60, BEConfig(0.2, 16, seed=7))
    assert not has_clique(rg.graph.adj, 10)
    stats = graph_stats(rg, 5, 10)
    assert stats["contains_kt"] == {"t": 10, "value": False, "exact": True}
    assert stats["omega"]["exact"] and stats["omega"]["value"] < 10


def test_realize_domain_errors():
    g = half_edge_graph()
    with pytest.raises(ValueError):
        realize(g, 1, BEConfig(0.2, 16))
    bad = WeightedGraph.build([F(1, 2), F(1, 3)], {})
    with pytest.raises(ValueError):
        realize(bad, 10, BEConfig(0.2, 16))


def test_edge_text_export():
    rg = realize(complete_balanced(2), 4, BEConfig(0.2, 16, seed=1))
    text = rg.to_edge_text()
    lines = text.strip().split("\n")
    assert lines[0] == "4 parts=[2,2]"
    assert set(lines[1:]) == {"0 2", "0 3", "1 2", "1 3"}


def test_ks_estimate_sane():
    rg = realize(complete_balanced(3), 30, BEConfig(0.2, 16, seed=3))
    stats = graph_stats(rg, 3, 4, samples=4000, seed=9)
    est = stats["ks_estimate"]["estimate"]
    # exact K_3 probability for complete 3-partite 10+10+10 on distinct triples
    exact = (1000.0 * 6) / (30 * 29 * 28)
    assert abs(est - exact) < 0.05


def reference_be_graph(x, y, mu):
    """be_graph by scalar threshold tests over the same squared distances."""
    nx, ny = len(x), len(y)
    cross_thr = (math.sqrt(2.0) - mu) ** 2
    near_thr = (2.0 - mu) ** 2
    edges = []
    for pts, off in ((x, 0), (y, nx)):
        d2 = _sq_dists(pts, pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if d2[i, j] > near_thr:
                    edges.append((off + i, off + j))
    d2 = _sq_dists(x, y)
    for i in range(nx):
        for j in range(ny):
            if d2[i, j] < cross_thr:
                edges.append((i, nx + j))
    return SimpleGraph.from_edges(nx + ny, edges)


def test_be_graph_matches_scalar_reference():
    rng = np.random.default_rng(17)
    # in R^3 with a wide mu both the near-antipodal and the cross rule fire often
    h, mu = 3, 0.3
    for nx, ny in [(0, 0), (0, 4), (3, 0), (1, 1), (1, 9), (8, 1), (13, 21), (40, 33)]:
        x = rng.standard_normal((nx, h))
        y = rng.standard_normal((ny, h))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        g = be_graph(x, y, mu)
        assert g == reference_be_graph(x, y, mu)
        if nx + ny > 40:
            assert 0 < g.edge_count() < (nx + ny) * (nx + ny - 1) // 2


def edge_matrix(n, pairs):
    m = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        m[u, v] = m[v, u] = True
    return m


def test_realized_matrix_is_symmetric_and_graph_is_its_view():
    for rg in (
        realize(counterexample_graph(), 300, BEConfig(0.2, 16, seed=1)),
        realize(half_edge_graph(), 200, BEConfig(0.99, 16, seed=1)),
        realize(complete_balanced(3), 3, BEConfig(0.2, 16, seed=1)),
    ):
        m = rg.matrix
        assert m.dtype == bool and m.shape == (rg.n, rg.n)
        assert np.array_equal(m, m.T) and not m.diagonal().any()
        assert not m.flags.writeable
        assert rg.graph is rg.graph  # packed once
        us, vs = np.nonzero(np.triu(m, 1))
        assert rg.graph == SimpleGraph.from_edges(rg.n, zip(us.tolist(), vs.tolist()))
        # identity equality and hashing: no elementwise ndarray comparison
        assert rg == rg and rg != dataclasses.replace(rg) and hash(rg) == hash(rg)


def reference_greedy_independent_set(g):
    """The greedy rule one step at a time on bitmask rows: the live vertex of
    least live degree, the smallest index on ties."""
    alive = (1 << g.n) - 1
    chosen = []
    while alive:
        v = min(bits(alive), key=lambda u: (g.adj[u] & alive).bit_count())
        chosen.append(v)
        alive &= ~(1 << v) & ~g.adj[v]
    return tuple(sorted(chosen))


def test_greedy_independent_set_matches_per_step_loop():
    rng = random.Random(13)
    for density in (0.1, 0.4, 0.8):
        for _ in range(20):
            n = rng.randint(0, 40)
            pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
            g = SimpleGraph.from_edges(n, pairs)
            chosen = greedy_independent_set(edge_matrix(n, pairs))
            assert chosen == reference_greedy_independent_set(g)
            assert len(chosen) <= independence_number(g) <= greedy_clique_cover(g)
    # a realization of the s = 5, t = 10 graph
    rg = realize(counterexample_graph(), 300, BEConfig(0.2, 16, seed=7))
    chosen = greedy_independent_set(rg.matrix)
    assert chosen == reference_greedy_independent_set(rg.graph)
    assert not rg.matrix[np.ix_(chosen, chosen)].any()
    assert len(chosen) <= greedy_clique_cover(rg.graph)


def reference_edge_text(rg):
    lines = [f"{rg.n} parts=[{','.join(str(x) for x in rg.part_sizes)}]"]
    for u in range(rg.n):
        for v in range(u + 1, rg.n):
            if rg.graph.adj[u] >> v & 1:
                lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def test_edge_text_matches_bit_loop():
    rgs = [
        realize(counterexample_graph(), 60, BEConfig(0.2, 16, seed=7)),
        realize(half_edge_graph(), 37, BEConfig(0.3, 20, seed=2)),
        realize(complete_balanced(3), 3, BEConfig(0.2, 16, seed=1)),
    ]
    # random graphs on the same vertex sets: isolated vertices, n not a multiple of 8
    rng = random.Random(5)
    for rg in list(rgs):
        pairs = [(u, v) for u, v in combinations(range(rg.n), 2) if rng.random() < 0.3]
        rgs.append(dataclasses.replace(rg, matrix=edge_matrix(rg.n, pairs)))
    rgs.append(dataclasses.replace(rgs[0], matrix=edge_matrix(60, [])))
    for rg in rgs:
        assert rg.to_edge_text() == reference_edge_text(rg)


def reference_ks_hits(g, s, samples, seed):
    """Hits of a per-sample scalar Floyd loop over the same block draws."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    hits = 0
    for start in range(0, samples, _SAMPLE_BLOCK):
        draws = rng.integers(0, np.arange(g.n - s + 1, g.n + 1), size=(min(_SAMPLE_BLOCK, samples - start), s))
        for row in draws:
            chosen = []
            for k, r in enumerate(row.tolist()):
                chosen.append(g.n - s + k if r in chosen else r)
            assert len(set(chosen)) == s
            hits += all(g.has_edge(a, b) for a, b in combinations(chosen, 2))
    return hits


def test_ks_estimate_matches_per_sample_loop():
    dense = realize(complete_balanced(3), 30, BEConfig(0.2, 16, seed=3))
    mixed = realize(counterexample_graph(), 60, BEConfig(0.2, 16, seed=7))
    for rg, s, samples, seed in [
        (dense, 3, 2500, 9),
        (dense, 2, 999, 1),
        (mixed, 5, 3001, 7),
        (mixed, 0, 10, 0),
        (mixed, 1, 10, 0),
        (mixed, 2, 0, 0),
        (dense, 31, 50, 0),
    ]:
        est = graph_stats(rg, s, 4, clique_budget=0, samples=samples, seed=seed)["ks_estimate"]
        expected = reference_ks_hits(rg.graph, s, samples, seed) / samples if samples and s <= rg.n else 0.0
        assert est == {"s": s, "samples": samples, "estimate": expected}


def test_floyd_samples_uniform():
    # all 20 three-subsets of six vertices, 10,000 expected hits each
    rng = np.random.default_rng(np.random.SeedSequence([0, 2]))
    rows = np.sort(_floyd_samples(rng, 6, 3, 200_000), axis=1)
    assert np.all(np.diff(rows, axis=1) > 0)
    subsets, counts = np.unique(rows, axis=0, return_counts=True)
    assert len(subsets) == 20
    assert np.all(np.abs(counts - 10_000) <= 300), counts


def test_graph_stats_above_budget_runs_one_clique_search(monkeypatch):
    # above the budget the search stops at t: it finishes on a K_t-free graph
    calls = []
    monkeypatch.setattr(sphere, "max_clique", lambda *a, **k: calls.append(k) or max_clique(*a, **k))
    for n_total in (300, 1200):
        rg = realize(counterexample_graph(), n_total, BEConfig(0.2, 16, seed=1))
        stats = graph_stats(rg, 5, 10, clique_budget=0, samples=0)
        assert stats["omega"] == {"value": clique_number(rg.graph), "exact": True}
        assert stats["contains_kt"]["value"] is False
        stats = graph_stats(rg, 5, 3, clique_budget=0, samples=0)
        assert stats["contains_kt"]["value"] is True
        assert stats["omega"]["exact"] is False and stats["omega"]["value"] >= 3
    assert calls == [{"stop_at": 10}, {"stop_at": 3}] * 2


def test_pair_densities_match_has_edge_counts():
    # epsilon near 1 widens the near-antipodal cap, so parts get inner edges
    for rg in (
        realize(counterexample_graph(), 60, BEConfig(0.2, 16, seed=7)),
        realize(half_edge_graph(), 200, BEConfig(0.99, 16, seed=1)),
    ):
        parts = rg.parts()
        rows = graph_stats(rg, 2, 10, clique_budget=0)["pair_densities"]
        for row in rows:
            i, j = row["i"], row["j"]
            pairs = combinations(parts[i], 2) if i == j else ((a, b) for a in parts[i] for b in parts[j])
            assert row["edges"] == sum(rg.graph.has_edge(a, b) for a, b in pairs)
    assert rows[0]["edges"] > 0


def test_realize_golden_sha256(tmp_path):
    # edge file and text report of the s = 5, t = 10 graph at N = 60, seed 7,
    # pinned to the values of the per-pair loop construction
    graph = tmp_path / "r63.json"
    graph.write_text(dumps_graph(counterexample_graph()))
    out = tmp_path / "r63.edges"
    result = CliRunner().invoke(
        main,
        [
            "realize", "--graph", str(graph), "--N", "60", "--epsilon", "0.2", "--h", "16",
            "--seed", "7", "--s", "5", "--t", "10", "--format", "text", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "545616b6785faf2d9d2fbb232db2a66b9e2565c5b132c9dd4b5a342caad6c11b"
    )
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "fcd88c18a53d4553068d25f99ee4b322c58f20920b195dab3dfd09d497737d83"
    )
