"""Geometric realization: sphere-point graphs and the weighted-to-simple
graph construction.

A weighted graph with edge weights in {0, 1/2, 1} turns into a concrete
simple graph: parts of points on a unit sphere, complete bipartite joins for
weight-1 pairs, empty joins for weight 0, and randomly rotated sphere-cap
joins for weight-1/2 pairs. Near-antipodal points are joined inside a part.
A realized graph is stored as one symmetric boolean adjacency matrix, written
block by block from thresholded squared-distance arrays; the exact clique
searches use a bitmask view packed from it once, and the edge file is written
from it row by row. The construction preserves weighted t-clique freeness as
K_t-freeness, which the stats report checks exactly at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, combinations_with_replacement
from typing import Iterator

import numpy as np

from .graphs import SimpleGraph, greedy_clique_cover, max_clique
from .weighted import HALF, ONE, EnumerationLimitError, WeightedGraph, round_edges_up, validate

GUARD_BAND = 1e-9  # squared-distance slack around thresholds; inside it we resample
_MAX_RESAMPLE = 100
# Peak memory is under 32 * N^2 bytes for the float64 distance block (and its
# temporaries) of a part holding all N vertices, plus 40 * h^2 for the QR in
# random_rotation and 16 * N * h for the points: about 0.8 GiB at the limits.
# graph_stats stays within the same budget: the N^2-byte boolean adjacency
# matrix and its bitmask view of about N^2 / 8 bytes, plus the complement's
# rows, another N^2 / 8 bytes, while the greedy clique cover runs, or a copy
# of the removed rows, at most N^2 bytes, while the greedy independent set runs.
MAX_N = 4096
MAX_H = 2048
_SAMPLE_BLOCK = 1000  # K_s samples held at once: 8 * s bytes each


class RealizationLimitError(EnumerationLimitError):
    """The requested realization exceeds the documented N or h limit."""


@dataclass(frozen=True)
class BEConfig:
    """Parameters of the sphere construction; mu = epsilon / sqrt(h)."""

    epsilon: float
    h: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.h < 16:
            raise ValueError("h must be at least 16")

    @property
    def mu(self) -> float:
        return self.epsilon / math.sqrt(self.h)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _unit_rows(rng: np.random.Generator, n: int, h: int) -> np.ndarray:
    pts = rng.standard_normal((n, h))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), h))
        norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None]


def sample_sphere(n: int, h: int, seed: int) -> np.ndarray:
    """n independent uniform points on the unit sphere in R^h, (n, h) array.

    Deterministic per seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if h < 2:
        raise ValueError("h must be at least 2")
    return _unit_rows(_rng(seed), n, h)


def random_rotation(h: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation (orthogonal, determinant +1)."""
    m = rng.standard_normal((h, h))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.sum(a * a, axis=1)
    nb = np.sum(b * b, axis=1)
    return np.maximum(na[:, None] + nb[None, :] - 2.0 * (a @ b.T), 0.0)


def _thresholds(mu: float) -> tuple[float, float]:
    """Squared distances that same-part pairs join above and cross pairs below."""
    return (2.0 - mu) ** 2, (math.sqrt(2.0) - mu) ** 2


def _join_within(adj: np.ndarray, part: slice, d2: np.ndarray, near_thr: float) -> None:
    """Within-part rule on a part's block: its upper triangle, mirrored."""
    upper = np.triu(d2 > near_thr, 1)
    adj[part, part] = upper | upper.T


def _join_across(adj: np.ndarray, rows: slice, cols: slice, d2: np.ndarray, cross_thr: float) -> None:
    """Cross rule on the block between two parts, and on its mirror image."""
    joined = d2 < cross_thr
    adj[rows, cols] = joined
    adj[cols, rows] = joined.T


def _bitmask_graph(adj: np.ndarray) -> SimpleGraph:
    """The SimpleGraph whose bitmask rows are the rows of a symmetric matrix."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return SimpleGraph(len(adj), tuple(int.from_bytes(row.tobytes(), "little") for row in packed))


def be_graph(x: np.ndarray, y: np.ndarray, mu: float) -> SimpleGraph:
    """Sphere-cap graph on X then Y: cross pairs join below distance
    sqrt(2) - mu, same-side pairs join above distance 2 - mu (strictly)."""
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("point sets must share one ambient dimension")
    near_thr, cross_thr = _thresholds(mu)
    xs, ys = slice(0, len(x)), slice(len(x), len(x) + len(y))
    adj = np.zeros((ys.stop, ys.stop), dtype=bool)
    _join_within(adj, xs, _sq_dists(x, x), near_thr)
    _join_within(adj, ys, _sq_dists(y, y), near_thr)
    _join_across(adj, xs, ys, _sq_dists(x, y), cross_thr)
    return _bitmask_graph(adj)


def _guard_hit(d2: np.ndarray, thr2: float) -> bool:
    return bool(np.any(np.abs(d2 - thr2) <= GUARD_BAND))


@dataclass(frozen=True, eq=False)
class RealizedGraph:
    part_sizes: tuple[int, ...]
    matrix: np.ndarray  # symmetric boolean adjacency matrix, empty diagonal
    provenance: tuple[tuple[str, ...], ...]  # per-pair rule, diag = within-part
    source: WeightedGraph  # edge weights already rounded up to halves

    @property
    def n(self) -> int:
        return len(self.matrix)

    @cached_property
    def graph(self) -> SimpleGraph:
        """Bitmask view of the matrix for the exact clique searches."""
        return _bitmask_graph(self.matrix)

    def parts(self) -> list[range]:
        return [range(end - size, end) for end, size in zip(accumulate(self.part_sizes), self.part_sizes)]

    def edge_rows(self) -> Iterator[str]:
        """The edge file, one chunk per row: header `N parts=[n1,...]`, then
        each vertex u's `u v` lines for its neighbours v > u, ascending."""
        yield f"{self.n} parts=[{','.join(str(x) for x in self.part_sizes)}]\n"
        labels = np.array([f"{v}\n" for v in range(self.n)], dtype=object)
        for u, row in enumerate(self.matrix):
            nbrs = labels[u + 1 :][row[u + 1 :]].tolist()
            if nbrs:
                yield f"{u} " + f"{u} ".join(nbrs)

    def to_edge_text(self) -> str:
        """The whole edge file as one string: the join of `edge_rows`."""
        return "".join(self.edge_rows())


def _part_sizes(weights, n_total: int) -> list[int]:
    # exact floors, remainder to the largest fractional parts (ties by index);
    # the weights sum to 1, so the remainder is below the number of parts
    targets = [w * n_total for w in weights]
    sizes = [math.floor(x) for x in targets]
    remainder = n_total - sum(sizes)
    order = sorted(
        range(len(weights)), key=lambda i: (sizes[i] - targets[i], i)
    )
    for k in range(remainder):
        sizes[order[k]] += 1
    return sizes


def realize(r: WeightedGraph, n_total: int, cfg: BEConfig) -> RealizedGraph:
    """Concrete simple graph on n_total vertices realizing the weighted graph.

    Edge weights are first rounded up to the next multiple of 1/2 (which
    preserves weighted-clique freeness). Each part gets at least
    floor(weight * N) vertices; every half-weight pair uses an independent
    uniformly random rotation, re-sampled if any squared distance falls
    within the guard band of a threshold, so edge membership is stable.
    The adjacency matrix is written block by block, each block with its
    mirror image, from the thresholded squared distances that passed the
    guard-band test; it is returned read-only. N above MAX_N or h above
    MAX_H raises RealizationLimitError before anything is allocated.
    """
    if n_total > MAX_N or cfg.h > MAX_H:
        raise RealizationLimitError(f"N = {n_total}, h = {cfg.h}: the limits are N <= {MAX_N}, h <= {MAX_H}")
    report = validate(r)
    if not report.ok:
        raise ValueError("invalid weighted graph: " + "; ".join(report.errors))
    if n_total < r.n:
        raise ValueError("N must be at least the number of parts")
    rounded = round_edges_up(r)
    sizes = _part_sizes(rounded.vertex_weights, n_total)
    blocks = [slice(end - sz, end) for end, sz in zip(accumulate(sizes), sizes)]
    near_thr, cross_thr = _thresholds(cfg.mu)
    adj = np.zeros((n_total, n_total), dtype=bool)

    points: list[np.ndarray] = []
    for i, sz in enumerate(sizes):
        gen = _rng(cfg.seed, 0, i)
        for _ in range(_MAX_RESAMPLE):
            pts = _unit_rows(gen, max(sz, 1), cfg.h)[:sz]
            d2 = _sq_dists(pts, pts)
            if not _guard_hit(np.triu(d2, 1), near_thr):
                break
        else:
            raise RuntimeError("could not sample part points outside the guard band")
        _join_within(adj, blocks[i], d2, near_thr)
        points.append(pts)

    rules = {ONE: "complete", HALF: "BE-rotated"}
    provenance = tuple(
        tuple("within-part" if i == j else rules.get(w, "empty") for j, w in enumerate(row))
        for i, row in enumerate(rounded.edge_weights)
    )
    for i, j in combinations(range(rounded.n), 2):
        if provenance[i][j] == "complete":
            adj[blocks[i], blocks[j]] = adj[blocks[j], blocks[i]] = True
        elif provenance[i][j] == "BE-rotated" and sizes[i] and sizes[j]:
            gen = _rng(cfg.seed, 1, i, j)
            for _ in range(_MAX_RESAMPLE):
                rot = random_rotation(cfg.h, gen)
                d2 = _sq_dists(points[i] @ rot.T, points[j])
                if not _guard_hit(d2, cross_thr):
                    break
            else:
                raise RuntimeError("could not rotate outside the guard band")
            _join_across(adj, blocks[i], blocks[j], d2, cross_thr)

    adj.flags.writeable = False  # the cached bitmask view must stay in step
    return RealizedGraph(tuple(sizes), adj, provenance, rounded)


def greedy_independent_set(matrix: np.ndarray) -> tuple[int, ...]:
    """Greedy independent set of a boolean adjacency matrix; a lower-bound witness.

    Each step takes the live vertex of least degree among the live vertices,
    the smallest index on ties, and removes it with its neighbours. The
    degrees are kept by subtracting the rows of each removed set. A removed
    vertex's degree is set to 2n: at most n - 1 of its rows are subtracted
    later, so it stays above every live degree, which is below n.
    """
    n = len(matrix)
    degree = matrix.sum(axis=1)
    chosen = []
    for _ in range(n):  # each step removes at least one vertex
        v = int(degree.argmin())
        if degree[v] >= n:
            break
        chosen.append(v)
        removed = matrix[v] & (degree < n)
        removed[v] = True
        degree -= matrix[removed].sum(axis=0)
        degree[removed] = 2 * n
    return tuple(sorted(chosen))


def _floyd_samples(rng: np.random.Generator, n: int, s: int, count: int) -> np.ndarray:
    """count uniform s-subsets of range(n), one per row, for 0 <= s <= n.

    Floyd's algorithm (Bentley and Floyd, CACM 1987) on all rows at once:
    column k draws from range(n - s + k + 1) and takes n - s + k instead
    when its draw repeats an earlier column of the row.
    """
    chosen = rng.integers(0, np.arange(n - s + 1, n + 1), size=(count, s))
    for k in range(1, s):
        repeat = (chosen[:, :k] == chosen[:, k, None]).any(axis=1)
        chosen[repeat, k] = n - s + k
    return chosen


def graph_stats(
    rg: RealizedGraph,
    s: int,
    t: int,
    clique_budget: int = 100,
    samples: int = 20000,
    seed: int = 0,
) -> dict:
    """Measured properties of a realized graph.

    One exact clique search answers both omega and the K_t test. Up to
    `clique_budget` vertices it runs to the end; above it, it stops once it
    has found a clique of at least t vertices, whose size is then a lower
    bound on omega, flagged inexact. So omega is exact up to the budget and,
    above it, exactly when the graph is K_t-free; the K_t test is always
    exact. alpha is exact up to the budget; a greedy independent set and a
    greedy clique cover (the colour classes of the complement) bracket it
    at any size. The K_s-density estimate is the fraction of cliques among
    `samples` uniform s-subsets of the vertices, drawn by Floyd's algorithm
    from a generator seeded with (seed, 2).
    """
    n, matrix, g = rg.n, rg.matrix, rg.graph
    exact = n <= clique_budget
    omega, _ = max_clique(g.adj, stop_at=None if exact else t)
    ind_lower = len(greedy_independent_set(matrix))
    ind_upper = greedy_clique_cover(g)
    alpha_exact = None
    if exact:
        alpha_exact, _ = max_clique(g.complement().adj)

    blocks = [slice(p.start, p.stop) for p in rg.parts()]
    pair_rows = []
    for i, j in combinations_with_replacement(range(len(blocks)), 2):
        edges = int(matrix[blocks[i], blocks[j]].sum())
        if i == j:
            edges //= 2  # the diagonal block counts each edge from both ends
            possible = rg.part_sizes[i] * (rg.part_sizes[i] - 1) // 2
        else:
            possible = rg.part_sizes[i] * rg.part_sizes[j]
        pair_rows.append(
            {
                "i": i,
                "j": j,
                "rule": rg.provenance[i][j],
                "edges": edges,
                "possible": possible,
                "density": edges / possible if possible else 0.0,
            }
        )

    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    hits = 0
    if s <= n:
        for start in range(0, samples, _SAMPLE_BLOCK):
            count = min(_SAMPLE_BLOCK, samples - start)
            chosen = _floyd_samples(rng, n, s, count)
            # keep the samples whose vertex pairs so far are all edges
            for a, b in combinations(range(s), 2):
                if not len(chosen):
                    break
                chosen = chosen[matrix[chosen[:, a], chosen[:, b]]]
            hits += len(chosen)
    return {
        "n": n,
        "part_sizes": list(rg.part_sizes),
        "omega": {"value": omega, "exact": exact or omega < t},
        "contains_kt": {"t": t, "value": omega >= t, "exact": True},
        "alpha": {
            "exact": alpha_exact,
            "greedy_lower": ind_lower,
            "clique_cover_upper": ind_upper,
        },
        "pair_densities": pair_rows,
        "ks_estimate": {
            "s": s,
            "samples": samples,
            "estimate": hits / samples if samples else 0.0,
        },
    }
