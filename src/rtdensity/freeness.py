"""Weighted t-clique detection.

A weighted t-clique in a weighted graph is a pair of vertex sets S2 <= S1
with |S1| + |S2| = t, where S1 is a clique among edges of positive weight
and S2 is a clique among edges of weight above 1/2. A graph is t-free when
no such pair exists, i.e. when its maximum pair score |S1| + |S2| stays
below t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import bits, lex_cliques, max_clique, maximal_cliques
from .weighted import HALF, WeightedGraph, threshold_subgraph

# The cap bounds the cost of the trimmed-witness walk, which grows far faster
# with the vertex count than the score does. On a 2-core host the walk took
# 0.44 s at 16 half-weight pairs (n = 32, t = 48), 12.8 s at 20 pairs
# (n = 40) and 21 s at 14 triples (n = 42); score_from_masks took under 1 ms
# on the same graphs. Above the cap a non-free graph gets no trimmed witness.
WITNESS_VERTEX_LIMIT = 32


@dataclass(frozen=True)
class WeightedCliqueWitness:
    """A pair (S1, S2) with S2 <= S1; score is |S1| + |S2|."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]

    @property
    def score(self) -> int:
        return len(self.s1) + len(self.s2)


@dataclass(frozen=True)
class FreenessResult:
    free: bool
    score: int
    witness: WeightedCliqueWitness | None  # a maximum-score pair when not free
    trimmed: WeightedCliqueWitness | None  # lexicographically least pair of score t


def _threshold_adj(g: WeightedGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pos = threshold_subgraph(g, 0).adj
    half = threshold_subgraph(g, HALF).adj
    return pos, half


def score_from_masks(
    pos_adj: tuple[int, ...], half_adj: tuple[int, ...]
) -> tuple[int, WeightedCliqueWitness]:
    """Maximum |S1| + |S2| over valid pairs, with a maximizing witness.

    Enumerating maximal cliques of the positive-threshold graph suffices:
    the score only grows when S1 is enlarged within a clique. Ties resolve
    to the lexicographically least (S1, S2) among the candidates seen.
    Exponential in the worst case; comfortable for graphs up to ~20
    vertices, which covers every t-free candidate (they have < t vertices).
    """
    best_key: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    for s1_mask in maximal_cliques(pos_adj):
        size2, s2_mask = max_clique(half_adj, candidates=s1_mask)
        s1 = tuple(bits(s1_mask))
        s2 = tuple(bits(s2_mask))
        key = (-(len(s1) + size2), s1, s2)
        if best_key is None or key < best_key:
            best_key = key
    assert best_key is not None
    return -best_key[0], WeightedCliqueWitness(best_key[1], best_key[2])


def max_weighted_clique_score(
    g: WeightedGraph,
) -> tuple[int, WeightedCliqueWitness]:
    """Maximum achievable pair score with a deterministic maximizing witness."""
    if g.n == 0:
        raise ValueError("score is undefined on the empty graph")
    pos_adj, half_adj = _threshold_adj(g)
    return score_from_masks(pos_adj, half_adj)


def _lex_min_witness(
    pos_adj: tuple[int, ...], half_adj: tuple[int, ...], t: int
) -> WeightedCliqueWitness | None:
    """Lexicographically least (sorted S1, sorted S2) with score exactly t.

    S2 <= S1 puts |S1| in [ceil(t/2), t - 1]; S2 is the first clique of the
    t - |S1| vertices it needs among S1's edges above 1/2.
    """
    n = len(pos_adj)
    if n > WITNESS_VERTEX_LIMIT:
        return None
    for s1 in lex_cliques(pos_adj, (1 << n) - 1, (t + 1) // 2, t - 1):
        need = t - len(s1)  # the S2 walk yields nothing while need > |S1|
        for s2 in lex_cliques(half_adj, sum(1 << v for v in s1), need, need):
            if len(s2) == need:
                return WeightedCliqueWitness(s1, s2)
    return None


def is_ckt_free(g: WeightedGraph, t: int) -> FreenessResult:
    """Decide weighted t-clique freeness; witnesses are reported when not free.

    The trimmed witness has score exactly t and is the lexicographically
    least such pair, so output is reproducible.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if g.n == 0:
        raise ValueError("freeness is undefined on the empty graph")
    pos_adj, half_adj = _threshold_adj(g)
    score, witness = score_from_masks(pos_adj, half_adj)
    if score < t:
        return FreenessResult(True, score, None, None)
    trimmed = _lex_min_witness(pos_adj, half_adj, t)
    return FreenessResult(False, score, witness, trimmed)
