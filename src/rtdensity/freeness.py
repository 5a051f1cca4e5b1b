"""Weighted t-clique detection.

A weighted t-clique in a weighted graph is a pair of vertex sets S2 <= S1
with |S1| + |S2| = t, where S1 is a clique among edges of positive weight
and S2 is a clique among edges of weight above 1/2. A graph is t-free when
no such pair exists, i.e. when its maximum pair score |S1| + |S2| stays
below t.
"""

from __future__ import annotations

from dataclasses import dataclass

# The benchmark tracer patches maximal_cliques under its name in this module,
# so it stays an attribute here although this module does not call it.
from .graphs import bits, max_clique, maximal_cliques  # noqa: F401
from .weighted import HALF, WeightedGraph, threshold_subgraph


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
    trimmed: WeightedCliqueWitness | None  # a pair of score exactly t cut from witness


def score_from_masks(
    pos_adj: tuple[int, ...], half_adj: tuple[int, ...]
) -> tuple[int, WeightedCliqueWitness]:
    """Maximum |S1| + |S2| over valid pairs, with a maximizing witness.

    The score is the clique number of a doubled graph on 2n vertices: v < n
    stands for v in S1 and v + n for v in S2, with u - v on a positive edge,
    (u+n) - (v+n) on an edge above 1/2, and u - (v+n) when u = v or u - v is
    positive. A valid pair is a clique there; any clique A + (B+n) gives the
    valid pair (A | B, B), and a maximum one already has B <= A with B
    nonempty. The witness is the first maximum clique max_clique finds.
    """
    n = len(pos_adj)
    aux = [p | (p | 1 << v) << n for v, p in enumerate(pos_adj)]
    aux += [p | 1 << v | h << n for v, (p, h) in enumerate(zip(pos_adj, half_adj))]
    score, mask = max_clique(aux)
    s1 = tuple(bits(mask & (1 << n) - 1))
    return score, WeightedCliqueWitness(s1, tuple(bits(mask >> n)))


def max_weighted_clique_score(
    g: WeightedGraph,
) -> tuple[int, WeightedCliqueWitness]:
    """Maximum achievable pair score with a deterministic maximizing witness."""
    if g.n == 0:
        raise ValueError("score and freeness are undefined on the empty graph")
    return score_from_masks(threshold_subgraph(g, 0).adj, threshold_subgraph(g, HALF).adj)


def _cut(w: WeightedCliqueWitness, t: int) -> WeightedCliqueWitness:
    """A pair of score exactly t inside w, whose score is at least t.

    S2' is the k2 = max(1, t - |S1|) smallest vertices of S2, and S1' is S2'
    with the t - 2 k2 smallest vertices of S1 outside it; a witness of score
    t comes back unchanged.
    """
    k2 = max(1, t - len(w.s1))
    s2 = w.s2[:k2]
    rest = [v for v in w.s1 if v not in s2][: t - 2 * k2]
    return WeightedCliqueWitness(tuple(sorted((*s2, *rest))), s2)


def is_ckt_free(g: WeightedGraph, t: int) -> FreenessResult:
    """Decide weighted t-clique freeness; witnesses are reported when not free.

    The trimmed witness has score exactly t and is cut from the maximizing
    witness by _cut, so output is reproducible.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    score, witness = max_weighted_clique_score(g)
    if score < t:
        return FreenessResult(True, score, None, None)
    return FreenessResult(False, score, witness, _cut(witness, t))
