"""Independent oracles: brute-force extremal search, structural predicates,
two-part decomposition identities, and symmetric-function inequalities.

Everything here cross-checks the partition model and optimizer from a
different direction, at desk scale and in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, lcm, perm, prod
from operator import mul
from typing import Iterable

from .freeness import score_from_masks
from .partitions import parts_density
from .rationals import RationalLike, as_fraction, format_fraction
from .weighted import HALF, ONE, ZERO, WeightedGraph, ks_density

SEARCH_SPACE_LIMIT = 10**8
# The search stores every weight composition (n ints) and its weight product
# for each s-subset: C(D-1, n-1) * (C(n, s) + n) ints, each at most ~70 bytes
# with its list slot (67 B measured at n = 3, s = 3). At this limit they take
# under 0.7 GiB; the orbit bytearray adds at most SEARCH_SPACE_LIMIT bytes.
WEIGHT_CELL_LIMIT = 10**7
CANONICAL_MAX_N = 6  # permutation canonicalization is factorial; keep it tiny


class SearchSpaceError(RuntimeError):
    """The requested brute-force search exceeds the documented budget."""

    def __init__(self, size: int, limit: int = SEARCH_SPACE_LIMIT, unit: str = "states"):
        super().__init__(f"search space of {size} {unit} exceeds the limit of {limit}")
        self.size = size


class NoFreeGraphError(RuntimeError):
    """No edge assignment in the search space is t-free."""


@dataclass(frozen=True)
class SearchConfig:
    n: int
    weight_denominator: int
    edge_alphabet: tuple[Fraction, ...]
    s: int
    t: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        if self.weight_denominator < self.n:
            raise ValueError("weight denominator must be at least n")
        if not self.edge_alphabet:
            raise ValueError("edge alphabet must be nonempty")
        for w in self.edge_alphabet:
            if w < 0 or w > 1:
                raise ValueError("edge alphabet values must lie in [0,1]")


def default_search_config(
    n: int, s: int, t: int, weight_denominator: int | None = None,
    edge_alphabet: tuple[RationalLike, ...] = (Fraction(1, 2), ONE),
) -> SearchConfig:
    """Alphabet defaults to {1/2, 1}; the {0, 1/2, 1} mode exists to test
    whether the binary-weight structure emerges from the search itself."""
    d = weight_denominator if weight_denominator is not None else 2 * n * (t - 1)
    return SearchConfig(n, d, tuple(as_fraction(w) for w in edge_alphabet), s, t)


def search_space_size(cfg: SearchConfig) -> int:
    compositions = comb(cfg.weight_denominator - 1, cfg.n - 1)
    return compositions * len(cfg.edge_alphabet) ** comb(cfg.n, 2)


def search_weight_cells(cfg: SearchConfig) -> int:
    """Integers the search stores for the weight compositions and their
    per-subset weight products."""
    compositions = comb(cfg.weight_denominator - 1, cfg.n - 1)
    return compositions * (comb(cfg.n, cfg.s) + cfg.n)


@dataclass(frozen=True)
class BruteForceResult:
    best: WeightedGraph
    density: Fraction
    maximizers: tuple[WeightedGraph, ...]  # non-isomorphic optimum graphs
    searched: int  # (edge assignment, weight composition) pairs evaluated


def _compositions(total: int, parts: int):
    """Positive integer compositions of total into `parts` parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _permutation_table(
    n: int, perms: Iterable[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(vertex permutation, induced map on pair indices) for each permutation.

    Pairs (u, v), u < v, are indexed in row-major order; entry i of the pair
    map is the index of the image of pair i.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    return [
        (p, tuple(pair_index[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs))
        for p in perms
    ]


def _canonical(table, weights: tuple, edges: tuple) -> tuple[tuple, tuple]:
    """Least (weights, edges) key over the permutations of `table`."""
    return min(
        (tuple(weights[v] for v in p), tuple(edges[i] for i in idx))
        for p, idx in table
    )


def _graph_from_tuples(
    n: int, weights: tuple[Fraction, ...], edges: tuple[Fraction, ...]
) -> WeightedGraph:
    triples = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if edges[i] != 0:
                triples.append((u, v, edges[i]))
            i += 1
    return WeightedGraph.build(weights, triples)


def brute_force_extremal(cfg: SearchConfig) -> BruteForceResult:
    """Exact discrete maximizer of the K_s-density over t-free graphs.

    Vertex weights are positive multiples of 1/D summing to 1; edge weights
    come from the alphabet. The search runs on integer codes: each edge value
    is its rank among the distinct alphabet values, and each weight tuple is
    its integer composition k of D. Freeness depends only on the edge
    assignment, so it is checked once per assignment. For n <=
    CANONICAL_MAX_N assignments are deduplicated up to vertex permutation:
    the first assignment of each orbit is evaluated and every image of it
    under the n! permutations is marked as seen. The density numerator of
    composition k is sum over s-subsets of (edge product scaled by the lcm L
    of the alphabet denominators) * (product of k_v), an exact integer; the
    one Fraction s! * best / (L^C(s,2) * D^s) is formed at the end. Only the
    assignments that tie the final optimum are canonicalized, and `best` is
    the least canonical form among them.
    """
    size = search_space_size(cfg)
    if size > SEARCH_SPACE_LIMIT:
        raise SearchSpaceError(size)
    cells = search_weight_cells(cfg)
    if cells > WEIGHT_CELL_LIMIT:
        raise SearchSpaceError(cells, WEIGHT_CELL_LIMIT, "stored weight integers")
    n, d, s, t = cfg.n, cfg.weight_denominator, cfg.s, cfg.t
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    values = sorted(set(cfg.edge_alphabet))
    scale = lcm(*(w.denominator for w in values))
    scaled = [int(w * scale) for w in values]
    positive = [w > 0 for w in values]
    heavy = [w > HALF for w in values]
    compositions = list(_compositions(d, n))
    subsets = list(combinations(range(n), s))
    subset_pairs = [[pair_index[pair] for pair in combinations(sub, 2)] for sub in subsets]
    # per composition, the weight product of every s-subset
    weight_products = [[prod(k[v] for v in sub) for sub in subsets] for k in compositions]
    dedup = n <= CANONICAL_MAX_N
    table = _permutation_table(n, permutations(range(n)) if dedup else [tuple(range(n))])
    # an assignment's code is its base-V number, first pair most significant;
    # with the places of a permutation, the same sum gives the code of the image
    base = len(values)
    place = [base ** (len(pairs) - 1 - j) for j in range(len(pairs))]
    image_places = [[place[idx.index(i)] for i in range(len(pairs))] for _, idx in table]
    seen = bytearray(base ** len(pairs)) if dedup else None
    rank = {w: c for c, w in enumerate(values)}

    best_value = None
    ties: list = []  # (edge codes, composition indices) reaching best_value
    classes = 0
    for edges in product([rank[w] for w in cfg.edge_alphabet], repeat=len(pairs)):
        if seen is not None:
            if seen[sum(map(mul, edges, place))]:
                continue
            for places in image_places:
                seen[sum(map(mul, edges, places))] = 1
        classes += 1
        # freeness is weight-independent
        pos_adj = [0] * n
        half_adj = [0] * n
        for (u, v), c in zip(pairs, edges):
            if positive[c]:
                pos_adj[u] |= 1 << v
                pos_adj[v] |= 1 << u
            if heavy[c]:
                half_adj[u] |= 1 << v
                half_adj[v] |= 1 << u
        score, _ = score_from_masks(tuple(pos_adj), tuple(half_adj))
        if score >= t:
            continue
        edge_products = [prod(scaled[edges[i]] for i in sp) for sp in subset_pairs]
        numerators = [sum(map(mul, edge_products, w)) for w in weight_products]
        top = max(numerators)
        if best_value is None or top > best_value:
            best_value = top
            ties = []
        if top == best_value:
            ties.append((edges, [i for i, x in enumerate(numerators) if x == top]))

    if best_value is None:
        raise NoFreeGraphError("no t-free graph in the search space")
    canons = sorted(
        {_canonical(table, compositions[i], edges) for edges, idxs in ties for i in idxs}
    )
    graphs = tuple(
        _graph_from_tuples(
            n, tuple(Fraction(k, d) for k in kw), tuple(values[c] for c in ec)
        )
        for kw, ec in canons
    )
    density = Fraction(factorial(s) * best_value, scale ** comb(s, 2) * d**s)
    return BruteForceResult(graphs[0], density, graphs, classes * len(compositions))


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Structural predicates A1-A5 for candidate extremal graphs.

    A1: off-diagonal edge weights all lie in {1/2, 1}.
    A2: vertices split into parts with equal weights inside a part, edge
        weight 1/2 inside and 1 across, b >= s and a + b = t - 1.
    A3: part sizes differ by at most 1.
    A4: larger parts carry per-vertex weights no larger than smaller parts.
    A5: one part of size exactly s, or >= 2 parts all of size <= s - 1.

    A3-A5 are None when no A2 partition exists.
    """

    a1: bool
    a2: bool
    a3: bool | None
    a4: bool | None
    a5: bool | None
    partition: tuple[tuple[int, ...], ...] | None
    details: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return bool(self.a1 and self.a2 and self.a3 and self.a4 and self.a5)


def check_structure(g: WeightedGraph, s: int, t: int) -> StructureReport:
    details: list[str] = []
    n = g.n
    a1 = True
    for u in range(n):
        for v in range(u + 1, n):
            w = g.edge_weights[u][v]
            if w != HALF and w != ONE:
                a1 = False
                details.append(
                    f"A1: w({u},{v}) = {format_fraction(w)} not in {{1/2, 1}}"
                )
    partition = None
    a2 = a1  # any off-binary edge weight also rules the partition out
    if a1 and n >= 1:
        # parts = connected components of the half-weight relation
        part_id = [-1] * n
        parts: list[list[int]] = []
        for v in range(n):
            if part_id[v] != -1:
                continue
            stack = [v]
            part_id[v] = len(parts)
            members = []
            while stack:
                x = stack.pop()
                members.append(x)
                for y in range(n):
                    if y != x and part_id[y] == -1 and g.edge_weights[x][y] == HALF:
                        part_id[y] = len(parts)
                        stack.append(y)
            parts.append(sorted(members))
        for members in parts:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    if g.edge_weights[members[i]][members[j]] != HALF:
                        a2 = False
                        details.append(
                            f"A2: vertices {members[i]},{members[j]} share a part "
                            "but are not joined by weight 1/2"
                        )
            first_w = g.vertex_weights[members[0]]
            for v in members[1:]:
                if g.vertex_weights[v] != first_w:
                    a2 = False
                    details.append(
                        f"A2: unequal vertex weights inside part {tuple(members)}"
                    )
                    break
        a = len(parts)
        b = n
        if b < s:
            a2 = False
            details.append(f"A2: b = {b} < s = {s}")
        if a + b != t - 1:
            a2 = False
            details.append(f"A2: a + b = {a + b} != t - 1 = {t - 1}")
        if a2:
            partition = tuple(
                tuple(members)
                for members in sorted(parts, key=lambda m: (-len(m), m))
            )
    a3 = a4 = a5 = None
    if a2 and partition is not None:
        sizes = [len(p) for p in partition]
        a3 = max(sizes) - min(sizes) <= 1
        if not a3:
            details.append(f"A3: part sizes {sizes} differ by more than 1")
        a4 = True
        for pi in partition:
            for pj in partition:
                if len(pi) >= len(pj) and g.vertex_weights[pi[0]] > g.vertex_weights[pj[0]]:
                    a4 = False
                    details.append(
                        "A4: a larger part carries a larger per-vertex weight"
                    )
                    break
            if not a4:
                break
        a = len(partition)
        a5 = (a == 1 and sizes[0] == s) or (a >= 2 and max(sizes) <= s - 1)
        if not a5:
            details.append(f"A5: sizes {sizes} violate the size alternative for s={s}")
    elif not a2:
        details.append("A3-A5 not evaluated: no A2 partition")
    return StructureReport(a1, a2, a3, a4, a5, partition, tuple(details))


# ---------------------------------------------------------------------------
# two-part decomposition machinery
# ---------------------------------------------------------------------------


def two_part_graph(p: RationalLike, P: int, q: RationalLike, Q: int) -> WeightedGraph:
    """Two parts of sizes P and Q with per-vertex weights p and q."""
    pf, qf = as_fraction(p), as_fraction(q)
    if pf * P + qf * Q != ONE:
        raise ValueError("pP + qQ must equal 1")
    weights = [pf] * P + [qf] * Q
    n = P + Q
    mat = tuple(
        tuple(
            ZERO
            if u == v
            else (HALF if (u < P) == (v < P) else ONE)
            for v in range(n)
        )
        for u in range(n)
    )
    return WeightedGraph(tuple(weights), mat)


def two_part_basis(
    m: int, r: int, p: RationalLike, P: int, q: RationalLike, Q: int
) -> Fraction:
    """Basis quantity for two-part K_m-densities: ordered K_m copies with r
    labelled vertices in each part.

    Equals sum over x + y = m, x,y >= r of
    C(P,x) p^x C(Q,y) q^y * x!y! / ((x-r)! (y-r)!).
    """
    if r < 0 or 2 * r > m:
        raise ValueError("need 0 <= r <= m/2")
    if P < 1 or Q < 1:
        raise ValueError("P and Q must be positive")
    pf, qf = as_fraction(p), as_fraction(q)
    total = ZERO
    for x in range(r, m - r + 1):
        y = m - x
        cx = comb(P, x)
        cy = comb(Q, y)
        if cx == 0 or cy == 0:
            continue
        total += cx * pf**x * cy * qf**y * perm(x, r) * perm(y, r)
    return total


def basis_coefficients(m: int) -> list[Fraction]:
    """Positive coefficients expressing the two-part K_m-density in the basis.

    Solved by forward substitution from
    (m! / 2^C(m,2)) * 2^(r(m-r)) = sum_{i<=r} r!(m-r)!/((r-i)!(m-r-i)!) c_i.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    target = Fraction(factorial(m), 2 ** comb(m, 2))
    cs: list[Fraction] = []
    for r in range(m // 2 + 1):
        lhs = target * 2 ** (r * (m - r))
        acc = ZERO
        for i in range(r):
            acc += Fraction(factorial(r) * factorial(m - r), factorial(r - i) * factorial(m - r - i)) * cs[i]
        diag = Fraction(factorial(r) * factorial(m - r), factorial(m - 2 * r))
        cs.append((lhs - acc) / diag)
    return cs


def verify_two_part_decomposition(
    m: int, p: RationalLike, P: int, q: RationalLike, Q: int
) -> bool:
    """Exact identity: two-part K_m-density == sum_r c_r * basis term r."""
    pf, qf = as_fraction(p), as_fraction(q)
    if pf * P + qf * Q != ONE:
        raise ValueError("pP + qQ must equal 1")
    lhs = parts_density([(P, pf), (Q, qf)], m)
    cs = basis_coefficients(m)
    rhs = sum(
        (c * two_part_basis(m, r, pf, P, qf, Q) for r, c in enumerate(cs)), ZERO
    )
    return lhs == rhs


def maclaurin_gap(xs: list[RationalLike], k: int) -> Fraction:
    """C(n,k) * mean^k minus the k-th elementary symmetric polynomial.

    Nonnegative for positive entries, zero exactly on constant vectors.
    """
    vals = [as_fraction(x) for x in xs]
    n = len(vals)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= len(xs)")
    for x in vals:
        if x <= 0:
            raise ValueError("entries must be positive")
    mean = sum(vals, ZERO) / n
    # elementary symmetric polynomial via prod (1 + x_i z), truncated at z^k
    coeffs = [ONE] + [ZERO] * k
    for x in vals:
        for j in range(min(k, len(coeffs) - 1), 0, -1):
            coeffs[j] += coeffs[j - 1] * x
    return comb(n, k) * mean**k - coeffs[k]


# ---------------------------------------------------------------------------
# strict density-improvement comparisons for unbalanced two-part graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaComparison:
    m: int
    base: Fraction
    improved: Fraction

    @property
    def strict(self) -> bool:
        return self.base < self.improved


@dataclass(frozen=True)
class LemmaSuiteReport:
    hypothesis: str | None  # unbalanced-heavy | unbalanced-light | balanced-unequal
    transformation: str | None  # edge-flip | part-rebalance | weight-average
    comparisons: tuple[LemmaComparison, ...]

    @property
    def applicable(self) -> bool:
        return self.hypothesis is not None

    @property
    def all_strict(self) -> bool:
        return self.applicable and all(c.strict for c in self.comparisons)


def _flip_heavy_vertex(g: WeightedGraph, u: int) -> WeightedGraph:
    """Swap u's edge weights between 1/2 and 1 (w -> 3/2 - w)."""
    n = g.n
    mat = [list(row) for row in g.edge_weights]
    for v in range(n):
        if v != u:
            w = Fraction(3, 2) - mat[u][v]
            mat[u][v] = mat[v][u] = w
    return WeightedGraph(g.vertex_weights, tuple(tuple(row) for row in mat))


def _average_cross_pair(g: WeightedGraph, u: int, v: int) -> WeightedGraph:
    """Replace the weights of u and v by their average; edges unchanged."""
    avg = (g.vertex_weights[u] + g.vertex_weights[v]) / 2
    weights = list(g.vertex_weights)
    weights[u] = avg
    weights[v] = avg
    return WeightedGraph(tuple(weights), g.edge_weights)


def lemma_inequality_suite(
    P: int, Q: int, p: RationalLike, q: RationalLike, m_max: int
) -> LemmaSuiteReport:
    """Check the strict density improvements for an unbalanced or
    unevenly-weighted two-part graph, in exact arithmetic.

    Hypotheses (at most one applies):
      unbalanced-heavy:  P >= Q+1 and (P-1)p > Qq
      unbalanced-light:  P >= Q+2 and (P-1)p <= Qq
      balanced-unequal:  P == Q and p != q

    Constructions: the heavy case flips one heavy vertex's edges between 1/2
    and 1 when P >= Q+2. When P = Q+1 the flip leaves the half-edge count,
    and hence the full-vertex density, unchanged, so that case instead
    averages one vertex weight from each part (the same move as the balanced
    case); the averaged pair strictly gains at every order because the
    joint-weight product rises while no edge changes. The light case moves a
    vertex between parts, rescaling class weights so class totals persist.
    The improved graph must have strictly larger K_m-density for every
    2 <= m <= min(m_max, P+Q) whenever a hypothesis holds.
    """
    pf, qf = as_fraction(p), as_fraction(q)
    if pf * P + qf * Q != ONE:
        raise ValueError("pP + qQ must equal 1")
    base = two_part_graph(pf, P, qf, Q)
    improved: WeightedGraph | None = None
    hypothesis: str | None = None
    transformation: str | None = None
    if P >= Q + 1 and (P - 1) * pf > Q * qf:
        hypothesis = "unbalanced-heavy"
        if P >= Q + 2:
            transformation = "edge-flip"
            improved = _flip_heavy_vertex(base, 0)
        else:
            transformation = "weight-average"
            improved = _average_cross_pair(base, 0, P)
    elif P >= Q + 2 and (P - 1) * pf <= Q * qf:
        hypothesis = "unbalanced-light"
        transformation = "part-rebalance"
        p2 = P * pf / (P - 1)
        q2 = Q * qf / (Q + 1)
        improved = two_part_graph(p2, P - 1, q2, Q + 1)
    elif P == Q and pf != qf:
        hypothesis = "balanced-unequal"
        transformation = "weight-average"
        improved = _average_cross_pair(base, 0, P)
    if improved is None:
        return LemmaSuiteReport(None, None, ())
    comparisons = tuple(
        LemmaComparison(m, ks_density(base, m), ks_density(improved, m))
        for m in range(2, min(m_max, P + Q) + 1)
    )
    return LemmaSuiteReport(hypothesis, transformation, comparisons)
