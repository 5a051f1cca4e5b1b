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

from .freeness import score_from_masks
from .partitions import parts_density, parts_graph, size_rule
from .rationals import RationalLike, as_fraction, format_fraction
from .weighted import HALF, ONE, ZERO, EnumerationLimitError, WeightedGraph, ks_density

SEARCH_SPACE_LIMIT = 10**8
# The search stores every weight composition (a tuple of n ints) and, per
# s-subset, its weight product in a packed field of a few bytes: C(D-1, n-1) *
# (C(n, s) + n) cells. Peak RSS measured at this limit: 0.5 GiB at n = s = 3,
# 0.7 GiB at n = s = 2 and 1.0 GiB at n = 3, s = 0, where every composition
# ties; the orbit bytearray adds at most SEARCH_SPACE_LIMIT bytes.
WEIGHT_CELL_LIMIT = 10**7
BASIS_M_LIMIT = 200  # basis_coefficients: 1.5 s at m = 200, > 120 s at m = 600


class SearchSpaceError(EnumerationLimitError):
    """The requested brute-force search exceeds the documented budget."""

    def __init__(self, size: int, limit: int = SEARCH_SPACE_LIMIT, unit: str = "states"):
        super().__init__(f"search space of {size} {unit} exceeds the limit of {limit}")
        self.size = size


class BasisLimitError(EnumerationLimitError):
    """basis_coefficients was asked for m above BASIS_M_LIMIT."""


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


def search_space_size(cfg: SearchConfig) -> int:
    compositions = comb(cfg.weight_denominator - 1, cfg.n - 1)
    return compositions * len(cfg.edge_alphabet) ** comb(cfg.n, 2)


def search_weight_cells(cfg: SearchConfig) -> int:
    """Cells the search stores: one composition tuple entry per vertex and one
    packed weight-product field per s-subset, for every composition."""
    compositions = comb(cfg.weight_denominator - 1, cfg.n - 1)
    return compositions * (comb(cfg.n, cfg.s) + cfg.n)


@dataclass(frozen=True)
class BruteForceResult:
    best: WeightedGraph
    density: Fraction
    # one optimum graph per isomorphism class for every n, least key first
    maximizers: tuple[WeightedGraph, ...]
    # (edge assignment, weight composition) pairs evaluated, one assignment
    # per permutation orbit
    searched: int


def _tile(value: int, width: int, m: int) -> int:
    """m big-endian fields of `width` bytes that each hold `value`, as one int."""
    return int.from_bytes(value.to_bytes(width, "big") * m, "big")


def _guard_addends(best: int, width: int, m: int) -> tuple[int, int]:
    """(reach, beat): for m fields of `width` bytes, each below 2^(8 width - 1),
    the top bit of a field of packed + reach (+ beat) is set exactly when the
    field is >= best (> best). No field's sum carries into the next one."""
    reach = _tile((1 << 8 * width - 1) - best, width, m)
    return reach, reach - _tile(1, width, m)


def _unpack(packed: int, width: int, m: int):
    """The m fields of `packed`, most significant first, as tuples of bytes."""
    return zip(*[iter(packed.to_bytes(width * m, "big"))] * width)


def brute_force_extremal(cfg: SearchConfig) -> BruteForceResult:
    """Exact discrete maximizer of the K_s-density over t-free graphs.

    Vertex weights are positive multiples of 1/D summing to 1; edge weights
    come from the alphabet. The search runs on integer codes: each edge value
    is its rank among the V distinct alphabet values, an edge assignment is
    its base-V number (first pair most significant), and each weight tuple is
    its integer composition k of D. Freeness depends only on the edge
    assignment, so it is checked once per assignment.

    With two or more distinct letters the search builds one table of the n!
    vertex permutations; the space limit keeps n <= 7 (2^28 > 10^8), so the
    table has at most 5040 entries. The first assignment of each orbit is
    evaluated and the code of every image under the table is marked as seen.
    Each tied maximizer is keyed by its least (permuted weights, image code)
    over the same table, so `maximizers` holds one graph per isomorphism
    class for every n. The least weights are the sorted composition, so only
    the permutations that sort it are tried; they are listed once per tied
    composition. A one-letter alphabet has a single assignment and no table:
    its ties are isomorphic exactly when their weight multisets agree, so
    they are keyed by sorted weights.

    The density numerator of composition k is sum over s-subsets of (edge
    product scaled by the lcm L of the alphabet denominators) * (product of
    k_v), an exact integer; the one Fraction s! * best / (L^C(s,2) * D^s) is
    formed at the end. `best` is the maximizer with the least key.

    All m numerators of an orbit come from one sum (Kronecker substitution):
    its edge products times one packed column per s-subset, which holds that
    subset's weight products in m big-endian fields of w bytes, composition 0
    first. w fits max(1, largest edge product) times Maclaurin's bound e_s(k)
    <= C(n, s) (D/n)^s plus a spare top bit, so no field carries into the next
    and two guard-bit tests find whether some field beats or reaches the best
    so far. Only a new best unpacks the fields; tied compositions are read at
    the end from the packed sums kept for the tying orbits.
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
    base = len(values)
    scale = lcm(*(w.denominator for w in values))
    scaled = [int(w * scale) for w in values]
    positive = [w > 0 for w in values]
    heavy = [w > HALF for w in values]
    # positive compositions of d into n parts, by stars and bars over the cuts
    compositions = [
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, d)))
        for cuts in combinations(range(1, d), n - 1)
    ]
    subsets = list(combinations(range(n), s))
    subset_pairs = [[pair_index[pair] for pair in combinations(sub, 2)] for sub in subsets]
    m = len(compositions)
    width = (max(max(scaled), 1) ** comb(s, 2) * comb(n, s) * d**s // n**s).bit_length() // 8 + 1
    guards = _tile(1 << 8 * width - 1, width, m)
    columns = []  # per s-subset, its weight product for every composition, packed
    for sub in subsets:
        column = bytearray()  # grown in place: no list of m field objects
        for k in compositions:
            column += prod(k[v] for v in sub).to_bytes(width, "big")
        columns.append(int.from_bytes(column, "big"))
    place = [base ** (len(pairs) - 1 - j) for j in range(len(pairs))]
    # per permutation p: its inverse, which reads the weights of the image,
    # and the places that move the letter of pair (u, v) to (p[u], p[v])
    table = [
        (
            tuple(sorted(range(n), key=p.__getitem__)),
            [place[pair_index[min(p[u], p[v]), max(p[u], p[v])]] for u, v in pairs],
        )
        for p in (permutations(range(n)) if base > 1 else ())
    ]
    seen = bytearray(base ** len(pairs))
    sorting: dict[tuple[int, ...], list] = {}

    def least_image(k: tuple[int, ...], edges: tuple[int, ...]) -> tuple[tuple, int]:
        weights = tuple(sorted(k))
        if not table:
            return weights, 0
        # a permutation sorts k exactly when it sorts k's rank pattern
        ranks = tuple(map(weights.index, k))
        if ranks not in sorting:
            sorting[ranks] = [places for inv, places in table if tuple(k[v] for v in inv) == weights]
        return weights, min(sum(map(mul, edges, places)) for places in sorting[ranks])

    best_value = -1
    reach, beat = _guard_addends(best_value, width, m)
    ties: list = []  # (edge codes, packed numerators) reaching best_value
    classes = 0
    for edges in product(range(base), repeat=len(pairs)):
        if seen[sum(map(mul, edges, place))]:
            continue
        for _, places in table:
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
        packed = sum(map(mul, edge_products, columns))
        if (packed + beat) & guards:
            best_value = int.from_bytes(bytes(max(_unpack(packed, width, m))), "big")
            reach, beat = _guard_addends(best_value, width, m)
            ties = []
        if (packed + reach) & guards:
            ties.append((edges, packed))

    if not ties:
        raise NoFreeGraphError("no t-free graph in the search space")
    top = tuple(best_value.to_bytes(width, "big"))
    tied = ((i, edges) for edges, packed in ties for i, f in enumerate(_unpack(packed, width, m)) if f == top)
    keys = sorted({least_image(compositions[i], edges) for i, edges in tied})
    graphs = tuple(
        WeightedGraph.build(
            [Fraction(k, d) for k in kw],
            [(u, v, w) for (u, v), pl in zip(pairs, place) if (w := values[code // pl % base])],
        )
        for kw, code in keys
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
    A5: `partitions.size_rule`, which `enumerate_specs` applies: for s >= 3
        one part of size exactly s, or >= 2 parts all of size <= s - 1.

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
    ew = g.edge_weights
    off = [(u, v) for u in range(n) for v in range(u + 1, n) if ew[u][v] not in (HALF, ONE)]
    a1 = not off
    details += [f"A1: w({u},{v}) = {format_fraction(ew[u][v])} not in {{1/2, 1}}" for u, v in off]
    partition = None
    a2 = a1  # any off-binary edge weight also rules the partition out
    if a1:
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
                    if y != x and part_id[y] == -1 and ew[x][y] == HALF:
                        part_id[y] = len(parts)
                        stack.append(y)
            parts.append(sorted(members))
        for members in parts:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    if ew[members[i]][members[j]] != HALF:
                        a2 = False
                        details.append(
                            f"A2: vertices {members[i]},{members[j]} share a part "
                            "but are not joined by weight 1/2"
                        )
            if len({g.vertex_weights[v] for v in members}) > 1:
                a2 = False
                details.append(f"A2: unequal vertex weights inside part {tuple(members)}")
        if n < s:
            a2 = False
            details.append(f"A2: b = {n} < s = {s}")
        if len(parts) + n != t - 1:
            a2 = False
            details.append(f"A2: a + b = {len(parts) + n} != t - 1 = {t - 1}")
        if a2:
            partition = tuple(tuple(m) for m in sorted(parts, key=lambda m: (-len(m), m)))
    a3 = a4 = a5 = None
    if a2:  # a partition was built, possibly empty when n = 0
        sizes = [len(p) for p in partition]
        a3 = not sizes or max(sizes) - min(sizes) <= 1
        if not a3:
            details.append(f"A3: part sizes {sizes} differ by more than 1")
        pw = [(size, g.vertex_weights[p[0]]) for size, p in zip(sizes, partition)]
        a4 = not any(si >= sj and wi > wj for si, wi in pw for sj, wj in pw)
        if not a4:
            details.append("A4: a larger part carries a larger per-vertex weight")
        a5 = size_rule(s, len(sizes), sizes[0] if sizes else 0)
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
    return parts_graph([(P, pf), (Q, qf)])


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
    m above BASIS_M_LIMIT raises BasisLimitError before any work.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > BASIS_M_LIMIT:
        raise BasisLimitError(f"m = {m} exceeds the limit of {BASIS_M_LIMIT}")
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
