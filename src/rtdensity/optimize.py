"""Weight optimization over partition skeletons and the conjecture audit.

For a fixed skeleton the feasible weights form at most a one-dimensional
family: equal-size parts share a weight and the weights sum to one. A single
size class forces the uniform weights. With two classes let x be the total
weight of the larger class. For x in (0, 1) the density is a positive
rational constant times the integer polynomial

    F(x) = sum_j c_j x^j (1 - x)^(s - j),

built once per skeleton from the two `partitions.class_poly` factors. The
solver isolates the roots of F' in (0, 1) with Descartes' rule of signs and
bisection by Taylor shifts (Collins & Akritas, SYMSAC 1976), refines each
local maximum by integer sign tests to width 2^-64, and evaluates F exactly
at the uniform point, at every exact root and at the simplest rational
within 2^-40 of each refined maximum. Only Python integers and `Fraction`s
are used, so every s is in range. Each skeleton reports two exact values:

- `certified`, the density at the best of those points, a concrete positive
  rational weight assignment, so `certified` <= supremum;
- `upper` >= supremum: the largest of the two endpoint limits (a class
  weight tending to 0, i.e. the other class alone), `certified`, and
  F(l) + (h - l) * M over each refined interval [l, h], where
  M = s * max_j c_j / C(s, j) bounds |F'| on [0, 1] because the Bernstein
  coefficients c_j / C(s, j) of F are nonnegative.

The same coefficients bound F itself: F <= max_j c_j / C(s, j) on [0, 1]
(Lane & Riesenfeld, BIT 1981). `audit_conjecture`, and `periodicity_check`
through it, use that bound for branch and bound over skeletons: a skeleton
whose bound is strictly below the best `certified` found so far can be
neither the winner nor a tie, so it skips root isolation, refinement and
snapping. A pruned skeleton still reports a valid enclosure: `certified` is
F at the uniform point, a real weighting, and `upper` is the Bernstein
bound. `rho`, and so the `density` command, which prints every skeleton's
`certified` and `upper`, never prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd

# The benchmark tracer patches class_poly, parts_density, spec_density,
# optimize_spec and rho under their names in this module, so all five stay
# attributes here even where this module does not call them.
from .partitions import (
    PartitionSpec,
    class_poly,
    enumerate_specs,
    parts_density,  # noqa: F401
    spec_density,
    uniform_assignment,
)
from .weighted import ONE

REFINE_BITS = 64  # refined maxima and unseparated root clusters are 2^-64 wide
SNAP_BITS = 40  # certify the simplest rational within 2^-40 of each maximum


@dataclass(frozen=True)
class SpecOptimum:
    spec: PartitionSpec
    weights: tuple[Fraction, ...]  # per-vertex weight of each of spec.classes
    certified: Fraction  # exact density at `weights`, <= the spec's supremum
    upper: Fraction  # exact bound, >= the spec's supremum


@dataclass(frozen=True)
class OptimizationResult:
    s: int
    t: int
    per_spec: tuple[SpecOptimum, ...]
    best_index: int
    density: Fraction
    ties: tuple[int, ...]  # indices whose certified density equals the max
    upper: Fraction  # the largest per_spec upper, >= every skeleton's supremum


@dataclass(frozen=True)
class AuditReport:
    s: int
    t: int
    conjectured_b: int
    observed_b: int
    counterexample: bool
    margin: Fraction  # best density minus best density at the conjectured b
    result: OptimizationResult


@dataclass(frozen=True)
class PeriodicityRow:
    t: int
    observed_b: int
    conjectured_b: int
    matches: bool


@dataclass(frozen=True)
class ConcavityFailure:
    a: int
    b: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class PeriodicityReport:
    s: int
    rows: tuple[PeriodicityRow, ...]
    concavity_ok: bool
    concavity_pairs: int
    concavity_failures: tuple[ConcavityFailure, ...]


def _taylor_shift1(c: list[int]) -> list[int]:
    """Coefficients of p(x + 1), lowest degree first."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _sign_changes(c: list[int]) -> int:
    signs = [x > 0 for x in c if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _dyadic_eval(c: list[int], a: int, k: int) -> int:
    """2^(k*deg) * p(a / 2^k) for p with coefficients c, by homogeneous Horner."""
    v = 0
    for i, x in enumerate(reversed(c)):
        v = v * a + (x << (k * i))
    return v


def _hom_eval(c: list[int], u: int, v: int) -> int:
    """v^deg * p(u / v) for p with coefficients c."""
    acc, vp = 0, 1
    for x in reversed(c):
        acc = acc * u + x * vp
        vp *= v
    return acc


def _isolate(h: list[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Roots of h in (0, 1), given h(0) != 0 and h(1) != 0.

    Dyadics (a, k) stand for a / 2^k. Returns the roots found exactly and the
    intervals [a / 2^k, (a + 1) / 2^k] where h may go from + to -: those
    holding one root at which it does, and clusters of roots still
    unseparated at width 2^-REFINE_BITS.
    """
    roots, peaks = [], []
    stack = [(h, 0, 0)]  # p(x) is a positive multiple of h((x + a) / 2^k)
    while stack:
        p, a, k = stack.pop()
        v = _sign_changes(_taylor_shift1(p[::-1]))  # Descartes' bound on (0, 1)
        if (v == 1 and p[0] > 0) or (v > 1 and k == REFINE_BITS):
            peaks.append((a, k))
        if v < 2 or k == REFINE_BITS:
            continue
        deg = len(p) - 1
        left = [c << (deg - i) for i, c in enumerate(p)]
        right = _taylor_shift1(left)
        if right[0] == 0:  # the midpoint is a root: divide it out
            roots.append((2 * a + 1, k + 1))
            right = right[next(i for i, c in enumerate(right) if c):]
        stack += [(left, 2 * a, k + 1), (right, 2 * a + 1, k + 1)]
    return roots, peaks


def _refine(h: list[int], a: int, k: int) -> tuple[int, int, bool]:
    """Bisect a peak interval of h down to width 2^-REFINE_BITS.

    h > 0 just right of a / 2^k and changes sign once inside. Returns the
    final interval as (a, k, False), or (a, k, True) if a / 2^k is a root.
    """
    while k < REFINE_BITS:
        a, k = 2 * a + 1, k + 1  # the midpoint
        sign = _dyadic_eval(h, a, k)
        if sign == 0:
            return a, k, True
        if sign < 0:
            a -= 1
    return a, k, False


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the least denominator in [lo, hi], 0 < lo <= hi
    (a walk down the Stern-Brocot tree by continued fractions).

    Each step takes the common integer part f of lo = p/q and hi = r/u and
    goes on with [1/(hi - f), 1/(lo - f)]; (h1 y + h0) / (k1 y + k0) maps the
    current interval's point y back to the original one."""
    p, q, r, u = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        n = -(-p // q)  # ceil(lo)
        if n * u <= r:  # n <= hi
            return Fraction(h1 * n + h0, k1 * n + k0)
        f = n - 1
        p, q, r, u = u, r - f * u, q, p - f * q
        h0, h1, k0, k1 = h1, f * h1 + h0, k1, f * k1 + k0


def _bernstein(spec: PartitionSpec) -> tuple[list[int], Fraction]:
    """(c, scale) of a two-class skeleton: its density is scale * F(x) with
    F(x) = sum_j c_j x^j (1 - x)^(s - j) and coprime integers c_j >= 0."""
    s = spec.s
    (n_large, k_large), (n_small, k_small) = spec.classes
    sum_large = n_large * k_large
    sum_small = n_small * k_small
    alpha, e_large = class_poly(n_large, k_large, s)
    beta, e_small = class_poly(n_small, k_small, s)
    c = [
        u * v * sum_small**j * sum_large ** (s - j)
        for j, (u, v) in enumerate(zip(alpha, reversed(beta)))
    ]
    g = gcd(*c) or 1  # F = 0 when the skeleton has fewer than s vertices
    scale = Fraction(
        factorial(s) * g, (sum_large**s * sum_small**s) << (e_large + e_small)
    )
    return [x // g for x in c], scale


def _bernstein_max(c: list[int]) -> Fraction:
    """max_j c_j / C(s, j) >= F on [0, 1]: F is a convex combination of its
    Bernstein coefficients c_j / C(s, j)."""
    s = len(c) - 1
    num, den = c[0], 1
    for j, x in enumerate(c):
        binom = comb(s, j)
        if x * den > num * binom:  # x / binom > num / den, on integers
            num, den = x, binom
    return Fraction(num, den)


def bound_spec(spec: PartitionSpec, built: tuple[list[int], Fraction] | None = None) -> SpecOptimum:
    """An enclosure of one skeleton's supremum without root isolation.

    `certified` is the density at the uniform point and `upper` the
    Bernstein bound scale * max_j c_j / C(s, j). A single size class is
    exact, as in `optimize_spec`. `built` is the skeleton's `_bernstein`
    (c, scale), if the caller has it.
    """
    if len(spec.classes) == 1:
        return optimize_spec(spec)
    (n_large, k_large), (n_small, k_small) = spec.classes
    c, scale = built or _bernstein(spec)
    uniform = Fraction(_hom_eval(c, n_large * k_large, n_small * k_small), spec.b**spec.s)
    return SpecOptimum(spec, uniform_assignment(spec), scale * uniform, scale * _bernstein_max(c))


def optimize_spec(spec: PartitionSpec, built: tuple[list[int], Fraction] | None = None) -> SpecOptimum:
    """Certified point and upper bound of the density over one skeleton.

    One size class forces the uniform assignment, and upper == certified.
    With two classes, x = S_L * p in (0, 1) is the free parameter, where p
    is the per-vertex weight of the larger class and S_L the number of its
    vertices; see the module docstring for the method. The returned
    assignment is always strictly positive: an endpoint limit that beats
    every interior point raises `upper`, never `certified`. `built` is the
    skeleton's `_bernstein` (c, scale), if the caller has it.
    """
    s = spec.s
    if len(spec.classes) == 1:
        w = uniform_assignment(spec)
        cert = spec_density(spec, w, s)
        return SpecOptimum(spec, w, cert, cert)

    (n_large, k_large), (n_small, k_small) = spec.classes
    sum_large = n_large * k_large
    sum_small = n_small * k_small
    c, scale = built or _bernstein(spec)

    # F in the power basis, by Horner in 1 - x: F_j = F_{j-1} (1 - x) + c_j x^j
    power = [c[0]]
    for j in range(1, s + 1):
        power = [u - v for u, v in zip(power + [0], [0] + power)]
        power[j] += c[j]
    # F' with its roots at 0 and 1 divided out; x and 1 - x are positive on
    # (0, 1), so h has the sign of F' there
    h = [m * x for m, x in enumerate(power)][1:]
    while h and h[-1] == 0:
        h.pop()
    if h:
        h = h[next(i for i, x in enumerate(h) if x):]
        while sum(h) == 0:  # h = (1 - x) * q with q_i = h_0 + ... + h_i
            h = list(accumulate(h))[:-1]
    roots, peaks = _isolate(h) if len(h) > 1 else ([], [])

    intervals = []
    for a, k in peaks:
        a, k, exact = _refine(h, a, k)
        (roots if exact else intervals).append((a, k))
    # the uniform point x = S_L / b, every exact root, and a short rational
    # near each interval, kept strictly inside (0, 1)
    eps = Fraction(1, 1 << SNAP_BITS)
    candidates = {Fraction(sum_large, spec.b)} | {Fraction(a, 1 << k) for a, k in roots}
    for a, k in intervals:
        mid = Fraction(2 * a + 1, 1 << (k + 1))
        lo, hi = max(mid - eps, mid / 2), min(mid + eps, (1 + mid) / 2)
        candidates.add(_simplest_between(lo, hi))
    best_f, best_x = max(
        (Fraction(_hom_eval(power, x.numerator, x.denominator), x.denominator**s), x)
        for x in candidates
    )

    # the supremum is F(0) or F(1), the limits with one class deleted, or a
    # maximum at an exact root (<= best_f) or inside one of the intervals
    slope = s * _bernstein_max(c)  # >= |F'|
    upper = max(
        [best_f, Fraction(c[0]), Fraction(c[s])]
        + [
            Fraction(_dyadic_eval(power, a, k), 1 << (k * s)) + slope / (1 << k)
            for a, k in intervals
        ]
    )
    weights = (best_x / sum_large, (1 - best_x) / sum_small)
    return SpecOptimum(spec, weights, scale * best_f, scale * upper)


def _result(s: int, t: int, optima: list[SpecOptimum]) -> OptimizationResult:
    density = max(o.certified for o in optima)
    ties = tuple(i for i, o in enumerate(optima) if o.certified == density)
    upper = max(o.upper for o in optima)
    return OptimizationResult(s, t, tuple(optima), ties[0], density, ties, upper)


def rho(s: int, t: int) -> OptimizationResult:
    """Maximize the certified density over every admissible skeleton."""
    return _result(s, t, [optimize_spec(sp) for sp in enumerate_specs(s, t)])


def audit_conjecture(s: int, t: int) -> AuditReport:
    """Compare the observed best b against max(s, floor(t/2)).

    Branch and bound over the skeletons: the one at the conjectured b, the
    smallest b `enumerate_specs` admits, is optimized in full, and every
    other one is first enclosed by `bound_spec`. The best `certified` so
    far starts at the largest of these values. Skeletons are then taken in
    order of decreasing bound, and each one whose bound is not strictly
    below the best so far is optimized in full. A skeleton left pruned can
    be neither the winner nor a tie, so `result` has the density, winner
    and ties of `rho(s, t)`, and each of its entries is still a valid
    enclosure.

    The conjectured b always passes `size_rule`, so it is `specs[0]`: with
    a = t - 1 - b, either a = 1 and b = t - 2 = s, or a >= 2 and the
    largest part ceil(b/a) <= max(ceil(s/2), 2) <= s - 1.
    """
    specs = enumerate_specs(s, t)
    conjectured_b = max(s, t // 2)
    # each two-class skeleton's (c, scale) is built once, for its bound and,
    # if it survives, its full optimization
    built = [_bernstein(sp) if len(sp.classes) == 2 else None for sp in specs]
    optima = [optimize_spec(specs[0], built[0])] + [
        bound_spec(sp, b) for sp, b in zip(specs[1:], built[1:])
    ]
    best = max(o.certified for o in optima)
    for i in sorted(range(1, len(specs)), key=lambda i: optima[i].upper, reverse=True):
        if optima[i].upper < best:
            break
        if optima[i].upper > optima[i].certified:
            optima[i] = optimize_spec(specs[i], built[i])
            best = max(best, optima[i].certified)
    result = _result(s, t, optima)
    margin = result.density - optima[0].certified
    observed_b = result.per_spec[result.best_index].spec.b
    counterexample = observed_b != conjectured_b and margin > 0
    return AuditReport(s, t, conjectured_b, observed_b, counterexample, margin, result)


def balanced_density(x: Fraction | int, s: int) -> Fraction:
    """K_s-density of the complete balanced weighted graph on x vertices.

    Equals prod_{j=1..s-1} (1 - j/x); defined for any rational x != 0, which
    lets midpoints of integers be evaluated exactly.
    """
    xf = Fraction(x)
    if xf == 0:
        raise ValueError("x must be nonzero")
    out = ONE
    for j in range(1, s):
        out *= 1 - Fraction(j) / xf
    return out


def periodicity_check(
    s: int,
    t_max: int,
    concavity_max: int = 40,
) -> PeriodicityReport:
    """Audit every t up to t_max and test midpoint concavity of the balanced
    density above the x >= C(s,2) threshold."""
    if s < 3:
        raise ValueError("s must be at least 3")
    rows = []
    for t in range(s + 2, t_max + 1):
        rep = audit_conjecture(s, t)
        rows.append(
            PeriodicityRow(t, rep.observed_b, rep.conjectured_b, rep.observed_b == rep.conjectured_b)
        )
    x_min = comb(s, 2)
    failures: list[ConcavityFailure] = []
    pairs = 0
    for a in range(x_min, concavity_max + 1):
        for b in range(a, concavity_max + 1):
            pairs += 1
            lhs = balanced_density(a, s) + balanced_density(b, s)
            rhs = 2 * balanced_density(Fraction(a + b, 2), s)
            if lhs > rhs:
                failures.append(ConcavityFailure(a, b, lhs, rhs))
    return PeriodicityReport(s, tuple(rows), not failures, pairs, tuple(failures))
