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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, factorial, gcd

# The benchmark tracer patches class_poly, parts_density, spec_density,
# optimize_spec and rho under their names in this module, so all five stay
# attributes here even where this module does not call them.
from .partitions import (
    PartitionSpec,
    WeightAssignment,
    class_poly,
    enumerate_specs,
    parts_density,  # noqa: F401
    spec_density,
    uniform_assignment,
)
from .weighted import ONE, ZERO

REFINE_BITS = 64  # refined maxima and unseparated root clusters are 2^-64 wide
SNAP_BITS = 40  # certify the simplest rational within 2^-40 of each maximum


@dataclass(frozen=True)
class SpecOptimum:
    spec: PartitionSpec
    weights: WeightAssignment
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
    (a walk down the Stern-Brocot tree by continued fractions)."""
    n = ceil(lo)
    if n <= hi:
        return Fraction(n)
    f = n - 1
    return f + 1 / _simplest_between(1 / (hi - f), 1 / (lo - f))


def optimize_spec(spec: PartitionSpec) -> SpecOptimum:
    """Certified point and upper bound of the density over one skeleton.

    One size class forces the uniform assignment, and upper == certified.
    With two classes, x = S_L * p in (0, 1) is the free parameter, where p
    is the per-vertex weight of the larger class and S_L the number of its
    vertices; see the module docstring for the method. The returned
    assignment is always strictly positive: an endpoint limit that beats
    every interior point raises `upper`, never `certified`.
    """
    s = spec.s
    classes = spec.size_classes()
    if len(classes) == 1:
        w = uniform_assignment(spec)
        cert = spec_density(spec, w, s)
        return SpecOptimum(spec, w, cert, cert)

    (n_large, k_large), (n_small, k_small) = classes
    sum_large = n_large * k_large
    sum_small = n_small * k_small
    alpha = class_poly(n_large, k_large, s)
    beta = class_poly(n_small, k_small, s)
    alpha += [ZERO] * (s + 1 - len(alpha))
    beta += [ZERO] * (s + 1 - len(beta))
    den_a = max(x.denominator for x in alpha)  # both arrays are dyadic
    den_b = max(x.denominator for x in beta)
    c = [
        (u.numerator * den_a // u.denominator) * (v.numerator * den_b // v.denominator)
        * sum_small**j * sum_large ** (s - j)
        for j, (u, v) in enumerate(zip(alpha, reversed(beta)))
    ]
    g = gcd(*c) or 1  # F = 0 when the skeleton has fewer than s vertices
    c = [x // g for x in c]
    # density = scale * F(x)
    scale = Fraction(factorial(s) * g, den_a * den_b * sum_large**s * sum_small**s)

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
    slope = s * max(Fraction(x, comb(s, j)) for j, x in enumerate(c))  # >= |F'|
    upper = max(
        [best_f, Fraction(c[0]), Fraction(c[s])]
        + [
            Fraction(_dyadic_eval(power, a, k), 1 << (k * s)) + slope / (1 << k)
            for a, k in intervals
        ]
    )
    weights = WeightAssignment(
        ((n_large, best_x / sum_large), (n_small, (1 - best_x) / sum_small))
    )
    return SpecOptimum(spec, weights, scale * best_f, scale * upper)


def rho(s: int, t: int) -> OptimizationResult:
    """Maximize the certified density over every admissible skeleton."""
    if not (2 <= s <= t - 2):
        raise ValueError("need 2 <= s <= t - 2")
    specs = enumerate_specs(s, t)
    optima = [optimize_spec(sp) for sp in specs]
    density = max(o.certified for o in optima)
    ties = tuple(i for i, o in enumerate(optima) if o.certified == density)
    return OptimizationResult(s, t, tuple(optima), ties[0], density, ties)


def audit_conjecture(s: int, t: int) -> AuditReport:
    """Compare the observed best b against max(s, floor(t/2))."""
    result = rho(s, t)
    conjectured_b = max(s, t // 2)
    at_conjectured = [
        o.certified for o in result.per_spec if o.spec.b == conjectured_b
    ]
    if not at_conjectured:
        raise RuntimeError(f"no admissible skeleton at the conjectured b={conjectured_b}")
    margin = result.density - max(at_conjectured)
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
