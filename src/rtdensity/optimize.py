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

All of this runs on the support of c: c_j > 0 exactly for
j0 = max(0, s - S_small) <= j <= min(s, S_large), S a class's vertex count,
and c_j = 0 elsewhere. With tail = s - min(s, S_large), F = x^j0 (1 - x)^tail G
for G with the coefficients core = c[j0 : s + 1 - tail], so
sum_j c_j u^j v^(s-j) = u^j0 v^tail `_hom_eval(core, u, v)`. `_bernstein`
builds only the core and hands on the support (j0, core, tail); the bounds
below read only the core, and only G is put in the power basis
(`_critical_poly`). Past the crossover the core is often under half of c.
Every integer computed is the one the full c gives, so results are the
same.

The same coefficients bound F itself: F <= max_j c_j / C(s, j) on [0, 1]
(Lane & Riesenfeld, BIT 1981). A cheaper bound needs no class polynomial:
with (q, r) = divmod(s, a), any s vertices span at least
m = r C(q+1, 2) + (a - r) C(q, 2) pairs inside parts, each of weight 1/2,
and Maclaurin's inequality gives s! e_s(w) <= prod_{j<s} (1 - j/b) for any
weights w >= 0 summing to 1 on the b vertices, so

    U(b, a) = balanced_density(b, s) / 2^m

bounds the density at every class weighting and at both endpoint limits
(`maclaurin_bound`, O(s) integer work).

A third bound brackets the peak. Write F' = sum_j d_j x^j (1 - x)^(s-1-j)
with d_j = (j+1) c_{j+1} - (s-j) c_j. If the nonzero d_j change sign once,
from + to -, F' has exactly one root p in (0, 1) (variation diminishing,
plus the end signs), so F rises to p and falls after it. Bisecting on the
sign of F', with no power basis, keeps l <= p <= l + 2^-k, and then
sup F = F(p) <= F(l) + M 2^-k (`_bracket_upper`). This bound is never
below the full path's `upper`: its 2^-64 interval nests in [l, l + 2^-k],
or it evaluates F at p itself if p is dyadic. On every two-class skeleton
measured the d_j change sign at most once, and only from + to -; a
monotone F, or any other pattern, is left to the full path.

`audit_conjecture`, and `periodicity_check` through it, use these bounds
for best-first branch and bound over skeletons. It optimizes the
conjectured skeleton in full, then visits the others in order of
decreasing U and stops at the first U strictly below the best `certified`
found so far. A visited skeleton whose Bernstein bound is below the best
so far skips root isolation, refinement and snapping; so does one whose
peak bracket at a width 2^-k of `BRACKET_LEVELS` bounds it below the best,
unless F at the bracket's left end already reaches the best. A skeleton
cut by any of the bounds has a supremum below the best, so it can be
neither the winner nor a tie, and the winner always gets the full
optimization. A cut skeleton still reports a valid enclosure: `certified`
is F at the uniform point, a real weighting, and `upper` is its bracket
bound, its Bernstein bound, or U if it was never visited; an unvisited
entry computes its `certified` on first read. `rho`, and so the `density`
command, which prints every skeleton's `certified` and `upper`, never
prune.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import comb, factorial, gcd, perm
from operator import mul
from typing import Iterable

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
from .weighted import ONE, ZERO

REFINE_BITS = 64  # refined maxima and unseparated root clusters are 2^-64 wide
SNAP_BITS = 40  # certify the simplest rational within 2^-40 of each maximum
BRACKET_LEVELS = (10, 14, 18, 24)  # the audit tries a cut at peak brackets 2^-k wide

# (j0, core, tail) stands for the Bernstein coefficients c = [0] * j0 + core + [0] * tail
_Support = tuple[int, list[int], int]


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


def _powers(x: int, n: int) -> list[int]:
    """[x^0, x^1, ..., x^n], one multiplication each."""
    return list(accumulate(repeat(x, n), mul, initial=1))


def _bernstein(spec: PartitionSpec) -> tuple[_Support, Fraction, Fraction]:
    """(support, scale, top) of a two-class skeleton: its density is
    scale * F(x) with F(x) = sum_j c_j x^j (1 - x)^(s - j), coprime integers
    c_j >= 0 given by support = (j0, core, tail), and top = `_bernstein_max`.

    c_j is a positive multiple of alpha_j beta_(s-j), the two `class_poly`
    coefficients, so it is nonzero exactly for j0 <= j <= j1 with
    j0 = max(0, s - S_small) and j1 = min(s, S_large) = s - tail, S a class's
    vertex count; only those entries are formed. Their common factor
    S_small^j0 S_large^(s-j1) is left out, and the gcd would remove it
    anyway, so c and scale equal those built from all s + 1 entries. A
    skeleton with fewer than s vertices has j0 > j1 and F = 0: its core is
    then s + 1 zeros.
    """
    s = spec.s
    (n_large, k_large), (n_small, k_small) = spec.classes
    sum_large, sum_small = n_large * k_large, n_small * k_small
    j0, j1 = max(0, s - sum_small), min(s, sum_large)
    if j0 > j1:
        return (0, [0] * (s + 1), 0), ONE, ZERO
    # class_poly stops at the true degree, so alpha ends at y^j1, beta at y^(s-j0)
    alpha, e_large = class_poly(n_large, k_large, s)
    beta, e_small = class_poly(n_small, k_small, s)
    pow_large = _powers(sum_large, j1 - j0)
    pow_small = _powers(sum_small, j1 - j0)
    core = [
        u * v * pow_small[i] * pow_large[j1 - j0 - i]
        for i, (u, v) in enumerate(zip(alpha[j0:], reversed(beta[s - j1 :])))
    ]
    g = gcd(*core)
    support = j0, [x // g for x in core], s - j1
    den = (sum_large**j1 * sum_small ** (s - j0)) << (e_large + e_small)
    return support, Fraction(factorial(s) * g, den), _bernstein_max(support)


def _support_eval(support: _Support, x: Fraction) -> Fraction:
    """F(x) for 0 <= x <= 1 from c's support: for x = p / q,
    p^j0 (q - p)^tail `_hom_eval(core, p, q - p)` / q^s."""
    j0, core, tail = support
    p, q = x.numerator, x.denominator
    s = j0 + len(core) - 1 + tail
    return Fraction(p**j0 * (q - p) ** tail * _hom_eval(core, p, q - p), q**s)


def _bernstein_max(support: _Support) -> Fraction:
    """max_j c_j / C(s, j) >= F on [0, 1]: F is a convex combination of its
    Bernstein coefficients c_j / C(s, j). Only the core of c is read."""
    j0, core, tail = support
    s = j0 + len(core) - 1 + tail
    num, den, binom = 0, 1, comb(s, j0)  # binom = C(s, j), carried along j
    for j, x in enumerate(core, j0):
        if x * den > num * binom:  # x / binom > num / den, on integers
            num, den = x, binom
        binom = binom * (s - j) // (j + 1)
    return Fraction(num, den)


def maclaurin_bound(spec: PartitionSpec) -> Fraction:
    """U = balanced_density(b, s) / 2^m >= the skeleton's supremum, in O(s)
    integer work and with no class polynomial.

    With (q, r) = divmod(s, a), m = r C(q+1, 2) + (a - r) C(q, 2) is the
    fewest pairs inside parts that s vertices spread over a parts can span
    (C(n, 2) is convex), so each s-subset's edge product is at most 2^-m,
    and the density is at most s! e_s(w) 2^-m. For any weights w >= 0
    summing to 1 on the b vertices, Maclaurin's inequality gives
    s! e_s(w) <= s! C(b, s) / b^s = prod_{j<s} (1 - j/b). So U bounds every
    class weighting and both endpoint limits.
    """
    s, b, a = spec.s, spec.b, spec.a
    q, r = divmod(s, a)
    m = r * comb(q + 1, 2) + (a - r) * comb(q, 2)
    return Fraction(perm(b - 1, s - 1), b ** (s - 1) << m)


class _CutOptimum(SpecOptimum):
    """A skeleton the audit cut by `maclaurin_bound` alone: uniform weights
    and upper = U. `certified`, the density at those weights, is computed on
    first read, so a caller that never reads it builds no class polynomial."""

    def __init__(self, spec: PartitionSpec, upper: Fraction):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "weights", uniform_assignment(spec))
        object.__setattr__(self, "upper", upper)

    @cached_property
    def certified(self) -> Fraction:
        return bound_spec(self.spec).certified


def bound_spec(
    spec: PartitionSpec, built: tuple[_Support, Fraction, Fraction] | None = None
) -> SpecOptimum:
    """An enclosure of one skeleton's supremum without root isolation.

    `certified` is the density at the uniform point and `upper` the
    Bernstein bound scale * max_j c_j / C(s, j). A single size class is
    exact, as in `optimize_spec`. `built` is the skeleton's `_bernstein`
    (support, scale, top), if the caller has it.
    """
    if len(spec.classes) == 1:
        return optimize_spec(spec)
    (n_large, k_large), (n_small, k_small) = spec.classes
    support, scale, top = built or _bernstein(spec)
    uniform = _support_eval(support, Fraction(n_large * k_large, spec.b))
    return SpecOptimum(spec, uniform_assignment(spec), scale * uniform, scale * top)


def _bracket_upper(
    support: _Support, scale: Fraction, top: Fraction, best: Fraction
) -> Fraction | None:
    """A bound below `best` on scale * F over [0, 1] from a coarse bracket of
    F's one peak, or None if no level of `BRACKET_LEVELS` settles it.

    Only an F whose nonzero d_j (see the module docstring) change sign
    once, from + to -, is tried: then F has one peak p, and
    sup F <= F(l) + M 2^-k for l <= p <= l + 2^-k, with M = s * top. At
    each level, F(l) >= best / scale gives up, since the skeleton may win,
    and F(l) + M 2^-k < best / scale is the bound returned. d_j is zero
    outside j0 - 1 <= j <= s - tail for c's support (j0, core, tail), so
    the bisection evaluates only that core of d: the factor it leaves out
    is positive on (0, 1).
    """
    j0, core, tail = support
    s = j0 + len(core) - 1 + tail
    near = [0, *core, 0]  # c_(j0-1) .. c_(s-tail+1)
    d = [
        (j + 1) * near[j - j0 + 2] - (s - j) * near[j - j0 + 1]
        for j in range(max(j0 - 1, 0), min(s + 1 - tail, s))
    ]
    if _sign_changes(d) != 1 or next(x for x in d if x) < 0:
        return None
    slope = s * top
    target = best / scale
    a = k = 0  # p lies in [a / 2^k, (a + 1) / 2^k]
    for level in BRACKET_LEVELS:
        while k < level:
            a, k = 2 * a + 1, k + 1  # the midpoint; F' < 0 there puts p left of it
            if _hom_eval(d, a, (1 << k) - a) < 0:
                a -= 1
        at_left = _support_eval(support, Fraction(a, 1 << k))
        if at_left >= target:
            return None
        bound = at_left + slope / (1 << k)
        if bound < target:
            return scale * bound
    return None


def _critical_poly(support: _Support) -> list[int]:
    """F' with its roots at 0 and 1 divided out, in the power basis, from
    c's support (j0, core, tail); x and 1 - x are positive on (0, 1), so
    it has the sign of F' there.

    With F = x^j0 (1 - x)^tail G, G = sum_i core_i x^i (1 - x)^(n-i), the
    polynomial H = j0 (1 - x) G - tail x G + x (1 - x) G' is
    F' / (x^(j0-1) (1 - x)^(tail-1)); its coefficients are
    H_i = (j0 + i) G_i - (s - n + i - 1) G_(i-1). Dividing out every root
    of H at 0 and 1 leaves the same polynomial as dividing them out of F',
    and only G, of degree n, is put in the power basis.
    """
    j0, core, tail = support
    n = len(core) - 1
    # G in the power basis, by Horner in 1 - x: G_i = G_(i-1) (1 - x) + core_i x^i
    power = core[:1]
    for i in range(1, n + 1):
        power = [u - v for u, v in zip(power + [0], [0] + power)]
        power[i] += core[i]
    rest = j0 + tail - 1
    h = [(j0 + i) * x - (rest + i) * y for i, (x, y) in enumerate(zip(power + [0], [0] + power))]
    while h and h[-1] == 0:
        h.pop()
    if h:
        h = h[next(i for i, x in enumerate(h) if x):]
        while sum(h) == 0:  # h = (1 - x) * q with q_i = h_0 + ... + h_i
            h = list(accumulate(h))[:-1]
    return h


def optimize_spec(
    spec: PartitionSpec, built: tuple[_Support, Fraction, Fraction] | None = None
) -> SpecOptimum:
    """Certified point and upper bound of the density over one skeleton.

    One size class forces the uniform assignment, and upper == certified.
    With two classes, x = S_L * p in (0, 1) is the free parameter, where p
    is the per-vertex weight of the larger class and S_L the number of its
    vertices; see the module docstring for the method. The returned
    assignment is always strictly positive: an endpoint limit that beats
    every interior point raises `upper`, never `certified`. `built` is the
    skeleton's `_bernstein` (support, scale, top), if the caller has it.
    """
    s = spec.s
    if len(spec.classes) == 1:
        w = uniform_assignment(spec)
        cert = spec_density(spec, w, s)
        return SpecOptimum(spec, w, cert, cert)

    (n_large, k_large), (n_small, k_small) = spec.classes
    sum_large = n_large * k_large
    sum_small = n_small * k_small
    support, scale, top = built or _bernstein(spec)
    h = _critical_poly(support)
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
    best_f, best_x = max((_support_eval(support, x), x) for x in candidates)

    # the supremum is F(0) or F(1), the limits with one class deleted, or a
    # maximum at an exact root (<= best_f) or inside one of the intervals
    slope = s * top  # >= |F'|
    upper = max(
        [best_f, _support_eval(support, ZERO), _support_eval(support, ONE)]
        + [_support_eval(support, Fraction(a, 1 << k)) + slope / (1 << k) for a, k in intervals]
    )
    weights = (best_x / sum_large, (1 - best_x) / sum_small)
    return SpecOptimum(spec, weights, scale * best_f, scale * upper)


def _result(
    s: int, t: int, optima: list[SpecOptimum], visited: Iterable[int] | None = None
) -> OptimizationResult:
    """The density, winner and ties are read from the `visited` indices
    (every index by default); the others must each have upper < density."""
    indices = range(len(optima)) if visited is None else sorted(visited)
    density = max(optima[i].certified for i in indices)
    ties = tuple(i for i in indices if optima[i].certified == density)
    upper = max(o.upper for o in optima)
    return OptimizationResult(s, t, tuple(optima), ties[0], density, ties, upper)


def rho(s: int, t: int) -> OptimizationResult:
    """Maximize the certified density over every admissible skeleton."""
    return _result(s, t, [optimize_spec(sp) for sp in enumerate_specs(s, t)])


def audit_conjecture(s: int, t: int) -> AuditReport:
    """Compare the observed best b against max(s, floor(t/2)).

    Best-first branch and bound over the skeletons. The one at the
    conjectured b, the smallest b `enumerate_specs` admits, is optimized in
    full, since `margin` needs it; its `certified` starts the best so far.
    Every other skeleton gets `maclaurin_bound` U, and they are visited in
    order of decreasing U, ties by index. The visit stops at the first U
    strictly below the best so far. A visited skeleton builds its
    `_bernstein` once and is enclosed by `bound_spec`. If that Bernstein
    bound is not below the best so far and is above its `certified`, the
    peak is bracketed (`_bracket_upper`); a bracket bound below the best
    replaces the Bernstein bound as `upper`. Otherwise the skeleton is
    optimized in full, and its `certified` may raise the best.

    A skeleton left unvisited keeps an entry with uniform weights and
    upper = U; its `certified` is the exact density at those weights,
    computed on first read. A skeleton cut by any bound has a supremum
    below the best, so it can be neither the winner nor a tie: the winner
    and its ties always run `optimize_spec`, and `result` has the density,
    winner and ties of `rho(s, t)`, read from the visited entries. Every
    entry is still a valid enclosure. No cache outlives the call.

    The conjectured b always passes `size_rule`, so it is `specs[0]`: with
    a = t - 1 - b, either a = 1 and b = t - 2 = s, or a >= 2 and the
    largest part ceil(b/a) <= max(ceil(s/2), 2) <= s - 1.
    """
    specs = enumerate_specs(s, t)
    conjectured_b = max(s, t // 2)
    visited = {0: optimize_spec(specs[0])}
    best = visited[0].certified
    bounds = [maclaurin_bound(sp) for sp in specs]
    for i in sorted(range(1, len(specs)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < best:
            break
        # the `_bernstein` of a two-class skeleton is built once, for its
        # Bernstein bound, its peak bracket and its full optimization
        built = _bernstein(specs[i]) if len(specs[i].classes) == 2 else None
        opt = bound_spec(specs[i], built)
        if opt.upper >= best and opt.upper > opt.certified:
            upper = _bracket_upper(*built, best)
            opt = optimize_spec(specs[i], built) if upper is None else replace(opt, upper=upper)
        visited[i] = opt
        best = max(best, opt.certified)
    optima = [visited.get(i) or _CutOptimum(sp, bounds[i]) for i, sp in enumerate(specs)]
    result = _result(s, t, optima, visited)
    margin = result.density - visited[0].certified
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
