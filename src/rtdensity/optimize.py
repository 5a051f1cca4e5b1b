"""Weight optimization over partition skeletons and the conjecture audit.

For a fixed skeleton the feasible weights form at most a one-dimensional
family (equal-size parts share a weight and the weights sum to one), so the
inner problem is a polynomial maximization on an interval. Its coefficients
come from `partitions.class_poly`, the size-class factor of the density
generating function. The solver scans a float grid, refines by golden
section, snaps to nearby rationals and certifies each candidate exactly with
`spec_density`. Every reported density is therefore the exact value at a
concrete rational weight assignment, hence a true lower bound. The float
stage needs s! to fit a double, so two-class skeletons need s <= 170.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .partitions import (
    PartitionSpec,
    WeightAssignment,
    class_poly,
    enumerate_specs,
    parts_density,
    spec_density,
    uniform_assignment,
)
from .weighted import ONE

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-12
_SNAP_DENOMINATORS = (10**6, 10**3, 10**2)
_ENDPOINT_MARGIN = 1e-9  # relative clamp away from degenerate weights
_MAX_FLOAT_S = 170  # largest s with float(s!) finite


@dataclass(frozen=True)
class OptimizerConfig:
    grid_bits: int = 12


@dataclass(frozen=True)
class SpecOptimum:
    spec: PartitionSpec
    weights: WeightAssignment
    certified: Fraction  # exact density at `weights`
    estimate: float  # float estimate of the spec's supremum


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


def _assignment(n_large: int, n_small: int, p: Fraction, q: Fraction) -> WeightAssignment:
    return WeightAssignment(((n_large, p), (n_small, q)))


def optimize_spec(spec: PartitionSpec, cfg: OptimizerConfig | None = None) -> SpecOptimum:
    """Best rational weight assignment found for one skeleton.

    One size class forces the uniform assignment. With two classes the
    per-vertex weight p of the larger class is the free parameter on
    (0, 1/S_L); the search clamps slightly inside the open interval, and the
    degenerate endpoints (a class weight tending to 0) are evaluated in the
    limit sense by deleting the class. If an endpoint limit beats the best
    interior point, rationals walking toward that endpoint are certified
    until one wins, so the returned assignment is always strictly positive.
    Two-class skeletons with s > 170 raise ValueError: the float stage
    cannot represent s!.
    """
    cfg = cfg or OptimizerConfig()
    s = spec.s
    classes = spec.size_classes()
    if len(classes) == 1:
        w = uniform_assignment(spec)
        cert = spec_density(spec, w, s)
        return SpecOptimum(spec, w, cert, float(cert))

    if s > _MAX_FLOAT_S:
        raise ValueError(f"s ≤ {_MAX_FLOAT_S} is supported by the float optimizer")
    (n_large, k_large), (n_small, k_small) = classes
    sum_large = n_large * k_large
    sum_small = n_small * k_small
    alpha = class_poly(n_large, k_large, s)
    beta = class_poly(n_small, k_small, s)
    alpha_f = np.zeros(s + 1)
    alpha_f[: len(alpha)] = [float(x) for x in alpha]
    beta_f = np.zeros(s + 1)
    beta_f[: len(beta)] = [float(x) for x in beta]
    s_fact = float(factorial(s))
    hi = 1.0 / sum_large

    def objective_grid(ps: np.ndarray) -> np.ndarray:
        qs = (1.0 - sum_large * ps) / sum_small
        powers = np.arange(s + 1)
        a_terms = np.power(ps[:, None], powers) * alpha_f
        b_terms = np.power(qs[:, None], powers) * beta_f
        return s_fact * np.einsum("gj,gj->g", a_terms, b_terms[:, ::-1])

    def objective_scalar(p: float) -> float:
        q = (1.0 - sum_large * p) / sum_small
        p_pows = [1.0] * (s + 1)
        q_pows = [1.0] * (s + 1)
        for j in range(1, s + 1):
            p_pows[j] = p_pows[j - 1] * p
            q_pows[j] = q_pows[j - 1] * q
        total = 0.0
        for j in range(s + 1):
            total += alpha_f[j] * beta_f[s - j] * p_pows[j] * q_pows[s - j]
        return s_fact * total

    margin = _ENDPOINT_MARGIN * hi
    grid = np.linspace(margin, hi - margin, 2 ** cfg.grid_bits)
    values = objective_grid(grid)
    best_idx = int(np.argmax(values))
    lo_b = grid[max(best_idx - 1, 0)]
    hi_b = grid[min(best_idx + 1, len(grid) - 1)]

    lo, hi_g = lo_b, hi_b
    while hi_g - lo > _GOLDEN_TOL:
        c = hi_g - _INVPHI * (hi_g - lo)
        d = lo + _INVPHI * (hi_g - lo)
        if objective_scalar(c) >= objective_scalar(d):
            hi_g = d
        else:
            lo = c
    p_star = (lo + hi_g) / 2.0
    estimate = objective_scalar(p_star)

    # rational candidates, exact certification
    p_max = Fraction(1, sum_large)
    candidates: list[Fraction] = []
    for limit in _SNAP_DENOMINATORS:
        candidates.append(Fraction(p_star).limit_denominator(limit))
    candidates.append(Fraction(1, spec.b))  # exact uniform point
    seen: set[Fraction] = set()
    best_p: Fraction | None = None
    best_val: Fraction | None = None
    for p in candidates:
        if p in seen or p <= 0 or p >= p_max:
            continue
        seen.add(p)
        q = (ONE - sum_large * p) / sum_small
        val = spec_density(spec, _assignment(n_large, n_small, p, q), s)
        if best_val is None or val > best_val:
            best_val, best_p = val, p
    assert best_p is not None and best_val is not None

    # degenerate endpoints, evaluated by deleting the vanishing class
    limit_p0 = parts_density([(n_small, Fraction(1, sum_small))] * k_small, s)
    limit_q0 = parts_density([(n_large, Fraction(1, sum_large))] * k_large, s)
    for limit_val, toward_p_zero in ((limit_p0, True), (limit_q0, False)):
        if limit_val <= best_val:
            continue
        shift = Fraction(1, 4)
        for _ in range(200):
            p = p_max * shift if toward_p_zero else p_max * (1 - shift)
            q = (ONE - sum_large * p) / sum_small
            val = spec_density(spec, _assignment(n_large, n_small, p, q), s)
            if val > best_val:
                best_val, best_p = val, p
                break
            shift /= 2

    q_best = (ONE - sum_large * best_p) / sum_small
    weights = _assignment(n_large, n_small, best_p, q_best)
    estimate = max(estimate, float(best_val), float(limit_p0), float(limit_q0))
    return SpecOptimum(spec, weights, best_val, estimate)


def rho(s: int, t: int, cfg: OptimizerConfig | None = None) -> OptimizationResult:
    """Maximize the certified density over every admissible skeleton."""
    cfg = cfg or OptimizerConfig()
    if not (2 <= s <= t - 2):
        raise ValueError("need 2 <= s <= t - 2")
    specs = enumerate_specs(s, t)
    optima = [optimize_spec(sp, cfg) for sp in specs]
    density = max(o.certified for o in optima)
    ties = tuple(i for i, o in enumerate(optima) if o.certified == density)
    return OptimizationResult(s, t, tuple(optima), ties[0], density, ties)


def audit_conjecture(s: int, t: int, cfg: OptimizerConfig | None = None) -> AuditReport:
    """Compare the observed best b against max(s, floor(t/2))."""
    result = rho(s, t, cfg)
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
    cfg: OptimizerConfig | None = None,
    concavity_max: int = 40,
) -> PeriodicityReport:
    """Audit every t up to t_max and test midpoint concavity of the balanced
    density above the x >= C(s,2) threshold."""
    if s < 3:
        raise ValueError("s must be at least 3")
    rows = []
    for t in range(s + 2, t_max + 1):
        rep = audit_conjecture(s, t, cfg)
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
