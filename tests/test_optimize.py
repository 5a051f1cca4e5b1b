import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtdensity import (
    PartitionSpec,
    audit_conjecture,
    balanced_density,
    enumerate_specs,
    optimize_spec,
    periodicity_check,
    rho,
    spec_density,
    uniform_assignment,
)
from rtdensity import optimize
from rtdensity.optimize import REFINE_BITS, _isolate, _simplest_between, bound_spec, maclaurin_bound
from rtdensity.partitions import size_rule


def test_optimize_single_class_uniform():
    spec = enumerate_specs(5, 11)[0]  # (5,5)
    opt = optimize_spec(spec)
    assert opt.certified == opt.upper == F(24, 625)
    assert opt.weights == (F(1, 5),)


def test_optimize_two_class_snaps_to_exact_optimum():
    spec = enumerate_specs(5, 10)[0]  # (5,4) sizes (2,1,1,1)
    opt = optimize_spec(spec)
    assert opt.certified == F(12, 625) <= opt.upper
    assert opt.spec.classes == ((2, 1), (1, 3))
    assert opt.weights == (F(1, 5), F(1, 5))


def test_optimize_beats_balanced_graph_for_t11():
    spec = enumerate_specs(5, 11)[1]  # (6,4)
    opt = optimize_spec(spec)
    assert opt.certified > F(24, 625)
    known_good_point = spec_density(spec, (F(4, 25), F(9, 50)), 5)
    assert opt.certified >= known_good_point


def test_certified_reproducible_bit_for_bit():
    for s, t in [(2, 6), (3, 8), (5, 10), (5, 11), (40, 80), (60, 121)]:
        for opt in rho(s, t).per_spec:
            assert spec_density(opt.spec, opt.weights, s) == opt.certified <= opt.upper


def test_weight_ordering_at_optima():
    # larger size class never carries a larger per-vertex weight at the optimum
    for s, t in [(2, 6), (2, 8), (3, 8), (4, 10), (5, 10), (5, 11), (5, 12)]:
        for opt in rho(s, t).per_spec:
            if len(opt.spec.classes) == 2:
                weight_large, weight_small = opt.weights
                assert weight_large <= weight_small


def test_rho_classical_s2_values():
    assert rho(2, 4).density == F(1, 4)
    for k in range(2, 7):
        assert rho(2, 2 * k + 1).density == F(k - 1, k)
        assert rho(2, 2 * k).density == F(3 * k - 5, 3 * k - 2)


def test_rho_s3_t5():
    res = rho(3, 5)
    assert res.density == F(1, 36)
    assert res.per_spec[res.best_index].spec.b == 3


def test_rho_domain_errors():
    # enumerate_specs is the one (s, t) check, and its message names the bound
    for run in (rho, audit_conjecture):
        with pytest.raises(ValueError, match=r"^s must be at least 2$"):
            run(1, 5)
        with pytest.raises(ValueError, match=r"^t must be at least s\+2 = 6$"):
            run(4, 5)


def test_size_rule_drops_only_losing_skeletons():
    # every balanced skeleton that size_rule drops is certified below rho
    dropped = 0
    for s in range(3, 11):
        for t in range(s + 2, 4 * s + 12):
            density = rho(s, t).density
            for b in range(max(s, t // 2), t - 1):
                a = t - 1 - b
                q, r = divmod(b, a)
                if size_rule(s, a, q + (r > 0)):
                    continue
                classes = ((q + 1, r), (q, a - r)) if r else ((q, a),)
                assert optimize_spec(PartitionSpec(s, t, b, a, classes)).upper < density, (s, t, b)
                dropped += 1
    assert dropped == 659


def test_audit_counterexamples():
    a = audit_conjecture(5, 10)
    assert a.counterexample and a.observed_b == 6 and a.conjectured_b == 5
    assert a.margin == F(5, 216) - F(12, 625)
    a = audit_conjecture(5, 11)
    assert a.counterexample and a.observed_b == 6 and a.conjectured_b == 5
    assert a.margin > 0


def test_audit_holds_for_s3():
    a = audit_conjecture(3, 7)
    assert not a.counterexample
    assert a.observed_b == a.conjectured_b == 3
    assert a.margin == 0


def audit_reference(s, t):
    """(observed_b, margin, counterexample, result) from rho, with no pruning."""
    result = rho(s, t)
    conjectured_b = max(s, t // 2)
    at_conjectured = max(o.certified for o in result.per_spec if o.spec.b == conjectured_b)
    observed_b = result.per_spec[result.best_index].spec.b
    margin = result.density - at_conjectured
    return observed_b, margin, observed_b != conjectured_b and margin > 0, result


@pytest.mark.parametrize(
    "s, ts",
    [(s, range(s + 2, 3 * s + 6)) for s in range(3, 9)]
    + [(40, (80, 81)), (2, range(4, 12)), (60, (120, 121))],
)
def test_pruned_audit_matches_unpruned_reference(s, ts):
    for t in ts:
        check_pruned_audit(s, t)


def check_pruned_audit(s, t):
    observed_b, margin, counterexample, ref = audit_reference(s, t)
    rep = audit_conjecture(s, t)
    assert (rep.observed_b, rep.margin, rep.counterexample) == (observed_b, margin, counterexample)
    res = rep.result
    assert (res.density, res.best_index, res.ties) == (ref.density, ref.best_index, ref.ties)
    pruned = 0
    for got, full in zip(res.per_spec, ref.per_spec):
        assert got.spec == full.spec
        assert got.certified <= full.certified and got.upper >= full.upper
        # a pruned entry is still the density of a real weighting
        assert spec_density(got.spec, got.weights, s) == got.certified <= got.upper
        pruned += got != full
    if s == 40:
        assert pruned > len(res.per_spec) // 2


def test_bound_spec_encloses_the_optimum():
    for s, t in [(5, 10), (5, 11), (8, 20), (30, 61)]:
        for spec in enumerate_specs(s, t):
            bound, full = bound_spec(spec), optimize_spec(spec)
            assert bound.weights == uniform_assignment(spec)
            assert bound.certified == spec_density(spec, bound.weights, s)
            assert bound.certified <= full.certified <= full.upper <= bound.upper
            if len(spec.classes) == 1:
                assert bound == full


def test_audit_builds_no_skeleton_twice(monkeypatch):
    # a visited skeleton's full optimization reuses the (c, scale) of its
    # Bernstein bound; a cut skeleton is built only when its certified is read
    built = []
    real = optimize._bernstein
    monkeypatch.setattr(optimize, "_bernstein", lambda spec: built.append(spec) or real(spec))
    for s, t in [(5, 10), (5, 11), (8, 20), (40, 80), (40, 81)]:
        built.clear()
        per_spec = audit_conjecture(s, t).result.per_spec
        assert len(set(built)) == len(built)
        cut = [o for o in per_spec if isinstance(o, optimize._CutOptimum)]
        assert not {o.spec for o in cut} & set(built)
        if s == 40:
            assert len(cut) > len(per_spec) // 2
        for o in cut:
            before = len(built)
            certified = o.certified
            assert built[before:] == ([o.spec] if len(o.spec.classes) == 2 else [])
            assert o.certified == certified == bound_spec(o.spec).certified


def m_pairs(s, a):
    """The fewest pairs inside parts over every way to put s vertices into a
    parts, by dynamic programming over the parts."""
    fewest = [math.comb(n, 2) for n in range(s + 1)]  # n vertices in one part
    for _ in range(a - 1):
        fewest = [min(fewest[n - k] + math.comb(k, 2) for k in range(n + 1)) for n in range(s + 1)]
    return fewest[s]


def test_maclaurin_bound_encloses_every_optimum():
    skeletons = 0
    for s in range(2, 11):
        for t in range(s + 2, 4 * s + 12):
            for spec in enumerate_specs(s, t):
                u = maclaurin_bound(spec)
                assert u == balanced_density(spec.b, s) / 2 ** m_pairs(s, spec.a)
                assert u >= optimize_spec(spec).certified, spec
                skeletons += 1
    assert skeletons == 2017


@pytest.mark.parametrize(
    "s, ts",
    [(s, range(s + 2, 3 * s + 6)) for s in range(2, 9)] + [(40, (80, 81)), (60, (120, 121))],
)
def test_maclaurin_bound_covers_the_full_upper_of_cut_skeletons(s, ts):
    bracketed = 0
    for t in ts:
        rep = audit_conjecture(s, t)
        for got, full in zip(rep.result.per_spec, rho(s, t).per_spec):
            if isinstance(got, optimize._CutOptimum):
                assert got.upper == maclaurin_bound(got.spec) >= full.upper
                assert full.upper < rep.result.density
            elif got != full and got.upper < bound_spec(got.spec).upper:  # cut at a peak bracket
                assert full.upper <= got.upper < rep.result.density
                bracketed += 1
    assert bracketed > 0


def test_bracket_stage_leaves_three_full_optimizations(monkeypatch):
    # full two-class optimizations, the winner's among them (7, 6 and 68
    # before the bracket stage)
    full = []
    real = optimize.optimize_spec
    monkeypatch.setattr(
        optimize, "optimize_spec", lambda spec, built=None: full.append(spec) or real(spec, built)
    )
    for (s, t), expected in {(40, 80): 3, (40, 81): 3, (200, 544): 3}.items():
        full.clear()
        rep = audit_conjecture(s, t)
        assert sum(len(spec.classes) == 2 for spec in full) == expected, (s, t)
        assert rep.result.per_spec[rep.result.best_index].spec in full


def bernstein_coefficients(spec):
    """All s + 1 coefficients c_j of a two-class skeleton's F, from the
    support (j0, core, tail) that `_bernstein` returns."""
    j0, core, tail = optimize._bernstein(spec)[0]
    return [0] * j0 + core + [0] * tail


def bernstein_derivative(c):
    """d with F' = sum_j d_j x^j (1 - x)^(s-1-j) for F = sum_j c_j x^j (1 - x)^(s-j)."""
    s = len(c) - 1
    return [(j + 1) * c[j + 1] - (s - j) * c[j] for j in range(s)]


def test_every_skeleton_has_at_most_one_peak():
    # the lemma of the bracket stage: d changes sign at most once, and only
    # from + to -, on every two-class skeleton of the sweep
    skeletons = 0
    for s in range(3, 21):
        for t in range(s + 2, 4 * s + 12):
            for spec in enumerate_specs(s, t):
                if len(spec.classes) == 2:
                    d = bernstein_derivative(bernstein_coefficients(spec))
                    changes = optimize._sign_changes(d)
                    assert changes == 0 or (changes == 1 and next(x for x in d if x) > 0), spec
                    skeletons += 1
    assert skeletons == 11181


def test_bernstein_is_built_on_its_support():
    # c_j > 0 exactly for max(0, s - S_small) <= j <= min(s, S_large), on
    # every two-class skeleton of the sweep above
    for s in range(3, 21):
        for t in range(s + 2, 4 * s + 12):
            for spec in enumerate_specs(s, t):
                if len(spec.classes) == 2:
                    (n_large, k_large), (n_small, k_small) = spec.classes
                    (j0, core, tail), _, top = optimize._bernstein(spec)
                    assert j0 == max(0, s - n_small * k_small), spec
                    assert s - tail == min(s, n_large * k_large) and all(core), spec
                    c = [0] * j0 + core + [0] * tail
                    assert top == max(F(x, math.comb(s, j)) for j, x in enumerate(c))
    # with fewer than s vertices, j0 > j1 and c is s + 1 zeros
    for s in (11, 12):
        (j0, core, tail), _, top = optimize._bernstein(PartitionSpec(s, 15, 10, 4, ((3, 2), (2, 2))))
        assert [0] * j0 + core + [0] * tail == [0] * (s + 1) and top == 0


def critical_poly_reference(c):
    """F' in the power basis from all of c, with its roots at 0 and 1
    divided out."""
    s = len(c) - 1
    power = [c[0]]  # F by Horner in 1 - x
    for j in range(1, s + 1):
        power = [u - v for u, v in zip(power + [0], [0] + power)]
        power[j] += c[j]
    h = [m * x for m, x in enumerate(power)][1:]
    while h and h[-1] == 0:
        h.pop()
    if h:
        h = h[next(i for i, x in enumerate(h) if x) :]
        while sum(h) == 0:
            h = list(itertools.accumulate(h))[:-1]
    return h


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.integers(0, 12),
    st.lists(st.integers(0, 10**12), max_size=20),
    st.integers(0, 12),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)
@example(0, [], 0, 1, 1)
@example(2, [0, 0], 1, 3, 5)
@example(1, [1, 1], 0, 1, 1)  # F = x (1 - x) + x^2 = x
@example(0, [1, 1], 0, 2, 3)  # F = 1: F' = 0
def test_support_matches_the_full_coefficients(zeros, core, tail, u, v):
    c = [0] * zeros + core + [0] * tail
    if not c:
        return
    support, full = (zeros, core, tail), (0, c, 0)
    x = F(u, u + v)
    assert optimize._support_eval(support, x) == F(optimize._hom_eval(c, u, v), (u + v) ** (len(c) - 1))
    assert optimize._critical_poly(support) == critical_poly_reference(c)
    assert optimize._bernstein_max(support) == optimize._bernstein_max(full)


def bracket_upper(c, best):
    """`_bracket_upper` of F = sum_j c_j x^j (1 - x)^(s-j) with scale 1."""
    support = (0, c, 0)  # a core may hold zeros at its ends
    return optimize._bracket_upper(support, F(1), optimize._bernstein_max(support), best)


def test_bracket_stage_cuts_no_other_sign_pattern():
    # F = 3x(1 - x)^2 + 3x^3 is at most 3, yet d = [3, -6, 9] changes sign
    # twice, so no best, however large, lets the bracket stage cut it
    c = [0, 3, 0, 3]
    assert bernstein_derivative(c) == [3, -6, 9]
    for best in (F(1, 100), F(1), F(10), F(10**6)):
        assert bracket_upper(c, best) is None
    # a valley (d from - to +) and a monotone F are not tried either
    for c in ([3, 0, 0, 3], [0, 0, 0, 1], [1, 0, 0, 0]):
        assert bracket_upper(c, F(10**6)) is None
    # one peak is cut once a bracket settles it
    assert bracket_upper([0, 3, 0, 0], F(10**6)) < F(10**6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**30), min_size=1, max_size=60))
@example([0])
@example([5, 0, 0])
def test_bernstein_max_matches_fraction_reference(c):
    s = len(c) - 1
    assert optimize._bernstein_max((0, c, 0)) == max(F(x, math.comb(s, j)) for j, x in enumerate(c))


def simplest_between_reference(lo, hi):
    """The Fraction recursion that `_simplest_between` replaced."""
    n = math.ceil(lo)
    if n <= hi:
        return F(n)
    f = n - 1
    return f + 1 / simplest_between_reference(1 / (hi - f), 1 / (lo - f))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.fractions(min_value=F(1, 2**70), max_value=10**4, max_denominator=2**70),
    st.fractions(min_value=0, max_value=2, max_denominator=2**50),
)
@example(F(1, 3), F(0))
@example(F(2), F(1, 2))
@example(F(5, 2), F(1, 2))
@example(F(1, 2**64), F(2, 2**64))
@example(F(2**63 + 1, 2**64) - F(1, 2**40), F(2, 2**40))  # a snap as optimize_spec makes it
def test_simplest_between_matches_fraction_recursion(lo, width):
    hi = lo + width
    got = _simplest_between(lo, hi)
    assert got == simplest_between_reference(lo, hi)
    assert lo <= got <= hi


def test_balanced_density_values():
    assert balanced_density(3, 3) == F(2, 9)
    assert balanced_density(5, 3) == F(12, 25)
    assert balanced_density(4, 3) == F(3, 8)
    # f(3) + f(5) <= 2 f(4)
    assert balanced_density(3, 3) + balanced_density(5, 3) <= 2 * balanced_density(4, 3)
    # matches s! C(x,s) / x^s at integers
    assert balanced_density(7, 4) == F(
        math.factorial(4) * math.comb(7, 4), 7**4
    )


def test_periodicity_small_s3():
    rep = periodicity_check(3, 9, concavity_max=20)
    assert all(row.matches for row in rep.rows)
    assert rep.concavity_ok
    with pytest.raises(ValueError):
        periodicity_check(2, 8)


def test_upper_close_to_certified():
    for s, t in [(5, 10), (5, 11)]:
        res = rho(s, t)
        for opt in res.per_spec:
            assert opt.certified <= opt.upper
            assert opt.upper - opt.certified <= F(1, 10**12) * opt.upper
        assert res.upper == max(opt.upper for opt in res.per_spec) >= res.density


def _spec_with_b(s, t, b):
    return next(sp for sp in enumerate_specs(s, t) if sp.b == b)


def test_certified_beats_uniform_at_large_s():
    # the optimum is an interior point other than the uniform one
    for b in (161, 220):
        spec = _spec_with_b(160, 321, b)
        opt = optimize_spec(spec)
        assert opt.certified > spec_density(spec, uniform_assignment(spec), 160)
        assert opt.certified <= opt.upper


def test_two_class_skeleton_past_float_range():
    opt = optimize_spec(_spec_with_b(171, 343, 172))
    assert 0 < opt.certified <= opt.upper


def test_isolate_dyadic_and_double_roots():
    # no skeleton up to s = 12, t < 80 reaches these branches
    roots, peaks = _isolate([1, -5, 6])  # (2x - 1)(3x - 1)
    assert roots == [(1, 1)] and peaks == [(0, 1)]  # x = 1/2 exactly; 1/3 in [0, 1/2]
    roots, peaks = _isolate([1, -6, 9])  # (3x - 1)^2 never changes sign
    ((a, k),) = peaks
    assert roots == [] and k == REFINE_BITS and F(a, 2**k) < F(1, 3) < F(a + 1, 2**k)


@st.composite
def two_class_specs(draw):
    s = draw(st.integers(2, 12))
    n_small = draw(st.integers(1, 6))
    n_large = draw(st.integers(n_small + 1, 8))
    k_large, k_small = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    b, a = n_large * k_large + n_small * k_small, k_large + k_small
    return PartitionSpec(s, b + a + 1, b, a, ((n_large, k_large), (n_small, k_small)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(two_class_specs(), st.lists(st.fractions(0, 1), min_size=1, max_size=4))
# fewer than s vertices: c is zero, and j0 = s - 4 passes j1 = 6
@example(PartitionSpec(11, 15, 10, 4, ((3, 2), (2, 2))), [F(1, 2)])
@example(PartitionSpec(12, 15, 10, 4, ((3, 2), (2, 2))), [F(1, 3)])
def test_enclosure_on_random_two_class_skeletons(spec, points):
    s = spec.s
    opt = optimize_spec(spec)
    assert opt.certified == spec_density(spec, opt.weights, s) <= opt.upper
    # the density at other interior points never exceeds the upper bound
    (n_large, k_large), (n_small, k_small) = spec.classes
    for x in points:
        if 0 < x < 1:
            w = (x / (n_large * k_large), (1 - x) / (n_small * k_small))
            assert spec_density(spec, w, s) <= opt.upper


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(two_class_specs(), st.integers(-30, 30))
@example(PartitionSpec(11, 15, 10, 4, ((3, 2), (2, 2))), 0)
def test_bracket_upper_encloses_the_full_upper(spec, e):
    # a bracket cut is below best and above everything the full optimization
    # can certify or bound
    built = optimize._bernstein(spec)
    full = optimize_spec(spec)
    best = full.upper * (1 + F(1, 2**e) if e >= 0 else 1 - F(1, 2**-e))
    upper = optimize._bracket_upper(*built, best)
    if upper is not None:
        assert full.upper <= upper < best
