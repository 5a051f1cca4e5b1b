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
from rtdensity.optimize import REFINE_BITS, _isolate, _simplest_between, bound_spec
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
    "s, ts", [(s, range(s + 2, 3 * s + 6)) for s in range(3, 9)] + [(40, (80, 81))]
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


def test_audit_builds_each_two_class_skeleton_once(monkeypatch):
    # a skeleton that survives the bound reuses the (c, scale) of its bound
    built = []
    real = optimize._bernstein
    monkeypatch.setattr(optimize, "_bernstein", lambda spec: built.append(spec) or real(spec))
    for s, t in [(5, 10), (5, 11), (8, 20), (40, 80), (40, 81)]:
        built.clear()
        audit_conjecture(s, t)
        two_class = [sp for sp in enumerate_specs(s, t) if len(sp.classes) == 2]
        assert sorted(built, key=repr) == sorted(two_class, key=repr)


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
