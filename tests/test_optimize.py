import math
from fractions import Fraction as F

import pytest

from rtdensity import (
    OptimizerConfig,
    WeightAssignment,
    audit_conjecture,
    balanced_density,
    enumerate_specs,
    optimize_spec,
    periodicity_check,
    rho,
    spec_density,
)


def test_optimize_single_class_uniform():
    spec = enumerate_specs(5, 11)[0]  # (5,5)
    opt = optimize_spec(spec)
    assert opt.certified == F(24, 625)
    assert opt.weights.weight_for(1) == F(1, 5)


def test_optimize_two_class_snaps_to_exact_optimum():
    spec = enumerate_specs(5, 10)[0]  # (5,4) sizes (2,1,1,1)
    opt = optimize_spec(spec)
    assert opt.certified == F(12, 625)
    assert opt.weights.weight_for(2) == F(1, 5)
    assert opt.weights.weight_for(1) == F(1, 5)


def test_optimize_beats_balanced_graph_for_t11():
    spec = enumerate_specs(5, 11)[1]  # (6,4)
    opt = optimize_spec(spec)
    assert opt.certified > F(24, 625)
    known_good_point = spec_density(
        spec, WeightAssignment(((2, F(4, 25)), (1, F(9, 50)))), 5
    )
    assert opt.certified >= known_good_point


def test_certified_reproducible_bit_for_bit():
    for s, t in [(2, 6), (3, 8), (5, 10), (5, 11)]:
        for opt in rho(s, t).per_spec:
            assert spec_density(opt.spec, opt.weights, s) == opt.certified


def test_weight_ordering_at_optima():
    # larger size class never carries a larger per-vertex weight at the optimum
    for s, t in [(2, 6), (2, 8), (3, 8), (4, 10), (5, 10), (5, 11), (5, 12)]:
        for opt in rho(s, t).per_spec:
            classes = opt.spec.size_classes()
            if len(classes) == 2:
                (n_large, _), (n_small, _) = classes
                assert opt.weights.weight_for(n_large) <= opt.weights.weight_for(n_small)


def test_grid_refinement_stability():
    for s, t in [(2, 6), (5, 10), (5, 11)]:
        for spec in enumerate_specs(s, t):
            if len(spec.size_classes()) != 2:
                continue
            e12 = optimize_spec(spec, OptimizerConfig(grid_bits=12)).estimate
            e13 = optimize_spec(spec, OptimizerConfig(grid_bits=13)).estimate
            assert abs(e12 - e13) < 1e-9


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
    with pytest.raises(ValueError):
        rho(1, 5)
    with pytest.raises(ValueError):
        rho(4, 5)


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


def test_estimate_close_to_certified():
    for s, t in [(5, 10), (5, 11)]:
        for opt in rho(s, t).per_spec:
            assert opt.estimate >= float(opt.certified) - 1e-12
            assert abs(opt.estimate - float(opt.certified)) < 1e-6
