import random
import tracemalloc
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtdensity import (
    PartitionSpec,
    WeightedGraph,
    complete_balanced,
    enumerate_specs,
    is_ckt_free,
    ks_density,
    max_weighted_clique_score,
    parts_density,
    realize_spec,
    spec_density,
    uniform_assignment,
    validate,
)
from rtdensity.partitions import assignment_to_dict, class_poly, parts_graph, parts_total, size_rule
from rtdensity.rationals import format_fraction


def random_assignment(rng: random.Random, spec) -> tuple[F, ...]:
    if len(spec.classes) == 1:
        return uniform_assignment(spec)
    (n_large, k_large), (n_small, k_small) = spec.classes
    sum_large = n_large * k_large
    sum_small = n_small * k_small
    d = rng.randint(5, 40)
    p = F(rng.randint(1, d - 1), d * sum_large)
    q = (1 - sum_large * p) / sum_small
    return (p, q)


def test_enumerate_specs_examples():
    specs = enumerate_specs(5, 11)
    assert [(sp.b, sp.a, sp.part_sizes) for sp in specs] == [
        (5, 5, (1, 1, 1, 1, 1)),
        (6, 4, (2, 2, 1, 1)),
        (7, 3, (3, 2, 2)),
        (8, 2, (4, 4)),
    ]
    specs = enumerate_specs(5, 10)
    assert [(sp.b, sp.a, sp.part_sizes) for sp in specs] == [
        (5, 4, (2, 1, 1, 1)),
        (6, 3, (2, 2, 2)),
        (7, 2, (4, 3)),
    ]
    specs = enumerate_specs(3, 5)
    assert [(sp.b, sp.a, sp.part_sizes) for sp in specs] == [(3, 1, (3,))]
    assert [sp.classes for sp in enumerate_specs(5, 11)] == [
        ((1, 5),),
        ((2, 2), (1, 2)),
        ((3, 1), (2, 2)),
        ((4, 2),),
    ]


def test_enumerate_specs_invariants():
    for s in (2, 3, 4, 5, 6):
        for t in range(s + 2, s + 9):
            for spec in enumerate_specs(s, t):
                assert spec.a + spec.b == t - 1
                assert spec.b >= max(s, (t - 1 + 1) // 2)
                assert sum(size * count for size, count in spec.classes) == spec.b
                assert sum(count for _, count in spec.classes) == spec.a
                assert all(count > 0 for _, count in spec.classes)
                sizes = [size for size, _ in spec.classes]
                assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
                assert spec.part_sizes == tuple(sorted(spec.part_sizes, reverse=True))
                assert size_rule(s, spec.a, sizes[0])
                if s >= 3:
                    assert (spec.a == 1 and spec.b == s) or (
                        spec.a >= 2 and max(spec.part_sizes) <= s - 1
                    )


def test_conjectured_b_is_always_first():
    # audit_conjecture optimizes specs[0] in full as the conjectured skeleton
    for s in range(2, 30):
        for t in range(s + 2, 8 * s + 20):
            assert enumerate_specs(s, t)[0].b == max(s, t // 2), (s, t)


def test_size_rule():
    assert size_rule(5, 1, 5) and not size_rule(5, 1, 4) and not size_rule(5, 1, 6)
    assert size_rule(5, 2, 4) and not size_rule(5, 2, 5)
    # s <= 2: any nonempty partition; no parts never pass
    assert size_rule(2, 1, 3) and size_rule(2, 4, 7) and size_rule(0, 1, 1)
    assert not size_rule(2, 0, 0) and not size_rule(5, 0, 0)


def test_enumerate_specs_memory_is_linear_in_t():
    # one O(1) skeleton per b: the per-part tuples took 322 MiB here
    tracemalloc.start()
    try:
        specs = enumerate_specs(5, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(specs) == 6000 and specs[0].classes == ((2, 1), (1, 9998))
    assert peak < 8 * 2**20


def test_enumerate_specs_domain_error():
    with pytest.raises(ValueError):
        enumerate_specs(5, 6)


def test_balanced_sizes():
    # classes come from divmod(b, a); part_sizes expands them, descending
    by_ba = {(sp.b, sp.a): sp for t in (7, 10, 11) for sp in enumerate_specs(5, t)}
    assert by_ba[7, 3].classes == ((3, 1), (2, 2)) and by_ba[7, 3].part_sizes == (3, 2, 2)
    assert by_ba[6, 3].classes == ((2, 3),) and by_ba[6, 3].part_sizes == (2, 2, 2)
    assert by_ba[5, 1].classes == ((5, 1),) and by_ba[5, 1].part_sizes == (5,)


def test_realize_spec_examples():
    spec = enumerate_specs(3, 5)[0]
    g = realize_spec(spec, uniform_assignment(spec))
    assert g.vertex_weights == (F(1, 3),) * 3
    assert all(g.edge_weights[u][v] == F(1, 2) for u in range(3) for v in range(u + 1, 3))

    spec = enumerate_specs(5, 11)[0]  # (5,5)
    g = realize_spec(spec, uniform_assignment(spec))
    assert g == complete_balanced(5)


def test_realize_counterexample_point():
    spec = enumerate_specs(5, 11)[1]  # (6,4) sizes (2,2,1,1)
    w = (F(4, 25), F(9, 50))
    g = realize_spec(spec, w)
    assert validate(g).ok
    res = is_ckt_free(g, 11)
    assert res.free
    assert spec_density(spec, w, 5) > F(24, 625)


def test_realize_rejects_weight_mismatch():
    spec = enumerate_specs(5, 11)[1]
    with pytest.raises(ValueError):
        realize_spec(spec, (F(1, 4), F(1, 4)))
    # one weight per size class
    with pytest.raises(ValueError, match="2 size classes"):
        realize_spec(spec, (F(1, 6),))
    with pytest.raises(ValueError, match="1 size classes"):
        spec_density(enumerate_specs(5, 11)[0], (F(1, 5), F(1, 5)), 5)


def test_realized_specs_are_t_free(rng):
    for s, t in [(2, 6), (3, 7), (4, 9), (5, 10)]:
        for spec in enumerate_specs(s, t):
            w = random_assignment(rng, spec)
            g = realize_spec(spec, w)
            res = is_ckt_free(g, t)
            assert res.free
            assert max_weighted_clique_score(g)[0] == t - 1


def test_spec_density_examples():
    spec55 = enumerate_specs(5, 11)[0]
    assert spec_density(spec55, uniform_assignment(spec55), 5) == F(24, 625)
    spec63 = enumerate_specs(5, 10)[1]
    assert spec_density(spec63, uniform_assignment(spec63), 5) == F(5, 216)


def test_spec_density_matches_graph_oracle(rng):
    cases = [(2, 6), (2, 9), (3, 8), (4, 10), (5, 11), (5, 13), (6, 14)]
    checked = 0
    for s, t in cases:
        for spec in enumerate_specs(s, t):
            if spec.b > 8:
                continue
            w = random_assignment(rng, spec)
            g = realize_spec(spec, w)
            assert spec_density(spec, w, s) == ks_density(g, s)
            checked += 1
    assert checked >= 15


def test_s2_uniform_family():
    # k parts of one vertex each: density (k-1)/k
    for k in range(2, 7):
        spec = enumerate_specs(2, 2 * k + 1)[0]
        assert (spec.b, spec.a) == (k, k)
        assert spec_density(spec, uniform_assignment(spec), 2) == F(k - 1, k)


def test_complete_balanced_examples():
    g1 = complete_balanced(1)
    assert g1.n == 1 and g1.vertex_weights == (F(1),)
    k5 = complete_balanced(5)
    assert ks_density(k5, 5) == F(24, 625)
    assert max_weighted_clique_score(k5)[0] == 10
    with pytest.raises(ValueError):
        complete_balanced(0)


def realize_parts(parts) -> WeightedGraph:
    """Parts graph with the given (size, weight) parts: 1/2 inside, 1 across."""
    owner = [i for i, (size, _) in enumerate(parts) for _ in range(size)]
    weights = [w for size, w in parts for _ in range(size)]
    edges = {
        (u, v): F(1, 2) if owner[u] == owner[v] else F(1)
        for u in range(len(owner))
        for v in range(u + 1, len(owner))
    }
    return WeightedGraph.build(weights, edges)


def test_parts_density_two_part_closed_form():
    # two parts P=3, Q=2: compare with the direct graph evaluation
    from rtdensity.verify import two_part_graph

    p, q = F(1, 6), F(1, 4)
    for m in range(0, 6):
        assert parts_density([(3, p), (2, q)], m) == ks_density(two_part_graph(p, 3, q, 2), m)
    # equal (size, weight) parts are grouped: three size classes, equal
    # sizes with different weights, and classes listed out of order
    three = [(3, F(1, 12)), (1, F(1, 8)), (2, F(1, 16)), (1, F(1, 8)), (2, F(1, 16)), (3, F(1, 12))]
    same_size = [(2, F(1, 10)), (2, F(3, 20)), (2, F(1, 10)), (1, F(3, 10))]
    for parts in (three, same_size):
        g = realize_parts(parts)
        for m in range(0, 9):
            assert parts_density(parts, m) == ks_density(g, m)


def test_spec_json_roundtrip():
    spec = enumerate_specs(5, 11)[1]  # (6,4) sizes (2,2,1,1)
    assert assignment_to_dict(spec, (F(4, 25), F(9, 50))) == {"2": "4/25", "1": "9/50"}


WEIGHTS = st.one_of(
    st.just(F(0)),
    st.fractions(0, 1, max_denominator=12),
    st.fractions(0, 1, max_denominator=12).map(format_fraction),  # "p/q" strings
)


@st.composite
def parts_lists(draw):
    """At most 10 vertices in parts drawn from a small pool, so (size, weight)
    pairs repeat and equal sizes meet different weights."""
    pool = draw(st.lists(st.tuples(st.integers(1, 4), WEIGHTS), min_size=1, max_size=4))
    parts, n = [], 0
    for size, w in draw(st.lists(st.sampled_from(pool), max_size=6)):
        if n + size <= 10:
            parts.append((size, w))
            n += size
    return parts


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(parts_lists(), st.integers(0, 8))
@example([(2, F(1, 10)), (2, "1/10"), (2, F(3, 20)), (1, F(0)), (3, "1/12")], 5)
@example([(1, F(1, 4)), (1, F(1, 4)), (3, "0"), (3, F(1, 6))], 2)
@example([], 3)
def test_parts_kernel_matches_graph(parts, s):
    g = parts_graph(parts)
    assert g == realize_parts(parts)
    assert parts_density(parts, s) == ks_density(g, s)


def check_class_poly(size, counts, ss):
    """class_poly(size, count, s) against factor^count expanded in Fractions."""
    factor = [F(comb(size, m), 2 ** comb(m, 2)) for m in range(size + 1)]
    full = [F(1)]  # factor^count, untruncated
    for count in counts:
        for s in ss:
            c, e = class_poly(size, count, s)
            assert len(c) == s + 1 and all(isinstance(x, int) for x in c)
            assert [F(x, 2**e) for x in c] == (full + [F(0)] * s)[: s + 1], (size, count, s)
        full = [
            sum(full[i] * factor[j - i] for i in range(len(full)) if 0 <= j - i <= size)
            for j in range(len(full) + size)
        ]


def test_class_poly_matches_fraction_expansion():
    for size in range(1, 7):
        check_class_poly(size, range(6), range(9))
    # the power recurrence's exact division on large coefficients
    for size in (1, 2, 3):
        check_class_poly(size, range(41), range(41))
    # one part larger than s: the base alone, truncated
    for size in range(2, 25):
        check_class_poly(size, range(2), range(size))


def test_parts_total_matches_enumeration():
    for s in range(2, 12):
        for t in range(s + 2, 200):
            assert parts_total(s, t) == sum(sp.a for sp in enumerate_specs(s, t)), (s, t)
    for s, t in [(1, 5), (4, 5)]:
        with pytest.raises(ValueError):
            parts_total(s, t)
