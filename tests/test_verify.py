import random
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest

from rtdensity import (
    NoFreeGraphError,
    SearchConfig,
    SearchSpaceError,
    WeightedGraph,
    basis_coefficients,
    brute_force_extremal,
    check_structure,
    complete_balanced,
    ks_density,
    lemma_inequality_suite,
    maclaurin_gap,
    realize_spec,
    rho,
    two_part_basis,
    two_part_graph,
    verify_two_part_decomposition,
)
from rtdensity.partitions import enumerate_specs
from rtdensity.verify import _guard_addends, _tile, _unpack, search_space_size


HALF_ONE = (F(1, 2), F(1))


def test_search_space_size_and_refusal():
    cfg = SearchConfig(5, 5, HALF_ONE, 5, 11)
    assert search_space_size(cfg) == 1024
    big = SearchConfig(6, 40, (F(0),) + HALF_ONE, 3, 8)
    with pytest.raises(SearchSpaceError) as err:
        brute_force_extremal(big)
    assert err.value.size == search_space_size(big)


def test_brute_force_balanced_five():
    res = brute_force_extremal(SearchConfig(5, 5, HALF_ONE, 5, 11))
    assert res.density == F(24, 625)
    assert res.best == complete_balanced(5)
    assert len(res.maximizers) == 1
    rep = check_structure(res.best, 5, 11)
    assert rep.all_hold


def test_brute_force_uniform_triangle():
    res = brute_force_extremal(SearchConfig(3, 6, HALF_ONE, 3, 5))
    assert res.density == F(1, 36)
    assert res.best.vertex_weights == (F(1, 3),) * 3
    assert all(
        res.best.edge_weights[u][v] == F(1, 2) for u in range(3) for v in range(u + 1, 3)
    )


def test_brute_force_half_edge():
    res = brute_force_extremal(SearchConfig(2, 4, HALF_ONE, 2, 4))
    assert res.density == F(1, 4)
    assert res.best.vertex_weights == (F(1, 2), F(1, 2))
    assert res.best.edge_weights[0][1] == F(1, 2)


def test_brute_force_ternary_alphabet_recovers_binary_weights():
    # with 0 allowed, the optimum still uses only weights in {1/2, 1}
    res = brute_force_extremal(SearchConfig(3, 6, (F(0),) + HALF_ONE, 3, 5))
    assert res.density == F(1, 36)
    rep = check_structure(res.best, 3, 5)
    assert rep.a1 and rep.a2


def test_brute_force_never_beats_rho():
    # restricted search at n below the optimizer's best order
    res = brute_force_extremal(SearchConfig(5, 5, HALF_ONE, 5, 11))
    assert res.density <= rho(5, 11).density
    # at matching order and representable weights the search recovers rho
    res = brute_force_extremal(SearchConfig(3, 6, HALF_ONE, 3, 5))
    assert res.density == rho(3, 5).density


def _reference_search(cfg):
    """Every edge tuple and every composition in Fraction arithmetic.

    Edge tuples are deduplicated, and maximizers keyed, by their least image
    over all vertex permutations. Returns (density, best, maximizers,
    searched), or None when no edge tuple is t-free.
    """
    n, d, s, t = cfg.n, cfg.weight_denominator, cfg.s, cfg.t
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    compositions = [c for c in product(range(1, d + 1), repeat=n) if sum(c) == d]

    def least_image(weights, edge):
        return min(
            (
                tuple(weights[p[v]] for v in range(n)),
                tuple(edge[tuple(sorted((p[u], p[v])))] for u, v in pairs),
            )
            for p in perms
        )

    def score(edge):
        return max(
            len(s1) + len(s2)
            for m in range(n + 1)
            for s1 in combinations(range(n), m)
            if all(edge[q] > 0 for q in combinations(s1, 2))
            for k in range(m + 1)
            for s2 in combinations(s1, k)
            if all(edge[q] > F(1, 2) for q in combinations(s2, 2))
        )

    best, keys, seen, searched = None, set(), set(), 0
    for edges in product(cfg.edge_alphabet, repeat=len(pairs)):
        edge = dict(zip(pairs, edges))
        orbit_key = least_image((0,) * n, edge)
        if orbit_key in seen:
            continue
        seen.add(orbit_key)
        searched += len(compositions)
        if score(edge) >= t:
            continue
        for k in compositions:
            weights = tuple(F(x, d) for x in k)
            density = factorial(s) * sum(
                (
                    prod(edge[q] for q in combinations(sub, 2)) * prod(weights[v] for v in sub)
                    for sub in combinations(range(n), s)
                ),
                F(0),
            )
            if best is None or density > best:
                best, keys = density, set()
            if density == best:
                keys.add(least_image(weights, edge))
    if best is None:
        return None

    def graph(key):
        weights, edges = key
        return WeightedGraph.build(
            weights, {pair: w for pair, w in zip(pairs, edges) if w != 0}
        )

    keys = sorted(keys)
    return best, graph(keys[0]), tuple(graph(key) for key in keys), searched


@pytest.mark.parametrize(
    "n, d, alphabet, s, t",
    [
        (3, 6, (1, F(1, 3), 0), 3, 5),  # unsorted alphabet
        (4, 8, (1, F(1, 3), 0), 3, 6),
        (3, 5, (1, 1, F(1, 2), F(1, 2)), 3, 6),  # repeated letters
        (4, 6, (F(1, 2), 1, 1), 3, 7),
        (2, 4, (0, F(1, 2), 1), 4, 6),  # s > n: every free pair ties at 0
        (4, 6, (0, F(1, 2), 1), 3, 7),  # ternary
        (4, 6, (F(1, 2),), 3, 7),  # one letter: ties keyed by sorted weights
        (4, 6, (1, 1, F(1, 2)), 3, 6),  # repeated letters
        (2, 2, (F(1, 2), 1), 2, 2),  # no t-free graph
        (3, 3, (1, 1), 3, 5),  # one distinct letter
        (4, 6, (F(1, 97), F(96, 97)), 3, 7),  # lcm 97: four-byte packed fields
        (3, 4, (0, F(1, 2), 1), 0, 5),  # s = 0: every free orbit ties
        (4, 6, (0, F(1, 2), 1), 1, 6),
        (4, 7, (0, 1), 2, 5),  # a zero letter, s < n, four tied classes
        (3, 20, (0,), 3, 5),  # all-zero alphabet: weight products above 255
        (2, 32, (0, 0), 2, 5),
    ],
    # the ids of the table that also had a canonicalization cutoff column
    ids=[
        "3-6-alphabet0-3-5-None",
        "4-8-alphabet1-3-6-None",
        "3-5-alphabet2-3-6-None",
        "4-6-alphabet3-3-7-None",
        "2-4-alphabet4-4-6-None",
        "4-6-alphabet5-3-7-None",
        "4-6-one-letter-3-7",
        "4-6-alphabet7-3-6-3",
        "2-2-alphabet8-2-2-None",
        "3-3-alphabet9-3-5-None",
        "4-6-lcm97-3-7",
        "3-4-s0-0-5",
        "4-6-s1-1-6",
        "4-7-zero-letter-2-5",
        "3-20-all-zero-3-5",
        "2-32-all-zero-2-5",
    ],
)
def test_brute_force_matches_reference(n, d, alphabet, s, t):
    check_against_reference(SearchConfig(n, d, tuple(F(w) for w in alphabet), s, t))


def check_against_reference(cfg):
    expected = _reference_search(cfg)
    if expected is None:
        with pytest.raises(NoFreeGraphError):
            brute_force_extremal(cfg)
        return
    res = brute_force_extremal(cfg)
    assert (res.density, res.best, res.maximizers, res.searched) == expected, cfg


def test_brute_force_sweep_matches_reference():
    rng = random.Random(20)
    alphabets = [(F(1),), HALF_ONE, (F(0),) + HALF_ONE, (F(1, 3), F(2, 3))]
    for n in range(1, 5):
        for s in range(n + 2):
            for alphabet in alphabets:
                d, t = n + rng.randrange(3), rng.randrange(2, 2 * n + 2)
                check_against_reference(SearchConfig(n, d, alphabet, s, t))


@pytest.mark.parametrize("width, best", [(1, 0), (1, 5), (1, 127), (2, 255), (3, 2**20 + 7)])
def test_guard_addends_compare_every_field(width, best):
    guard = 1 << 8 * width - 1
    values = [v for v in (0, best - 1, best, best + 1, guard - 1) if 0 <= v < guard]
    m = len(values)
    packed = int.from_bytes(b"".join(v.to_bytes(width, "big") for v in values), "big")
    reach, beat = _guard_addends(best, width, m)
    for addend, offset in ((reach, guard - best), (beat, guard - best - 1)):
        # each field of the sum is its own: no carry crosses a field boundary
        sums = [int.from_bytes(bytes(f), "big") for f in _unpack(packed + addend, width, m)]
        assert sums == [v + offset for v in values]
    alone_reach, alone_beat = _guard_addends(best, width, 1)
    for v in values:
        assert bool((v + alone_reach) & guard) == (v >= best)
        assert bool((v + alone_beat) & guard) == (v > best)
    guards = _tile(guard, width, m)
    assert bool((packed + reach) & guards) == (max(values) >= best)
    assert bool((packed + beat) & guards) == (max(values) > best)


@pytest.mark.parametrize("n, d, t, density", [(7, 8, 15, F(75, 128)), (8, 9, 17, F(154, 243))])
def test_one_letter_ties_are_one_class(n, d, t, density):
    # every composition with one 2 is the same graph up to relabelling
    res = brute_force_extremal(SearchConfig(n, d, (F(1),), 3, t))
    assert res.density == density
    assert len(res.maximizers) == 1 and res.searched == n
    assert res.best.vertex_weights == (F(1, d),) * (n - 1) + (F(2, d),)


def test_brute_force_never_beats_rho_upper():
    # every free configuration with n <= 4, or n = 5 and the binary alphabet,
    # and a seeded sample of the (slower) n = 5 ternary ones
    grid = [
        (n, d, alphabet, s, t)
        for n in range(2, 6)
        for d in (n, n + 2)
        for alphabet in (HALF_ONE, (F(0),) + HALF_ONE)
        for s in range(2, n + 1)
        for t in range(s + 2, 2 * n + 2)
    ]
    slow = [cfg for cfg in grid if cfg[0] == 5 and len(cfg[2]) == 3]
    chosen = [cfg for cfg in grid if cfg not in slow] + random.Random(17).sample(slow, 8)
    uppers = {}
    for n, d, alphabet, s, t in chosen:
        try:
            res = brute_force_extremal(SearchConfig(n, d, alphabet, s, t))
        except NoFreeGraphError:
            continue
        if (s, t) not in uppers:
            uppers[s, t] = rho(s, t).upper
        assert res.density <= uppers[s, t], (n, d, alphabet, s, t)


def test_check_structure_examples():
    rep = check_structure(complete_balanced(5), 5, 11)
    assert rep.all_hold
    assert rep.partition == ((0,), (1,), (2,), (3,), (4,))

    spec = enumerate_specs(5, 11)[1]
    rep = check_structure(realize_spec(spec, (F(4, 25), F(9, 50))), 5, 11)
    assert rep.all_hold
    assert len(rep.partition) == 4

    bad = WeightedGraph.build(
        [F(1, 3)] * 3, {(0, 1): F(0), (0, 2): F(1), (1, 2): F(1)}
    )
    rep = check_structure(bad, 3, 5)
    assert not rep.a1
    assert rep.a3 is None and rep.a4 is None and rep.a5 is None


def test_every_skeleton_optimum_satisfies_a1_to_a5():
    # enumerate_specs and A5 apply the same size rule, so each skeleton of
    # rho(s, t), realized at its optimum weights, passes every predicate
    checked = 0
    for s in range(2, 8):
        for t in range(s + 2, 3 * s + 3):
            for opt in rho(s, t).per_spec:
                if opt.spec.b <= 14:
                    rep = check_structure(realize_spec(opt.spec, opt.weights), s, t)
                    assert rep.all_hold, (s, t, opt.spec.b, rep.details)
                    checked += 1
    assert checked == 197


def test_check_structure_partial_failures():
    # valid partition but wrong t
    rep = check_structure(complete_balanced(5), 5, 12)
    assert rep.a1 and not rep.a2
    # the empty graph has b = 0 and a = 0: A2 needs b >= s and a + b = t - 1
    empty = WeightedGraph((), ())
    rep = check_structure(empty, 5, 40)
    assert rep.a1 and not rep.a2 and rep.partition is None
    assert "A2: b = 0 < s = 5" in rep.details
    rep = check_structure(empty, 0, 1)
    assert rep.a2 and rep.partition == () and rep.a3 and rep.a4 and not rep.a5
    # unequal weights inside a part
    g = WeightedGraph.build([F(1, 2), F(1, 4), F(1, 4)], {(0, 1): F(1, 2), (0, 2): F(1, 2), (1, 2): F(1, 2)})
    rep = check_structure(g, 3, 5)
    assert rep.a1 and not rep.a2
    # A4 violated: bigger part has bigger weight
    g = WeightedGraph.build(
        [F(2, 9)] * 3 + [F(1, 6), F(1, 6)],
        {
            (0, 1): F(1, 2), (0, 2): F(1, 2), (1, 2): F(1, 2), (3, 4): F(1, 2),
            (0, 3): F(1), (0, 4): F(1), (1, 3): F(1), (1, 4): F(1), (2, 3): F(1), (2, 4): F(1),
        },
    )
    rep = check_structure(g, 4, 8)
    assert rep.a2 and rep.a3 and not rep.a4
    # a half-weight path 0-1-2 whose ends are joined by 1: one part, not a clique
    g = WeightedGraph.build([F(1, 3)] * 3, {(0, 1): F(1, 2), (1, 2): F(1, 2), (0, 2): F(1)})
    rep = check_structure(g, 2, 5)
    assert rep.a1 and not rep.a2
    assert "A2: vertices 0,2 share a part but are not joined by weight 1/2" in rep.details
    # parts of sizes 3 and 1
    g = WeightedGraph.build(
        [F(1, 4)] * 4,
        {(0, 1): F(1, 2), (0, 2): F(1, 2), (1, 2): F(1, 2), (0, 3): F(1), (1, 3): F(1), (2, 3): F(1)},
    )
    rep = check_structure(g, 3, 7)
    assert rep.a2 and not rep.a3
    assert "A3: part sizes [3, 1] differ by more than 1" in rep.details


def test_two_part_basis_examples():
    p, q = F(1, 3), F(2, 3)
    assert two_part_basis(2, 1, p, 1, q, 1) == p * q
    assert two_part_basis(2, 0, F(1, 4), 2, F(1, 4), 2) == F(3, 8)
    # r = 0 collapses the factorial ratio
    P, Q, p, q = 3, 2, F(1, 6), F(1, 4)
    from math import comb

    expected = sum(
        comb(P, x) * p**x * comb(Q, 2 - x) * q ** (2 - x) for x in range(0, 3)
    )
    assert two_part_basis(2, 0, p, P, q, Q) == expected
    with pytest.raises(ValueError):
        two_part_basis(2, 2, p, P, q, Q)
    with pytest.raises(ValueError, match="P and Q must be positive"):
        two_part_basis(2, 0, p, 0, q, Q)


def test_basis_coefficients_examples():
    assert basis_coefficients(2) == [F(1), F(1)]
    assert basis_coefficients(3) == [F(3, 4), F(9, 8)]
    for m in range(1, 26):
        assert all(c > 0 for c in basis_coefficients(m))


def test_decomposition_examples():
    assert verify_two_part_decomposition(5, F(1, 6), 3, F(1, 4), 2)
    assert verify_two_part_decomposition(10, F(1, 10), 5, F(1, 10), 5)
    with pytest.raises(ValueError):
        verify_two_part_decomposition(3, F(1, 2), 3, F(1, 4), 2)


def test_decomposition_random(rng):
    for _ in range(40):
        m = rng.randint(1, 12)
        P, Q = rng.randint(1, 6), rng.randint(1, 6)
        d = rng.randint(P + 1, 60)
        p = F(rng.randint(1, d - 1), d * P)
        q = (1 - P * p) / Q
        assert verify_two_part_decomposition(m, p, P, q, Q)


def test_maclaurin_examples():
    assert maclaurin_gap([1, 1, 1], 2) == 0
    assert maclaurin_gap([1, 2, 3], 2) == 1
    assert maclaurin_gap([F(1, 2), F(1, 2), F(1)], 3) == F(5, 108)
    with pytest.raises(ValueError):
        maclaurin_gap([1, 2], 3)
    with pytest.raises(ValueError):
        maclaurin_gap([1, -1], 1)


def test_maclaurin_nonnegative_zero_iff_constant(rng):
    for _ in range(40):
        n = rng.randint(1, 7)
        xs = [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
        k = rng.randint(1, n)
        gap = maclaurin_gap(xs, k)
        assert gap >= 0
        if len(set(xs)) == 1 or k == 1:
            assert gap == 0
        elif len(set(xs)) > 1 and k > 1:
            assert gap > 0


def test_lemma_suite_examples():
    rep = lemma_inequality_suite(3, 1, F(1, 5), F(2, 5), 4)
    assert rep.hypothesis == "unbalanced-light"
    assert rep.transformation == "part-rebalance"
    assert [c.m for c in rep.comparisons] == [2, 3, 4]
    assert rep.all_strict

    rep = lemma_inequality_suite(2, 2, F(1, 6), F(1, 3), 4)
    assert rep.hypothesis == "balanced-unequal"
    assert rep.transformation == "weight-average"
    assert rep.all_strict

    rep = lemma_inequality_suite(2, 2, F(1, 4), F(1, 4), 4)
    assert rep.hypothesis is None and not rep.applicable


def test_lemma_suite_edge_flip_case():
    # P=3, Q=1, heavy large class: (P-1)p > Qq
    p = F(3, 10)
    q = 1 - 3 * p  # 1/10
    rep = lemma_inequality_suite(3, 1, p, q, 4)
    assert rep.hypothesis == "unbalanced-heavy"
    assert rep.transformation == "edge-flip"
    assert rep.all_strict


def test_lemma_suite_near_balanced_heavy_corner():
    # P = Q+1 with p > q: the edge flip would tie at m = P+Q, so the suite
    # must switch to cross-part averaging and still be strict everywhere
    p = F(2, 5)
    q = 1 - 2 * p  # P=2, Q=1
    rep = lemma_inequality_suite(2, 1, p, q, 3)
    assert rep.hypothesis == "unbalanced-heavy"
    assert rep.transformation == "weight-average"
    assert rep.all_strict


def test_two_part_graph_matches_density():
    g = two_part_graph(F(1, 6), 3, F(1, 4), 2)
    assert ks_density(g, 2) == 2 * (
        3 * F(1, 6) ** 2 * F(1, 2)
        + F(1, 4) ** 2 * F(1, 2)
        + 6 * F(1, 6) * F(1, 4)
    )
    with pytest.raises(ValueError, match=r"pP \+ qQ must equal 1"):
        two_part_graph(F(1, 6), 3, F(1, 4), 3)
