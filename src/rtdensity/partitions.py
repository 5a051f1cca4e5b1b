"""Balanced-partition candidate graphs and their closed-form clique density.

A (b, a)-partition graph has b vertices split into a nonempty parts with
near-equal sizes; edges weigh 1/2 inside a part and 1 across parts, and
vertices of equal-size parts share a weight. With a + b = t - 1 such graphs
never contain a weighted t-clique, which makes them the natural candidates
when maximizing K_s-density under that constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence

from .rationals import RationalLike, as_fraction, format_fraction
from .weighted import HALF, ONE, ZERO, WeightedGraph


@dataclass(frozen=True)
class PartitionSpec:
    """Skeleton of a (b, a)-partition candidate for given (s, t).

    A balanced split of b into a parts has at most two part sizes, so the
    skeleton stores only its size classes: (size, count) pairs, largest size
    first. Weights for a skeleton are a tuple with one per-vertex weight per
    class, in the same order.
    """

    s: int
    t: int
    b: int
    a: int
    classes: tuple[tuple[int, int], ...]

    @property
    def part_sizes(self) -> tuple[int, ...]:
        """Every part's size, descending; built on each call, for output."""
        return tuple(size for size, count in self.classes for _ in range(count))


def size_rule(s: int, a: int, largest: int) -> bool:
    """The size alternative of a skeleton with a >= 1 parts, the largest of
    size `largest`: for s >= 3 one part of size exactly s, or at least two
    parts all of size at most s - 1. For s <= 2 any a >= 1 parts pass (the
    s = 2 extremal structure uses a size-2 part even when a = 1)."""
    return a >= 1 and (s <= 2 or (largest == s if a == 1 else largest <= s - 1))


def _check_st(s: int, t: int) -> None:
    if s < 2:
        raise ValueError("s must be at least 2")
    if t < s + 2:
        raise ValueError(f"t must be at least s+2 = {s + 2}")


def enumerate_specs(s: int, t: int) -> list[PartitionSpec]:
    """All admissible (b, a) skeletons for (s, t), ordered by increasing b.

    b runs from max(s, ceil((t-1)/2)) to t-2 with a = t-1-b, the parts as
    equal as possible, and `size_rule` filters them. Each skeleton is O(1):
    its classes come from divmod(b, a).
    """
    _check_st(s, t)
    specs: list[PartitionSpec] = []
    b_min = max(s, t // 2)  # t//2 == ceil((t-1)/2)
    for b in range(b_min, t - 1):
        a = t - 1 - b
        q, r = divmod(b, a)
        if size_rule(s, a, q + (r > 0)):
            classes = ((q + 1, r), (q, a - r)) if r else ((q, a),)
            specs.append(PartitionSpec(s, t, b, a, classes))
    return specs


def _b_range(s: int, t: int) -> tuple[int, int, int]:
    """(b_min, b_max, single): `enumerate_specs(s, t)` admits exactly the b
    in b_min..b_max, plus `single` (0 or 1) skeleton with a = 1 outside it.

    For s <= 2 every b up to t - 2 is admitted, and single = 0. For s >= 3,
    `size_rule` admits a >= 2 parts exactly when b <= (t - 1)(s - 1) / s,
    and a = 1 only when b = t - 2 = s.
    """
    _check_st(s, t)
    b_min = max(s, t // 2)
    if s == 2:
        return b_min, t - 2, 0
    return b_min, min(t - 3, (t - 1) * (s - 1) // s), int(t - 2 == s)


def spec_count(s: int, t: int) -> int:
    """len(enumerate_specs(s, t)), in O(1)."""
    b_min, b_max, single = _b_range(s, t)
    return single + max(0, b_max - b_min + 1)


def parts_total(s: int, t: int) -> int:
    """sum(spec.a for spec in enumerate_specs(s, t)), in O(1): over the
    range of `_b_range`, a = t - 1 - b falls by one per step of b."""
    b_min, b_max, single = _b_range(s, t)
    a_max, a_min = t - 1 - b_min, t - 1 - b_max
    return single + max(0, (a_min + a_max) * (a_max - a_min + 1) // 2)


def uniform_assignment(spec: PartitionSpec) -> tuple[Fraction, ...]:
    return (Fraction(1, spec.b),) * len(spec.classes)


def check_assignment(spec: PartitionSpec, w: Sequence[Fraction]) -> None:
    if len(w) != len(spec.classes):
        raise ValueError(f"{len(w)} weights given for {len(spec.classes)} size classes")
    total = ZERO
    for (size, count), weight in zip(spec.classes, w):
        if weight <= 0:
            raise ValueError(f"class weight for size {size} must be positive")
        total += count * size * weight
    if total != ONE:
        raise ValueError(
            f"weights sum to {format_fraction(total)} over the partition, expected 1"
        )


def realize_spec(spec: PartitionSpec, w: Sequence[Fraction]) -> WeightedGraph:
    """Concrete weighted graph for a spec: 1/2 inside parts, 1 across."""
    check_assignment(spec, w)
    return parts_graph(spec_parts(spec, w))


def parts_graph(parts: Sequence[tuple[int, RationalLike]]) -> WeightedGraph:
    """The parts graph of (size, per-vertex weight) parts, in order: edges
    weigh 1/2 inside a part and 1 across. No check that weights sum to 1."""
    owner = [i for i, (size, _) in enumerate(parts) for _ in range(size)]
    weights = tuple(as_fraction(w) for size, w in parts for _ in range(size))
    mat = tuple(
        tuple(
            ZERO if u == v else (HALF if pu == pv else ONE)
            for v, pv in enumerate(owner)
        )
        for u, pu in enumerate(owner)
    )
    return WeightedGraph(weights, mat)


def _mul_trunc(a: list[int], b: list[int], s: int) -> list[int]:
    """Product of two polynomials (lowest degree first), truncated after z^s."""
    out = [0] * min(len(a) + len(b) - 1, s + 1)
    for j, x in enumerate(a):
        if x:
            for m, y in enumerate(b[: s + 1 - j]):
                out[j + m] += x * y
    return out


def class_poly(size: int, count: int, s: int) -> tuple[list[int], int]:
    """(sum_m C(size,m) 2^(-C(m,2)) y^m)^count, truncated at y^s, as (c, E).

    c holds the coefficients of y^0 .. y^hi, hi = min(s, size * count), the
    true degree: every one of them is positive and every coefficient past
    hi is zero. The true coefficient of y^j is c[j] / 2^E, with
    E = C(min(size, s), 2) * count. The per-vertex weight w is factored out:
    the z^j coefficient of `count` equal parts of weight w in the density
    generating product is c[j] * w^j / 2^E.
    """
    hi = min(s, size * count)
    if size == 1:  # (1 + y)^count: no pair inside a part of size 1
        return [comb(count, j) for j in range(hi + 1)], 0
    d = min(size, s)
    e = comb(d, 2)
    base = [comb(size, m) << (e - comb(m, 2)) for m in range(d + 1)]
    if count <= 1:
        return base if count else [1], e * count
    # J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7): for
    # P = base^count, base * P' = count * base' * P gives each coefficient
    # from the ones before it, and the division by j * base[0] = j * 2^e is
    # exact
    c = [1 << (e * count)]
    for j in range(1, hi + 1):
        acc = sum((k * (count + 1) - j) * base[k] * c[j - k] for k in range(1, min(j, d) + 1))
        c.append((acc >> e) // j)
    return c, e * count


def parts_density(parts: Sequence[tuple[int, RationalLike]], s: int) -> Fraction:
    """Exact K_s-density of a parts graph (1/2 inside parts, 1 across).

    parts lists (size, per-vertex weight) for each part. Computed as
    s! * [z^s] of the product over parts of
    sum_m C(size, m) * weight^m * 2^(-C(m,2)) * z^m,
    with equal (size, weight) parts grouped into one `class_poly` factor.
    The product runs on integers: with D the lcm of the weight denominators
    and (c, E) from `class_poly`, a class of weight n / D contributes
    c[j] * n^j, and the z^s coefficient is divided by D^s and 2^(sum of E)
    once, at the end.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    classes: dict[tuple[int, Fraction], int] = {}
    for size, weight in parts:
        key = (size, as_fraction(weight))
        classes[key] = classes.get(key, 0) + 1
    den = lcm(*(w.denominator for _, w in classes))
    coeffs, exp = [1] + [0] * s, 0
    for (size, weight), count in classes.items():
        c, e = class_poly(size, count, s)
        num = weight.numerator * (den // weight.denominator)
        coeffs = _mul_trunc(coeffs, [x * num**j for j, x in enumerate(c)], s)
        exp += e
    return Fraction(factorial(s) * coeffs[s], den**s << exp)


def spec_parts(spec: PartitionSpec, w: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """One (size, weight) pair per part, weights in the order of the classes."""
    return [
        (size, weight) for (size, count), weight in zip(spec.classes, w) for _ in range(count)
    ]


def spec_density(spec: PartitionSpec, w: Sequence[Fraction], s: int) -> Fraction:
    """Closed-form K_s-density of the realized spec; equals the graph density."""
    check_assignment(spec, w)
    return parts_density(spec_parts(spec, w), s)


def complete_balanced(r: int) -> WeightedGraph:
    """r vertices of weight 1/r, every edge weight 1."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return parts_graph([(1, Fraction(1, r))] * r)


def assignment_to_dict(spec: PartitionSpec, w: Sequence[Fraction]) -> dict:
    """{"size": "p/q"} for each size class, largest size first."""
    return {str(size): format_fraction(weight) for (size, _), weight in zip(spec.classes, w)}
