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
    """Skeleton of a (b, a)-partition candidate for given (s, t)."""

    s: int
    t: int
    b: int
    a: int
    part_sizes: tuple[int, ...]  # descending

    def size_classes(self) -> tuple[tuple[int, int], ...]:
        """Distinct part sizes with multiplicities, largest size first."""
        out: list[tuple[int, int]] = []
        for size in self.part_sizes:
            if out and out[-1][0] == size:
                out[-1] = (size, out[-1][1] + 1)
            else:
                out.append((size, 1))
        return tuple(out)


@dataclass(frozen=True)
class WeightAssignment:
    """Per-vertex weight for each part-size class."""

    class_weight: tuple[tuple[int, Fraction], ...]  # (part size, weight), size desc

    def weight_for(self, size: int) -> Fraction:
        for k, w in self.class_weight:
            if k == size:
                return w
        raise KeyError(f"no weight for part size {size}")


def balanced_sizes(b: int, a: int) -> tuple[int, ...]:
    """b split into a parts whose sizes differ by at most one, descending."""
    big, rem = divmod(b, a)
    return tuple([big + 1] * rem + [big] * (a - rem))


def enumerate_specs(s: int, t: int) -> list[PartitionSpec]:
    """All admissible (b, a) skeletons for (s, t), ordered by increasing b.

    b runs from max(s, ceil((t-1)/2)) to t-2 with a = t-1-b. For s >= 3 the
    size filter applies: either a single part of size exactly s, or every
    part of size at most s-1. For s = 2 that filter is dropped (the s = 2
    extremal structure uses a size-2 part even when a = 1 would forbid it).
    """
    if s < 2:
        raise ValueError("s must be at least 2")
    if t < s + 2:
        raise ValueError(f"t must be at least s+2 = {s + 2}")
    specs: list[PartitionSpec] = []
    b_min = max(s, t // 2)  # t//2 == ceil((t-1)/2)
    for b in range(b_min, t - 1):
        a = t - 1 - b
        sizes = balanced_sizes(b, a)
        if s >= 3:
            if a == 1 and b != s:
                continue
            if a >= 2 and sizes[0] > s - 1:
                continue
        specs.append(PartitionSpec(s, t, b, a, sizes))
    return specs


def uniform_assignment(spec: PartitionSpec) -> WeightAssignment:
    w = Fraction(1, spec.b)
    return WeightAssignment(tuple((size, w) for size, _ in spec.size_classes()))


def check_assignment(spec: PartitionSpec, w: WeightAssignment) -> None:
    total = ZERO
    for size, count in spec.size_classes():
        weight = w.weight_for(size)
        if weight <= 0:
            raise ValueError(f"class weight for size {size} must be positive")
        total += count * size * weight
    if total != ONE:
        raise ValueError(
            f"weights sum to {format_fraction(total)} over the partition, expected 1"
        )


def realize_spec(spec: PartitionSpec, w: WeightAssignment) -> WeightedGraph:
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

    c holds s + 1 integers, zero-padded, and the true coefficient of y^j is
    c[j] / 2^E, with E = C(min(size, s), 2) * count. The per-vertex weight w
    is factored out: the z^j coefficient of `count` equal parts of weight w
    in the density generating product is c[j] * w^j / 2^E.
    """
    e = comb(min(size, s), 2)
    base = [comb(size, m) << (e - comb(m, 2)) for m in range(min(size, s) + 1)]
    c = [1]
    for _ in range(count):
        c = _mul_trunc(c, base, s)
    return c + [0] * (s + 1 - len(c)), e * count


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


def spec_parts(spec: PartitionSpec, w: WeightAssignment) -> list[tuple[int, Fraction]]:
    return [(size, w.weight_for(size)) for size in spec.part_sizes]


def spec_density(spec: PartitionSpec, w: WeightAssignment, s: int) -> Fraction:
    """Closed-form K_s-density of the realized spec; equals the graph density."""
    check_assignment(spec, w)
    return parts_density(spec_parts(spec, w), s)


def complete_balanced(r: int) -> WeightedGraph:
    """r vertices of weight 1/r, every edge weight 1."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return parts_graph([(1, Fraction(1, r))] * r)


def assignment_to_dict(w: WeightAssignment) -> dict:
    return {str(size): format_fraction(weight) for size, weight in w.class_weight}
