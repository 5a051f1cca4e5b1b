"""Exact rational parsing and formatting ("p/q" strings)."""

from __future__ import annotations

from fractions import Fraction

RationalLike = Fraction | int | str


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p" exactly. Rejects floats and empty strings."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational string")
    num, sep, den = s.partition("/")
    try:
        p, q = int(num), int(den) if sep else 1
    except ValueError:
        raise ValueError(f"malformed rational {text!r}: not an integer or p/q") from None
    if q == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Fraction(p, q)


def format_fraction(x: Fraction) -> str:
    """Canonical string: "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
