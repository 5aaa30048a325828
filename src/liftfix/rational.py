"""Exact rational scalars and fixed-dimension rational vectors.

Scalars are `fractions.Fraction` (arbitrary precision, always in canonical
form with positive denominator).  Vectors are plain tuples of Fractions so
they hash, compare lexicographically and unpack naturally.  Nothing in this
package ever touches floating point except the SVG renderer, and that only
at the final formatting step.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch

Vec = tuple  # tuple[Fraction, ...]


def rat(value) -> Fraction:
    """Build an exact rational from an int, Fraction or "p/q" / "p" string.

    Floats are rejected: silently accepting them would smuggle rounding
    into an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build exact rational from {type(value).__name__}")


def rat_str(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_vec(items) -> Vec:
    return tuple(rat(c) for c in items)


def vec_str(v: Vec) -> list:
    return [rat_str(c) for c in v]


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of length {len(a)} with length {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"add of length {len(a)} with length {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"sub of length {len(a)} with length {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vscale(s, a: Vec) -> Vec:
    s = rat(s)
    return tuple(s * x for x in a)


def cross2(a: Vec, b: Vec) -> Fraction:
    """2-D cross product a.x*b.y - a.y*b.x."""
    return a[0] * b[1] - a[1] * b[0]


def is_integral(q: Fraction) -> bool:
    return Fraction(q).denominator == 1
