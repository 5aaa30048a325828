"""Shifted lattices S = b + Z^n with optional nonnegative-integer tails.

A tail of k appended coordinates models product sets S x Z_+^k, which is
where lifted cones live.  A truncation by a rational polyhedron cuts S
down; the translation group of a truncated lattice is not computed, so
the caller must declare it.  This module alone decides membership in S:
every scan of S elsewhere goes through `points_in` or its core `_points`.

Lattice points inside a polyhedral region are enumerated by one exact
integer scanline in any dimension: every row is scaled once to integer
coefficients, coordinates are eliminated from last to first by integer
Fourier-Motzkin, and each coordinate's range given the ones before it comes
from integer floor and ceil division.  A tail coordinate is an ordinary
scan coordinate with shift 0 and the row -t <= 0.  Output order is
lexicographic, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    TruncationNeedsExplicitGroup,
    UnboundedRegion,
)
from .exactgeo import HPoly
from .rational import Vec, dot, is_integral, rat


@dataclass(frozen=True)
class TranslationGroup:
    """Basis of the translation group plus extra monoid generators."""

    generators: tuple
    monoid_extra: tuple = ()


@dataclass(frozen=True)
class Lattice:
    """S = (b + Z^dim) [ x Z_+^tail ], optionally truncated by a polyhedron."""

    dim: int
    shift: Vec
    tail: int = 0
    truncation: tuple | None = None  # rows (a, c) meaning a.x <= c, or None
    declared_group: TranslationGroup | None = None

    def __post_init__(self):
        if not self.truncation:  # no rows cut nothing
            object.__setattr__(self, "truncation", None)
        if len(self.shift) != self.dim:
            raise DimensionMismatch("lattice shift has wrong length")
        if self.tail < 0:
            raise DimensionMismatch("tail must be nonnegative")
        if all(is_integral(c) for c in self.shift):
            raise DimensionMismatch("shift must have a non-integer coordinate")
        if any(len(a) != self.dim for a, _ in self.truncation or ()):
            raise DimensionMismatch(f"truncation rows must have length {self.dim}")

    @property
    def full_dim(self) -> int:
        return self.dim + self.tail

    @property
    def periodic(self) -> bool:
        """True when S is all of b + Z^dim: no truncation and no tail."""
        return self.truncation is None and not self.tail

    @cached_property
    def scan_frame(self) -> tuple:
        """(shift, rows) of S for `_scan`: truncation rows, then -t <= 0 per tail."""
        zero = (Fraction(0),) * self.tail
        rows = [(tuple(a) + zero, rat(c)) for a, c in self.truncation or ()]
        rows += [
            (tuple(-1 if j == t else 0 for j in range(self.full_dim)), 0)
            for t in range(self.dim, self.full_dim)
        ]
        return tuple(self.shift) + zero, tuple(rows)

    def with_tail(self, tail: int) -> "Lattice":
        return Lattice(self.dim, self.shift, tail, self.truncation, self.declared_group)


def contains(lat: Lattice, x: Vec) -> bool:
    """Exact membership of x in S (base residues, tail nonnegativity, truncation)."""
    if len(x) != lat.full_dim:
        raise DimensionMismatch(
            f"point of length {len(x)} against lattice of dimension {lat.full_dim}"
        )
    for xi, bi in zip(x[: lat.dim], lat.shift):
        if not is_integral(rat(xi) - bi):
            return False
    for xi in x[lat.dim :]:
        xi = rat(xi)
        if not is_integral(xi) or xi < 0:
            return False
    base = tuple(x[: lat.dim])
    return all(dot(a, base) <= c for a, c in lat.truncation or ())


def translation_group(lat: Lattice) -> TranslationGroup:
    """Translations preserving S: Z^n x {0}^tail, monoid extras on the tail."""
    if lat.truncation is not None:
        if lat.declared_group is None:
            raise TruncationNeedsExplicitGroup(
                "truncated lattice has no declared translation group"
            )
        return lat.declared_group
    d = lat.full_dim

    def unit(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(d))

    return TranslationGroup(
        generators=tuple(unit(i) for i in range(lat.dim)),
        monoid_extra=tuple(unit(lat.dim + i) for i in range(lat.tail)),
    )


def _columns(shift, rows, strict_rows=()):
    """Exact integer scanline over the points shift + z, z in Z^n, of a region.

    The region is a.x <= c over `rows` and a.x < c over `strict_rows`.  Each
    row becomes the integer row A.z <= C once: A = m*a for the common
    denominator m of a and c, and C is the largest integer at most (below,
    for a strict row) m*(c - a.shift).  Coordinates are then eliminated from
    last to first by integer Fourier-Motzkin; each new row is divided by the
    gcd of its coefficients and its right-hand side floored, which keeps
    every lattice point.  Returns an iterator of (prefix, lo, hi) for every
    prefix of the first n - 1 coordinates whose last coordinate has points,
    in lexicographic order, where lo..hi are exactly those points.  A region
    that is not empty on its first coordinate and leaves some coordinate
    unbounded raises UnboundedRegion.
    """
    T = math.lcm(*[b.denominator for b in shift])  # shift = s/T
    s = [b.numerator * (T // b.denominator) for b in shift]
    level = []  # (A, C) meaning A.z <= C
    for strict, group in ((0, rows), (1, strict_rows)):
        for a, c in group:
            m = math.lcm(c.denominator, *[x.denominator for x in a])
            A = [x.numerator * (m // x.denominator) for x in a]
            X = c.numerator * (m // c.denominator) * T - sum([u * v for u, v in zip(A, s)])
            level.append((A, (X - strict) // T))
    levels = [level]
    recedes = False
    for k in range(len(shift) - 1, 0, -1):
        up = [(A, C) for A, C in level if A[k] > 0]
        down = [(A, C) for A, C in level if A[k] < 0]
        recedes = recedes or not up or not down
        level = [(A[:k], C) for A, C in level if not A[k]]
        for Au, Cu in up:
            for Al, Cl in down:
                su, sl = -Al[k], Au[k]
                E = [su * u + sl * v for u, v in zip(Au[:k], Al[:k])]
                F = su * Cu + sl * Cl
                g = math.gcd(*E)
                level.append(([e // g for e in E], F // g) if g else (E, F))
        levels.append(level)
    hi = min((f // e for (e,), f in level if e > 0), default=None)
    lo = max((-(f // -e) for (e,), f in level if e < 0), default=None)
    if any(f < 0 for (e,), f in level if not e) or (lo is not None and hi is not None and lo > hi):
        return iter(())
    if lo is None or hi is None or recedes:
        raise UnboundedRegion("region has a recession direction")
    levels.reverse()
    return _walk(levels, 0, (), lo, hi) if len(levels) > 1 else iter([((), lo, hi)])


def _walk(levels, k, prefix, lo, hi):
    """The (prefix, lo, hi) of `_columns` below a prefix whose coordinate k is in lo..hi."""
    # the rows bounding coordinate k + 1, as (A[k], |A[k + 1]|, C - A.prefix)
    up, down = [], []
    for A, C in levels[k + 1]:
        b = A[k + 1]
        if b:
            r = (A[k], abs(b), C - sum([a * z for a, z in zip(A, prefix)]))
            (up if b > 0 else down).append(r)
    last = k + 2 == len(levels)
    for v in range(lo, hi + 1):
        h = min((R - a * v) // b for a, b, R in up)
        l = max(-((R - a * v) // b) for a, b, R in down)
        if l <= h:
            if last:
                yield prefix + (v,), l, h
            else:
                yield from _walk(levels, k + 1, prefix + (v,), l, h)


def _scan(shift, rows, strict_rows=()):
    """The points of `_columns`, as coordinates, in lexicographic order."""
    last = shift[-1]
    for prefix, lo, hi in _columns(shift, rows, strict_rows):
        x = tuple([b + i for b, i in zip(shift, prefix)])
        for j in range(lo, hi + 1):
            yield x + (last + j,)


def points_in(lat: Lattice, region: HPoly, extra_rows=(), strict: bool = False):
    """All points of S inside the region (interior only when strict).

    The region lives in the lattice's full dimension.  Each tail coordinate
    is one more scan coordinate, with shift 0 and the row -t <= 0, so one
    exact integer scanline enumerates the whole region, in lexicographic
    order; a region that recedes raises UnboundedRegion instead of looping.
    """
    if region.dim != lat.full_dim:
        raise DimensionMismatch("region/lattice dimension mismatch")
    body = region.as_pairs() + tuple([(tuple(a), rat(c)) for a, c in extra_rows])
    return _points(lat, (), body) if strict else _points(lat, body)


def _points(lat: Lattice, rows, strict_rows=()):
    """Points of S with a.x <= c over `rows` and a.x < c over `strict_rows`."""
    shift, closed = lat.scan_frame
    return tuple(_scan(shift, closed + tuple(rows), strict_rows))


def naive_box_points(lat: Lattice, bbox, pred) -> tuple:
    """Brute-force oracle: scan all residues in a box, keep those passing pred."""
    xmin, xmax, ymin, ymax = (rat(v) for v in bbox)
    b1, b2 = lat.shift
    out = []
    for i in range(math.ceil(xmin - b1), math.floor(xmax - b1) + 1):
        for j in range(math.ceil(ymin - b2), math.floor(ymax - b2) + 1):
            p = (b1 + i, b2 + j)
            if pred(p):
                out.append(p)
    return tuple(sorted(out))
