"""Shifted lattices S = b + Z^n with optional nonnegative-integer tails.

A tail of k appended coordinates models product sets S x Z_+^k, which is
where lifted cones live.  Truncation by a rational polyhedron is carried as
data but automatic translation-group computation for truncated lattices is
deliberately not attempted; the caller must declare the group.

Enumeration of lattice points inside a polyhedral region works by slicing
tail coordinates at integer heights (the set of nonempty heights of a convex
region is an interval) and running an exact integer scanline over each 2-D
slice: every row is scaled once to integer coefficients, and each column's
exact range of points comes from integer floor and ceil division, so no
cell outside the region is visited.  Output order is lexicographic, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    TruncationNeedsExplicitGroup,
    UnboundedRegion,
)
from .exactgeo import HPoly, fm_feasible, fm_upper_bound
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
        if len(self.shift) != self.dim:
            raise DimensionMismatch("lattice shift has wrong length")
        if self.tail not in (0, 1, 2):
            raise DimensionMismatch("tail must be 0, 1 or 2")
        if all(is_integral(c) for c in self.shift):
            raise DimensionMismatch("shift must have a non-integer coordinate")

    @property
    def full_dim(self) -> int:
        return self.dim + self.tail

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
    if lat.truncation is not None:
        base = tuple(x[: lat.dim])
        if not all(dot(a, base) <= c for a, c in lat.truncation):
            return False
    return True


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
    """Exact integer scanline over the points shift + (i, j) of a 2-D region.

    The region is a.x <= c over `rows` and a.x < c over `strict_rows`.  Each
    row is rewritten once as A1*i + A2*j <= C, scaled by the common
    denominator of a and c - a.shift; a strict row becomes <= C - 1.  Yields
    (i, jlo, jhi) for every column with a point, i ascending, where jlo..jhi
    are exactly the column's points.  The column range is the i-range of the
    closed region, by Fourier-Motzkin elimination of j; a closed region that
    is nonempty and unbounded raises UnboundedRegion.
    """
    b1, b2 = shift
    ints = []  # (A1, A2, C, C less one when strict)
    for strict, group in ((0, rows), (1, strict_rows)):
        for (a1, a2), c in group:
            r = c - a1 * b1 - a2 * b2
            m = math.lcm(a1.denominator, a2.denominator, r.denominator)
            C = r.numerator * (m // r.denominator)
            ints.append((a1.numerator * (m // a1.denominator),
                         a2.numerator * (m // a2.denominator), C, C - strict))
    upper = [t for t in ints if t[1] > 0]
    lower = [t for t in ints if t[1] < 0]
    flat = [(A1, C, Cs) for A1, A2, C, Cs in ints if A2 == 0]
    # e*i <= f: the flat rows, and each upper row against each lower row
    bounds = [(A1, C) for A1, C, _ in flat] + [
        (u2 * l1 - l2 * u1, u2 * lc - l2 * uc)
        for u1, u2, uc, _ in upper
        for l1, l2, lc, _ in lower
    ]
    lo = hi = None
    for e, f in bounds:
        if e > 0:
            hi = Fraction(f, e) if hi is None else min(hi, Fraction(f, e))
        elif e < 0:
            lo = Fraction(f, e) if lo is None else max(lo, Fraction(f, e))
        elif f < 0:
            return
    if lo is not None and hi is not None and lo > hi:
        return
    if lo is None or hi is None or not upper or not lower:
        raise UnboundedRegion("2-D slice has a recession direction")
    for i in range(math.ceil(lo), math.floor(hi) + 1):
        if any(A1 * i > Cs for A1, _, Cs in flat):
            continue
        jhi = min((Cs - A1 * i) // A2 for A1, A2, _, Cs in upper)
        jlo = max(-((Cs - A1 * i) // -A2) for A1, A2, _, Cs in lower)
        if jlo <= jhi:
            yield i, jlo, jhi


def _scan(shift, rows, strict_rows=()):
    """The points of `_columns`, as coordinates, in lexicographic order."""
    b1, b2 = shift
    for i, jlo, jhi in _columns(shift, rows, strict_rows):
        x = b1 + i
        for j in range(jlo, jhi + 1):
            yield x, b2 + j


def points_in(lat: Lattice, region: HPoly, extra_rows=(), strict: bool = False):
    """All points of S inside the region (interior only when strict).

    The region lives in the lattice's full dimension.  Tail coordinates are
    sliced at integer heights k >= 0; an exact Fourier-Motzkin bound caps the
    scan and a recession test raises UnboundedRegion instead of looping.
    """
    if region.dim != lat.full_dim:
        raise DimensionMismatch("region/lattice dimension mismatch")
    body = list(region.as_pairs()) + [(tuple(a), rat(c)) for a, c in extra_rows]
    trunc = [
        (tuple(a) + (Fraction(0),) * lat.tail, rat(c)) for a, c in lat.truncation or ()
    ]
    if strict:
        found = _enumerate_slices(lat, trunc, body, lat.full_dim)
    else:
        found = _enumerate_slices(lat, body + trunc, [], lat.full_dim)
    return tuple(sorted(found))


def _enumerate_slices(lat: Lattice, rows, strict_rows, d: int):
    """Points of the region, recursing on tail coordinates."""
    if d == lat.dim:
        return _scan(lat.shift, rows, strict_rows)
    closed = rows + strict_rows
    # recession direction with positive last coordinate => unbounded scan
    rec_rows = [(a[:-1], -a[-1]) for a, _ in closed]
    if fm_feasible(rec_rows, d - 1):
        raise UnboundedRegion("region recedes along a tail coordinate")
    hi = fm_upper_bound(closed, d, d - 1)
    if hi is None:
        raise UnboundedRegion("tail coordinate unbounded above")
    out = []
    for k in range(0, math.floor(hi) + 1):
        sliced = [(a[:-1], c - a[-1] * k) for a, c in rows]
        sliced_strict = [(a[:-1], c - a[-1] * k) for a, c in strict_rows]
        for x in _enumerate_slices(lat, sliced, sliced_strict, d - 1):
            out.append(tuple(x) + (Fraction(k),))
    return out


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
