"""Spindles, the fixing-region inner approximation, and its certificates.

The spindle of a point x (for a chosen maximizing row k of the gauge) is the
centrally symmetric polytope pinched between 0 and x on which lifting
coefficients are forced; a triangle's is a closed-form parallelogram.
Collecting the spindles of every boundary witness of the certifying cone,
shifted 0..height times by pstar, yields a finite polygon family whose union
modulo Z^2 inner-approximates the fixing region; exact torus area 1
certifies that one lifting coefficient fixes them all.

Translation machinery: an affine transport map carries each piece of the
approximation for B onto the matching piece for B + m, which is how
one-point fixability transfers to translates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NotArgmax,
    OriginNotInterior,
    PreconditionViolated,
)
from .exactgeo import (
    ZERO,
    HPoly,
    Polygon2,
    slice_polygon,
    torus_cover,
    vertices_from_rows,
)
from .gauge import Gauge, LiftCert, lifting_cone, psi_eval, v_psi_geometric
from .lattice import Lattice, translation_group
from .rational import Vec, dot, is_integral, rat, vadd, vscale, vsub


@dataclass(frozen=True)
class Spindle:
    """H-form {(a_i - a_k).r <= 0, (a_i - a_k).(x - r) <= 0} plus its polygon."""

    rows: tuple  # ((vec, rhs), ...) in the dimension of x
    polygon: Polygon2 | None  # vertex form when 2-D

    def contains(self, x: Vec) -> bool:
        return all(dot(a, x) <= c for a, c in self.rows)


def spindle(base_rows, x: Vec, k: int) -> Spindle:
    """Spindle of x for maximizing row k; NotArgmax if row k does not attain psi(x).

    A triangle's spindle is a closed-form parallelogram (`_triangle_spindle`).
    """
    rows = tuple(tuple(rat(c) for c in a) for a in base_rows)
    vals = [dot(a, x) for a in rows]
    if vals[k] < max(vals):
        raise NotArgmax(f"row {k} gives {vals[k]}, max is {max(vals)}")
    strips = [(vsub(a, rows[k]), vals[i] - vals[k]) for i, a in enumerate(rows) if i != k]
    ext = tuple(r for d, dx in strips for r in ((d, Fraction(0)), (tuple(-c for c in d), -dx)))
    poly = None
    if len(x) == 2:
        poly = _triangle_spindle(strips, x) or vertices_from_rows(ext)
    return Spindle(ext, poly)


def _triangle_spindle(strips, x: Vec) -> Polygon2 | None:
    """The polygon of two strips d.x <= d.r <= 0, given as (d, d.x), or None.

    For independent d_i, d_j it is the parallelogram 0, x, u, x - u with
    d_i.u = 0 and d_j.u = d_j.x; it collapses to the segment [0, x] when
    d_i.x or d_j.x is 0, and to a point at x = 0.  Other strip families
    give None.
    """
    if len(strips) != 2:
        return None
    ((d1, d2), dx), ((e1, e2), ex) = strips
    det = d1 * e2 - d2 * e1
    if det == 0:
        return None
    if x[0] == 0 and x[1] == 0:
        return Polygon2(((ZERO, ZERO),))
    if dx == 0 or ex == 0:
        return Polygon2(tuple(sorted(((ZERO, ZERO), x))))
    u = (-d2 * ex / det, d1 * ex / det)
    v = (x[0] - u[0], x[1] - u[1])
    # diagonals 0-x and u-v; start as `_ccw_sorted` does, at the least angle about x/2
    ring = ((ZERO, ZERO), u, x, v) if u[0] * x[1] > u[1] * x[0] else ((ZERO, ZERO), v, x, u)
    upper = [(2 * p[1] - x[1], 2 * p[0] - x[0]) > (0, 0) for p in ring]
    s = next(i for i in range(4) if upper[i] and not upper[i - 1])
    return Polygon2(ring[s:] + ring[:s])


def slice_property_check(g: Gauge, cert: LiftCert, pair, t) -> bool:
    """Height-t slice equals the base slice translated by t*(pstar, 1).

    Checked by exact polygon equality, for every maximizing row of the pair.
    """
    x, k = pair
    lifted = lifting_cone(g, cert.pstar, cert.value)
    point = tuple(x) + (Fraction(k),)
    gv_vals = [dot(a, point) for a in lifted.rows]
    m = max(gv_vals)
    shift2 = vscale(rat(t), cert.pstar)
    for idx, v in enumerate(gv_vals):
        if v != m:
            continue
        sp = spindle(lifted.rows, point, idx)
        left = slice_polygon(sp.rows, t)
        right = slice_polygon(sp.rows, 0).translate(shift2)
        if left.canonical() != right.canonical():
            return False
    return True


@dataclass(frozen=True)
class Piece:
    """One polygon of the inner approximation, with provenance."""

    polygon: Polygon2
    pair: tuple  # (x, height) boundary pair it came from
    facet: int  # maximizing row index used for the spindle
    shift: int  # how many pstar shifts were applied (0..height)


@dataclass(frozen=True)
class FixApprox:
    pstar: Vec
    cert: LiftCert
    pieces: tuple
    group_generators: tuple


@dataclass(frozen=True)
class CoverCert:
    covered_area: Fraction
    total: Fraction
    is_full: bool
    uncovered_witness: Vec | None


def boundary_pairs(g: Gauge, cert: LiftCert):
    """All of S x Z_+ on the certifying cone's boundary, heights 0 and up.

    Pairs (x, height) come in (height, x) order.
    """
    return v_psi_geometric(g, cert.pstar, cert.value).boundary


def fix_approx(g: Gauge, cert: LiftCert) -> FixApprox:
    """Spindle pieces R_B(x - h*pstar) + i*pstar for every boundary pair.

    Height-0 pairs contribute the classical lifting-region spindles; ties in
    the maximizing row produce one spindle per row (the union only grows).
    """
    if g.body.dim != 2:
        raise DimensionMismatch(f"fixing regions need a 2-D body, got dimension {g.body.dim}")
    pieces = []
    for x, k in boundary_pairs(g, cert):
        anchor = vsub(x, vscale(k, cert.pstar))
        gv = psi_eval(g, anchor)
        for f in gv.argmax:
            sp = spindle(g.body.rows, anchor, f)
            for i in range(k + 1):
                pieces.append(
                    Piece(
                        polygon=sp.polygon.translate(vscale(i, cert.pstar)),
                        pair=(x, k),
                        facet=f,
                        shift=i,
                    )
                )
    group = translation_group(g.lattice)
    return FixApprox(cert.pstar, cert, tuple(pieces), group.generators)


def cover_certify(f: FixApprox) -> CoverCert:
    """Exact torus-covering certificate for the piece family.

    Area 1 on the fundamental cell certifies the union + Z^2 is the whole
    plane (the union is a closed set).  Otherwise a witness point outside
    every piece modulo Z^2 is produced.
    """
    if f.group_generators != ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
        raise PreconditionViolated("covering certificate requires group Z^2")
    covered, witness = torus_cover([p.polygon for p in f.pieces])
    is_full = covered == 1
    if not is_full and witness is not None:
        for piece in f.pieces:
            if not piece.polygon.vertices:
                continue
            xmin, xmax, ymin, ymax = piece.polygon.bbox()
            for i in range(math.ceil(xmin - witness[0]) - 1, math.floor(xmax - witness[0]) + 2):
                for j in range(math.ceil(ymin - witness[1]) - 1, math.floor(ymax - witness[1]) + 2):
                    if piece.polygon.contains(vadd(witness, (Fraction(i), Fraction(j)))):
                        raise PreconditionViolated(
                            "uncovered witness lies inside a piece; sweep bug"
                        )
    return CoverCert(covered, Fraction(1), is_full, None if is_full else witness)


# ---------------------------------------------------------------------------
# Translation invariance
# ---------------------------------------------------------------------------


def translate_instance(g: Gauge, cert: LiftCert, m: Vec):
    """Gauge for B + m over S + m, and the matching lifted point.

    Row i of B + m is a_i / (1 + a_i . m); a truncation row a.x <= c moves
    to a.x <= c + a.m; the lifted point is pstar + value * m.  Requires 0
    interior to B + m.
    """
    m = tuple(rat(c) for c in m)
    for a in g.body.rows:
        if 1 + dot(a, m) <= 0:
            raise OriginNotInterior(f"1 + a.m <= 0 for row {a}")
    rows = tuple(tuple(c / (1 + dot(a, m)) for c in a) for a in g.body.rows)
    lat = g.lattice
    trunc = None if lat.truncation is None else tuple((a, c + dot(a, m)) for a, c in lat.truncation)
    lat = Lattice(lat.dim, vadd(lat.shift, m), lat.tail, trunc, lat.declared_group)
    phat = vadd(cert.pstar, vscale(cert.value, m))
    return Gauge(HPoly(g.body.dim, rows), lat), phat


def tki_map(rows, pstar: Vec, value, m: Vec, i: int, k: int, x: Vec, inverse: bool = False) -> Vec:
    """Affine transport of fixing pieces between an instance and its translate.

    Forward: x + [(a_i, value - a_i.pstar) . (x, k)] m.  The inverse uses the
    translated row a_i / (1 + a_i.m) and is an exact round trip.
    """
    value = rat(value)
    a = tuple(rat(c) for c in rows[i])
    m = tuple(rat(c) for c in m)
    if not inverse:
        s = dot(a, x) + (value - dot(a, pstar)) * k
        return vadd(x, vscale(s, m))
    den = 1 + dot(a, m)
    if den <= 0:
        raise OriginNotInterior(f"1 + a.m <= 0 for row {a}")
    s = dot(a, x) / den + ((value - dot(a, pstar)) / den) * k
    return vsub(x, vscale(s, m))


def collision_check(g: Gauge, cert: LiftCert, pair_x, pair_y, point_x, point_y) -> bool:
    """Equal facet functionals at two spindle points differing by a lattice vector.

    point_x = (x, k_x) must lie in the lifted spindle of pair_x (and likewise
    for y), heights must stay within [0, pair height], and x - y must be an
    integer vector; otherwise PreconditionViolated.
    """
    lifted = lifting_cone(g, cert.pstar, cert.value)
    checks = []
    for pair, point in ((pair_x, point_x), (pair_y, point_y)):
        bx, bk = pair
        x, kx = point
        if not (isinstance(kx, int) or rat(kx).denominator == 1):
            raise PreconditionViolated("spindle point height must be an integer")
        kx = int(rat(kx))
        if not (0 <= kx <= bk):
            raise PreconditionViolated("height outside [0, pair height]")
        bpoint = tuple(bx) + (Fraction(bk),)
        vals = [dot(a, bpoint) for a in lifted.rows]
        if max(vals) != 1:
            raise PreconditionViolated("pair is not on the cone boundary")
        tight = tuple(i for i, v in enumerate(vals) if v == 1)
        spoint = tuple(x) + (Fraction(kx),)
        member_facets = tuple(
            f for f in tight if spindle(lifted.rows, bpoint, f).contains(spoint)
        )
        if not member_facets:
            raise PreconditionViolated("point is not in the pair's spindle")
        checks.append((member_facets, spoint))
    dx = vsub(point_x[0], point_y[0])
    if not all(is_integral(c) for c in dx):
        raise PreconditionViolated("x - y is not an integer vector")
    values = set()
    for facets, spoint in checks:
        for f in facets:
            values.add(dot(lifted.rows[f], spoint))
    return len(values) == 1
