"""Exact 2-D polygon engine and H-representation polyhedra.

The polyhedra of interest are 0-neighborhoods ``{x : a_i . x <= 1}``; slices
of translated cones can also produce rows with right-hand sides <= 0, which
are carried as explicit ``(a, c)`` pairs instead of being force-scaled.

Everything is pure Fraction arithmetic: vertex enumeration, halfplane
clipping, shoelace areas, unions in the plane and on the unit torus (one
exact slab sweep), and slicing of higher-dimensional cones down to the
plane.  Lower-dimensional intersections (segments, points) are ordinary
polygons with area 0, not special cases.  All values are immutable and all functions are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .rational import Vec, cross2, dot, rat, vadd, vsub

ZERO = Fraction(0)
ONE = Fraction(1)


class _Unbounded:
    """Sentinel returned by vertex enumeration when a recession ray exists."""

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

# A halfplane a.x <= c, kept un-normalized.
Row = tuple  # tuple[Vec, Fraction]


@dataclass(frozen=True)
class HPoly:
    """Polyhedron {x : a_i . x <= 1}; rows are the a_i.

    The right-hand side is always 1, so 0 strictly satisfies every
    inequality and the set is a 0-neighborhood by construction.
    """

    dim: int
    rows: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("HPoly dimension must be positive")
        for a in self.rows:
            if len(a) != self.dim:
                raise DimensionMismatch(
                    f"row of length {len(a)} in {self.dim}-dimensional HPoly"
                )

    @staticmethod
    def from_rows(rows) -> "HPoly":
        rows = tuple(tuple(rat(c) for c in a) for a in rows)
        if not rows:
            raise DimensionMismatch("HPoly needs at least one row")
        return HPoly(len(rows[0]), rows)

    def as_pairs(self) -> tuple:
        """Rows as (a, 1) halfplane pairs."""
        return tuple((a, ONE) for a in self.rows)

    def contains(self, x: Vec, strict: bool = False) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point/polyhedron dimension mismatch")
        if strict:
            return all(dot(a, x) < 1 for a in self.rows)
        return all(dot(a, x) <= 1 for a in self.rows)

    def canonical_rows(self) -> tuple:
        return tuple(sorted(self.rows))


@dataclass(frozen=True)
class Polygon2:
    """Convex polygon as a CCW vertex tuple; may be empty, a point or a segment.

    Every constructor in this package produces convex output (halfplane
    intersections and clips of convex input), so containment tests use
    orientation predicates.
    """

    vertices: tuple

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def area(self) -> Fraction:
        return area(self)

    def translate(self, t: Vec) -> "Polygon2":
        return Polygon2(tuple(vadd(v, t) for v in self.vertices))

    def bbox(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def canonical(self) -> tuple:
        """Rotation-normalized vertex tuple; equal polygons compare equal."""
        vs = self.vertices
        if len(vs) <= 2:
            return tuple(sorted(vs))
        i = vs.index(min(vs))
        return vs[i:] + vs[:i]

    def contains(self, p: Vec, strict: bool = False) -> bool:
        vs = self.vertices
        if not vs:
            return False
        if len(vs) == 1:
            return (not strict) and p == vs[0]
        if len(vs) == 2:
            if strict:
                return False
            d = vsub(vs[1], vs[0])
            w = vsub(p, vs[0])
            if cross2(d, w) != 0:
                return False
            t = dot(d, w)
            return 0 <= t <= dot(d, d)
        for a, b in edges(vs):
            c = cross2(vsub(b, a), vsub(p, a))
            if c < 0 or (strict and c == 0):
                return False
        return True


def edges(vs):
    """Consecutive vertex pairs of a closed ring, last to first included."""
    return zip(vs, vs[1:] + vs[:1])


def area(poly: Polygon2) -> Fraction:
    """Exact shoelace area; CCW orientation makes it nonnegative."""
    vs = poly.vertices
    if len(vs) < 3:
        return ZERO
    s = ZERO
    for a, b in edges(vs):
        s += cross2(a, b)
    return s / 2


# ---------------------------------------------------------------------------
# Fourier-Motzkin helpers (tiny systems only: feasibility and variable bounds)
# ---------------------------------------------------------------------------


def fm_eliminate(rows, idx: int):
    """Eliminate variable `idx` from halfplane rows (a, c) meaning a.x <= c."""
    pos, neg, rest = [], [], []
    for a, c in rows:
        if a[idx] > 0:
            pos.append((a, c))
        elif a[idx] < 0:
            neg.append((a, c))
        else:
            rest.append((a[:idx] + a[idx + 1 :], c))
    for (ap, cp), (an, cn) in itertools.product(pos, neg):
        # scale so the idx coefficients cancel; both scales positive
        sp, sn = -an[idx], ap[idx]
        a = tuple(sp * x + sn * y for x, y in zip(ap, an))
        rest.append((a[:idx] + a[idx + 1 :], sp * cp + sn * cn))
    return rest


def fm_feasible(rows, dim: int) -> bool:
    """Exact feasibility of a.x <= c rows by full elimination."""
    for idx in range(dim - 1, -1, -1):
        rows = fm_eliminate(rows, idx)
    return all(c >= 0 for _, c in rows)


def fm_upper_bound(rows, dim: int, idx: int):
    """Exact sup of x_idx over the region, or None when unbounded above.

    Assumes the region is nonempty; on an empty region the bound is
    meaningless but harmless (callers detect emptiness separately).
    """
    for j in range(dim - 1, -1, -1):
        if j == idx:
            continue
        rows = fm_eliminate(rows, j)
    best = None
    for a, c in rows:
        if a[0] > 0:
            bound = c / a[0]
            if best is None or bound < best:
                best = bound
    return best


# ---------------------------------------------------------------------------
# 2-D vertex enumeration
# ---------------------------------------------------------------------------


def _feasible(rows, x) -> bool:
    return all(dot(a, x) <= c for a, c in rows)


def _recession_ray(rows):
    """A nonzero direction d with a.d <= 0 for all rows, or None.

    Extreme rays of the 2-D recession cone are perpendicular to some row
    normal, so checking the rotated normals is exhaustive.
    """
    for a, _ in rows:
        if a == (ZERO, ZERO):
            continue
        for d in ((-a[1], a[0]), (a[1], -a[0])):
            if all(dot(b, d) <= 0 for b, _ in rows):
                return d
    return None


def _ccw_sorted(points):
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(p, q):
        u, v = (p[0] - cx, p[1] - cy), (q[0] - cx, q[1] - cy)
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = cross2(u, v)
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return tuple(sorted(points, key=functools.cmp_to_key(cmp)))


def vertices_from_rows(rows):
    """Exact vertex list of the polygon {x : a.x <= c for (a,c) in rows}.

    Returns a Polygon2 (possibly empty or degenerate) or UNBOUNDED when the
    region is nonempty and has a recession direction.
    """
    rows = [(tuple(a), rat(c)) for a, c in rows]
    # zero-normal rows are trivial or infeasible
    clean = []
    for a, c in rows:
        if a == (ZERO, ZERO):
            if c < 0:
                return Polygon2(())
        else:
            clean.append((a, c))
    rows = clean
    if not rows:
        return UNBOUNDED

    candidates = set()
    for (a1, c1), (a2, c2) in itertools.combinations(rows, 2):
        det = cross2(a1, a2)
        if det == 0:
            continue
        x = ((c1 * a2[1] - c2 * a1[1]) / det, (a1[0] * c2 - a2[0] * c1) / det)
        if _feasible(rows, x):
            candidates.add(x)

    if not candidates:
        if fm_feasible(list(rows), 2):
            return UNBOUNDED  # nonempty but vertex-free: halfplane, strip, line
        return Polygon2(())

    if _recession_ray(rows) is not None:
        return UNBOUNDED

    pts = sorted(candidates)
    if len(pts) == 1:
        return Polygon2((pts[0],))
    d = vsub(pts[-1], pts[0])
    if all(cross2(d, vsub(p, pts[0])) == 0 for p in pts):
        return Polygon2((pts[0], pts[-1]))  # collinear: keep the extremes
    return Polygon2(_ccw_sorted(pts))


def vertices2(poly: HPoly | None, extra_rows=()) -> Polygon2 | _Unbounded:
    """Vertex enumeration of a 2-D HPoly plus optional (a, c) extra rows."""
    rows = []
    if poly is not None:
        if poly.dim != 2:
            raise DimensionMismatch("vertices2 requires a 2-D polyhedron")
        rows.extend(poly.as_pairs())
    rows.extend((tuple(a), rat(c)) for a, c in extra_rows)
    return vertices_from_rows(rows)


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------


def _canon_ring(pts):
    """Drop duplicate and collinear-middle vertices from a CCW ring."""
    out = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    if len(out) < 3:
        return tuple(out)
    changed = True
    while changed and len(out) >= 3:
        changed = False
        n = len(out)
        for i in range(n):
            a, b, c = out[i - 1], out[i], out[(i + 1) % n]
            if cross2(vsub(b, a), vsub(c, b)) == 0:
                out.pop(i)
                changed = True
                break
    if len(out) == 2 and out[0] == out[1]:
        out.pop()
    return tuple(out)


def clip(poly: Polygon2, halfplane) -> Polygon2:
    """poly intersected with {x : a.x <= c}, exactly (Sutherland-Hodgman)."""
    a, c = halfplane
    a = tuple(a)
    c = rat(c)
    vs = poly.vertices
    if not vs:
        return poly
    if len(vs) == 1:
        return poly if dot(a, vs[0]) <= c else Polygon2(())
    if len(vs) == 2:
        p, q = vs
        fp, fq = dot(a, p), dot(a, q)
        if fp <= c and fq <= c:
            return poly
        if fp > c and fq > c:
            return Polygon2(())
        t = (c - fp) / (fq - fp)
        m = vadd(p, tuple(t * d for d in vsub(q, p)))
        kept = p if fp <= c else q
        return Polygon2(tuple(sorted((kept, m)))) if kept != m else Polygon2((m,))

    out = []
    prev = vs[-1]
    fprev = dot(a, prev)
    for cur in vs:
        fcur = dot(a, cur)
        if fcur <= c:
            if fprev > c:
                t = (c - fprev) / (fcur - fprev)
                out.append(vadd(prev, tuple(t * d for d in vsub(cur, prev))))
            out.append(cur)
        elif fprev <= c:
            t = (c - fprev) / (fcur - fprev)
            out.append(vadd(prev, tuple(t * d for d in vsub(cur, prev))))
        prev, fprev = cur, fcur
    ring = _canon_ring(out)
    if len(ring) > 2:
        return Polygon2(ring)
    return Polygon2(tuple(sorted(ring)))


def clip_many(poly: Polygon2, halfplanes) -> Polygon2:
    for hp in halfplanes:
        if poly.is_empty:
            return poly
        poly = clip(poly, hp)
    return poly


def convex_hull(points) -> Polygon2:
    """Monotone-chain hull of exact points; degenerate inputs collapse."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return Polygon2(tuple(pts))

    def half_hull(ps):
        hull = []
        for p in ps:
            while len(hull) >= 2 and cross2(vsub(hull[-1], hull[-2]), vsub(p, hull[-2])) <= 0:
                hull.pop()
            hull.append(p)
        return hull

    lower = half_hull(pts)
    upper = half_hull(list(reversed(pts)))
    ring = tuple(lower[:-1] + upper[:-1])
    if len(ring) < 3:
        return Polygon2(tuple(sorted(set(ring))))
    return Polygon2(ring)


def convex_intersection(pa: Polygon2, pb: Polygon2) -> Polygon2:
    """Intersection of two convex polygons by edge clipping; pb needs area."""
    if len(pb.vertices) < 3 or pa.is_empty:
        return Polygon2(())
    out = pa
    for v, w in edges(pb.vertices):
        d = vsub(w, v)
        a = (d[1], -d[0])
        out = clip(out, (a, dot(a, v)))
        if out.is_empty:
            break
    return out


# ---------------------------------------------------------------------------
# Cone slicing
# ---------------------------------------------------------------------------


def cone_slice(cone: HPoly, t) -> tuple:
    """H-representation of {x : (x, t) in cone} one dimension down.

    Returns (HPoly, extras): rows whose right-hand side stays positive are
    renormalized to rhs 1; the rest (possible at and above an apex) are kept
    as explicit (a, c) pairs.
    """
    t = rat(t)
    if cone.dim < 2:
        raise DimensionMismatch("cannot slice a 1-D polyhedron")
    normalized = []
    extras = []
    for row in cone.rows:
        a, h = row[:-1], row[-1]
        c = 1 - h * t
        if c > 0:
            normalized.append(tuple(x / c for x in a))
        else:
            extras.append((a, c))
    return HPoly(cone.dim - 1, tuple(normalized)), tuple(extras)


def slice_polygon(cone: HPoly, t) -> Polygon2 | _Unbounded:
    """Vertex form of a height-t slice of a 3-D polyhedron."""
    hp, extras = cone_slice(cone, t)
    return vertices2(hp if hp.rows else None, extras)


# ---------------------------------------------------------------------------
# Unions: exact slab sweep in the plane and on the unit torus
# ---------------------------------------------------------------------------

# The fundamental cell [0,1]^2 as halfplanes a.x <= c.
_CELL = (((ONE, ZERO), ONE), ((-ONE, ZERO), ZERO), ((ZERO, ONE), ONE), ((ZERO, -ONE), ZERO))


def _wrap_into_cell(polys):
    """Clip every integer translate of every polygon against [0,1]^2."""
    pieces = []
    for poly in polys:
        if len(poly.vertices) < 3 or area(poly) == 0:
            continue
        xmin, xmax, ymin, ymax = poly.bbox()
        for i in range(math.ceil(-xmax), math.floor(1 - xmin) + 1):
            for j in range(math.ceil(-ymax), math.floor(1 - ymin) + 1):
                shifted = poly.translate((Fraction(i), Fraction(j)))
                sx0, sx1, sy0, sy1 = shifted.bbox()
                if sx1 <= 0 or sx0 >= 1 or sy1 <= 0 or sy0 >= 1:
                    continue
                clipped = clip_many(shifted, _CELL)
                if area(clipped) > 0:
                    pieces.append(clipped)
    return pieces


def _vertical_intervals(piece: Polygon2, x):
    """y-intervals of a convex piece on the vertical line X = x.

    The sweep only evaluates at slab midpoints, which never coincide with a
    vertex abscissa, so every boundary crossing is transversal.
    """
    ys = []
    for p, q in edges(piece.vertices):
        if (p[0] - x) * (q[0] - x) < 0:
            t = (x - p[0]) / (q[0] - p[0])
            ys.append(p[1] + t * (q[1] - p[1]))
    ys.sort()
    return [(ys[i], ys[i + 1]) for i in range(0, len(ys) - 1, 2)]


def _merged_length(intervals):
    if not intervals:
        return ZERO, []
    intervals.sort()
    merged = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return sum((hi - lo for lo, hi in merged), ZERO), merged


def _slabs(pieces, bounds=()):
    """Sweep slabs of a union of convex polygons with area, left to right.

    Yields (x0, x1, length, merged) between consecutive event abscissae:
    `bounds`, every vertex and every crossing of two pieces' edges.  No
    event lies strictly inside a slab, so the union's vertical cross-section
    is linear in x there; `merged` is its y-intervals at the slab midpoint
    and (x1 - x0) * length is the slab's exact area.
    """
    xs = set(bounds)
    for piece in pieces:
        for v in piece.vertices:
            xs.add(v[0])
    boxes = [p.bbox() for p in pieces]
    for (ia, pa), (ib, pb) in itertools.combinations(enumerate(pieces), 2):
        ax0, ax1, ay0, ay1 = boxes[ia]
        bx0, bx1, by0, by1 = boxes[ib]
        if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
            continue
        for (p, q), (r, s) in itertools.product(edges(pa.vertices), edges(pb.vertices)):
            if max(min(p[0], q[0]), min(r[0], s[0])) > min(max(p[0], q[0]), max(r[0], s[0])):
                continue
            if max(min(p[1], q[1]), min(r[1], s[1])) > min(max(p[1], q[1]), max(r[1], s[1])):
                continue
            d1, d2 = vsub(q, p), vsub(s, r)
            det = cross2(d1, d2)
            if det == 0:
                continue
            t = cross2(vsub(r, p), d2) / det
            ix = p[0] + t * d1[0]
            if min(p[0], q[0]) <= ix <= max(p[0], q[0]) and min(r[0], s[0]) <= ix <= max(r[0], s[0]):
                xs.add(ix)

    for x0, x1 in itertools.pairwise(sorted(xs)):
        xm = (x0 + x1) / 2
        intervals = []
        for piece, (px0, px1, _, _) in zip(pieces, boxes):
            if px0 < xm < px1:
                intervals.extend(_vertical_intervals(piece, xm))
        yield (x0, x1, *_merged_length(intervals))


def union_area(polys) -> Fraction:
    """Exact area of the union of convex polygons in the plane.

    Empty polygons, points and segments add nothing and are skipped.
    """
    pieces = [p for p in polys if len(p.vertices) >= 3]
    return sum(((x1 - x0) * length for x0, x1, length, _ in _slabs(pieces)), ZERO)


def torus_cover(polys) -> tuple:
    """Exact area of (union of polys + Z^2) within [0,1]^2, plus a witness.

    The witness is a point of the open cell not covered by any translated
    polygon (None when the cover is full): midpoint of the first uncovered
    vertical gap in the first deficient sweep slab, which is deterministic.
    """
    pieces = _wrap_into_cell(polys)
    if not pieces:
        return ZERO, (Fraction(1, 2), Fraction(1, 2))

    total = ZERO
    witness = None
    # the cell's sides are slab bounds so that the witness search sees the
    # whole cell; every piece lies inside it, so no slab covers more than 1
    for x0, x1, covered, merged in _slabs(pieces, (ZERO, ONE)):
        total += (x1 - x0) * covered
        if witness is None and covered < 1:
            xm = (x0 + x1) / 2
            y_prev = ZERO
            for lo, hi in merged:
                if lo > y_prev:
                    witness = (xm, (y_prev + min(lo, ONE)) / 2)
                    break
                y_prev = max(y_prev, hi)
            if witness is None and y_prev < 1:
                witness = (xm, (y_prev + 1) / 2)
    return total, witness


def torus_union_area(polys) -> Fraction:
    """Exact area of (union of polys + Z^2) intersected with [0,1]^2."""
    return torus_cover(polys)[0]
