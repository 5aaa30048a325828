"""Exact 2-D polygon engine and H-representation polyhedra.

The polyhedra of interest are 0-neighborhoods ``{x : a_i . x <= 1}``.  Every
polygon is cut out by rational halfplanes given as ``(a, c)`` rows meaning
``a . x <= c`` and comes from `vertices_from_rows`, which raises
UnboundedRegion when the rows leave the region unbounded; a slice of a
higher-dimensional polyhedron is the same call after fixing its last
coordinate.

Everything is exact rational arithmetic: vertex enumeration, halfplane
clipping, shoelace areas, and unions in the plane and on the unit torus.  The
wrap into the cell, the slab sweep and `area_outside_strips` (cells outside
strips, on homogeneous points) run on integers over one common denominator.
Every ring takes one normal form, `convex_hull`'s; one start rule orders the
rings certificates print.  Lower-dimensional intersections (segments, points)
are ordinary polygons with area 0, not special cases.  All values are
immutable and all functions are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, UnboundedRegion
from .rational import Vec, cross2, dot, rat, vadd, vsub

ZERO = Fraction(0)
ONE = Fraction(1)


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

    def contains(self, p: Vec) -> bool:
        vs = self.vertices
        if not vs:
            return False
        if len(vs) == 1:
            return p == vs[0]
        if len(vs) == 2:
            d = vsub(vs[1], vs[0])
            w = vsub(p, vs[0])
            if cross2(d, w) != 0:
                return False
            t = dot(d, w)
            return 0 <= t <= dot(d, d)
        return all(cross2(vsub(b, a), vsub(p, a)) >= 0 for a, b in edges(vs))


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


def _least_angle_first(ring, center):
    """A CCW ring around `center`, started at its least angle in [0, 2*pi) about it."""
    cx, cy = center
    upper = [(y - cy, x - cx) > (0, 0) for x, y in ring]  # angle in [0, pi)
    s = next(i for i in range(len(ring)) if upper[i] and not upper[i - 1])
    return ring[s:] + ring[:s]


def vertices_from_rows(rows) -> Polygon2:
    """Exact vertex list of the polygon {x : a.x <= c for (a,c) in rows}.

    The polygon may be empty, a point or a segment.  A nonempty region that
    is not bounded raises UnboundedRegion: the whole plane (no nonzero row),
    a region without a vertex (halfplane, strip, line) or one with a
    recession ray (wedge).
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
        raise UnboundedRegion("no nonzero row bounds the region")

    candidates = set()
    for (a1, c1), (a2, c2) in itertools.combinations(rows, 2):
        det = cross2(a1, a2)
        if det == 0:
            continue
        x = ((c1 * a2[1] - c2 * a1[1]) / det, (a1[0] * c2 - a2[0] * c1) / det)
        if all(dot(a, x) <= c for a, c in rows):
            candidates.add(x)

    if not candidates:
        if fm_feasible(list(rows), 2):
            raise UnboundedRegion("region is nonempty but has no vertex")
        return Polygon2(())

    if _recession_ray(rows) is not None:
        raise UnboundedRegion("region has a recession direction")

    ring = convex_hull(candidates).vertices
    if len(ring) < 3:
        return Polygon2(ring)
    # the vertex mean is interior, so every vertex has an angle about it
    return Polygon2(_least_angle_first(ring, tuple(sum(c) / len(ring) for c in zip(*ring))))


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------


def clip(poly: Polygon2, halfplane) -> Polygon2:
    """poly intersected with {x : a.x <= c}, exactly (Sutherland-Hodgman).

    No library code calls it, `clip_many` or `convex_intersection`: they are
    the tests' reference route, and the benchmark traces the last two.
    """
    a, c = halfplane
    a = tuple(a)
    c = rat(c)
    vs = poly.vertices
    if not vs:
        return poly
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
    return convex_hull(out)


def clip_many(poly: Polygon2, halfplanes) -> Polygon2:
    """poly clipped to each halfplane in turn; a reference route, as `clip`."""
    for hp in halfplanes:
        if poly.is_empty:
            return poly
        poly = clip(poly, hp)
    return poly


def _turn(a, b, c):
    """Twice the signed area of the triangle a, b, c; positive on a left turn."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def convex_hull(points) -> Polygon2:
    """Monotone-chain hull of int or Fraction points, the normal form of a ring.

    With area: CCW from the least point, no duplicate or collinear vertex;
    else the sorted point or segment, or the empty polygon.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return Polygon2(tuple(pts))

    def half_hull(ps):
        hull = []
        for p in ps:
            while len(hull) >= 2 and _turn(hull[-2], hull[-1], p) <= 0:
                hull.pop()
            hull.append(p)
        return hull

    # collinear points leave (least, greatest): the sorted segment
    return Polygon2(tuple(half_hull(pts)[:-1] + half_hull(reversed(pts))[:-1]))


def convex_intersection(pa: Polygon2, pb: Polygon2) -> Polygon2:
    """Intersection of two convex polygons by edge clipping (see `clip`); pb needs area."""
    if len(pb.vertices) < 3:
        return Polygon2(())
    # pb is CCW: the halfplane left of each edge v -> w
    halfplanes = (((w[1] - v[1], v[0] - w[0]), cross2(v, w)) for v, w in edges(pb.vertices))
    return clip_many(pa, halfplanes)


def _cut(ring, n0: int, n1: int, c: int):
    """A ring of homogeneous integer points (X, Y, W), W > 0, cut to n.x <= c."""
    out = []
    for p, q in edges(ring):
        gp, gq = (n0 * v[0] + n1 * v[1] - c * v[2] for v in (p, q))
        if gp * gq < 0:  # the crossing gq*p - gp*q, signed to keep W > 0
            out.append(tuple(gq * u - gp * v if gq > 0 else gp * v - gq * u for u, v in zip(p, q)))
        if gq <= 0:
            out.append(q)
    return out


def area_outside_strips(vertices, strips) -> Fraction:
    """Exact area of a CCW convex polygon outside closed strips lo <= n.x <= hi.

    Each strip (n, lo, hi), n an integer normal, splits every cell into its
    outer sides n.x <= lo and n.x >= hi, on homogeneous integer points over
    one common scale L; the cells' interiors are disjoint, so the residual
    is their shoelace sum, one Fraction per cell triangle.  A point or a
    segment has no cells.
    """
    L = math.lcm(*(c.denominator for v in (*vertices, *(s[1:] for s in strips)) for c in v))
    up = lambda c: c.numerator * (L // c.denominator)  # noqa: E731
    cells = [[(up(x), up(y), 1) for x, y in vertices]] if len(vertices) > 2 else []
    for (n0, n1), lo, hi in strips:
        cuts = ((n0, n1, up(lo)), (-n0, -n1, -up(hi)))
        cells = [out for cell in cells for cut in cuts if len(out := _cut(cell, *cut)) > 2]
    total = ZERO
    for (x0, y0, w0), *rest in cells:
        for (x1, y1, w1), (x2, y2, w2) in itertools.pairwise(rest):
            det = x0 * (y1 * w2 - w1 * y2) - y0 * (x1 * w2 - w1 * x2) + w0 * (x1 * y2 - y1 * x2)
            total += Fraction(det, 2 * w0 * w1 * w2 * L * L)
    return total


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------


def slice_polygon(rows, t) -> Polygon2:
    """The polygon {x : (x, t) in P} of P = {y : a.y <= c} one dimension up."""
    t = rat(t)
    return vertices_from_rows([(a[:-1], c - a[-1] * t) for a, c in rows])


# ---------------------------------------------------------------------------
# Unions: exact slab sweep in the plane and on the unit torus
# ---------------------------------------------------------------------------

def _clip_side(ring, axis: int, side: int, c: int):
    """A hull ring clipped to side * v[axis] <= side * c, in hull form.

    A crossing keeps c as its `axis` coordinate and gets the other as one
    Fraction.  A ring left with fewer than three vertices has no area: ().
    """
    out = []
    prev = ring[-1]
    for cur in ring:
        inside = side * cur[axis] <= side * c
        if inside != (side * prev[axis] <= side * c):
            den, o = cur[axis] - prev[axis], 1 - axis
            v = Fraction(prev[o] * den + (c - prev[axis]) * (cur[o] - prev[o]), den)
            out.append((c, v) if axis == 0 else (v, c))
        if inside:
            out.append(cur)
        prev = cur
    ring = convex_hull(out).vertices
    return ring if len(ring) > 2 else ()


def _wrap_into_cell(polys):
    """Clip every integer translate of every polygon against [0,1]^2.

    The rings are scaled once by the common denominator L of their
    vertices, so a translate moves by multiples of L in plain ints and the
    cell is [0, L]^2.  Each ring is put into hull form once, skipped with no
    area; translates stay in hull form, and only the cell sides a translate
    crosses are clipped.  What is left has area and comes back divided by L.
    """
    L = math.lcm(*(c.denominator for p in polys for v in p.vertices for c in v))
    halves = ((0, 1, L), (0, -1, 0), (1, 1, L), (1, -1, 0))  # x <= L, x >= 0, y <= L, y >= 0
    pieces = []
    for p in polys:
        ring = convex_hull([(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator))
                            for x, y in p.vertices]).vertices
        if len(ring) < 3:
            continue
        xmin, xmax, ymin, ymax = Polygon2(ring).bbox()
        for i, j in itertools.product(range(-(xmax // L), (L - xmin) // L + 1),
                                      range(-(ymax // L), (L - ymin) // L + 1)):
            sx0, sx1, sy0, sy1 = xmin + i * L, xmax + i * L, ymin + j * L, ymax + j * L
            if sx1 <= 0 or sx0 >= L or sy1 <= 0 or sy0 >= L:
                continue
            shifted = tuple((x + i * L, y + j * L) for x, y in ring)
            for half in itertools.compress(halves, (sx1 > L, sx0 < 0, sy1 > L, sy0 < 0)):
                shifted = shifted and _clip_side(shifted, *half)
            if shifted:
                pieces.append(Polygon2(tuple((Fraction(x, L), Fraction(y, L)) for x, y in shifted)))
    return pieces


def segment_crossing(p, q, r, s):
    """Where the segments [p, q] and [r, s] meet, found without a division.

    Returns (num, det) with det > 0, the crossing being p + (num/det)(q - p),
    or None when the segments are parallel or miss.  Coordinates are ints or
    Fractions.
    """
    d1x, d1y, d2x, d2y = q[0] - p[0], q[1] - p[1], s[0] - r[0], s[1] - r[1]
    det = d1x * d2y - d1y * d2x
    if det == 0:
        return None
    wx, wy = r[0] - p[0], r[1] - p[1]
    num, unum = wx * d2y - wy * d2x, wx * d1y - wy * d1x
    if det < 0:
        det, num, unum = -det, -num, -unum
    if 0 <= num <= det and 0 <= unum <= det:
        return num, det
    return None


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

    The sweep runs on integer coordinates, every vertex scaled by the common
    denominator L of all of them; each crossing and interval end comes back
    as one exact Fraction.  A slab midpoint is never a vertex abscissa, so
    every edge it meets crosses it transversally.
    """
    L = math.lcm(*(c.denominator for piece in pieces for v in piece.vertices for c in v))
    rings = [tuple((x.numerator * (L // x.denominator), y.numerator * (L // y.denominator))
                   for x, y in piece.vertices) for piece in pieces]
    boxes = [Polygon2(ring).bbox() for ring in rings]
    xs = set(bounds)
    xs.update(v[0] for piece in pieces for v in piece.vertices)
    pairs = itertools.combinations(zip(rings, boxes), 2)
    for (ra, (ax0, ax1, ay0, ay1)), (rb, (bx0, bx1, by0, by1)) in pairs:
        if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
            continue
        for (p, q), (r, s) in itertools.product(edges(ra), edges(rb)):
            hit = segment_crossing(p, q, r, s)
            if hit:
                num, det = hit
                xs.add(Fraction(p[0] * det + num * (q[0] - p[0]), det * L))

    for x0, x1 in itertools.pairwise(sorted(xs)):
        xm = (x0 + x1) / 2
        n, d = xm.numerator * L, xm.denominator
        intervals = []
        for ring, (px0, px1, _, _) in zip(rings, boxes):
            if px0 * d < n < px1 * d:
                ys = []
                for (px, py), (qx, qy) in edges(ring):
                    if (px * d - n) * (qx * d - n) < 0:
                        dx = (qx - px) * d
                        ys.append(Fraction(py * dx + (n - px * d) * (qy - py), dx * L))
                ys.sort()
                intervals.extend(zip(ys[::2], ys[1::2]))
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
