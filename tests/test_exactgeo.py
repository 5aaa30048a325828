"""Exact polygon engine tests: frozen oracle values plus property checks."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from liftfix.errors import UnboundedRegion
from liftfix.exactgeo import (
    _CELL,
    HPoly,
    Polygon2,
    _merged_length,
    _slabs,
    _wrap_into_cell,
    area,
    clip,
    clip_many,
    convex_hull,
    convex_intersection,
    edges,
    segment_crossing,
    slice_polygon,
    torus_cover,
    union_area,
    vertices_from_rows,
)
from liftfix.rational import cross2, dot, vsub


def square(a, b, c, d):
    return Polygon2(((F(a[0]), F(a[1])), (F(b[0]), F(b[1])), (F(c[0]), F(c[1])), (F(d[0]), F(d[1]))))


UNIT = square((0, 0), (1, 0), (1, 1), (0, 1))


def rand_rat(rng, lo=-3, hi=3, den=8):
    return F(rng.randint(lo * den, hi * den), den)


def rand_convex(rng):
    pts = [(rand_rat(rng), rand_rat(rng)) for _ in range(rng.randint(3, 7))]
    return convex_hull(pts)


def inclusion_exclusion_area(polys):
    """Oracle: area of a union of convex polygons by inclusion-exclusion."""
    total = F(0)
    for r in range(1, len(polys) + 1):
        for combo in itertools.combinations(polys, r):
            piece = combo[0]
            for other in combo[1:]:
                piece = convex_intersection(piece, other)
                if piece.is_empty:
                    break
            total += (-1) ** (r + 1) * area(piece)
    return total


class TestVertices:
    def test_symmetric_box(self):
        box = HPoly.from_rows([(1, 0), (-1, 0), (0, 1), (0, -1)])
        poly = vertices_from_rows(box.as_pairs())
        assert set(poly.vertices) == {
            (F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))
        }
        assert area(poly) == 4

    def test_mixing_triangle_vertices_match_closed_forms(self):
        # derived oracle: evaluate the vertex closed forms with exact rationals
        b1, b2 = F(-1, 4), F(-3, 4)
        g1, g2, g3 = F(2), F(2, 3), F(1, 2)
        v1 = (b1 + (1 + g1) / (1 + g1 * g3), b2 + (g3 + g1 * g3) / (1 + g1 * g3))
        v2 = (b1 + g2 / (g1 + g2), b2 + (1 + g1 + g2) / (g1 + g2))
        v3 = (b1 - g2 / (1 - g2 * g3), b2 - g2 * g3 / (1 - g2 * g3))
        db = F(5, 16)
        rows = HPoly.from_rows(
            [
                (-b1 / db, (b1 - b2) / db),
                ((-b1 - 1) / db, (b1 - b2) / db),
                (-b1 / db, (b1 - b2 - 1) / db),
            ]
        )
        poly = vertices_from_rows(rows.as_pairs())
        assert set(poly.vertices) == {v1, v2, v3}

    @pytest.mark.parametrize(
        "rows",
        [
            [((0, 0), 1)],
            [((1, 0), 1)],
            [((1, 0), 1), ((-1, 0), 1)],
            [((1, 0), 0), ((-1, 0), 0)],
            [((1, 0), 0), ((0, 1), 0)],
        ],
        ids=["plane", "halfplane", "strip", "line", "wedge"],
    )
    def test_unbounded_regions_raise(self, rows):
        with pytest.raises(UnboundedRegion):
            vertices_from_rows([((F(a[0]), F(a[1])), F(c)) for a, c in rows])

    def test_empty_region(self):
        poly = vertices_from_rows([((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1))])
        assert poly.is_empty

    def test_degenerate_point_and_segment(self):
        pt = vertices_from_rows(
            [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(0)),
             ((F(0), F(1)), F(0)), ((F(0), F(-1)), F(0))]
        )
        assert pt.vertices == ((F(0), F(0)),)
        seg = vertices_from_rows(
            [((F(0), F(1)), F(0)), ((F(0), F(-1)), F(0)),
             ((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0))]
        )
        assert seg.vertices == ((F(0), F(0)), (F(1), F(0)))
        assert area(seg) == 0

    def test_roundtrip_reaccepts_vertices(self):
        rng = random.Random(7)
        for _ in range(25):
            poly = rand_convex(rng)
            if len(poly.vertices) < 3:
                continue
            vs = poly.vertices
            rows = []
            for v, w in zip(vs, vs[1:] + vs[:1]):
                d = vsub(w, v)
                a = (d[1], -d[0])
                rows.append((a, dot(a, v)))
            for v in vs:
                assert all(dot(a, v) <= c for a, c in rows)
            rebuilt = vertices_from_rows(rows)
            assert rebuilt.canonical() == poly.canonical()


class TestAreaAndClip:
    def test_unit_square_area(self):
        assert area(UNIT) == 1

    def test_empty_area(self):
        assert area(Polygon2(())) == 0

    def test_half_unit_triangle(self):
        tri = Polygon2(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        assert area(tri) == F(1, 2)

    def test_clip_left_half(self):
        big = square((-1, -1), (1, -1), (1, 1), (-1, 1))
        left = clip(big, ((F(1), F(0)), F(0)))
        assert area(left) == 2

    def test_clip_identity_and_disjoint(self):
        assert clip(UNIT, ((F(1), F(0)), F(5))).canonical() == UNIT.canonical()
        assert clip(UNIT, ((F(1), F(0)), F(-1))).is_empty

    def test_clip_complement_partition(self):
        rng = random.Random(11)
        for _ in range(40):
            poly = rand_convex(rng)
            a = (rand_rat(rng), rand_rat(rng))
            if a == (F(0), F(0)):
                continue
            c = rand_rat(rng)
            lo = clip(poly, (a, c))
            hi = clip(poly, ((-a[0], -a[1]), -c))
            assert area(lo) + area(hi) == area(poly)

    def test_clip_point_and_segment(self):
        p, q = (F(0), F(0)), (F(2), F(1))
        point, seg = Polygon2((p,)), Polygon2((p, q))
        x_le = lambda c: ((F(1), F(0)), F(c))  # noqa: E731
        assert clip(point, x_le(0)).vertices == (p,)  # touching
        assert clip(point, x_le(-1)).is_empty
        assert clip(seg, x_le(3)).vertices == (p, q)  # inside
        assert clip(seg, x_le(-1)).is_empty  # outside
        assert clip(seg, x_le(1)).vertices == (p, (F(1), F(1, 2)))  # crossing
        assert clip(seg, x_le(0)).vertices == (p,)  # touching at an endpoint
        assert clip(seg, ((F(-1), F(0)), F(-2))).vertices == (q,)
        zero = (F(0), F(0))
        assert clip(seg, (zero, F(0))).vertices == (p, q)
        assert clip(seg, (zero, F(-1))).is_empty
        assert clip(point, (zero, F(-1))).is_empty


QUARTER = st.integers(-12, 12).map(lambda n: F(n, 4))
ROW2 = st.tuples(st.tuples(*[st.integers(-3, 3).map(F)] * 2), QUARTER)
ONE, ZERO = F(1), F(0)
BOX = (F(-2), F(2), F(-2), F(2))  # x0, x1, y0, y1


class TestContains:
    """Polygon2.contains against the rows the polygon was built from."""

    @settings(max_examples=200, deadline=None)
    @given(
        box=st.tuples(*[QUARTER] * 4),
        rows=st.lists(ROW2, max_size=3),
        lines=st.lists(ROW2, max_size=2),
        p=st.tuples(QUARTER, QUARTER),
    )
    # two crossing lines make a point; one line through the box a segment
    @example(BOX, [], [((ONE, ZERO), F(1, 4)), ((ZERO, ONE), ZERO)], (ZERO, ZERO))
    @example(BOX, [], [((ONE, ONE), ZERO)], (ZERO, ZERO))
    def test_matches_rows(self, box, rows, lines, p):
        x0, x1, y0, y1 = box
        region = [((ONE, ZERO), x1), ((-ONE, ZERO), -x0), ((ZERO, ONE), y1), ((ZERO, -ONE), -y0)]
        region += rows
        for a, c in lines:
            region += [(a, c), ((-a[0], -a[1]), -c)]
        poly = vertices_from_rows(region)
        vs = poly.vertices
        # edge midpoints, and points as far past each vertex as its edge is long
        midpoints = [((v[0] + w[0]) / 2, (v[1] + w[1]) / 2) for v, w in edges(vs)]
        beyond = [(2 * v[0] - w[0], 2 * v[1] - w[1]) for v, w in edges(vs)]
        for q in (p, *vs, *midpoints, *beyond):
            assert poly.contains(q) == all(dot(a, q) <= c for a, c in region)


class TestConeSlice:
    def _mixing_cone(self):
        db = F(5, 16)
        b1, b2 = F(-1, 4), F(-3, 4)
        return HPoly.from_rows(
            [
                (-b1 / db, (b1 - b2) / db, -(b1 - b2) / db),
                ((-b1 - 1) / db, (b1 - b2) / db, F(0)),
                (-b1 / db, (b1 - b2 - 1) / db, (2 - b1 + 2 * b2) / (2 * db)),
            ]
        )

    def test_slice_at_zero_is_base(self):
        cone = self._mixing_cone()
        base = vertices_from_rows([(a[:2], 1) for a in cone.rows])
        assert slice_polygon(cone.as_pairs(), 0) == base
        assert len(base.vertices) == 3

    def test_apex_slice_is_point(self):
        # derived oracle: apex (5/2, 35/8, 5), so the height-5 slice is that point
        poly = slice_polygon(self._mixing_cone().as_pairs(), 5)
        assert poly.vertices == ((F(5, 2), F(35, 8)),)

    def test_above_apex_is_empty(self):
        assert slice_polygon(self._mixing_cone().as_pairs(), 6).is_empty


class TestCrossValidation:
    def test_vertex_enumeration_matches_box_clipping(self):
        # independent construction: clip a box slightly larger than the
        # enumerated polygon by the same halfplanes; exact canonical equality
        # (an unbounded region missed by the enumerator would stick to the
        # box wall and fail the comparison)
        rng = random.Random(424242)
        checked = 0
        while checked < 60:
            rows = []
            for _ in range(rng.randint(2, 6)):
                a = (rand_rat(rng, den=6), rand_rat(rng, den=6))
                if a != (F(0), F(0)):
                    rows.append((a, rand_rat(rng, den=6)))
            if not rows:
                continue
            try:
                poly = vertices_from_rows(rows)
            except UnboundedRegion:
                continue
            if poly.is_empty:
                continue
            checked += 1
            xmin, xmax, ymin, ymax = poly.bbox()
            box = Polygon2(
                ((xmin - 1, ymin - 1), (xmax + 1, ymin - 1),
                 (xmax + 1, ymax + 1), (xmin - 1, ymax + 1))
            )
            clipped = clip_many(box, rows)
            assert area(poly) == area(clipped)
            if len(poly.vertices) >= 3:
                assert poly.canonical() == clipped.canonical()
            else:
                assert area(clipped) == 0
            for v in poly.vertices:
                assert all(dot(a, v) <= c for a, c in rows)

    def test_sweep_union_matches_inclusion_exclusion(self):
        rng = random.Random(77)
        done = 0
        cell = [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0)),
                ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(0))]
        while done < 30:
            polys = []
            for _ in range(rng.randint(1, 3)):
                cx, cy = F(rng.randint(1, 7), 8), F(rng.randint(1, 7), 8)
                pts = [
                    (cx + F(rng.randint(-2, 2), 8), cy + F(rng.randint(-2, 2), 8))
                    for _ in range(5)
                ]
                h = convex_hull(pts)
                if len(h.vertices) >= 3:
                    polys.append(clip_many(h, cell))
            polys = [p for p in polys if len(p.vertices) >= 3]
            if not polys:
                continue
            assert torus_cover(polys)[0] == inclusion_exclusion_area(polys)
            done += 1

    def test_plane_union_matches_inclusion_exclusion(self):
        # random convex sets mixed with empty, point, segment and zero-area pieces
        rng = random.Random(2024)
        p, q = (rand_rat(rng), rand_rat(rng)), (rand_rat(rng), rand_rat(rng))
        degenerate = [
            Polygon2(()),
            Polygon2((p,)),
            Polygon2(tuple(sorted((p, q)))),
            Polygon2(((F(0), F(0)), (F(1), F(1)), (F(2), F(2)))),
        ]
        for _ in range(40):
            polys = [rand_convex(rng) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                polys.append(rng.choice(degenerate))
            rng.shuffle(polys)
            assert union_area(polys) == inclusion_exclusion_area(polys)

    def test_plane_union_exact_values(self):
        shifted = UNIT.translate((F(1, 2), F(0)))
        assert union_area([]) == 0
        assert union_area([UNIT, UNIT]) == 1
        assert union_area([UNIT, shifted]) == F(3, 2)
        # a partial cover of the 2x2 square: 3/2 covered by the lower pair, 1 above
        big = square((0, 0), (2, 0), (2, 2), (0, 2))
        pieces = [convex_intersection(big, t) for t in (UNIT, shifted, UNIT.translate((F(1), F(1))))]
        assert area(big) - union_area(pieces) == F(3, 2)
        # a triangle covered by the two halves of a split, touching along x = 0
        tri = Polygon2(((F(-1), F(0)), (F(1), F(0)), (F(0), F(1))))
        halves = [clip(tri, ((F(1), F(0)), F(0))), clip(tri, ((F(-1), F(0)), F(0)))]
        assert union_area(halves) == area(tri)


class TestTorusUnion:
    def test_unit_square_tiles(self):
        assert torus_cover([UNIT])[0] == 1

    def test_two_disjoint_quarters(self):
        q1 = square((0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2)), (0, F(1, 2)))
        q2 = square((F(1, 2), F(1, 2)), (1, F(1, 2)), (1, 1), (F(1, 2), 1))
        # the first slab, 0 < x < 1/2, is covered below y = 1/2 only
        assert torus_cover([q1, q2]) == (F(1, 2), (F(1, 4), F(3, 4)))

    def test_witness_beside_a_vertical_edge(self):
        # a triangle under y = 2x with a vertical edge at x = 1/2, and a band
        # 1/4 <= y <= 1/2 that wraps across x = 1; they overlap in 5/64.  The
        # hypotenuse meets the band at x = 1/8, so the first slab is
        # 0 < x < 1/8, covered below 1/8 and in the band: the gap between
        tri = Polygon2(((F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1))))
        band = square((F(1, 2), F(1, 4)), (F(3, 2), F(1, 4)), (F(3, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        assert torus_cover([tri, band]) == (F(27, 64), (F(1, 16), F(3, 16)))
        # a vertical edge on the cell side x = 0: at x = 1/8 the triangle
        # covers 1/8 <= y <= 7/8, and the lowest gap is below it
        tri = Polygon2(((F(0), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1))))
        assert torus_cover([tri, band]) == (F(13, 32), (F(1, 8), F(1, 16)))

    def test_translation_invariance(self):
        rng = random.Random(3)
        for _ in range(6):
            polys = [
                convex_hull([(rand_rat(rng, -1, 1, 4), rand_rat(rng, -1, 1, 4)) for _ in range(5)])
                for _ in range(3)
            ]
            polys = [p for p in polys if len(p.vertices) >= 3]
            base = torus_cover(polys)[0]
            t = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            shifted = [polys[0].translate(t)] + polys[1:] if polys else polys
            assert torus_cover(shifted)[0] == base

    def test_repeat_runs_identical(self):
        rng = random.Random(5)
        polys = [
            convex_hull([(rand_rat(rng, -1, 1, 4), rand_rat(rng, -1, 1, 4)) for _ in range(5)])
            for _ in range(4)
        ]
        assert torus_cover(polys)[0] == torus_cover(polys)[0]


# ---------------------------------------------------------------------------
# The integer sweep against a copy of the Fraction sweep it replaced
# ---------------------------------------------------------------------------


def fraction_wrap_into_cell(polys):
    """The torus wrap clipping every translate against all four cell sides."""
    pieces = []
    for poly in polys:
        if len(poly.vertices) < 3 or area(poly) == 0:
            continue
        xmin, xmax, ymin, ymax = poly.bbox()
        for i in range(math.ceil(-xmax), math.floor(1 - xmin) + 1):
            for j in range(math.ceil(-ymax), math.floor(1 - ymin) + 1):
                shifted = poly.translate((F(i), F(j)))
                sx0, sx1, sy0, sy1 = shifted.bbox()
                if sx1 <= 0 or sx0 >= 1 or sy1 <= 0 or sy0 >= 1:
                    continue
                clipped = clip_many(shifted, _CELL)
                if area(clipped) > 0:
                    pieces.append(clipped)
    return pieces


def fraction_slabs(pieces, bounds=()):
    """The slab sweep with every crossing and interval found in Fractions."""
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
                ys = []
                for p, q in edges(piece.vertices):
                    if (p[0] - xm) * (q[0] - xm) < 0:
                        ys.append(p[1] + (xm - p[0]) / (q[0] - p[0]) * (q[1] - p[1]))
                ys.sort()
                intervals += [(ys[i], ys[i + 1]) for i in range(0, len(ys) - 1, 2)]
        yield (x0, x1, *_merged_length(intervals))


def fraction_torus_cover(polys):
    """torus_cover's area and witness over the two Fraction routines above."""
    pieces = fraction_wrap_into_cell(polys)
    if not pieces:
        return F(0), (F(1, 2), F(1, 2))
    total, witness = F(0), None
    for x0, x1, covered, merged in fraction_slabs(pieces, (F(0), F(1))):
        total += (x1 - x0) * covered
        if witness is None and covered < 1:
            xm = (x0 + x1) / 2
            y_prev = F(0)
            for lo, hi in merged:
                if lo > y_prev:
                    witness = (xm, (y_prev + min(lo, F(1))) / 2)
                    break
                y_prev = max(y_prev, hi)
            if witness is None and y_prev < 1:
                witness = (xm, (y_prev + 1) / 2)
    return total, witness


SMALL_DENS = (1, 2, 3, 4, 5, 7, 8, 9)
# primes; any two of the last three already give L > 2^40
LARGE_DENS = (1, 2, 3, 65537, 1000003, 2097143, 4194301)


@st.composite
def convex_families(draw, lo=-2, hi=2):
    """Convex pieces whose coordinates come from a few values per axis.

    Few values per axis make vertical edges, shared vertices and touching
    corners common; shared edges and collinear overlaps are built from edges
    of earlier pieces; the large denominators push their lcm past 2^40.
    """
    dens = draw(st.sampled_from((SMALL_DENS, LARGE_DENS)))
    value = st.sampled_from(dens).flatmap(
        lambda den: st.integers(lo * den, hi * den).map(lambda k: F(k, den))
    )
    xs = draw(st.lists(value, min_size=2, max_size=4, unique=True))
    ys = draw(st.lists(value, min_size=2, max_size=4, unique=True))
    point = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        hull = convex_hull(draw(st.lists(point, min_size=3, max_size=6)))
        if len(hull.vertices) >= 3:
            polys.append(hull)
    if not polys:
        x0, x1 = sorted(xs[:2])
        y0, y1 = sorted(ys[:2])
        polys.append(square((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from(polys))
        p, q = draw(st.sampled_from(list(edges(base.vertices))))
        d = vsub(q, p)
        out = (d[1], -d[0])  # points away from a CCW piece
        k = draw(st.sampled_from((F(1, 4), F(1, 2), F(1))))
        kind = draw(st.sampled_from(("shared edge", "collinear overlap", "corner")))
        if kind == "shared edge":
            apex = ((p[0] + q[0]) / 2 + k * out[0], (p[1] + q[1]) / 2 + k * out[1])
            polys.append(convex_hull([p, q, apex]))
        elif kind == "collinear overlap":
            a = (p[0] + d[0] / 2, p[1] + d[1] / 2)
            b = (q[0] + d[0] / 2, q[1] + d[1] / 2)
            polys.append(convex_hull([a, b, (a[0] + k * out[0], a[1] + k * out[1])]))
        else:
            other = draw(st.sampled_from(polys))
            v = draw(st.sampled_from(other.vertices))
            polys.append(base.translate(vsub(v, p)))
    return polys


def with_redundant_vertices(poly, data):
    """The same polygon with a repeated vertex and an edge midpoint added."""
    vs = list(poly.vertices)
    i = data.draw(st.integers(0, len(vs) - 1))
    vs.insert(i, vs[i])
    j = data.draw(st.integers(0, len(vs) - 1))
    p, q = vs[j - 1], vs[j]
    if p != q:
        vs.insert(j, ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2))
    return Polygon2(tuple(vs))


class TestIntegerSweep:
    @settings(max_examples=150, deadline=None)
    @given(polys=convex_families(), data=st.data())
    def test_slabs_match_fraction_sweep(self, polys, data):
        if data.draw(st.booleans()):
            # a zero-area piece with three collinear vertices
            (x0, y0), (x1, y1) = polys[0].vertices[:2]
            polys.append(Polygon2(((x0, y0), ((x0 + x1) / 2, (y0 + y1) / 2), (x1, y1))))
        bounds = data.draw(st.sampled_from(((), (F(0), F(1)))))
        assert list(_slabs(polys, bounds)) == list(fraction_slabs(polys, bounds))

    @settings(max_examples=60, deadline=None)
    @given(polys=convex_families(-1, 1), data=st.data())
    def test_torus_cover_matches_fraction_sweep(self, polys, data):
        polys = [with_redundant_vertices(p, data) if data.draw(st.booleans()) else p for p in polys]
        assert torus_cover(polys) == fraction_torus_cover(polys)
        wrapped = [p.canonical() for p in _wrap_into_cell(polys)]
        assert wrapped == [p.canonical() for p in fraction_wrap_into_cell(polys)]

    def test_large_common_denominator(self):
        a, b = F(1, 1000003), F(1, 2097143)
        polys = [
            Polygon2(((a, b), (1 - b, a), (1 - a, 1 - b))),
            Polygon2(((b, a), (1 - a, 1 - a), (b, 1 - b))),
        ]
        assert math.lcm(*(c.denominator for poly in polys for v in poly.vertices for c in v)) > 2**40
        assert list(_slabs(polys)) == list(fraction_slabs(polys))
        assert torus_cover(polys) == fraction_torus_cover(polys)

    @given(st.lists(st.tuples(*[st.integers(-4, 4).map(lambda n: F(n, 3))] * 2), min_size=4, max_size=4))
    def test_segment_crossing(self, pts):
        # the crossing parameter found by division, against the helper on
        # the Fraction points and on the same points scaled to integers
        p, q, r, s = pts
        d1, d2, w = vsub(q, p), vsub(s, r), vsub(r, p)
        det = cross2(d1, d2)
        expected = None
        if det != 0:
            t, u = cross2(w, d2) / det, cross2(w, d1) / det
            if 0 <= t <= 1 and 0 <= u <= 1:
                expected = t
        for points in (pts, [tuple(int(3 * c) for c in v) for v in pts]):
            hit = segment_crossing(*points)
            if expected is None:
                assert hit is None
            else:
                num, den = hit
                assert den > 0 and F(num) / den == expected
