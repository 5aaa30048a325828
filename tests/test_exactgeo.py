"""Exact polygon engine tests: frozen oracle values plus property checks."""

import itertools
import random
from fractions import Fraction as F

import pytest

from liftfix.exactgeo import (
    HPoly,
    Polygon2,
    UNBOUNDED,
    area,
    clip,
    clip_many,
    cone_slice,
    convex_hull,
    convex_intersection,
    torus_union_area,
    union_area,
    vertices2,
    vertices_from_rows,
)
from liftfix.rational import dot, vsub


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
        poly = vertices2(box)
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
        poly = vertices2(rows)
        assert set(poly.vertices) == {v1, v2, v3}

    def test_halfplane_is_unbounded(self):
        assert vertices2(HPoly.from_rows([(1, 0)])) is UNBOUNDED

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
        hp, extras = cone_slice(cone, 0)
        assert extras == ()
        assert hp.rows == tuple(r[:2] for r in cone.rows)

    def test_apex_slice_is_point(self):
        # derived oracle: apex (5/2, 35/8, 5), so the height-5 slice is that point
        cone = self._mixing_cone()
        hp, extras = cone_slice(cone, 5)
        poly = vertices2(hp if hp.rows else None, extras)
        assert poly.vertices == ((F(5, 2), F(35, 8)),)

    def test_above_apex_is_empty(self):
        cone = self._mixing_cone()
        hp, extras = cone_slice(cone, 6)
        poly = vertices2(hp if hp.rows else None, extras)
        assert poly.is_empty


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
            poly = vertices_from_rows(rows)
            if poly is UNBOUNDED or poly.is_empty:
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
            assert torus_union_area(polys) == inclusion_exclusion_area(polys)
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
        assert torus_union_area([UNIT]) == 1

    def test_two_disjoint_quarters(self):
        q1 = square((0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2)), (0, F(1, 2)))
        q2 = square((F(1, 2), F(1, 2)), (1, F(1, 2)), (1, 1), (F(1, 2), 1))
        assert torus_union_area([q1, q2]) == F(1, 2)

    def test_translation_invariance(self):
        rng = random.Random(3)
        for _ in range(6):
            polys = [
                convex_hull([(rand_rat(rng, -1, 1, 4), rand_rat(rng, -1, 1, 4)) for _ in range(5)])
                for _ in range(3)
            ]
            polys = [p for p in polys if len(p.vertices) >= 3]
            base = torus_union_area(polys)
            t = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            shifted = [polys[0].translate(t)] + polys[1:] if polys else polys
            assert torus_union_area(shifted) == base

    def test_repeat_runs_identical(self):
        rng = random.Random(5)
        polys = [
            convex_hull([(rand_rat(rng, -1, 1, 4), rand_rat(rng, -1, 1, 4)) for _ in range(5)])
            for _ in range(4)
        ]
        assert torus_union_area(polys) == torus_union_area(polys)
