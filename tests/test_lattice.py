"""Shifted-lattice membership, translation groups, and enumeration."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from liftfix.errors import (
    DimensionMismatch,
    TruncationNeedsExplicitGroup,
    UnboundedRegion,
)
from liftfix.exactgeo import HPoly, slice_polygon
from liftfix.lattice import (
    Lattice,
    _scan,
    contains,
    naive_box_points,
    points_in,
    translation_group,
)
from liftfix.rational import dot, vadd

B = (F(-1, 4), F(-3, 4))
S = Lattice(2, B)


def mixing_triangle_rows():
    db = F(5, 16)
    b1, b2 = B
    return HPoly.from_rows(
        [
            (-b1 / db, (b1 - b2) / db),
            ((-b1 - 1) / db, (b1 - b2) / db),
            (-b1 / db, (b1 - b2 - 1) / db),
        ]
    )


class TestContains:
    def test_member(self):
        assert contains(S, (F(3, 4), F(5, 4)))  # x - b = (1, 2)

    def test_origin_not_member(self):
        assert not contains(S, (F(0), F(0)))

    def test_negative_tail_rejected(self):
        s3 = S.with_tail(1)
        assert not contains(s3, (F(3, 4), F(5, 4), F(-1)))
        assert contains(s3, (F(3, 4), F(5, 4), F(2)))
        assert not contains(s3, (F(3, 4), F(5, 4), F(1, 2)))

    def test_integral_shift_rejected(self):
        with pytest.raises(DimensionMismatch):
            Lattice(2, (F(1), F(2)))

    def test_generator_invariance_on_random_points(self):
        rng = random.Random(13)
        group = translation_group(S)
        for _ in range(50):
            x = (F(rng.randint(-40, 40), 8), F(rng.randint(-40, 40), 8))
            member = contains(S, x)
            for g in group.generators:
                for lam in (-2, -1, 1, 2):
                    shifted = vadd(x, tuple(lam * c for c in g))
                    assert contains(S, shifted) == member


class TestTranslationGroup:
    def test_plain_lattice(self):
        tg = translation_group(S)
        assert tg.generators == ((F(1), F(0)), (F(0), F(1)))
        assert tg.monoid_extra == ()

    def test_product_tail(self):
        tg = translation_group(S.with_tail(1))
        assert tg.generators == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
        assert tg.monoid_extra == ((F(0), F(0), F(1)),)

    def test_truncated_requires_declared_group(self):
        trunc = Lattice(2, B, truncation=(((F(1), F(0)), F(10)),))
        with pytest.raises(TruncationNeedsExplicitGroup):
            translation_group(trunc)

    def test_monoid_extra_preserves_membership_forward_only(self):
        s3 = S.with_tail(1)
        tg = translation_group(s3)
        x = (F(3, 4), F(5, 4), F(0))
        for extra in tg.monoid_extra:
            for lam in (1, 2):
                assert contains(s3, vadd(x, tuple(lam * c for c in extra)))


class TestPointsIn:
    def test_triangle_boundary_points(self):
        # T(b) meets S exactly in s3, s2, s1 = (b1,b2), (b1,1+b2), (1+b1,1+b2)
        pts = points_in(S, mixing_triangle_rows())
        assert set(pts) == {
            (F(-1, 4), F(-3, 4)),
            (F(-1, 4), F(1, 4)),
            (F(3, 4), F(1, 4)),
        }

    def test_strict_interior_empty(self):
        assert points_in(S, mixing_triangle_rows(), strict=True) == ()

    def test_point_slice(self):
        # a box degenerated to one point of S
        region = HPoly(2, ())
        rows = [
            ((F(1), F(0)), F(3, 4)),
            ((F(-1), F(0)), F(-3, 4)),
            ((F(0), F(1)), F(5, 4)),
            ((F(0), F(-1)), F(-5, 4)),
        ]
        assert points_in(S, region, extra_rows=rows) == ((F(3, 4), F(5, 4)),)
        off = [
            ((F(1), F(0)), F(1, 2)),
            ((F(-1), F(0)), F(-1, 2)),
            ((F(0), F(1)), F(1, 2)),
            ((F(0), F(-1)), F(-1, 2)),
        ]
        assert points_in(S, region, extra_rows=off) == ()

    def test_strict_subset_with_boundary_difference(self):
        tri = mixing_triangle_rows()
        closed = set(points_in(S, tri))
        strict = set(points_in(S, tri, strict=True))
        assert strict <= closed
        for x in closed - strict:
            assert any(dot(a, x) == 1 for a in tri.rows)

    def test_apex_slice_has_no_lattice_point(self):
        # the single-point slice at a cone apex carries no point of S
        db = F(5, 16)
        b1, b2 = B
        cone = HPoly.from_rows(
            [
                (-b1 / db, (b1 - b2) / db, -(b1 - b2) / db),
                ((-b1 - 1) / db, (b1 - b2) / db, F(0)),
                (-b1 / db, (b1 - b2 - 1) / db, (2 - b1 + 2 * b2) / (2 * db)),
            ]
        )
        assert slice_polygon(cone.as_pairs(), 5).vertices == ((F(5, 2), F(35, 8)),)
        rows = [(a[:2], 1 - a[2] * 5) for a in cone.rows]
        assert points_in(S, HPoly(2, ()), extra_rows=rows) == ()

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedRegion):
            points_in(S, HPoly.from_rows([(1, 0)]))

    def test_matches_naive_oracle_on_random_boxes(self):
        rng = random.Random(29)
        region = HPoly(2, ())
        for _ in range(20):
            x0 = F(rng.randint(-16, 8), 4)
            y0 = F(rng.randint(-16, 8), 4)
            w = F(rng.randint(1, 12), 2)
            h = F(rng.randint(1, 12), 2)
            rows = [
                ((F(1), F(0)), x0 + w),
                ((F(-1), F(0)), -x0),
                ((F(0), F(1)), y0 + h),
                ((F(0), F(-1)), -y0),
            ]
            got = points_in(S, region, extra_rows=rows)
            want = naive_box_points(
                S,
                (x0, x0 + w, y0, y0 + h),
                lambda p: all(dot(a, p) <= c for a, c in rows),
            )
            assert got == want

    def test_tail_enumeration_fuzz_against_exact_boxes(self):
        # random bounded 3-D regions; the oracle box comes from exact
        # coordinate bounds, so the comparison is airtight
        from liftfix.exactgeo import fm_upper_bound

        def coord_bounds(rows, idx):
            hi = fm_upper_bound([(a, F(1)) for a in rows], 3, idx)
            neg = [tuple(-c if i == idx else c for i, c in enumerate(a)) for a in rows]
            lo = fm_upper_bound([(a, F(1)) for a in neg], 3, idx)
            return (None if lo is None else -lo), hi

        rng = random.Random(90210)
        checked = 0
        while checked < 40:
            b = (F(rng.randint(-3, 3), 4), F(rng.randint(-3, 3), 4))
            if all(c.denominator == 1 for c in b):
                continue
            lat = Lattice(2, b, tail=1)
            rows = []
            for _ in range(rng.randint(2, 5)):
                a = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4),
                     F(rng.randint(-8, 8), 4))
                if a != (F(0), F(0), F(0)):
                    rows.append(a)
            rows.append((F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8),
                         F(rng.randint(1, 4), 2)))
            region = HPoly(3, tuple(rows))
            try:
                got = points_in(lat, region)
            except UnboundedRegion:
                continue
            bounds = [coord_bounds(rows, i) for i in range(3)]
            if any(lo is None or hi is None for lo, hi in bounds[:2]):
                continue
            hhi = bounds[2][1]
            # a.(b + (i, j, 0)) + a3 k <= 1 as the integer row A.(i, j, k) <= C
            int_rows = []
            for a in rows:
                c = 1 - a[0] * b[0] - a[1] * b[1]
                m = math.lcm(c.denominator, *(v.denominator for v in a))
                int_rows.append(([int(v * m) for v in a], int(c * m)))
            want = []
            for i in range(
                math.ceil(bounds[0][0] - b[0]), math.floor(bounds[0][1] - b[0]) + 1
            ):
                for j in range(
                    math.ceil(bounds[1][0] - b[1]), math.floor(bounds[1][1] - b[1]) + 1
                ):
                    for k in range(0, (0 if hhi is None else math.floor(hhi)) + 1):
                        if all(A[0] * i + A[1] * j + A[2] * k <= C for A, C in int_rows):
                            want.append((b[0] + i, b[1] + j, F(k)))
            assert got == tuple(sorted(want))
            checked += 1

    def test_tail_slices(self):
        # cone over the triangle: x3 in [0, 2], base shrinking with height
        tri = mixing_triangle_rows()
        rows3 = tuple(r + (F(1, 2),) for r in tri.rows)
        cone = HPoly(3, rows3)
        pts = points_in(S.with_tail(1), cone)
        assert all(contains(S.with_tail(1), p) for p in pts)
        base = points_in(S, tri)
        got_h0 = tuple(p[:2] for p in pts if p[2] == 0)
        assert set(got_h0) == set(base)


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SIDE = st.fractions(min_value=0, max_value=4, max_denominator=4)
ROW = st.tuples(st.tuples(COEFF, COEFF), SMALL, st.booleans())  # (a, c, strict)
UNITS = ((F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)))
B_DEG = (F(1, 3), F(-1, 2))


class TestScanKernel:
    """The integer scanline against the naive residue box scan."""

    @settings(max_examples=150, deadline=None)
    @given(
        shift=st.tuples(SMALL, SMALL).filter(lambda b: any(c.denominator > 1 for c in b)),
        anchor=st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
        corner=st.tuples(SMALL, SMALL),
        size=st.tuples(SIDE, SIDE),
        box_strict=st.tuples(*[st.booleans()] * 4),
        line=st.one_of(st.none(), st.tuples(COEFF, COEFF)),
        extra=st.lists(ROW, max_size=3),
    )
    # one lattice point, a diagonal segment of three, and an empty strip
    @example(B_DEG, (0, 0), None, (F(0), F(0)), (False,) * 4, None, [])
    @example(B_DEG, (0, 0), None, (F(2), F(2)), (False,) * 4, (F(1), F(-1)), [])
    @example(B_DEG, None, (F(0), F(0)), (F(1, 4), F(3)), (False,) * 4, None, [])
    def test_matches_naive_box_points(self, shift, anchor, corner, size, box_strict, line, extra):
        # an anchored corner is a lattice point, so zero sizes give a point
        # or a segment of S, and the line through it holds lattice points
        x0, y0 = corner if anchor is None else (shift[0] + anchor[0], shift[1] + anchor[1])
        w, h = size
        rhs = (x0 + w, -x0, y0 + h, -y0)
        rows = [(a, c, strict) for a, c, strict in zip(UNITS, rhs, box_strict)]
        rows += [((F(a1), F(a2)), c, strict) for (a1, a2), c, strict in extra]
        if line is not None:
            a = tuple(F(v) for v in line)
            c = dot(a, (x0, y0))
            rows += [(a, c, False), ((-a[0], -a[1]), -c, False)]
        closed = [(a, c) for a, c, strict in rows if not strict]
        strict_rows = [(a, c) for a, c, strict in rows if strict]
        want = naive_box_points(
            Lattice(2, shift),
            (x0, x0 + w, y0, y0 + h),
            lambda p: all(dot(a, p) < c if s else dot(a, p) <= c for a, c, s in rows),
        )
        assert tuple(_scan(shift, closed, strict_rows)) == want

    def test_degenerate_and_unbounded_regions(self):
        point = (F(1, 3), F(1, 2))
        rows = [(a, c) for a, c in zip(UNITS, (point[0], -point[0], point[1], -point[1]))]
        assert tuple(_scan(B_DEG, rows)) == (point,)
        assert tuple(_scan(B_DEG, rows[:3], rows[3:])) == ()
        # a half-plane recedes; an infeasible pair of half-planes is empty
        with pytest.raises(UnboundedRegion):
            tuple(_scan(B_DEG, rows[:1]))
        assert tuple(_scan(B_DEG, [rows[0], (UNITS[1], -point[0] - 1)])) == ()


ROW3 = st.tuples(st.tuples(COEFF, COEFF, COEFF), SMALL, st.booleans())  # (a, c, strict)
UNITS3 = tuple(
    tuple(F(sign) if j == i else F(0) for j in range(3)) for i in range(3) for sign in (1, -1)
)
# a shift coordinate is a fraction, or 0 as for a tail coordinate
SHIFT3 = st.tuples(*[st.one_of(st.just(F(0)), SMALL)] * 3)
B3 = (F(1, 3), F(-1, 2), F(0))


def box_points_3d(shift, box, pred):
    """Every point of shift + Z^3 in the box ((lo, hi) per coordinate) passing pred."""
    ranges = [range(math.ceil(lo - b), math.floor(hi - b) + 1) for (lo, hi), b in zip(box, shift)]
    pts = (tuple(b + z for b, z in zip(shift, zs)) for zs in itertools.product(*ranges))
    return tuple(sorted(p for p in pts if pred(p)))


def split_rows(rows):
    return [(a, c) for a, c, s in rows if not s], [(a, c) for a, c, s in rows if s]


class TestScanKernel3D:
    """The integer scanline in three coordinates against a residue box scan."""

    @settings(max_examples=100, deadline=None)
    @given(
        shift=SHIFT3,
        anchor=st.one_of(st.none(), st.tuples(*[st.integers(-2, 2)] * 3)),
        corner=st.tuples(SMALL, SMALL, SMALL),
        size=st.tuples(*[st.fractions(min_value=0, max_value=3, max_denominator=4)] * 3),
        box_strict=st.tuples(*[st.booleans()] * 6),
        planes=st.lists(st.tuples(COEFF, COEFF, COEFF), max_size=2),
        extra=st.lists(ROW3, max_size=3),
    )
    # one lattice point, a plane and a segment through one, and an empty box
    @example(B3, (0, 0, 0), None, (F(0),) * 3, (False,) * 6, [], [])
    @example(B3, (0, 0, 0), None, (F(2),) * 3, (False,) * 6, [(F(1), F(-1), F(1))], [])
    @example(B3, (0, 0, 0), None, (F(2),) * 3, (False,) * 6,
             [(F(1), F(-1), F(0)), (F(0), F(1), F(-1))], [])
    @example(B3, None, (F(1, 2), F(0), F(0)), (F(1, 4), F(3), F(3)), (False,) * 6, [], [])
    def test_matches_box_oracle(self, shift, anchor, corner, size, box_strict, planes, extra):
        # an anchored corner is a lattice point, so zero sizes give a point
        # of S, and planes through it give flat regions that hold points
        x0 = corner if anchor is None else tuple(b + z for b, z in zip(shift, anchor))
        rhs = [c for x, w in zip(x0, size) for c in (x + w, -x)]
        rows = list(zip(UNITS3, rhs, box_strict)) + list(extra)
        for a in planes:
            c = dot(a, x0)
            rows += [(a, c, False), (tuple(-v for v in a), -c, False)]
        want = box_points_3d(
            shift,
            [(x, x + w) for x, w in zip(x0, size)],
            lambda p: all(dot(a, p) < c if s else dot(a, p) <= c for a, c, s in rows),
        )
        assert tuple(_scan(shift, *split_rows(rows))) == want

    @settings(max_examples=60, deadline=None)
    @given(
        shift=SHIFT3,
        anchor=st.tuples(*[st.integers(-2, 2)] * 3),
        direction=st.tuples(*[st.integers(-2, 2)] * 3).filter(any),
        rows=st.lists(st.tuples(st.tuples(COEFF, COEFF, COEFF), SIDE, st.booleans()), max_size=5),
    )
    # a plane through the lattice point, containing the direction
    @example(B3, (0, 0, 0), (1, 1, 0),
             [((F(1), F(-1), F(0)), F(0), False), ((F(-1), F(1), F(0)), F(0), False)])
    def test_unbounded_region_with_a_lattice_point_raises(self, shift, anchor, direction, rows):
        # every row holds the lattice point x0 (strictly when strict) and
        # recedes along the direction, so x0 + t * direction stays inside
        x0 = tuple(b + z for b, z in zip(shift, anchor))
        region = []
        for a, slack, strict in rows:
            if dot(a, direction) > 0:
                a = tuple(-v for v in a)
            region.append((a, dot(a, x0) + slack, strict and slack > 0))
        with pytest.raises(UnboundedRegion):
            tuple(_scan(shift, *split_rows(region)))

    def test_degenerate_and_unbounded_regions(self):
        point = (F(1, 3), F(1, 2), F(-1))
        box = list(zip(UNITS3, [c for x in point for c in (x, -x)]))
        assert tuple(_scan(B3, box)) == (point,)
        assert tuple(_scan(B3, box[:5], box[5:])) == ()
        # a half-space recedes; a slab of no lattice point is empty, bounded or not
        with pytest.raises(UnboundedRegion):
            tuple(_scan(B3, box[:1]))
        slab = [(UNITS3[0], F(2, 3)), (UNITS3[1], F(-1, 2))]
        assert tuple(_scan(B3, slab)) == ()
        assert tuple(_scan(B3, slab + box[2:])) == ()

    def test_tail_coordinate_is_a_scan_coordinate(self):
        # a cone over the cross-polytope |x|_1 <= 3/2: height k is the body
        # scaled by 1 - k/3, which holds no point of S above height 0, so
        # the points are the body's eight boundary points at height 0
        lat = Lattice(3, (F(-1, 2),) * 3, tail=1)
        rows = tuple(
            tuple(F(2, 3) * v for v in signs) + (F(1, 3),)
            for signs in itertools.product((1, -1), repeat=3)
        )
        got = points_in(lat, HPoly(4, rows))
        corners = tuple(p + (F(0),) for p in itertools.product((F(-1, 2), F(1, 2)), repeat=3))
        assert got == corners
        with pytest.raises(UnboundedRegion):
            points_in(lat, HPoly(4, tuple(a[:3] + (F(0),) for a in rows)))
