"""Spindles, fixing-region pieces, covering certificates, and transport."""

import functools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import random_valid_triangle
from liftfix.cli import main
from liftfix.errors import (
    NoPositiveValueWithinBudget,
    NotArgmax,
    OriginNotInterior,
    PreconditionViolated,
    UnboundedRegion,
)
from liftfix.exactgeo import (
    HPoly,
    Polygon2,
    convex_intersection,
    vertices_from_rows,
)
from liftfix.fixing import (
    FixApprox,
    Piece,
    boundary_pairs,
    collision_check,
    cover_certify,
    fix_approx,
    slice_property_check,
    spindle,
    tki_map,
    translate_instance,
)
from liftfix.gauge import Gauge, psi, psi_eval, v_psi
from liftfix.lattice import Lattice, TranslationGroup, naive_box_points
from liftfix.rational import cross2, dot, vadd, vscale, vsub
from liftfix.type3 import pyramid, triangle_from_mixing

B = (F(-1, 4), F(-3, 4))
PSTAR = (F(1, 2), F(7, 8))


def _ccw_sorted(points):
    """Reference vertex order: by angle in [0, 2*pi) about the vertex mean.

    Pieces are printed in certificates, so every ring the library builds must
    start and run exactly as this sort orders the same vertices.
    """
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


@pytest.fixture(scope="module")
def tri():
    return triangle_from_mixing(B)


@pytest.fixture(scope="module")
def g(tri):
    return tri.gauge()


@pytest.fixture(scope="module")
def cert(g):
    return v_psi(g, PSTAR)


@pytest.fixture(scope="module")
def approx(g, cert):
    return fix_approx(g, cert)


class TestSpindle:
    def test_origin_spindle_is_the_origin(self, g):
        sp = spindle(g.body.rows, (F(0), F(0)), 0)
        assert sp.polygon.vertices == ((F(0), F(0)),)
        assert sp.contains((F(0), F(0)))

    def test_s1_spindle_matches_figure(self, g, tri):
        # vertices o, c1, s1, e1 with c1 = d1*v1 and e1 = (1-d1)*v2
        d1 = tri.deltas[0]
        c1 = vscale(d1, tri.vertices[0])
        e1 = vscale(1 - d1, tri.vertices[1])
        sp = spindle(g.body.rows, tri.s[0], 0)
        assert set(sp.polygon.vertices) == {(F(0), F(0)), c1, tri.s[0], e1}
        assert sp.contains((F(0), F(0))) and sp.contains(tri.s[0])

    def test_central_symmetry_about_half_anchor(self, g, tri):
        sp = spindle(g.body.rows, tri.s[0], 0)
        for v in sp.polygon.vertices:
            mirrored = vsub(tri.s[0], v)
            assert sp.contains(mirrored)

    def test_not_argmax_raises(self, g):
        with pytest.raises(NotArgmax):
            spindle(g.body.rows, (F(1), F(0)), 1)

    def test_tie_produces_one_spindle_per_index(self, g, approx):
        # the height-4 boundary pair is tight on facets 2 and 3
        pair = ((F(7, 4), F(13, 4)), 4)
        facets = {p.facet for p in approx.pieces if p.pair == pair}
        assert facets == {1, 2}


@st.composite
def triangle_anchors(draw):
    """A random valid triangle's rows and an anchor x, drawn one of three ways.

    "generic" is any small rational point; "tie" lies on the ray where two
    rows attain psi together, so the spindle is a segment; "origin" is 0.
    """
    rows = random_valid_triangle(random.Random(draw(st.integers(0, 2**32)))).body.rows
    kind = draw(st.sampled_from(("generic", "tie", "origin")))
    den = draw(st.integers(1, 12))
    coord = st.integers(-3 * den, 3 * den).map(lambda n: F(n, den))
    if kind == "origin":
        return rows, (F(0), F(0))
    if kind == "generic":
        return rows, (draw(coord), draw(coord))
    k, i = draw(st.permutations(range(3)))[:2]
    d = vsub(rows[k], rows[i])
    t = F(draw(st.integers(1, 3 * den)), den)
    for x in ((-d[1] * t, d[0] * t), (d[1] * t, -d[0] * t)):
        if dot(rows[k], x) == max(dot(a, x) for a in rows):
            return rows, x
    raise AssertionError("neither direction of a tie line is on the body's boundary")


@st.composite
def triangle_certs(draw):
    """A random valid triangle's gauge and its lifting certificate at a drawn pstar."""
    g = random_valid_triangle(random.Random(draw(st.integers(0, 2**32)))).gauge()
    pstar = tuple(F(draw(st.integers(0, 8)), 8) for _ in range(2))
    try:
        return g, v_psi(g, pstar)
    except NoPositiveValueWithinBudget:
        reject()


class TestClosedFormSpindle:
    @settings(max_examples=60, deadline=None)
    @given(triangle_certs())
    def test_parallelogram_ring_is_the_sorted_ring(self, drawn):
        g, cert = drawn
        for piece in fix_approx(g, cert).pieces:
            ring = piece.polygon.vertices
            if len(ring) == 4:
                assert ring == _ccw_sorted(ring)

    @settings(max_examples=150, deadline=None)
    @given(triangle_anchors())
    def test_matches_vertex_enumeration(self, drawn):
        rows, x = drawn
        vals = [dot(a, x) for a in rows]
        for k in (i for i, v in enumerate(vals) if v == max(vals)):
            sp = spindle(rows, x, k)
            assert sp.polygon == vertices_from_rows(sp.rows)

    def test_every_b1_anchor(self, g, cert):
        for x, k in boundary_pairs(g, cert):
            anchor = vsub(x, vscale(k, cert.pstar))
            for f in psi_eval(g, anchor).argmax:
                sp = spindle(g.body.rows, anchor, f)
                assert sp.polygon == vertices_from_rows(sp.rows)


SMALL = st.integers(-3, 3).map(F)


@st.composite
def bounded_rows(draw):
    """3 to 8 small integer rows a.x <= c around 0, some of them derived.

    The last independent row is minus the sum of the others, so the normals
    span the plane positively unless they are all parallel.  A derived row
    repeats one, scales one, loosens one (redundant) or adds two, which is
    tight wherever both are, so it passes through their common vertex when
    they are adjacent (concurrent).
    """
    normals = draw(st.lists(st.tuples(SMALL, SMALL), min_size=2, max_size=5))
    normals.append((-sum(a[0] for a in normals), -sum(a[1] for a in normals)))
    rows = [(a, F(draw(st.integers(1, 4)))) for a in normals]
    for _ in range(draw(st.integers(0, 8 - len(rows)))):
        (a0, a1), c = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(("duplicate", "scaled", "redundant", "concurrent")))
        if kind == "duplicate":
            rows.append(((a0, a1), c))
        elif kind == "scaled":
            k = draw(st.integers(2, 3))
            rows.append(((k * a0, k * a1), k * c))
        elif kind == "redundant":
            rows.append(((a0, a1), c + draw(st.integers(1, 2))))
        else:
            (b0, b1), d = draw(st.sampled_from(rows))
            rows.append(((a0 + b0, a1 + b1), c + d))
    return rows


class TestRingOrder:
    """The generic vertex enumeration starts and runs as the reference sort.

    No benchmark workload runs it on more than three vertices, so this alone
    pins the printed order of larger rings.
    """

    @settings(max_examples=200, deadline=None)
    @given(bounded_rows())
    @example([((F(1), F(1)), F(1)), ((F(-1), F(1)), F(1)),
              ((F(1), F(-1)), F(1)), ((F(-1), F(-1)), F(1))])  # the diamond |x| + |y| <= 1
    @example([((F(1), F(0)), F(1)), ((F(-1), F(0)), F(1)), ((F(0), F(1)), F(1)),
              ((F(0), F(-1)), F(1)), ((F(1), F(1)), F(1)), ((F(-1), F(-1)), F(1))])  # a hexagon
    def test_vertices_from_rows_is_the_sorted_ring(self, rows):
        try:
            ring = vertices_from_rows(rows).vertices
        except UnboundedRegion:
            reject()
        assert len(ring) >= 3  # every row holds strictly at 0
        assert ring == _ccw_sorted(ring)


# |x| + |y| <= 1 over (1/2, 1/2) + Z^2: four rows, so its spindles take the
# generic vertex enumeration
DIAMOND = {
    "body": {"type": "rows", "rows": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]]},
    "lattice": {"dim": 2, "shift": ["1/2", "1/2"]},
    "pstar": ["1/4", "1/8"],
}


def test_diamond_four_row_spindles(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(DIAMOND), encoding="utf-8")
    reports = {}
    for command in ("region", "cover"):
        out = tmp_path / f"{command}.json"
        assert main(["fix", command, "--instance", str(path), "--out", str(out)]) == 0
        reports[command] = json.loads(out.read_bytes())["certificate"]
    assert reports["region"]["value"] == "3/8"
    assert len(reports["region"]["pieces"]) == 12
    assert reports["cover"]["covered_area"] == "1" and reports["cover"]["is_full"]

    g = Gauge(HPoly.from_rows([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
              Lattice(2, (F(1, 2), F(1, 2))))
    approx = fix_approx(g, v_psi(g, (F(1, 4), F(1, 8))))
    assert len(approx.pieces) == 12
    for p in approx.pieces:
        x, k = p.pair
        sp = spindle(g.body.rows, vsub(x, vscale(k, approx.pstar)), p.facet)
        assert p.polygon == vertices_from_rows(sp.rows).translate(vscale(p.shift, approx.pstar))


class TestSliceProperty:
    def test_all_pairs_all_heights(self, g, cert):
        for pair in cert.blocking:
            for t in (F(-1), F(0), F(1, 2), F(1), F(2)):
                assert slice_property_check(g, cert, pair, t)

    def test_random_instances(self):
        from conftest import random_rational_point
        from liftfix.errors import NoPositiveValueWithinBudget
        from liftfix.gauge import Budget

        rng = random.Random(6174)
        done = 0
        while done < 5:
            tri = random_valid_triangle(rng)
            pstar = random_rational_point(rng)
            if all(c.denominator == 1 for c in pstar):
                continue
            g2 = tri.gauge()
            try:
                cert2 = v_psi(g2, pstar, Budget(24, 12))
            except NoPositiveValueWithinBudget:
                continue
            for pair in cert2.blocking:
                for t in (F(-1), F(0), F(1, 2), F(1), F(2)):
                    assert slice_property_check(g2, cert2, pair, t)
            done += 1


class TestFixApprox:
    def test_expected_pieces_present(self, g, cert, approx, tri):
        canon = {p.polygon.canonical() for p in approx.pieces}
        s4 = (F(3, 4), F(5, 4))
        s5 = (F(-1, 4), F(1, 4))
        expect = [
            spindle(g.body.rows, vsub(s4, PSTAR), 0).polygon,
            spindle(g.body.rows, vsub(s4, PSTAR), 0).polygon.translate(PSTAR),
            spindle(g.body.rows, vsub(s5, PSTAR), 1).polygon.translate(PSTAR),
            spindle(g.body.rows, vsub(s4, vscale(F(2), PSTAR)), 2).polygon.translate(PSTAR),
            spindle(g.body.rows, vsub(s4, vscale(F(2), PSTAR)), 2).polygon.translate(
                vscale(F(2), PSTAR)
            ),
        ]
        for poly in expect:
            assert poly.canonical() in canon

    def test_height_zero_pairs_give_classical_spindles(self, g, approx, tri):
        classical = {
            spindle(g.body.rows, s, i).polygon.canonical()
            for i, s in ((0, tri.s[0]), (1, tri.s[1]), (2, tri.s[2]))
        }
        zero_shift = {
            p.polygon.canonical() for p in approx.pieces if p.pair[1] == 0
        }
        assert classical <= zero_shift

    def test_piece_count_per_pair(self, g, cert, approx):
        for x, k in cert.blocking:
            anchor = vsub(x, vscale(k, PSTAR))
            ties = len(psi_eval(g, anchor).argmax)
            count = sum(1 for p in approx.pieces if p.pair == (x, k))
            assert count == ties * (k + 1)

    def test_pieces_inside_translated_sublevel_sets(self, g, approx):
        for p in approx.pieces:
            anchor = vsub(p.pair[0], vscale(p.pair[1], PSTAR))
            level = psi(g, anchor)
            for v in p.polygon.vertices:
                assert psi(g, vsub(v, vscale(p.shift, PSTAR))) <= level


class TestCover:
    def test_mixing_cover_full(self, approx):
        cover = cover_certify(approx)
        assert cover.covered_area == 1 and cover.is_full
        assert cover.uncovered_witness is None

    def test_single_square_full(self, cert, approx):
        unit = Polygon2(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
        fake = FixApprox(
            PSTAR, cert, (Piece(unit, ((F(0), F(0)), 0), 0, 0),), approx.group_generators
        )
        cover = cover_certify(fake)
        assert cover.covered_area == 1 and cover.is_full

    def test_single_spindle_not_full_with_witness(self, g, cert, approx, tri):
        sp = spindle(g.body.rows, tri.s[0], 0)
        fake = FixApprox(
            PSTAR, cert, (Piece(sp.polygon, (tri.s[0], 0), 0, 0),), approx.group_generators
        )
        cover = cover_certify(fake)
        assert cover.covered_area < 1 and not cover.is_full
        w = cover.uncovered_witness
        assert w is not None
        for i in range(-3, 4):
            for j in range(-3, 4):
                assert not sp.polygon.contains(vadd(w, (F(i), F(j))))

    def test_cover_monotone_in_pieces(self, cert, approx):
        areas = []
        for n in (3, 6, len(approx.pieces)):
            sub = FixApprox(PSTAR, cert, approx.pieces[:n], approx.group_generators)
            areas.append(cover_certify(sub).covered_area)
        assert areas == sorted(areas)


class TestTranslate:
    def test_zero_translation_is_identity(self, g, cert):
        g2, phat = translate_instance(g, cert, (F(0), F(0)))
        assert g2.body.rows == g.body.rows
        assert phat == PSTAR

    def test_interior_violation_raises(self, g, cert):
        # move the origin onto/behind facet 2: 1 + a2 . m <= 0
        with pytest.raises(OriginNotInterior):
            translate_instance(g, cert, (F(1), F(0)))

    def test_cover_preserved_and_pieces_transport(self, g, cert):
        rng = random.Random(41)
        done = 0
        while done < 3:
            m = (F(rng.randint(-2, 2), 8), F(rng.randint(-2, 2), 8))
            if any(1 + dot(a, m) <= 0 for a in g.body.rows):
                continue
            if all((c + mc).denominator == 1 for c, mc in zip(B, m)):
                continue
            g2, phat = translate_instance(g, cert, m)
            cert2 = v_psi(g2, phat)
            assert cert2.value == cert.value
            a1 = fix_approx(g, cert)
            a2 = fix_approx(g2, cert2)
            assert cover_certify(a1).is_full == cover_certify(a2).is_full
            canon2 = {p.polygon.canonical() for p in a2.pieces}
            for piece in a1.pieces:
                mapped = Polygon2(
                    tuple(
                        tki_map(g.body.rows, PSTAR, cert.value, m, piece.facet,
                                piece.shift, v)
                        for v in piece.polygon.vertices
                    )
                )
                assert mapped.canonical() in canon2
            done += 1

    def test_tki_round_trip_random(self, g, cert):
        rng = random.Random(43)
        m = (F(1, 8), F(-1, 16))
        for _ in range(40):
            x = (F(rng.randint(-32, 32), 8), F(rng.randint(-32, 32), 8))
            i = rng.randint(0, 2)
            k = rng.randint(0, 3)
            fwd = tki_map(g.body.rows, PSTAR, cert.value, m, i, k, x)
            back = tki_map(g.body.rows, PSTAR, cert.value, m, i, k, fwd, inverse=True)
            assert back == x

    def test_tki_zero_translation_identity(self, g, cert):
        x = (F(5, 8), F(-3, 4))
        assert tki_map(g.body.rows, PSTAR, cert.value, (F(0), F(0)), 1, 2, x) == x

    @pytest.mark.parametrize("m", [(F(1, 8), F(0)), (F(1, 16), F(1, 16)), (F(-1, 8), F(1, 16))])
    def test_truncation_moves_with_s(self, m):
        # x, y >= -1/2, x + y <= 1 over (-1/2, -1/2) + Z^2, truncated to x <= 1/2
        group = TranslationGroup(((F(0), F(1)),))
        lat = Lattice(2, (F(-1, 2), F(-1, 2)), truncation=(((F(1), F(0)), F(1, 2)),),
                      declared_group=group)
        g = Gauge(HPoly(2, ((F(-2), F(0)), (F(0), F(-2)), (F(1), F(1)))), lat)
        cert = v_psi(g, (F(7, 8), F(-1, 2)))
        assert cert.value == F(1, 4)
        g2, phat = translate_instance(g, cert, m)
        assert g2.lattice.truncation == (((F(1), F(0)), F(1, 2) + m[0]),)
        assert g2.lattice.declared_group == group
        cert2 = v_psi(g2, phat)
        assert cert2.value == cert.value
        assert [x for x, _ in cert2.blocking] == [vadd(x, m) for x, _ in cert.blocking]


def _sample_collisions(g, cert, needed):
    """Deterministic sampler: overlapping spindle points differing by Z^2."""
    pairs = [(x, k) for x, k in cert.blocking]
    bases = {}
    for x, k in pairs:
        anchor = vsub(x, vscale(k, cert.pstar))
        for f in psi_eval(g, anchor).argmax:
            bases[(x, k, f)] = spindle(g.body.rows, anchor, f).polygon
    keys = sorted(bases, key=str)
    samples = []
    for ka in keys:
        for kb in keys:
            for kx in range(0, ka[1] + 1):
                for ky in range(0, kb[1] + 1):
                    for u in ((0, 0), (1, 1), (1, 0), (0, 1), (-1, -1), (2, 2)):
                        shift = vadd(
                            (F(u[0]), F(u[1])),
                            vscale(F(ky - kx), cert.pstar),
                        )
                        overlap = convex_intersection(
                            bases[ka], bases[kb].translate(shift)
                        )
                        pts = list(overlap.vertices)
                        if len(pts) >= 3:
                            cx = sum(p[0] for p in pts) / len(pts)
                            cy = sum(p[1] for p in pts) / len(pts)
                            pts.append((cx, cy))
                        for q in pts:
                            px = (vadd(q, vscale(F(kx), cert.pstar)), kx)
                            qy = vsub(q, shift)
                            py = (vadd(qy, vscale(F(ky), cert.pstar)), ky)
                            samples.append(((ka[0], ka[1]), (kb[0], kb[1]), px, py))
                            if len(samples) >= needed:
                                return samples
    return samples


class TestCollision:
    def test_identical_points(self, g, cert):
        pair = ((F(3, 4), F(5, 4)), 1)
        pt = ((F(1, 8), F(1, 8)), 0)
        assert collision_check(g, cert, pair, pair, pt, pt)

    def test_sampled_overlaps_agree(self, g, cert):
        samples = _sample_collisions(g, cert, 50)
        assert len(samples) >= 50
        for pa, pb, px, py in samples:
            assert collision_check(g, cert, pa, pb, px, py)

    def test_non_integral_difference_raises(self, g, cert):
        pair = ((F(3, 4), F(5, 4)), 1)
        with pytest.raises(PreconditionViolated):
            collision_check(
                g, cert, pair, pair,
                ((F(1, 8), F(1, 8)), 0), ((F(1, 16), F(1, 8)), 0),
            )

    def test_height_out_of_range_raises(self, g, cert):
        pair = ((F(3, 4), F(5, 4)), 1)
        with pytest.raises(PreconditionViolated):
            collision_check(
                g, cert, pair, pair, ((F(1, 8), F(1, 8)), 2), ((F(1, 8), F(1, 8)), 0)
            )


class TestWindowAgainstNaiveScan:
    def test_translate_enumeration_matches_naive(self, approx):
        # pieces + Z^2 hitting a box: window logic vs a brute scan over shifts
        box = Polygon2(((F(-2), F(-2)), (F(2), F(-2)), (F(2), F(2)), (F(-2), F(2))))
        for piece in approx.pieces[:8]:
            poly = piece.polygon
            if len(poly.vertices) < 3:
                continue
            hits_naive = set()
            for i in range(-8, 9):
                for j in range(-8, 9):
                    t = poly.translate((F(i), F(j)))
                    if not convex_intersection(box, t).is_empty:
                        hits_naive.add((i, j))
            xmin, xmax, ymin, ymax = poly.bbox()
            hits_window = set()
            for i in range(math.ceil(-2 - xmax), math.floor(2 - xmin) + 1):
                for j in range(math.ceil(-2 - ymax), math.floor(2 - ymin) + 1):
                    t = poly.translate((F(i), F(j)))
                    if not convex_intersection(box, t).is_empty:
                        hits_window.add((i, j))
            assert hits_window == hits_naive

    @pytest.mark.parametrize("b", [B, (F(-1, 8), F(-5, 8))])
    def test_boundary_pairs_match_naive_scan(self, b):
        # each height's boundary against a brute scan of its slice's bounding box
        tri = triangle_from_mixing(b)
        apex = pyramid(tri).apex
        g = tri.gauge()
        cert = v_psi(g, (apex[0] / apex[2], apex[1] / apex[2]))
        xmin, xmax, ymin, ymax = g.body_polygon().bbox()
        expected = []
        k = 0
        while 1 - k * cert.value >= 0:
            c = 1 - k * cert.value
            center = vscale(k, cert.pstar)
            box = (center[0] + c * xmin, center[0] + c * xmax,
                   center[1] + c * ymin, center[1] + c * ymax)
            on_boundary = naive_box_points(
                g.lattice, box, lambda x: psi(g, vsub(x, center)) == c
            )
            expected += [(x, k) for x in on_boundary]
            k += 1
        pairs = boundary_pairs(g, cert)
        assert pairs == tuple(expected)
        assert tuple(p for p in pairs if p[1] >= 1) == cert.blocking
