"""Type 3 triangle family: pyramids, split covers, figure points, tilting."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from liftfix.errors import (
    ApexConditionFailed,
    CertificateMismatch,
    ClaimViolated,
    DomainViolation,
    PreconditionViolated,
    WindowTooSmall,
)
from liftfix.exactgeo import (
    HPoly, area, clip_many, convex_hull, slice_polygon, union_area, vertices_from_rows,
)
from liftfix.gauge import Budget, check_sfree, lifting_cone, psi
from liftfix.fixing import fix_approx, spindle
from liftfix.lattice import naive_box_points
from liftfix.rational import dot, vadd, vscale, vsub
from liftfix.type3 import (
    apex_condition_value,
    claim_check,
    figure_points,
    fixed_ball,
    one_point_fixable,
    pyramid,
    split_cover_certify,
    tilt,
    tilt_beta_bound,
    triangle_from_gammas,
    triangle_from_mixing,
    _stage_binding,
    _tilt_alpha_from_coeff,
    _tilt_coeff,
    _tilt_rows,
)

B1 = (F(-1, 4), F(-3, 4))
B2 = (F(-1, 8), F(-5, 8))


def random_valid_triangle(rng):
    """Uniform-ish draws satisfying every domain constraint exactly."""
    while True:
        b2 = F(-rng.randint(1, 11), 12)
        b1 = F(-rng.randint(1, 11), 12)
        if b2 > b1:
            b1, b2 = b2, b1
        if b1 == b2 or b1 == 0 or b2 == -1:
            continue
        g1 = F(rng.randint(2, 24), 8)
        g2 = F(rng.randint(1, 7), 8)
        g3 = F(rng.randint(1, 7), 8)
        try:
            return triangle_from_gammas((b1, b2), g1, g2, g3)
        except DomainViolation:
            continue


class TestConstruction:
    def test_mixing_closed_forms(self):
        tri = triangle_from_mixing(B1)
        assert tri.gammas == (F(2), F(2, 3), F(1, 2))
        assert tri.mixing_delta == F(5, 16)

    def test_boundary_of_strict_constraint_rejected(self):
        # b1 - 2*b2 = 1 exactly
        with pytest.raises(DomainViolation):
            triangle_from_mixing((F(-1, 4), F(-5, 8)))

    def test_gamma_two_equal_one_rejected(self):
        with pytest.raises(DomainViolation):
            triangle_from_gammas(B1, F(2), F(1), F(1, 2))

    def test_structural_identities_on_random_draws(self):
        rng = random.Random(101)
        for _ in range(15):
            tri = random_valid_triangle(rng)
            for i in range(3):
                assert dot(tri.body.rows[i], tri.s[i]) == 1
                assert 0 < tri.deltas[i] < 1


class TestPyramid:
    def test_mixing_apex_and_condition(self):
        pyr = pyramid(triangle_from_mixing(B1))
        assert pyr.condition_value == F(4, 3)
        assert pyr.apex == (F(5, 2), F(35, 8), F(5))

    def test_second_instance_apex(self):
        pyr = pyramid(triangle_from_mixing(B2))
        assert pyr.apex == (F(19, 4), F(285, 32), F(19, 2))

    def test_base_slice_is_triangle(self):
        tri = triangle_from_mixing(B1)
        pyr = pyramid(tri)
        assert tuple(r[:2] for r in pyr.body.rows) == tri.body.rows

    def test_six_points_on_their_facets(self):
        pyr = pyramid(triangle_from_mixing(B1))
        for p, f in pyr.facet_points:
            assert dot(pyr.body.rows[f], p) == 1
            assert all(dot(r, p) <= 1 for r in pyr.body.rows)

    def test_apex_condition_failure(self):
        # gammas chosen so g2*(2 - g3 + 2 g1 g3) <= g1 g3
        tri = triangle_from_gammas((F(-1, 2), F(-2, 3)), F(64), F(1, 64), F(63, 64))
        assert apex_condition_value(tri) <= 0
        with pytest.raises(ApexConditionFailed):
            pyramid(tri)


class TestSplitCover:
    @pytest.mark.parametrize("b", [B1, B2])
    def test_residuals_all_zero(self, b):
        cert = split_cover_certify(b)
        assert cert.free
        assert all(r == 0 for r in cert.residuals)
        assert cert.heights[-1] == cert.apex[2].__floor__()

    # B1's apex height is the integer 5, so its last slice is a single point
    @pytest.mark.parametrize("b", [B1, B2, (F(-3, 14), F(-9, 14)), (F(-1, 14), F(-4, 7))])
    def test_matches_clipped_slices(self, b):
        # reference: each slice by vertex enumeration, its residual by
        # clipping to each split and one union sweep
        tri = triangle_from_mixing(b)
        pyr = pyramid(tri)
        b1, b2 = tri.b
        residuals = []
        for k in range(1, pyr.apex[2].__floor__() + 1):
            poly = slice_polygon(pyr.body.as_pairs(), k)
            splits = (
                (((0, 1), b2 + k + 1), ((0, -1), -(b2 + k))),
                (((2, -1), 2 * b1 - b2), ((-2, 1), 1 - 2 * b1 + b2)),
                (((1, -1), b1 - b2 - F(k, 2)), ((-1, 1), F(k + 1, 2) - b1 + b2)),
            )
            residuals.append(area(poly) - union_area([clip_many(poly, s) for s in splits]))
        if b == B1:
            assert len(poly.vertices) == 1
        assert split_cover_certify(b).residuals == tuple(residuals)

    def test_slice_above_the_apex_is_a_mismatch(self, monkeypatch):
        # a claimed apex one level too high asks for an empty slice
        pyr = pyramid(triangle_from_mixing(B1))
        high = dataclasses.replace(pyr, apex=vadd(pyr.apex, (0, 0, 1)))
        monkeypatch.setattr("liftfix.type3.pyramid", lambda tri: high)
        with pytest.raises(CertificateMismatch, match="height-6 slice"):
            split_cover_certify(B1)

    def test_enumeration_oracle_agrees(self):
        tri = triangle_from_mixing(B1)
        pyr = pyramid(tri)
        assert check_sfree(pyr.body, tri.lattice.with_tail(1)).free

    def test_loosened_row_breaks_freeness(self):
        tri = triangle_from_mixing(B1)
        pyr = pyramid(tri)
        rows = list(pyr.body.rows)
        rows[2] = tuple(c / (1 + F(1, 10)) for c in rows[2])
        cert = check_sfree(HPoly(3, tuple(rows)), tri.lattice.with_tail(1))
        assert not cert.free
        assert cert.witness is not None


class TestOnePointFixable:
    @pytest.mark.parametrize(
        "b,pstar,value",
        [
            (B1, (F(1, 2), F(7, 8)), F(1, 5)),
            (B2, (F(1, 2), F(15, 16)), F(2, 19)),
        ],
    )
    def test_full_cover(self, b, pstar, value):
        res = one_point_fixable(triangle_from_mixing(b))
        assert res.pstar == pstar
        assert res.value == value
        assert res.cover.is_full

    def test_cone_equals_pyramid(self):
        tri = triangle_from_mixing(B1)
        res = one_point_fixable(tri)
        cone = lifting_cone(tri.gauge(), res.pstar, res.value)
        assert cone.canonical_rows() == pyramid(tri).body.canonical_rows()

    def test_general_triangles_with_free_pyramids_fix(self):
        # the sufficient condition is not special to the mixing family:
        # any valid triangle whose pyramid is lattice-free must cover fully,
        # and the figure-route pstar must equal the apex route
        rng = random.Random(2026)
        found = 0
        for _ in range(200):
            tri = random_valid_triangle(rng)
            if apex_condition_value(tri) <= 0:
                continue
            pyr = pyramid(tri)
            if not check_sfree(pyr.body, tri.lattice.with_tail(1)).free:
                continue
            if tri.mixing_delta is not None:
                continue
            res = one_point_fixable(tri)
            assert res.cover.is_full and res.cover.covered_area == 1
            assert figure_points(tri)["pstar"] == res.pstar
            found += 1
            if found == 2:
                return
        pytest.skip("no free general draw found")

    def test_unfree_pyramid_rejected(self):
        # a triangle whose pyramid has an interior lattice point
        rng = random.Random(7)
        for _ in range(200):
            tri = random_valid_triangle(rng)
            try:
                pyr = pyramid(tri)
            except ApexConditionFailed:
                continue
            if not check_sfree(pyr.body, tri.lattice.with_tail(1)).free:
                with pytest.raises(PreconditionViolated):
                    one_point_fixable(tri)
                return
        pytest.skip("no free-failing draw found")


class TestFigure:
    def test_named_point_identities(self):
        tri = triangle_from_mixing(B1)
        pts = figure_points(tri)
        assert pts["c1"] == vscale(tri.deltas[0], tri.vertices[0])
        assert pts["m"] == vscale(F(1, 2), vadd(pts["i"], pts["j"]))
        assert pts["l"] == vscale(F(1, 2), vadd(pts["e1"], pts["c2"]))

    @pytest.mark.parametrize(
        "b,pstar", [(B1, (F(1, 2), F(7, 8))), (B2, (F(1, 2), F(15, 16)))]
    )
    def test_figure_pstar_matches_apex_route(self, b, pstar):
        tri = triangle_from_mixing(b)
        assert figure_points(tri)["pstar"] == pstar
        apex = pyramid(tri).apex
        assert (apex[0] / apex[2], apex[1] / apex[2]) == pstar


class TestClaim:
    @pytest.mark.parametrize("b", [B1, B2])
    def test_mixing_instances_pass(self, b):
        tri = triangle_from_mixing(b)
        pts = figure_points(tri)
        rep = claim_check(tri, pts["pstar"])
        assert rep.passed
        assert all(v <= 0 for _, _, prods in rep.cases for v in prods)
        assert rep.area_k == sum(rep.area_parts, F(0))

    def test_random_draws_pass(self):
        rng = random.Random(211)
        done = 0
        while done < 20:
            tri = random_valid_triangle(rng)
            pts = figure_points(tri)
            rep = claim_check(tri, pts["pstar"])
            assert rep.passed
            done += 1

    def test_violation_names_vertex_and_inequality(self):
        # a slightly wrong pstar keeps the spindle anchors valid but breaks
        # the vertex containments, which must be reported by name
        tri = triangle_from_mixing(B1)
        with pytest.raises(ClaimViolated) as exc:
            claim_check(tri, (F(1, 2) + F(1, 100), F(7, 8)))
        assert "vertex" in str(exc.value) and "inequality" in str(exc.value)


@pytest.fixture(scope="module")
def mixing_tilt():
    return tilt(triangle_from_mixing(B1), 4)


class TestTilt:

    def test_beta_bound_enforced(self):
        tri = triangle_from_mixing(B1)
        assert tilt_beta_bound(tri) == F(7, 4)
        with pytest.raises(DomainViolation):
            tilt(tri, F(7, 4))

    def test_base_apex_height_in_unit_interval(self, mixing_tilt):
        assert 0 < mixing_tilt.base_apex[2] < 1
        assert mixing_tilt.base_apex == (F(5, 28), F(25, 28), F(5, 14))

    def test_mixing_tilt_recovers_lifting_pyramid(self, mixing_tilt):
        tri = triangle_from_mixing(B1)
        assert mixing_tilt.alphas == (F(0), F(0), F(13, 16))
        assert mixing_tilt.body.canonical_rows() == pyramid(tri).body.canonical_rows()
        assert mixing_tilt.apex == (F(5, 2), F(35, 8), F(5))

    def test_closed_form_is_strict_upper_bound(self, mixing_tilt):
        # the printed closed form 1 - (1 - g3)/beta over-tilts: at that angle
        # the height-2 point (1+b1, 2+b2, 2) sits strictly inside the cone
        tri = triangle_from_mixing(B1)
        assert mixing_tilt.alphas[2] < mixing_tilt.closed_form_alpha3
        rows = _tilt_rows(tri, F(4), (F(0), F(0), mixing_tilt.closed_form_alpha3))
        culprit = (F(3, 4), F(5, 4), F(2))
        assert all(dot(r, culprit) < 1 for r in rows.rows)

    def test_facet_witnesses(self, mixing_tilt):
        assert mixing_tilt.facet_witnesses == (
            (F(3, 4), F(5, 4), F(1)),
            (F(-1, 4), F(1, 4), F(1)),
            (F(3, 4), F(5, 4), F(2)),
        )
        for f, w in enumerate(mixing_tilt.facet_witnesses):
            assert w[2] >= 1
            assert dot(mixing_tilt.body.rows[f], w) == 1

    def test_freeness_fails_just_beyond(self, mixing_tilt):
        tri = triangle_from_mixing(B1)
        eps = F(1, 1000)
        rows = _tilt_rows(tri, F(4), (F(0), F(0), mixing_tilt.alphas[2] + eps))
        cert = check_sfree(rows, tri.lattice.with_tail(1))
        assert not cert.free

    def test_monotone_slices_in_tilt_parameter(self):
        tri = triangle_from_mixing(B1)
        lo = _tilt_rows(tri, F(4), (F(0), F(0), F(1, 2)))
        hi = _tilt_rows(tri, F(4), (F(0), F(0), F(3, 4)))
        # the lower cone's apex is below height 1, so slice at fractions
        for t in (F(0), F(1, 4), F(1, 2), F(3, 4)):
            vs = slice_polygon(lo.as_pairs(), t).vertices
            assert len(vs) == 3
            for v in vs:
                assert all(dot(a, v + (t,)) <= 1 for a in hi.rows)

    def test_second_instance_tilt(self):
        tri = triangle_from_mixing(B2)
        res = tilt(tri, 4)
        assert res.alphas == (F(0), F(0), F(25, 32))
        assert res.apex == (F(19, 4), F(285, 32), F(19, 2))
        assert res.body.canonical_rows() == pyramid(tri).body.canonical_rows()

    def test_final_cone_independent_of_beta(self):
        # the binding point and the final facet coefficient do not involve
        # beta, so different steepness parameters reach the same cone
        tri = triangle_from_mixing(B1)
        r1 = tilt(tri, 4)
        r2 = tilt(tri, F(9, 2))
        assert r1.alphas != r2.alphas  # the parameterization differs
        assert r1.body.canonical_rows() == r2.body.canonical_rows()

    def test_degenerate_state_has_nonintegral_recession_and_is_not_free(self):
        # at the closed-form angle the three planes share the direction
        # (1/2, 3/4, 1), which is not integral; consistently, freeness fails
        tri = triangle_from_mixing(B1)
        rows = _tilt_rows(tri, F(4), (F(0), F(0), F(7, 8)))
        d = (F(1, 2), F(3, 4), F(1))
        assert all(dot(r, d) == 0 for r in rows.rows)
        culprit = (F(3, 4), F(5, 4), F(2))
        assert all(dot(r, culprit) < 1 for r in rows.rows)


def stage_oracle(tri, beta, alphas, f, margin, k_window):
    """Reference tilt stage: every point of a naive box scan, one by one.

    Keeps each point of the stage region that is strictly inside the other
    facets and whose threshold inverts to an admissible alpha, then returns
    the smallest alpha with its lexicographically first point, or None.
    """
    rows2 = tri.body.rows
    cur = alphas[f]
    coeffs = [_tilt_coeff(tri, beta, g, alphas[g]) for g in range(3)]
    c_cur = coeffs[f]
    tau_min = c_cur - margin
    if f == 2 and tau_min < 0:
        tau_min = F(0)
    cands = []
    for k in range(1, k_window + 1):
        region = [(rows2[g], 1 - coeffs[g] * k) for g in range(3) if g != f]
        region.append((tuple(-c for c in rows2[f]), -(1 - c_cur * k)))
        region.append((rows2[f], 1 - tau_min * k))
        poly = vertices_from_rows(region)
        if poly.is_empty:
            continue
        inside = naive_box_points(
            tri.lattice, poly.bbox(), lambda p: all(dot(a, p) <= c for a, c in region)
        )
        for x in inside:
            if not all(dot(rows2[g], x) + coeffs[g] * k < 1 for g in range(3) if g != f):
                continue
            tau = (1 - dot(rows2[f], x)) / k
            if tau > c_cur:
                continue
            alpha_x = _tilt_alpha_from_coeff(tri, beta, f, tau) if tau != c_cur else cur
            if alpha_x is None or alpha_x >= 1 or alpha_x < cur:
                continue
            cands.append((alpha_x, (x[0], x[1], F(k))))
    if not cands:
        return None
    astar = min(a for a, _ in cands)
    return astar, min(p for a, p in cands if a == astar)


@st.composite
def stage_states(draw):
    """A random valid triangle, a beta above its bound, current alphas, a
    facet, a margin whose edge falls on either side of 0, and a window."""
    tri = random_valid_triangle(random.Random(draw(st.integers(0, 2**32))))
    beta = tilt_beta_bound(tri) + F(draw(st.integers(1, 16)), 8)
    alphas = tuple(F(draw(st.integers(0, 7)), 8) for _ in range(3))
    f = draw(st.integers(0, 2))
    # the margin edge is c - margin, for facet f's coefficient c: past 0 for
    # n >= 8, and short of it for the smaller n when c is positive (facet 3)
    c = _tilt_coeff(tri, beta, f, alphas[f])
    margin = (max(c, 0) + 1) * F(draw(st.integers(1, 16)), 8)
    return tri, beta, alphas, f, margin, draw(st.integers(1, 6))


def _first_stage(b, beta, margin=F(12), k_window=12):
    return triangle_from_mixing(b), beta, (F(0), F(0), F(0)), 2, margin, k_window


# two columns at heights 2 and 1 share the binding threshold; the height-2
# point is lexicographically first
TIE = (triangle_from_gammas((F(-1, 12), F(-1, 3)), F(11, 8), F(1, 8), F(7, 8)),
       F(745, 256), (F(1, 2), F(1, 2), F(1, 4)), 1, F(9, 4), 2)


class TestStageBinding:
    """The column-selecting tilt stage against the per-point reference."""

    @settings(max_examples=40, deadline=None)
    @given(stage_states())
    @example(_first_stage(B1, F(4)))  # the tilt workload's first stages
    @example(_first_stage(B1, F(9, 2)))
    @example(_first_stage(B2, F(4)))
    @example(_first_stage(B2, F(5)))
    @example(TIE)
    # the margin edge stops short of 0, and w_3's second coordinate is
    # negative: the binding point is the high end of its column
    @example(_first_stage(B1, F(4), F(28, 5), 6))
    # an empty window
    @example((triangle_from_mixing(B1), F(4), (F(0), F(0), F(15, 16)), 2, F(1), 1))
    def test_matches_reference(self, state):
        assert _stage_binding(*state) == stage_oracle(*state)

    @pytest.mark.parametrize("b", [B1, B2])
    @pytest.mark.parametrize("beta", [F(4), F(9, 2), F(5)])
    def test_tilt_stages_match_reference(self, b, beta):
        tri = triangle_from_mixing(b)
        _, a2, a3 = tilt(tri, beta).alphas
        c3 = _tilt_coeff(tri, beta, 2, F(0))
        stages = [
            # facet 3's tau > 0 edge is a strict row: the margin reaches past 0
            ((F(0), F(0), F(0)), 2, F(12), 12),
            # the margin stops short of 0 and still holds the binding point
            ((F(0), F(0), F(0)), 2, c3 * 7 / 8, 12),
            # the margin stops short of the binding point: nothing enters
            ((F(0), F(0), F(0)), 2, c3 / 4, 12),
            ((F(0), F(0), a3), 1, F(1), 3),
            ((F(0), a2, a3), 0, F(1), 3),
        ]
        got = [_stage_binding(tri, beta, *stage) for stage in stages]
        assert got == [stage_oracle(tri, beta, *stage) for stage in stages]
        assert [g is None for g in got] == [False, False, True, False, False]
        assert got[0][0] == got[1][0] == a3

    def test_facet_three_takes_positive_thresholds_only(self):
        # near alpha3 = 1 the window past tau = 0 holds lattice points, but
        # none with a positive threshold, so none can enter through facet 3
        tri = triangle_from_mixing(B1)
        alphas = (F(0), F(0), F(15, 16))
        assert stage_oracle(tri, F(4), alphas, 2, F(1), 1) is None
        assert _stage_binding(tri, F(4), alphas, 2, F(1), 1) is None

    def test_random_draws_and_states_match_reference(self):
        # arbitrary current alphas: the binding alpha is then usually above
        # the current one, and facet 3's margin edge falls on either side of 0
        rng = random.Random(6)
        outcomes = set()
        for _ in range(6):
            tri = random_valid_triangle(rng)
            beta = tilt_beta_bound(tri) + rng.choice([F(1, 2), F(1), F(2)])
            alphas = tuple(F(rng.randint(0, 7), 8) for _ in range(3))
            for f in range(3):
                want = stage_oracle(tri, beta, alphas, f, F(1), 4)
                assert _stage_binding(tri, beta, alphas, f, F(1), 4) == want
                outcomes.add(want is not None and want[0] > alphas[f])
        assert outcomes == {True, False}

    def test_window_too_small_lists_the_windows_tried(self, monkeypatch):
        monkeypatch.setattr("liftfix.type3._stage_binding", lambda *args: None)
        with pytest.raises(WindowTooSmall) as exc:
            tilt(triangle_from_mixing(B1), 4)
        assert exc.value.exit_code == 3
        assert str(exc.value) == (
            "no tilt candidates for facet 3; (margin, k_window) tried: "
            "(12, 12), (24, 24), (48, 48), (96, 96), (192, 192)"
        )


class TestFixedBall:
    def test_second_instance_ball(self):
        ball = fixed_ball(triangle_from_mixing(B2), 4)
        assert ball.pstar == (F(1, 2), F(15, 16))
        assert ball.radius == F(1, 32)

    def test_mixing_ball(self):
        tri = triangle_from_mixing(B1)
        ball = fixed_ball(tri, 4)
        assert ball.pstar == (F(1, 2), F(7, 8))
        assert ball.radius == F(1, 16)
        # the square is covered, a slightly larger one is not
        from liftfix.type3 import _covered_by_union

        assert _covered_by_union(ball.square, ball.pieces)
        r2 = ball.radius + F(1, 64)
        bigger = convex_hull(
            [
                (ball.pstar[0] - r2, ball.pstar[1] - r2),
                (ball.pstar[0] + r2, ball.pstar[1] - r2),
                (ball.pstar[0] + r2, ball.pstar[1] + r2),
                (ball.pstar[0] - r2, ball.pstar[1] + r2),
            ]
        )
        assert not _covered_by_union(bigger, ball.pieces)

    def test_pieces_belong_to_fixing_approximation(self):
        tri = triangle_from_mixing(B1)
        ball = fixed_ball(tri, 4)
        g = tri.gauge()
        from liftfix.gauge import v_psi

        cert = v_psi(g, ball.pstar)
        canon = {p.polygon.canonical() for p in fix_approx(g, cert).pieces}
        for piece in ball.pieces:
            assert piece.canonical() in canon
