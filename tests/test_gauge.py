"""Gauge evaluation, freeness certificates, and lifting values.

Brute-force oracles (plain double loops over a lattice window) are defined
first and the pipeline answers are checked against them; frozen constants in
this file were produced by those oracles.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_valid_triangle
from liftfix.errors import (
    BudgetExceeded,
    CertificateMismatch,
    NonpositiveLambda,
    NoPositiveValueWithinBudget,
    UnboundedRegion,
)
from liftfix.exactgeo import HPoly
from liftfix.gauge import (
    Budget,
    FreeCert,
    Gauge,
    _psi_floor,
    check_sfree,
    lifting_cone,
    phi_eval,
    psi,
    psi_eval,
    psi_star_eval,
    v_psi,
    v_psi_geometric,
    v_seq,
)
from liftfix.lattice import Lattice, contains, points_in
from liftfix.rational import dot, vadd, vscale, vsub
from liftfix.type3 import pyramid, triangle_from_mixing

B = (F(-1, 4), F(-3, 4))
PSTAR = (F(1, 2), F(7, 8))
EIGHTH = st.integers(-8, 8).map(lambda n: F(n, 8))


@pytest.fixture(scope="module")
def tri():
    return triangle_from_mixing(B)


@pytest.fixture(scope="module")
def g(tri):
    return tri.gauge()


def brute_lift_value(g, pstar, nmax=8, rad=8):
    """Independent oracle: direct maximization over a lattice window."""
    b = g.lattice.shift
    best, wit = None, None
    for N in range(1, nmax + 1):
        for i in range(-rad, rad + 1):
            for j in range(-rad, rad + 1):
                x = (b[0] + i, b[1] + j)
                w = vsub(x, vscale(N, pstar))
                val = (1 - psi(g, w)) / N
                if best is None or val > best:
                    best, wit = val, (x, N)
    return best, wit


def brute_psi_star(g, value, pstar, point, nmax=8, rad=8):
    """min of psi(p + z - (h + N)*pstar) + (h + N)*value, point = (p, h), N <= nmax."""
    *p, h = point
    best = None
    for N in range(0, nmax + 1):
        w0 = [c - (h + N) * s for c, s in zip(p, pstar)]
        for i in range(-rad - round(w0[0]), rad + 1 - round(w0[0])):
            for j in range(-rad - round(w0[1]), rad + 1 - round(w0[1])):
                val = psi(g, (w0[0] + i, w0[1] + j)) + (h + N) * value
                if best is None or val < best:
                    best = val
    return best


def box_points(lat, c, rad):
    """Test-only oracle: the points of S within rad of c in every coordinate.

    A tail coordinate runs from 0 up; S-membership is decided by
    lattice.contains.
    """
    ranges = [[b + k for k in range(round(ci - b) - rad, round(ci - b) + rad + 1)]
              for b, ci in zip(lat.shift, c)]
    ranges += [range(max(0, round(ci) - rad), round(ci) + rad + 1) for ci in c[lat.dim:]]
    for x in itertools.product(*ranges):
        x = tuple(F(v) for v in x)
        if contains(lat, x):
            yield x


def box_lift_value(g, pstar, nmax, rad, slack=0):
    """Test-only oracle: max of (1 - psi(x - N*pstar)) / N over a box of S.

    For N = 1..nmax, x runs over the box_points within rad of N*pstar.
    Heights stop once 1/N + slack, an upper bound on every height-N
    candidate, falls below the best found.
    """
    best = None
    for N in range(1, nmax + 1):
        if best is not None and F(1, N) + slack < best:
            break
        c = vscale(N, pstar)
        for x in box_points(g.lattice, c, rad):
            val = (1 - psi(g, vsub(x, c))) / N
            if best is None or val > best:
                best = val
    return best


def box_cone_boundary(g, pstar, lam, kmax, rad):
    """Test-only oracle: the lifted cone's boundary points (x, k), k <= kmax.

    (x, k) is on the boundary when psi(x - k*pstar) + k*lam == 1, x among
    the box_points within rad of k*pstar; the output is in (k, x) order.
    """
    out = []
    for k in range(kmax + 1):
        c = vscale(k, pstar)
        out += [(x, k) for x in box_points(g.lattice, c, rad) if psi(g, vsub(x, c)) + k * lam == 1]
    return tuple(out)


def box_seq_value(g, p1, p2, v1, k1max, k2max, rad):
    """Test-only oracle: max of (1 - k1*v1 - psi(x - k1*p1 - k2*p2)) / k2 over a box.

    k1 runs over 0..k1max, k2 over 1..k2max and x over the box_points
    within rad of k1*p1 + k2*p2.
    """
    best = None
    for k1 in range(k1max + 1):
        for k2 in range(1, k2max + 1):
            c = vadd(vscale(k1, p1), vscale(k2, p2))
            for x in box_points(g.lattice, c, rad):
                val = (1 - k1 * v1 - psi(g, vsub(x, c))) / k2
                if best is None or val > best:
                    best = val
    return best


class TestPsi:
    def test_at_origin(self, g):
        assert psi_eval(g, (F(0), F(0))).value == 0

    def test_unit_x(self, g):
        gv = psi_eval(g, (F(1), F(0)))
        assert gv.value == F(4, 5)
        assert gv.argmax == (0, 2)  # rows 1 and 3 tie

    def test_boundary_lattice_points_evaluate_to_one(self, g, tri):
        for s in tri.s:
            assert psi(g, s) == 1

    def test_subadditive_and_homogeneous(self, g):
        rng = random.Random(17)
        for _ in range(60):
            r1 = (F(rng.randint(-24, 24), 8), F(rng.randint(-24, 24), 8))
            r2 = (F(rng.randint(-24, 24), 8), F(rng.randint(-24, 24), 8))
            assert psi(g, vadd(r1, r2)) <= psi(g, r1) + psi(g, r2)
            lam = F(rng.randint(1, 40), 8)
            assert psi(g, vscale(lam, r1)) == lam * psi(g, r1)


class TestFreeness:
    def test_triangle_free_with_facet_hits(self, g, tri):
        cert = check_sfree(g.body, g.lattice)
        assert cert.free
        assert cert.facet_hits == ((tri.s[0],), (tri.s[1],), (tri.s[2],))

    def test_doubled_triangle_not_free(self, g):
        doubled = HPoly(2, tuple(tuple(c / 2 for c in a) for a in g.body.rows))
        cert = check_sfree(doubled, g.lattice)
        assert not cert.free
        assert cert.witness is not None

    def test_mixing_pyramid_free(self, tri):
        pyr = pyramid(tri)
        cert = check_sfree(pyr.body, tri.lattice.with_tail(1))
        assert cert.free


class TestCrossPolytope:
    """|x|_1 <= 3/2 over (-1/2, -1/2, -1/2) + Z^3: a 3-D lattice-free body."""

    @pytest.fixture(scope="class")
    def g3(self):
        rows = tuple(
            tuple(F(2, 3) * v for v in signs) for signs in itertools.product((1, -1), repeat=3)
        )
        return Gauge(HPoly(3, rows), Lattice(3, (F(-1, 2),) * 3))

    def test_free_with_one_boundary_point_per_facet(self, g3):
        cert = check_sfree(g3.body, g3.lattice)
        assert cert.free
        # facet 2/3 (s1, s2, s3) is touched by the cube corner (s1, s2, s3)/2
        assert cert.facet_hits == tuple(
            (tuple(F(v, 2) for v in signs),) for signs in itertools.product((1, -1), repeat=3)
        )

    @pytest.mark.parametrize(
        "pstar, value, blocking",
        [
            ((F(1, 4), F(1, 8), F(1, 16)), F(7, 24), 2),
            ((F(1, 2), F(0), F(0)), F(1, 3), 4),
        ],
    )
    def test_lift_value_and_geometric_check(self, g3, pstar, value, blocking):
        cert = v_psi(g3, pstar)
        assert cert.value == value
        assert len(cert.blocking) == blocking
        geom = v_psi_geometric(g3, pstar, value)
        assert geom.free and geom.tight


class TestLiftingCone:
    def test_slice_at_height_zero_is_body(self, g):
        cone = lifting_cone(g, PSTAR, F(1, 5))
        for row in cone.rows:
            assert row[:2] in g.body.rows

    def test_apex_tight_on_all_rows(self, g):
        lam = F(1, 5)
        cone = lifting_cone(g, PSTAR, lam)
        apex = (PSTAR[0] / lam, PSTAR[1] / lam, 1 / lam)
        for row in cone.rows:
            assert dot(row, apex) == 1

    def test_matches_mixing_pyramid(self, g, tri):
        cone = lifting_cone(g, PSTAR, F(1, 5))
        assert cone.canonical_rows() == pyramid(tri).body.canonical_rows()

    def test_nonpositive_lambda(self, g):
        with pytest.raises(NonpositiveLambda):
            lifting_cone(g, PSTAR, 0)


class TestLiftValue:
    def test_spindle_membership_gives_gauge_value(self, g):
        # pstar inside the spindle of s1 forces value psi(pstar), witness (s1, 1)
        p = (F(1, 2), F(1, 8))
        cert = v_psi(g, p)
        assert cert.value == psi(g, p) == F(3, 5)
        assert ((F(3, 4), F(1, 4)), 1) in cert.blocking

    def test_mixing_instance(self, g):
        cert = v_psi(g, PSTAR)
        assert cert.value == F(1, 5)
        expected = {
            ((F(3, 4), F(5, 4)), 1),
            ((F(-1, 4), F(1, 4)), 1),
            ((F(3, 4), F(5, 4)), 2),
        }
        assert expected <= set(cert.blocking)
        # independent oracle agreement
        best, wit = brute_lift_value(g, PSTAR)
        assert best == cert.value
        assert (vadd(vsub(wit[0], vscale(wit[1], PSTAR)), vscale(wit[1], PSTAR)), wit[1]) in cert.blocking

    def test_blocking_pairs_reproduce_value(self, g):
        cert = v_psi(g, PSTAR)
        for x, k in cert.blocking:
            assert k >= 1
            assert (1 - psi(g, vsub(x, vscale(k, PSTAR)))) / k == cert.value

    def test_every_brute_maximizer_is_a_boundary_pair(self, g):
        # the maximizer <-> blocking-pair correspondence, both directions
        cert = v_psi(g, PSTAR)
        b = g.lattice.shift
        for N in range(1, 9):
            for i in range(-8, 9):
                for j in range(-8, 9):
                    x = (b[0] + i, b[1] + j)
                    w = vsub(x, vscale(N, PSTAR))
                    if (1 - psi(g, w)) / N == cert.value:
                        assert (x, N) in cert.blocking

    def test_degenerate_origin_raises_with_best_zero(self, g):
        with pytest.raises(NoPositiveValueWithinBudget) as exc:
            v_psi(g, (F(0), F(0)), Budget(n_max=8, window=8))
        assert exc.value.best == 0
        # the cone stays free for any positive lambda at this point
        assert v_psi_geometric(g, (F(0), F(0)), F(1, 1000)).free


class TestGeometricCheck:
    def test_free_and_tight_at_value(self, g):
        chk = v_psi_geometric(g, PSTAR, F(1, 5))
        assert chk.free and chk.tight

    def test_not_free_slightly_below(self, g):
        eps = F(1, 5) / 1000
        chk = v_psi_geometric(g, PSTAR, F(1, 5) - eps)
        assert not chk.free

    def test_free_not_tight_above(self, g):
        chk = v_psi_geometric(g, PSTAR, F(1, 4))
        assert chk.free and not chk.tight


class TestSequential:
    def test_same_point_returns_v1(self, g):
        cert = v_psi(g, PSTAR)
        sq = v_seq(g, PSTAR, PSTAR, cert.value)
        assert sq.value == cert.value

    def test_lattice_shift_invariant(self, g):
        cert = v_psi(g, PSTAR)
        sq = v_seq(g, PSTAR, vadd(PSTAR, (F(1), F(1))), cert.value)
        assert sq.value == cert.value

    def test_spindle_point_gives_gauge_value(self, g):
        cert = v_psi(g, PSTAR)
        p2 = (F(1, 2), F(1, 8))
        sq = v_seq(g, PSTAR, p2, cert.value)
        assert sq.value == psi(g, p2) == F(3, 5)
        assert all(k2 >= 1 for _, _, k2 in sq.blocking)

    def test_fuzz_against_brute_force(self):
        # random instances; the brute window is stretched to contain the
        # returned witness, so agreement is a real optimality check
        from conftest import random_rational_point

        rng = random.Random(31337)
        done = 0
        while done < 8:
            tri = random_valid_triangle(rng)
            p1 = random_rational_point(rng)
            p2 = random_rational_point(rng)
            if all(c.denominator == 1 for c in p1) or all(
                c.denominator == 1 for c in p2
            ):
                continue
            g2 = tri.gauge()
            try:
                c1 = v_psi(g2, p1, Budget(24, 12))
                sq = v_seq(g2, p1, p2, c1.value, Budget(24, 12))
            except NoPositiveValueWithinBudget:
                continue
            wit = sq.blocking[0]
            radius = max(
                8, int(max(abs(wit[0][0] - tri.b[0]), abs(wit[0][1] - tri.b[1]))) + 2
            )
            best = None
            b = tri.b
            k1 = 0
            while k1 * c1.value <= 1:
                for k2 in range(1, max(6, wit[2] + 1) + 1):
                    for i in range(-radius, radius + 1):
                        for j in range(-radius, radius + 1):
                            x = (b[0] + i, b[1] + j)
                            w = vsub(x, vadd(vscale(k1, p1), vscale(k2, p2)))
                            val = (1 - k1 * c1.value - psi(g2, w)) / k2
                            if best is None or val > best:
                                best = val
                k1 += 1
            assert best == sq.value
            done += 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), coords=st.lists(EIGHTH, min_size=4, max_size=4))
    def test_sequential_value_is_at_least_the_lifting_value(self, seed, coords):
        # the k1 = 0 candidates of the lifted gauge are exactly v_psi's
        g2 = random_valid_triangle(random.Random(seed)).gauge()
        p1, p2 = tuple(coords[:2]), tuple(coords[2:])
        try:
            v1, v2 = v_psi(g2, p1).value, v_psi(g2, p2).value
        except NoPositiveValueWithinBudget:
            assume(False)
        assert v_seq(g2, p1, p2, v1).value >= v2


class TestLiftings:
    def test_phi_at_pstar_is_value(self, g):
        cert = v_psi(g, PSTAR)
        assert phi_eval(cert, g, PSTAR) == cert.value

    def test_phi_lattice_invariant(self, g):
        cert = v_psi(g, PSTAR)
        for gvec in ((F(1), F(0)), (F(0), F(1)), (F(-2), F(3))):
            assert phi_eval(cert, g, vadd(PSTAR, gvec)) == cert.value

    def test_phi_matches_brute_force(self, g):
        cert = v_psi(g, PSTAR)
        for p in ((F(0), F(0)), (F(1, 4), F(-1, 2)), (F(-3, 4), F(1, 2))):
            assert phi_eval(cert, g, p) == brute_psi_star(g, cert.value, PSTAR, p + (F(0),))

    def test_psi_star_bounds(self, g):
        budget = Budget(n_max=40)
        cert = v_psi(g, PSTAR)
        # choice (w, z) = 0 bounds by the gauge; (0, 1) bounds at pstar by the value
        grid = [F(n, 4) for n in range(-4, 5)]
        for px in grid:
            for py in grid:
                p = (px, py)
                star = psi_star_eval(cert, g, p + (F(0),), budget)
                assert star <= psi(g, p)
                assert star <= phi_eval(cert, g, p, budget)
        assert psi_star_eval(cert, g, (PSTAR[0], PSTAR[1], F(0)), budget) <= cert.value

    def test_sequential_geometric_fillin_chain(self, g):
        # on a one-point-fixable instance all minimal liftings coincide, so
        # the sequential value, the lifted-gauge descent and the fill-in
        # construction must agree exactly wherever the first is defined
        budget = Budget(n_max=64)
        cert = v_psi(g, PSTAR)
        points = [
            (F(1, 4), F(3, 8)), (F(0), F(1, 2)), (F(3, 4), F(3, 4)),
            (F(-1, 4), F(1, 8)), (F(5, 8), F(9, 8)), (F(1, 2), F(1, 8)),
            (F(-3, 8), F(-1, 4)), (F(1, 8), F(7, 8)),
        ]
        for q in points:
            star = psi_star_eval(cert, g, q + (F(0),), budget)
            phi = phi_eval(cert, g, q, budget)
            seq = v_seq(g, PSTAR, q, cert.value, budget).value
            assert seq == star == phi

    def test_psi_star_monotone_under_monoid_moves(self, g):
        budget = Budget(n_max=64)
        cert = v_psi(g, PSTAR)
        cone = lifting_cone(g, PSTAR, cert.value)
        rng = random.Random(23)
        for _ in range(20):
            p = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4), F(rng.randint(0, 2)))
            star = psi_star_eval(cert, g, p, budget)
            for w in ((F(1), F(0), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(1))):
                moved = vadd(p, w)
                assert star <= max(dot(row, moved) for row in cone.rows)


def truncated_triangle():
    """x, y >= -1/2, x + y <= 1 over (-1/2, -1/2) + Z^2, truncated to x <= 1/2."""
    lat = Lattice(2, (F(-1, 2), F(-1, 2)), truncation=(((F(1), F(0)), F(1, 2)),))
    return Gauge(HPoly(2, ((F(-2), F(0)), (F(0), F(-2)), (F(1), F(1)))), lat)


class TestTruncationAndTails:
    """The gauge scans enumerate S itself: truncation rows and tail heights count."""

    def test_truncated_value_and_blocking(self):
        g = truncated_triangle()
        pstar = (F(7, 8), F(-1, 2))
        cert = v_psi(g, pstar)
        # (3/2, -1/2) would block at 3/8, but the truncation x <= 1/2 excludes it
        assert cert.value == F(1, 4) == box_lift_value(g, pstar, nmax=8, rad=3)
        assert cert.blocking
        assert all(contains(g.lattice, x) for x, _ in cert.blocking)
        geom = v_psi_geometric(g, pstar, cert.value)
        assert geom.free and geom.tight

    @pytest.mark.parametrize(
        "pstar, value",
        [
            ((F(1, 8), F(1, 8), F(1, 8)), F(1, 10)),
            ((F(1, 2), F(7, 8), F(1, 4)), F(1, 2)),
            ((F(0), F(1, 3), F(1, 2)), F(8, 15)),
            # psi < 0 on S - N*pstar here, and the best candidates sit at
            # heights past 1/value
            ((F(7, 8), F(-3, 4), F(5, 2)), F(11, 10)),
            ((F(-1, 8), F(-1, 4), F(23, 8)), F(13, 10)),
        ],
    )
    def test_pyramid_over_a_tail(self, tri, pstar, value):
        # the rows average to (0, 0, 1/5), so psi(r) >= r3/5 >= -N*pstar3/5 on
        # S - N*pstar, and a height-N candidate is worth at most 1/N + pstar3/5
        g = Gauge(pyramid(tri).body, tri.lattice.with_tail(1))
        assert _psi_floor(g, (0, 0, 1)) == F(-1, 5)
        cert = v_psi(g, pstar)
        assert cert.value == value
        assert box_lift_value(g, pstar, nmax=40, rad=5, slack=pstar[2] / 5) == value
        assert all(contains(g.lattice, x) for x, _ in cert.blocking)

    def test_truncated_cone_boundary_matches_box_scan(self):
        # the cone at 1/4 ends by height 4; the box scan goes on to 8
        g = truncated_triangle()
        pstar = (F(7, 8), F(-1, 2))
        want = box_cone_boundary(g, pstar, F(1, 4), kmax=8, rad=5)
        assert (F(1, 2), F(1, 2)) in [x for x, k in want if k == 1]
        assert v_psi_geometric(g, pstar, F(1, 4)).boundary == want

    @pytest.mark.parametrize(
        "pstar, value",
        [((F(1, 2), F(7, 8), F(1, 4)), F(1, 2)), ((F(7, 8), F(-3, 4), F(5, 2)), F(11, 10))],
    )
    def test_pyramid_cone_boundary_matches_box_scan(self, tri, pstar, value):
        # psi >= -k*pstar3/5 on S - k*pstar closes the cone below height 3;
        # the height-0 boundary reaches tail height 4, so the box has radius 5
        g = Gauge(pyramid(tri).body, tri.lattice.with_tail(1))
        want = box_cone_boundary(g, pstar, value, kmax=6, rad=5)
        assert any(k >= 1 for _, k in want)
        assert v_psi_geometric(g, pstar, value).boundary == want

    @pytest.mark.parametrize(
        "p1, p2, value",
        [
            ((F(-1, 2), F(-3, 4), F(1, 4)), (F(1, 2), F(3, 4), F(5, 8)), F(3, 5)),
            ((F(1), F(-1, 8), F(5, 4)), (F(7, 8), F(-1), F(1, 4)), F(3, 10)),
            ((F(0), F(-1, 8), F(13, 8)), (F(0), F(5, 8), F(15, 8)), F(9, 20)),
        ],
    )
    def test_sequential_over_a_tail_matches_box_scan(self, tri, p1, p2, value):
        # each pair has a blocking point at k1 = 1, so the twice-lifted cone
        # is scanned past its k1 = 0 slice
        g = Gauge(pyramid(tri).body, tri.lattice.with_tail(1))
        v1 = v_psi(g, p1).value
        sq = v_seq(g, p1, p2, v1)
        assert sq.value == value == box_seq_value(g, p1, p2, v1, k1max=3, k2max=12, rad=2)
        assert any(k1 >= 1 for _, k1, _ in sq.blocking)
        for x, k1, k2 in sq.blocking:
            c = vadd(vscale(k1, p1), vscale(k2, p2))
            assert contains(g.lattice, x) and (1 - k1 * v1 - psi(g, vsub(x, c))) / k2 == value

    def test_search_sizes(self, tri):
        # (value, n_cap, scanned): the height floor per tail coordinate moves
        # neither the cap nor the number of candidates scanned
        g = Gauge(pyramid(tri).body, tri.lattice.with_tail(1))
        cases = [
            (g, (F(1, 8), F(1, 8), F(1, 8)), (F(1, 10), 14, 18)),
            (g, (F(1, 2), F(7, 8), F(1, 4)), (F(1, 2), 3, 6)),
            (g, (F(0), F(1, 3), F(1, 2)), (F(8, 15), 3, 5)),
            (g, (F(7, 8), F(-3, 4), F(5, 2)), (F(11, 10), 2, 11)),
            (g, (F(-1, 8), F(-1, 4), F(23, 8)), (F(13, 10), 2, 10)),
            (truncated_triangle(), (F(7, 8), F(-1, 2)), (F(1, 4), 4, 2)),
        ]
        for gauge, pstar, sizes in cases:
            cert = v_psi(gauge, pstar)
            assert (cert.value, cert.search_budget["n_cap"], cert.search_budget["scanned"]) == sizes

    def test_pyramid_heights_that_never_close(self, tri):
        # the box oracle finds 1/5, exactly psi's floor rate times -pstar3, so
        # no height cap 1/N + 1/5 < best ever holds: exit 3, not a guess
        g = Gauge(pyramid(tri).body, tri.lattice.with_tail(1))
        pstar = (F(1, 2), F(7, 8), F(1))
        assert box_lift_value(g, pstar, nmax=8, rad=4) == F(1, 5)
        with pytest.raises(BudgetExceeded):
            v_psi(g, pstar)

    @pytest.mark.parametrize("v1", [F(1, 10), F(1, 5)])
    def test_sequential_cone_that_never_closes(self, tri, v1):
        # psi falls by 1/5 per unit of tail height, and p1's tail coordinate
        # is 1: at v1 = 1/10 the height floor is unbounded, at v1 = 1/5 it is
        # flat and the candidate scan finds the recession direction
        g = Gauge(pyramid(tri).body, tri.lattice.with_tail(1))
        with pytest.raises(UnboundedRegion):
            v_seq(g, (F(1, 2), F(7, 8), F(1)), (F(1, 2), F(3, 4), F(5, 8)), v1)

    def test_truncation_that_bounds_a_receding_body(self):
        # x, y >= -1/2 over (-1/2, -1/2) + Z^2 cut to x <= -1/2, y <= 1/2: S is
        # two points, but psi falls without bound along (1, 1), so no height
        # cap is sound and v_psi refuses instead of answering 5/4
        trunc = (((F(1), F(0)), F(-1, 2)), ((F(0), F(1)), F(1, 2)))
        g = Gauge(HPoly(2, ((F(-2), F(0)), (F(0), F(-2)))),
                  Lattice(2, (F(-1, 2), F(-1, 2)), truncation=trunc))
        assert check_sfree(g.body, g.lattice).free
        pstar = (F(-5, 8), F(1, 4))
        assert box_lift_value(g, pstar, nmax=40, rad=3) == F(5, 4)
        with pytest.raises(UnboundedRegion):
            v_psi(g, pstar)

    def test_body_receding_along_the_tail(self):
        # |x|, |y| <= 1 with the height free: even t >= 0 leaves it unbounded
        rows = ((F(1), F(0), F(0)), (F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(-1), F(0)))
        g = Gauge(HPoly(3, rows), Lattice(2, (F(1, 2), F(1, 2)), tail=1))
        with pytest.raises(UnboundedRegion):
            v_psi(g, (F(0), F(0), F(1, 2)))


def fraction_check_sfree(body, lat):
    """Reference `check_sfree`: each point's rows as `Fraction` dots, one by one."""
    hits = [[] for _ in body.rows]
    witness = None
    for x in points_in(lat, body, strict=False):
        vals = [dot(a, x) for a in body.rows]
        if all(v < 1 for v in vals):
            if witness is None:
                witness = x
        else:
            for i, v in enumerate(vals):
                if v == 1:
                    hits[i].append(x)
    return FreeCert(witness is None, witness, tuple(tuple(h) for h in hits))


def twice_lifted_cone(g, p1, p2, v1, v2):
    rows = tuple(a + (v1 - dot(a, p1), v2 - dot(a, p2)) for a in g.body.rows)
    return HPoly(g.body.dim + 2, rows), g.lattice.with_tail(g.lattice.tail + 2)


@pytest.fixture(scope="module")
def sfree_cases(tri, g):
    """(body, lattice) by name: periodic, truncated and tail lattices, free or not."""
    cross = HPoly(3, tuple(tuple(F(2, 3) * v for v in signs)
                           for signs in itertools.product((1, -1), repeat=3)))
    trunc = truncated_triangle()
    pyr = Gauge(pyramid(tri).body, tri.lattice.with_tail(1))
    p1, p2 = (F(-1, 2), F(-3, 4), F(1, 4)), (F(1, 2), F(3, 4), F(5, 8))
    v1 = v_psi(pyr, p1).value
    q = (F(1, 4), F(3, 8))
    vq = v_seq(g, PSTAR, q, F(1, 5)).value
    tail1 = g.lattice.with_tail(1)
    return {
        "triangle": (g.body, g.lattice),
        "doubled triangle": (HPoly(2, tuple(tuple(c / 2 for c in a) for a in g.body.rows)),
                             g.lattice),
        "cross-polytope": (cross, Lattice(3, (F(-1, 2),) * 3)),
        "truncated": (trunc.body, trunc.lattice),
        "truncated lifted cone": (lifting_cone(trunc, (F(7, 8), F(-1, 2)), F(1, 4)),
                                  trunc.lattice.with_tail(1)),
        "lifted cone": (lifting_cone(g, PSTAR, F(1, 5)), tail1),
        "lifted cone below the value": (lifting_cone(g, PSTAR, F(19, 100)), tail1),
        "pyramid's lifted cone": (lifting_cone(pyr, (F(1, 2), F(7, 8), F(1, 4)), F(1, 2)),
                                  pyr.lattice.with_tail(2)),
        "twice-lifted cone": twice_lifted_cone(g, PSTAR, q, F(1, 5), vq),
        "twice-lifted cone below the value": twice_lifted_cone(g, PSTAR, q, F(1, 5),
                                                               vq - F(1, 100)),
        "pyramid's twice-lifted cone": twice_lifted_cone(pyr, p1, p2, v1, F(3, 5)),
    }


class TestIntegerRowTests:
    """`check_sfree` tests rows in integers; the per-point Fraction loop agrees."""

    @pytest.mark.parametrize("name, free", [
        ("triangle", True),
        ("doubled triangle", False),
        ("cross-polytope", True),
        ("truncated", True),
        ("truncated lifted cone", True),
        ("lifted cone", True),
        ("lifted cone below the value", False),
        ("pyramid's lifted cone", True),
        ("twice-lifted cone", True),
        ("twice-lifted cone below the value", False),
        ("pyramid's twice-lifted cone", True),
    ])
    def test_matches_fraction_reference(self, sfree_cases, name, free):
        body, lat = sfree_cases[name]
        cert = check_sfree(body, lat)
        assert cert == fraction_check_sfree(body, lat)
        assert cert.free == free
        if free:
            assert any(cert.facet_hits)
        else:
            # the lexicographically first interior point
            assert cert.witness == points_in(lat, body, strict=True)[0]


class TestDescent:
    """phi is the descent at height 0; every height matches a brute-force infimum."""

    @pytest.mark.parametrize("h", [F(1, 2), F(1), F(3, 2)])
    def test_heights_match_brute_force(self, g, h):
        cert = v_psi(g, PSTAR)
        for p in ((F(0), F(0)), (F(1, 4), F(-1, 2)), (F(-9, 8), F(13, 8))):
            point = p + (h,)
            want = brute_psi_star(g, cert.value, PSTAR, point, nmax=16, rad=5)
            assert psi_star_eval(cert, g, point) == want

    def test_phi_is_the_descent_at_height_zero(self, g):
        cert = v_psi(g, PSTAR)
        p = (F(-9, 8), F(13, 8))
        assert phi_eval(cert, g, p) == psi_star_eval(cert, g, p + (F(0),)) == F(1, 2)
        assert brute_psi_star(g, cert.value, PSTAR, p + (F(0),), nmax=16, rad=5) == F(1, 2)
