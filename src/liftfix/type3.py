"""Type 3 triangles, mixing-set instances, lifting pyramids, and tilting.

A Type 3 triangle is a maximal lattice-free triangle each of whose sides
carries a lattice point in its relative interior.  The family is
parameterized by the fractional point b and slopes (g1, g2, g3); the
mixing-set subfamily has closed forms for everything, which makes it the
workhorse of the test suite.

Three constructions live here:

* the lifting pyramid whose apex determines the one-point-fixing direction,
  with a split-cover certificate for its lattice-freeness,
* the named-point table of the covering argument (the K region and its five
  sub-quadrilaterals), checked vertex by vertex with exact inequalities, and
* facet tilting: push each facet of the cone over the triangle outward until
  a lattice point at positive height blocks it, by exact candidate
  enumeration with a freeness-verification loop (no bisection, no floats).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ApexConditionFailed,
    CertificateMismatch,
    ClaimViolated,
    DomainViolation,
    PreconditionViolated,
    UnboundedRegion,
    WindowTooSmall,
)
from .exactgeo import (
    HPoly,
    Polygon2,
    area,
    clip_many,
    convex_hull,
    edges,
    segment_crossing,
    slice_polygon,
    union_area,
)
from .fixing import CoverCert, FixApprox, cover_certify, fix_approx, spindle
from .gauge import Budget, Gauge, LiftCert, check_sfree, lifting_cone, v_psi
from .lattice import Lattice, _columns, _integer_row
from .rational import Vec, dot, rat, vadd, vscale, vsub

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Type3Triangle:
    b: Vec
    gammas: tuple  # (g1, g2, g3)
    body: HPoly  # the three facet rows
    lattice: Lattice
    vertices: tuple  # (v1, v2, v3)
    deltas: tuple  # convex coefficients placing s_i on side i
    s: tuple  # (s1, s2, s3) boundary lattice points
    normalizers: tuple  # (d1, d2, d3), positive; row i is side i's normal over d_i
    mixing_delta: Fraction | None = None  # set for mixing instances

    def gauge(self) -> Gauge:
        return Gauge(self.body, self.lattice)


def _check(cond: bool, name: str):
    if not cond:
        raise DomainViolation(f"constraint violated: {name}")


def triangle_from_gammas(b, g1, g2, g3) -> Type3Triangle:
    """Validated Type 3 triangle from the fractional point and slopes."""
    b = tuple(rat(c) for c in b)
    g1, g2, g3 = rat(g1), rat(g2), rat(g3)
    _check(len(b) == 2, "b is two-dimensional")
    _check(-1 <= b[1] <= b[0] <= 0, "-1 <= b2 <= b1 <= 0")
    _check(not (b[0].denominator == 1 and b[1].denominator == 1), "b not integral")
    _check(g1 > 0, "g1 > 0")
    _check(g2 > 0, "g2 > 0")
    _check(g3 > 0, "g3 > 0")
    _check(g2 < 1, "g2 < 1")
    _check(g3 < 1, "g3 < 1")

    b1, b2 = b
    d1 = (b1 + 1) + g1 * (b2 + 1)
    d2 = -b1 + g2 * (b2 + 1)
    d3 = g3 * b1 - b2
    _check(d1 > 0, "side-1 normalizer positive")
    _check(d2 > 0, "side-2 normalizer positive")
    _check(d3 > 0, "side-3 normalizer positive")

    w1 = (1 / d1, g1 / d1)
    w2 = (-1 / d2, g2 / d2)
    w3 = (g3 / d3, -1 / d3)
    body = HPoly(2, (w1, w2, w3))

    v1 = (b1 + (1 + g1) / (1 + g1 * g3), b2 + (g3 + g1 * g3) / (1 + g1 * g3))
    v2 = (b1 + g2 / (g1 + g2), b2 + (1 + g1 + g2) / (g1 + g2))
    v3 = (b1 - g2 / (1 - g2 * g3), b2 - g2 * g3 / (1 - g2 * g3))

    den = 1 + g1 + g2 - g2 * g3
    deltas = (
        (1 + g1 * g3) / den,
        (g1 + g2) / den,
        (1 + g1 - g2 * g3 - g1 * g2 * g3) / den,
    )
    s = ((1 + b1, 1 + b2), (b1, 1 + b2), (b1, b2))

    # structural identities: s_i on side i, and the convex-coefficient split
    vs = (v1, v2, v3)
    for i in range(3):
        if dot(body.rows[i], s[i]) != 1:
            raise CertificateMismatch(f"s{i + 1} is not on side {i + 1}")
        if not (0 < deltas[i] < 1):
            raise CertificateMismatch(f"delta{i + 1} outside (0,1)")
        combo = vadd(vscale(deltas[i], vs[i]), vscale(1 - deltas[i], vs[(i + 1) % 3]))
        if combo != s[i]:
            raise CertificateMismatch(f"s{i + 1} != convex combination on side {i + 1}")

    lat = Lattice(2, b)
    return Type3Triangle(b, (g1, g2, g3), body, lat, vs, deltas, s, (d1, d2, d3))


def triangle_from_mixing(b) -> Type3Triangle:
    """Mixing-set Type 3 triangle; slopes follow from b by closed forms."""
    b = tuple(rat(c) for c in b)
    _check(len(b) == 2, "b is two-dimensional")
    b1, b2 = b
    _check(-1 < b2 < b1 < 0, "-1 < b2 < b1 < 0")
    _check(b1 - 2 * b2 > 1, "b1 - 2*b2 > 1")
    g1 = (b2 - b1) / b1
    g2 = (b1 - b2) / (1 + b1)
    g3 = b1 / (b1 - b2 - 1)
    tri = triangle_from_gammas(b, g1, g2, g3)

    delta_b = -b1 * b1 - b2 * b2 + b1 * b2 - b2
    _check(delta_b > 0, "delta_b > 0")
    closed = (
        (-b1 / delta_b, (b1 - b2) / delta_b),
        ((-b1 - 1) / delta_b, (b1 - b2) / delta_b),
        (-b1 / delta_b, (b1 - b2 - 1) / delta_b),
    )
    if tri.body.rows != closed:
        raise CertificateMismatch("slope route and closed-form rows disagree")
    return Type3Triangle(
        tri.b, tri.gammas, tri.body, tri.lattice, tri.vertices, tri.deltas, tri.s,
        tri.normalizers, mixing_delta=delta_b,
    )


# ---------------------------------------------------------------------------
# The lifting pyramid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pyramid:
    body: HPoly  # three rows in R^3
    apex: Vec
    condition_value: Fraction  # positive iff the apex sits at positive height
    facet_points: tuple  # ((point3, facet index), ...) the six boundary points


def _solve3(rows) -> Vec | None:
    """Exact solution of the 3x3 system row_i . x = 1, or None if singular."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        return None
    x = (e * i - f * h) - (b * i - c * h) + (b * f - c * e)
    y = -((d * i - f * g) - (a * i - c * g) + (a * f - c * d))
    z = (d * h - e * g) - (a * h - b * g) + (a * e - b * d)
    return (x / det, y / det, z / det)


def apex_condition_value(tri: Type3Triangle) -> Fraction:
    g1, g2, g3 = tri.gammas
    return g2 * (2 - g3 + 2 * g1 * g3) - g1 * g3


def pyramid(tri: Type3Triangle) -> Pyramid:
    """Cone over the triangle whose facets absorb height-1 and height-2 points.

    Rows are built from the printed coefficients, the apex is solved exactly
    and cross-checked against the closed form, and all six designated
    lattice points are verified to sit on their facets.
    """
    b1, b2 = tri.b
    g1, g2, g3 = tri.gammas
    w1, w2, w3 = tri.body.rows
    d1, _, d3 = tri.normalizers

    c1 = 1 - ((b1 + 1) + g1 * (b2 + 2)) / d1
    c3 = Fraction(1, 2) - (g3 * (1 + b1) - (2 + b2)) / (2 * d3)
    body = HPoly(3, (w1 + (c1,), w2 + (ZERO,), w3 + (c3,)))

    cond = apex_condition_value(tri)
    if cond <= 0:
        raise ApexConditionFailed(f"apex condition value {cond} <= 0")
    apex = _solve3(body.rows)
    if apex is None or apex[2] <= 0:
        raise ApexConditionFailed("facet planes do not meet at a positive-height apex")
    closed_apex = (
        b1 + g2 * (2 + 2 * g1 - g3) / cond,
        b2 + (g1 * (2 - g3 + 2 * g2 * g3) - (1 + g2) * (-2 + g3)) / cond,
        2 * (1 + g1 + g2 - g2 * g3) / cond,
    )
    if apex != closed_apex:
        raise CertificateMismatch("solved apex disagrees with the closed form")

    s1, s2, s3 = tri.s
    s4 = (1 + b1, 2 + b2)
    pts = (
        (s1 + (ZERO,), 0),
        (s2 + (ZERO,), 1),
        (s3 + (ZERO,), 2),
        (s4 + (ONE,), 0),
        (s2 + (ONE,), 1),
        (s4 + (Fraction(2),), 2),
    )
    for p, f in pts:
        if dot(body.rows[f], p) != 1:
            raise CertificateMismatch(f"designated point {p} is off facet {f + 1}")
        if any(dot(r, p) > 1 for r in body.rows):
            raise CertificateMismatch(f"designated point {p} is outside the pyramid")
    return Pyramid(body, apex, cond, pts)


# ---------------------------------------------------------------------------
# Split-cover certificate for mixing pyramids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitCoverCert:
    heights: tuple
    residuals: tuple  # per height: exact leftover area outside the three splits
    free: bool
    apex: Vec
    body: HPoly  # the pyramid whose slices were covered


def split_cover_certify(b) -> SplitCoverCert:
    """Cover each positive-height slice of the mixing pyramid by three splits.

    Residual area exactly 0 at height k certifies the slice's relative
    interior carries no lattice point (the splits are lattice-point-free in
    their interiors); height 0 is the triangle itself, which is maximal
    lattice-free.
    """
    tri = triangle_from_mixing(b)
    pyr = pyramid(tri)
    b1, b2 = tri.b
    heights = []
    residuals = []
    for k in range(1, math.floor(pyr.apex[2]) + 1):
        poly = slice_polygon(pyr.body.as_pairs(), k)
        splits = (
            (((ZERO, ONE), b2 + k + 1), ((ZERO, -ONE), -(b2 + k))),
            (((Fraction(2), -ONE), 2 * b1 - b2), ((Fraction(-2), ONE), 1 - 2 * b1 + b2)),
            (
                ((ONE, -ONE), b1 - b2 - Fraction(k, 2)),
                ((-ONE, ONE), Fraction(k, 2) + Fraction(1, 2) - b1 + b2),
            ),
        )
        residual = area(poly) - union_area([clip_many(poly, s) for s in splits])
        heights.append(k)
        residuals.append(residual)
    free = all(r == 0 for r in residuals)
    return SplitCoverCert(tuple(heights), tuple(residuals), free, pyr.apex, pyr.body)


# ---------------------------------------------------------------------------
# One-point fixability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OnePointFixResult:
    pstar: Vec
    value: Fraction
    cert: LiftCert
    approx: FixApprox
    cover: CoverCert


def one_point_fixable(tri: Type3Triangle, budget: Budget = Budget()) -> OnePointFixResult:
    """Certify the triangle is one point fixable via its pyramid apex.

    Requires the pyramid to be lattice-free (checked by enumeration); the
    apex direction gives pstar and the lifting value, the lifted cone is
    verified to coincide with the pyramid row by row, and the spindle pieces
    must tile the torus exactly.
    """
    pyr = pyramid(tri)
    free_cert = check_sfree(pyr.body, tri.lattice.with_tail(1))
    if not free_cert.free:
        raise PreconditionViolated(
            f"pyramid has interior lattice point {free_cert.witness}"
        )
    apex = pyr.apex
    pstar = (apex[0] / apex[2], apex[1] / apex[2])
    value = 1 / apex[2]
    g = tri.gauge()
    cone = lifting_cone(g, pstar, value)
    if cone.canonical_rows() != pyr.body.canonical_rows():
        raise CertificateMismatch("lifted cone and pyramid rows differ")
    cert = v_psi(g, pstar, budget)
    if cert.value != value:
        raise CertificateMismatch(
            f"candidate search found {cert.value}, apex implies {value}"
        )
    approx = fix_approx(g, cert)
    cover = cover_certify(approx)
    return OnePointFixResult(pstar, value, cert, approx, cover)


# ---------------------------------------------------------------------------
# Figure points and the K-region claim
# ---------------------------------------------------------------------------


def figure_points(tri: Type3Triangle) -> dict:
    """The named points of the covering construction, all exact."""
    v1, v2, v3 = tri.vertices
    d1, d2, d3 = tri.deltas
    s1, s2, s3 = tri.s
    c1 = vscale(d1, v1)
    c2 = vscale(d2, v2)
    c3 = vscale(d3, v3)
    e1 = vscale(1 - d1, v2)
    e2 = vscale(1 - d2, v3)
    e3 = vscale(1 - d3, v1)
    g = vsub(s1, e3)
    i = vadd(vsub(g, c3), e2)
    j = vadd(vsub(i, e1), c2)
    m = vscale(Fraction(1, 2), vadd(i, j))
    k = vadd(vsub(j, g), e1)
    l = vscale(Fraction(1, 2), vadd(e1, c2))
    pstar = vadd(vsub(k, m), i)
    u0 = vadd(vsub(g, i), m)
    return {
        "o": (ZERO, ZERO),
        "v1": v1, "v2": v2, "v3": v3,
        "s1": s1, "s2": s2, "s3": s3,
        "c1": c1, "c2": c2, "c3": c3,
        "e1": e1, "e2": e2, "e3": e3,
        "g": g, "i": i, "j": j, "m": m, "k": k, "l": l,
        "pstar": pstar, "u0": u0,
    }


def k_region(pts: dict) -> Polygon2:
    """The K region of the covering construction, from `figure_points`."""
    return convex_hull([pts[n] for n in ("c2", "k", "j", "i", "g", "e1")])


@dataclass(frozen=True)
class ClaimReport:
    cases: tuple  # per case: (name, vertex name, products tuple)
    passed: bool
    v0_assumption: str
    area_k: Fraction
    area_parts: tuple


def claim_check(tri: Type3Triangle, pstar: Vec) -> ClaimReport:
    """Vertex-by-vertex containment of the five K pieces in shifted spindles.

    The undefined corner v0 of the three inner pieces is taken to be pstar
    (the only reading that closes the decomposition; flagged in the report).
    Raises ClaimViolated naming the vertex and inequality on any positive
    inner product.  The pieces tile K when one exact sweep gives
    union_area(pieces) == sum of their areas == area(K): closed convex
    pieces have a union of area their sum exactly when no two overlap in
    area, so pieces that share an edge or a vertex still pass.
    """
    pts = figure_points(tri)
    b1, b2 = tri.b
    s4 = (1 + b1, 2 + b2)
    s5 = tri.s[1]
    s6 = s4
    p2 = vscale(Fraction(2), pstar)
    sp4 = spindle(tri.body.rows, vsub(s4, pstar), 0)
    sp5 = spindle(tri.body.rows, vsub(s5, pstar), 1)
    sp6 = spindle(tri.body.rows, vsub(s6, p2), 2)
    v0 = pstar
    one_one = (ONE, ONE)
    cases = (
        ("K1 in R(s4-p*)", ("l", "e1", "g", "u0"), sp4, (ZERO, ZERO)),
        ("K2 in R(s5-p*)+(1,1)", ("u0", "m", "i", "g"), sp5, one_one),
        ("K3 in R(s4-p*)+p*", ("m", "j", "k", "v0"), sp4, pstar),
        ("K4 in R(s5-p*)+p*", ("c2", "k", "v0", "l"), sp5, pstar),
        ("K5 in R(s6-2p*)+p*", ("l", "v0", "m", "u0"), sp6, pstar),
    )
    report = []
    named = dict(pts)
    named["v0"] = v0
    for case_name, vert_names, sp, shift in cases:
        for vn in vert_names:
            v = named[vn]
            point = vsub(v, shift)
            products = tuple(dot(a, point) - c for a, c in sp.rows)
            report.append((case_name, vn, products))
            for idx, val in enumerate(products):
                if val > 0:
                    raise ClaimViolated(
                        f"{case_name}: vertex {vn} violates inequality {idx} by {val}"
                    )

    parts = [convex_hull([named[vn] for vn in vert_names]) for _, vert_names, _, _ in cases]
    area_parts = tuple(area(poly) for poly in parts)
    area_k = area(k_region(pts))
    passed = union_area(parts) == sum(area_parts, ZERO) == area_k
    if not passed:
        raise ClaimViolated("K-region decomposition does not close up")
    return ClaimReport(
        tuple(report), passed, "v0 := pstar (undefined in the source table)",
        area_k, area_parts,
    )


# ---------------------------------------------------------------------------
# Facet tilting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TiltResult:
    alphas: tuple
    beta: Fraction
    body: HPoly
    apex: Vec
    facet_witnesses: tuple  # per facet: lexicographically first (x, y, k), k >= 1
    base_apex: Vec
    closed_form_alpha3: Fraction
    stage_bindings: tuple  # per facet: the candidate that stopped the tilt


def _tilt_coeff(tri: Type3Triangle, beta: Fraction, f: int, alpha: Fraction) -> Fraction:
    g1 = tri.gammas[0]
    d1, d2, d3 = tri.normalizers
    if f == 0:
        return -g1 / ((1 - alpha) * d1)
    if f == 1:
        return alpha / ((alpha - 1) * d2)
    return beta * (1 - alpha) / d3


def _tilt_alpha_from_coeff(tri: Type3Triangle, beta: Fraction, f: int, tau: Fraction):
    """Inverse of the facet height-coefficient map; None when out of range."""
    g1 = tri.gammas[0]
    d1, d2, d3 = tri.normalizers
    if f == 0:
        if tau >= 0:
            return None
        return 1 + g1 / (tau * d1)
    if f == 1:
        if tau > 0:
            return None
        return tau * d2 / (tau * d2 - 1)
    if tau <= 0:
        return None
    return 1 - tau * d3 / beta


def _tilt_rows(tri: Type3Triangle, beta: Fraction, alphas) -> HPoly:
    rows = []
    for f in range(3):
        rows.append(tri.body.rows[f] + (_tilt_coeff(tri, beta, f, alphas[f]),))
    return HPoly(3, tuple(rows))


def tilt_beta_bound(tri: Type3Triangle) -> Fraction:
    g1, g2, g3 = tri.gammas
    return (1 + 2 * g1 + g2 - g2 * g3 - g1 * g2 * g3) / (g1 + g2)


def _stage_binding(tri, beta, alphas, f, margin, k_window):
    """Smallest threshold at which a lattice point enters through facet f.

    One integer scan over (k, x, y), heights k = 1..k_window and x in S,
    finds the points whose threshold tau = (1 - w_f.x)/k is at most facet
    f's current coefficient and within `margin` below it, strictly inside
    the other two facets.  Returns (alpha, (x, y, k)) for the smallest alpha
    and its lexicographically first point, or None.
    """
    # One point per column suffices.  Each facet's threshold map is strictly
    # decreasing on its domain of tau, with alpha < 1 throughout:
    #   facet 1: alpha = 1 + g1/(d1*tau) on tau < 0, alpha' = -g1/(d1*tau^2);
    #   facet 2: alpha = u/(u - 1) with u = d2*tau <= 0, alpha' = -d2/(u - 1)^2;
    #   facet 3: alpha = 1 - d3*tau/beta on tau > 0, alpha' = -d3/beta.
    # The current coefficient lies in the domain, and for facets 1 and 2 so
    # does every tau <= it; facet 3's edge tau > 0 is a strict row once the
    # margin reaches it.  Every scanned point therefore has a threshold
    # alpha >= alphas[f], each column's admissible points are its whole
    # j-range, and the smallest alpha is the largest tau.  tau is linear in
    # j, so a column's largest tau is at the low end of its range when w_f's
    # second coordinate is >= 0 (on ties, the lexicographically first
    # point) and at the high end otherwise.  For w_f = W/m and b = s/T, num
    # below is the integer -tau*m*T*k, so candidates compare as num1*k2 to num2*k1.
    wf = tri.body.rows[f]
    coeffs = [_tilt_coeff(tri, beta, g, alphas[g]) for g in range(3)]
    c_cur = coeffs[f]
    positive = f == 2 and c_cur <= margin
    tau_min = ZERO if positive else c_cur - margin
    closed = [((-c_cur, -wf[0], -wf[1]), -1), ((-1, 0, 0), -1), ((1, 0, 0), k_window)]
    strict = [((coeffs[g],) + tri.body.rows[g], 1) for g in range(3) if g != f]
    (strict if positive else closed).append(((tau_min,) + wf, 1))
    (m, (W0, W1)), (T, (s0, s1)) = _integer_row(wf), _integer_row(tri.b)
    base = W0 * s0 + W1 * s1 - m * T
    best = None  # (num, k, (i, j, k))
    for (k, i), jlo, jhi in _columns((ZERO,) + tri.b, closed, strict):
        j = jhi if W1 < 0 else jlo
        num = base + T * (W0 * i + W1 * j)
        if best is None or (num * best[1], (i, j, k)) < (best[0] * k, best[2]):
            best = num, k, (i, j, k)
    if best is None:
        return None
    num, k, (i, j, _) = best
    tau = Fraction(-num, m * T * k)
    alpha = alphas[f] if tau == c_cur else _tilt_alpha_from_coeff(tri, beta, f, tau)
    return alpha, (tri.b[0] + i, tri.b[1] + j, Fraction(k))


def tilt(tri: Type3Triangle, beta, budget: Budget = Budget()) -> TiltResult:
    """Tilt facets 3, 2, then 1 to their exact freeness suprema.

    Each stage enumerates the lattice points whose facet row would turn
    tight, takes the smallest threshold, and then verifies freeness of the
    resulting cone; an interior witness found during verification has a
    strictly smaller threshold and is fed back, so the loop converges to the
    true supremum regardless of the initial window.
    """
    beta = rat(beta)
    bound = tilt_beta_bound(tri)
    if beta <= bound:
        raise DomainViolation(f"beta must exceed {bound}, got {beta}")

    base = _tilt_rows(tri, beta, (ZERO, ZERO, ZERO))
    base_apex = _solve3(base.rows)
    if base_apex is None or not (0 < base_apex[2] < 1):
        raise CertificateMismatch("base cone apex must sit at height in (0,1)")
    lat3 = tri.lattice.with_tail(1)
    base_free = check_sfree(base, lat3)
    if not base_free.free:
        raise CertificateMismatch("base cone is not lattice-free")

    alphas = [ZERO, ZERO, ZERO]
    bindings = [None, None, None]
    for f in (2, 1, 0):
        margin = Fraction(budget.window)
        k_window = budget.window
        tried = []
        for _ in range(5):
            tried.append((margin, k_window))
            found = _stage_binding(tri, beta, tuple(alphas), f, margin, k_window)
            if found is not None:
                break
            margin *= 2
            k_window *= 2
        if found is None:
            windows = ", ".join(f"({m}, {k})" for m, k in tried)
            raise WindowTooSmall(
                f"no tilt candidates for facet {f + 1}; (margin, k_window) tried: {windows}"
            )
        astar, binding = found
        while True:
            trial = list(alphas)
            trial[f] = astar
            body = _tilt_rows(tri, beta, tuple(trial))
            try:
                cert = check_sfree(body, lat3)
            except UnboundedRegion:
                raise WindowTooSmall(
                    f"cone degenerates before facet {f + 1} candidates close"
                )
            if cert.free:
                alphas[f] = astar
                bindings[f] = binding
                break
            x = cert.witness
            if x[2] == 0:
                # the base slice is the maximal lattice-free triangle itself
                raise CertificateMismatch("tilt witness at height 0 is impossible")
            tau = (1 - dot(tri.body.rows[f], x[:2])) / x[2]
            alpha_x = _tilt_alpha_from_coeff(tri, beta, f, tau)
            if alpha_x is None or not (alphas[f] <= alpha_x < astar):
                raise CertificateMismatch("tilt verification produced a bad witness")
            astar, binding = alpha_x, x

    body = _tilt_rows(tri, beta, tuple(alphas))
    apex = _solve3(body.rows)
    if apex is None or apex[2] <= 0:
        raise CertificateMismatch("tilted cone lost its apex")
    final = check_sfree(body, lat3)
    if not final.free:
        raise CertificateMismatch("tilted cone is not lattice-free")
    witnesses = []
    for f in range(3):
        hits = [
            p
            for p in final.facet_hits[f]
            if p[2] >= 1 and all(dot(body.rows[g], p) < 1 for g in range(3) if g != f)
        ]
        if not hits:
            raise CertificateMismatch(f"facet {f + 1} has no height >= 1 witness")
        witnesses.append(min(hits))
    g3 = tri.gammas[2]
    return TiltResult(
        tuple(alphas), beta, body, apex, tuple(witnesses), base_apex,
        1 - (1 - g3) / beta, tuple(bindings),
    )


# ---------------------------------------------------------------------------
# Fixed ball around the tilted apex direction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedBall:
    pstar: Vec
    radius: Fraction
    square: Polygon2
    pieces: tuple  # the three shifted spindles
    tilt: TiltResult


def _covered_by_union(square: Polygon2, pieces) -> bool:
    """The square lies in the closed union of convex pieces, by the exact sweep.

    A square with interior lies in a closed union exactly when adding it to
    the union adds no area.
    """
    return union_area([square, *pieces]) == union_area(pieces)


def fixed_ball(tri: Type3Triangle, beta, budget: Budget = Budget()) -> FixedBall:
    """Largest certified square around the apex direction of the tilted cone.

    The three facet witnesses give spindles whose pstar-shifts surround
    pstar; the radius is the exact largest half-side r such that the square
    of side 2r centered at pstar stays inside their union.  Candidate radii
    come from piece vertices, pairwise edge crossings and edge crossings
    with the two diagonal lines through pstar; the optimum is one of them.
    """
    t = tilt(tri, beta, budget)
    apex = t.apex
    pstar = (apex[0] / apex[2], apex[1] / apex[2])
    value = 1 / apex[2]
    g = tri.gauge()
    cert = v_psi(g, pstar, budget)
    if cert.value != value:
        raise CertificateMismatch("tilted apex and candidate search disagree on value")

    pieces = []
    for f in range(3):
        x, y, k = t.facet_witnesses[f]
        anchor = vsub((x, y), vscale(k, pstar))
        sp = spindle(tri.body.rows, anchor, f)
        pieces.append(sp.polygon.translate(pstar))
    pieces = tuple(pieces)

    cands = set()
    for piece in pieces:
        for v in piece.vertices:
            cands.add(max(abs(v[0] - pstar[0]), abs(v[1] - pstar[1])))
        for p, q in edges(piece.vertices):
            d = vsub(q, p)
            for sign in (1, -1):
                # diagonal y - py = sign * (x - px)
                den = d[1] - sign * d[0]
                if den == 0:
                    continue
                tpar = (sign * (p[0] - pstar[0]) - (p[1] - pstar[1])) / den
                if 0 <= tpar <= 1:
                    q2 = vadd(p, vscale(tpar, d))
                    cands.add(max(abs(q2[0] - pstar[0]), abs(q2[1] - pstar[1])))
    for pa, pb in itertools.combinations(pieces, 2):
        for (p, q), (r_, s_) in itertools.product(edges(pa.vertices), edges(pb.vertices)):
            hit = segment_crossing(p, q, r_, s_)
            if hit:
                q2 = vadd(p, vscale(Fraction(*hit), vsub(q, p)))
                cands.add(max(abs(q2[0] - pstar[0]), abs(q2[1] - pstar[1])))

    radii = sorted(r for r in cands if r > 0)

    def square_of(r: Fraction) -> Polygon2:
        return Polygon2(
            (
                (pstar[0] - r, pstar[1] - r),
                (pstar[0] + r, pstar[1] - r),
                (pstar[0] + r, pstar[1] + r),
                (pstar[0] - r, pstar[1] + r),
            )
        )

    covered = union_area(pieces)  # as `_covered_by_union`, swept once per ball
    lo, hi = 0, len(radii) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if union_area([square_of(radii[mid]), *pieces]) == covered:
            best = radii[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise CertificateMismatch("apex direction is not interior to the spindle union")

    # the certified square must be made of fixing-approximation pieces
    approx = fix_approx(g, cert)
    approx_canon = {p.polygon.canonical() for p in approx.pieces}
    for piece in pieces:
        if piece.canonical() not in approx_canon:
            raise CertificateMismatch("ball piece missing from the fixing approximation")
    return FixedBall(pstar, best, square_of(best), pieces, t)
