"""Gauges of polyhedral 0-neighborhoods and exact lifting values.

The gauge of B = {r : a_i . r <= 1} is psi(r) = max_i a_i . r.  For a point
p the smallest coefficient any minimal lifting can assign to p is computed
two independent ways and cross-certified:

* candidate search over lattice points (the algebraic route), and
* freeness of the lifted cone with apex (p, 1)/lambda (the geometric route).

Both scan S, truncation and tails included, through `lattice`.  The
candidate searches (`v_psi`, `v_seq`) walk heights 1, 2, ... and stop where
psi's lower bound on S (`_psi_floor`, 0 on a bounded body) passes the
shrinking window.  The geometric route walks no heights: a lifted cone is
one more polyhedron and S x Z_+ is S with one more tail coordinate, so one
`check_sfree` scans all of it, with the heights bounded by the cone's own
rows; a cone that never closes raises UnboundedRegion.
A LiftCert carries the value together with every boundary witness of the
certifying cone, so third parties can re-verify with nothing but rational
arithmetic.  The two liftings phi and psi* share one descent over
Z^n-periodic cosets, which needs S = b + Z^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    CertificateMismatch,
    DimensionMismatch,
    NonpositiveLambda,
    NoPositiveValueWithinBudget,
    BudgetExceeded,
    PreconditionViolated,
    UnboundedRegion,
)
from .exactgeo import HPoly, Polygon2, fm_upper_bound, vertices_from_rows
from .lattice import Lattice, _integer_row, _points, _scan, points_in
from .rational import Vec, dot, rat, vadd, vscale, vsub


@dataclass(frozen=True)
class Budget:
    """Enumeration caps: n_max bounds height loops, window bounds box scans."""

    n_max: int = 16
    window: int = 12


@dataclass(frozen=True)
class GaugeValue:
    value: Fraction
    argmax: tuple  # row indices attaining the max


@dataclass(frozen=True)
class Gauge:
    """A body B together with the lattice S it is free for."""

    body: HPoly
    lattice: Lattice

    def __post_init__(self):
        if self.body.dim != self.lattice.full_dim:
            raise DimensionMismatch("body and lattice dimensions differ")

    @cached_property
    def psi_floor_rate(self) -> Fraction:
        """min psi(r) over the r whose tail coordinates are all >= -1.

        Negative when only S's tail rows bound the body; UnboundedRegion when
        psi < 0 is left unbounded.  Zero on S = b + Z^n, where a scan of a
        region with psi < 0 raises UnboundedRegion itself.
        """
        n = self.body.dim
        # -min psi is the sup of u over a_i.r + u <= 0 and -r_t <= 1
        rows = [(a + (1,), 0) for a in self.body.rows]
        rows += [(tuple(-int(j == t) for j in range(n + 1)), 1) for t in range(self.lattice.dim, n)]
        sup = 0 if self.lattice.periodic else fm_upper_bound(rows, n + 1, n)
        if sup is None:
            raise UnboundedRegion("psi has no lower bound per unit height: heights never close")
        return -sup

    def body_polygon(self) -> Polygon2:
        return vertices_from_rows(self.body.as_pairs())


def psi_eval(g: Gauge, r: Vec) -> GaugeValue:
    """Exact max of row products together with the attaining index set."""
    if len(r) != g.body.dim:
        raise DimensionMismatch("point dimension does not match the body")
    vals = [dot(a, r) for a in g.body.rows]
    m = max(vals)
    return GaugeValue(m, tuple(i for i, v in enumerate(vals) if v == m))


def psi(g: Gauge, r: Vec) -> Fraction:
    return max(dot(a, r) for a in g.body.rows)


@dataclass(frozen=True)
class FreeCert:
    """Freeness verdict with per-facet boundary hits or an interior witness."""

    free: bool
    witness: Vec | None
    facet_hits: tuple  # per row: tuple of lattice points tight on that row


def check_sfree(body: HPoly, lat: Lattice) -> FreeCert:
    """Certify S `cap` int(body) = empty by exact lattice enumeration.

    Boundary points are binned per facet; an interior point (all rows
    strict) makes the certificate negative with a lexicographic witness.
    Rows are tested in integers: T*x is integral on S = s/T + Z^n, and a.x
    against 1 is A.(T*x) against m*T for the integer row A = m*a.
    """
    pts = points_in(lat, body, strict=False)
    T, _ = _integer_row(lat.shift)
    rows = [(A, m * T) for m, A in map(_integer_row, body.rows)]
    hits = [[] for _ in body.rows]
    witness = None
    for x in pts:
        z = [c.numerator * (T // c.denominator) for c in x]
        vals = [sum([u * v for u, v in zip(A, z)]) - mT for A, mT in rows]
        if all(v < 0 for v in vals):
            if witness is None:
                witness = x
        else:
            for i, v in enumerate(vals):
                if v == 0:
                    hits[i].append(x)
    return FreeCert(witness is None, witness, tuple(tuple(h) for h in hits))


def lifting_cone(g: Gauge, pstar: Vec, lam) -> HPoly:
    """Translated cone with apex (pstar, 1)/lam and base body x {0}."""
    lam = rat(lam)
    if lam <= 0:
        raise NonpositiveLambda(f"lambda must be positive, got {lam}")
    rows = tuple(a + (lam - dot(a, pstar),) for a in g.body.rows)
    return HPoly(g.body.dim + 1, rows)


# ---------------------------------------------------------------------------
# Lattice-point windows from gauge sublevel sets
# ---------------------------------------------------------------------------


def _psi_floor(g: Gauge, c: Vec):
    """A lower bound of psi(x - c) over S, superadditive in c.

    The tail coordinates of x - c are at least -max(0, c_t) on S.
    """
    return g.psi_floor_rate * max((0, *c[g.lattice.dim :]))


def _sublevel_points(g: Gauge, center: Vec, level):
    """Points x of S with psi(x - center) <= level, in lexicographic order.

    psi(x - center) <= level is the set of rows a.x <= level + a.center;
    `lattice._points` adds the truncation and tail rows of S.
    """
    return _points(g.lattice, [(a, level + dot(a, center)) for a in g.body.rows])


# ---------------------------------------------------------------------------
# Lifting value: candidate search + geometric certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftCert:
    """Lifting value at pstar plus the boundary witnesses that certify it."""

    pstar: Vec
    value: Fraction
    blocking: tuple  # ((x, height), ...) heights >= 1
    search_budget: dict = field(compare=False, default_factory=dict)

    def blocking_with_facets(self, g: Gauge) -> tuple:
        return tuple((x, k, psi_eval(g, vsub(x, vscale(k, self.pstar))).argmax)
                     for x, k in self.blocking)


@dataclass(frozen=True)
class ConeCheck:
    free: bool
    tight: bool
    boundary: tuple  # ((x, height), ...) all heights >= 0


def v_psi_geometric(g: Gauge, pstar: Vec, lam) -> ConeCheck:
    """Freeness of the lifted cone against S x Z_+, by one `check_sfree`.

    The cone is one more polyhedron and S x Z_+ is S with one more tail
    coordinate, so one scan certifies every height at once.  The boundary
    is the union of the facet hits, in (height, x) order.
    """
    cert = check_sfree(lifting_cone(g, pstar, lam), g.lattice.with_tail(g.lattice.tail + 1))
    boundary = sorted({(y[:-1], int(y[-1])) for hits in cert.facet_hits for y in hits},
                      key=lambda pair: (pair[1], pair[0]))
    tight = any(k >= 1 for _, k in boundary)
    return ConeCheck(cert.free, cert.free and tight, tuple(boundary))


def v_psi(g: Gauge, pstar: Vec, budget: Budget = Budget()) -> LiftCert:
    """Smallest minimal-lifting coefficient at pstar, with certification.

    Candidate-first: scan lattice points x with x - N*pstar in the shrinking
    sublevel window, value (1 - psi(x - N*pstar)) / N <= 1/N - floor, with
    floor = _psi_floor(g, pstar) <= 0.  Once best + floor is positive,
    heights are capped at ceil(1/(best + floor)), which makes the scan
    provably complete.  The result is then re-certified geometrically; a
    disagreement raises CertificateMismatch (a bug, never data).
    """
    floor = _psi_floor(g, pstar)
    best = best_pair = cap = None
    N = 1
    scanned = 0
    while cap is None or N <= cap:
        if cap is None and N > budget.n_max:
            if best is not None and best > 0:
                raise BudgetExceeded(
                    f"heights not closed by N = {budget.n_max}: best {best} <= {-floor}"
                )
            raise NoPositiveValueWithinBudget(
                f"no positive candidate for N <= {budget.n_max}",
                best=best,
                witness=best_pair,
            )
        level = 1 - N * best if (best is not None and best > 0) else Fraction(1)
        if level >= N * floor:
            center = vscale(N, pstar)
            for x in _sublevel_points(g, center, level):
                scanned += 1
                val = (1 - psi(g, vsub(x, center))) / N
                if best is None or val > best:
                    best, best_pair = val, (x, N)
                    if best + floor > 0:
                        cap = math.ceil(1 / (best + floor))
        N += 1

    geom = v_psi_geometric(g, pstar, best)
    if not (geom.free and geom.tight):
        raise CertificateMismatch(
            f"algebraic value {best} failed geometric verification"
        )
    blocking = tuple((x, k) for x, k in geom.boundary if k >= 1)
    return LiftCert(
        pstar=tuple(pstar),
        value=best,
        blocking=blocking,
        search_budget={"n_max": budget.n_max, "window": budget.window,
                       "n_cap": cap, "scanned": scanned},
    )


# ---------------------------------------------------------------------------
# Sequential lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqLiftCert:
    p1: Vec
    p2: Vec
    v1: Fraction
    value: Fraction
    blocking: tuple  # ((x, k1, k2), ...) with k2 >= 1


def v_seq(g: Gauge, p1: Vec, p2: Vec, v1, budget: Budget = Budget()) -> SeqLiftCert:
    """Smallest coefficient at p2 among minimal liftings optimal at p1.

    Searches the double-height candidate set: a boundary point (x, k1, k2)
    of the twice-lifted cone gives (1 - k1*v1 - psi(x - k1 p1 - k2 p2)) / k2.
    The k2 = 1..cap, k1 = 1..cap windows close exactly once the running best
    is positive, with psi's floors along p1 and p2 as in v_psi.  The value
    is verified free-and-tight on the twice-lifted cone.
    """
    v1 = rat(v1)
    if v1 <= 0:
        raise NonpositiveLambda(f"lambda must be positive, got {v1}")
    # psi(x - k1*p1) >= k1*floor on S, so the k1 slices close once k1*rate1 > 1
    rate1, floor2 = v1 + _psi_floor(g, p1), _psi_floor(g, p2)
    if rate1 <= 0:
        raise UnboundedRegion(f"lifted cone along {p1} never closes at lambda {v1}")
    # positive seed: k1 = 0 candidates are exactly the lifting candidates of
    # p2, so the seed is their exact maximum and the scan starts at k1 = 1.
    # A better candidate only shrinks the windows still to come, so one pass
    # with the running best sees every candidate above the final value.
    best = v_psi(g, p2, budget).value
    k2 = 1
    while k2 <= math.ceil(1 / (best + floor2)):
        k1 = 1
        # while level reaches psi's floor on the slice, k1*floor(p1) + k2*floor(p2)
        while k1 * rate1 <= 1 - k2 * (best + floor2):
            level = 1 - k1 * v1 - k2 * best
            center = vadd(vscale(k1, p1), vscale(k2, p2))
            for x in _sublevel_points(g, center, level):
                best = max(best, (1 - k1 * v1 - psi(g, vsub(x, center))) / k2)
            k1 += 1
        k2 += 1

    # the twice-lifted cone is one more polyhedron, free of S x Z_+^2
    rows = tuple(a + (v1 - dot(a, p1), best - dot(a, p2)) for a in g.body.rows)
    cert = check_sfree(HPoly(g.body.dim + 2, rows), g.lattice.with_tail(g.lattice.tail + 2))
    boundary = {(y[:-2], int(y[-2]), int(y[-1]))
                for hits in cert.facet_hits for y in hits if y[-1] >= 1}
    if not (cert.free and boundary):
        raise CertificateMismatch(
            f"sequential value {best} failed geometric verification"
        )
    return SeqLiftCert(tuple(p1), tuple(p2), v1, best, tuple(sorted(boundary)))


# ---------------------------------------------------------------------------
# The two computable liftings
# ---------------------------------------------------------------------------


def phi_eval(cert: LiftCert, g: Gauge, p: Vec, budget: Budget = Budget()) -> Fraction:
    """Fill-in lifting value: inf of psi(p + z - N*pstar) + N*value.

    The infimum runs over z in Z^n and integers N >= 0, which is exactly the
    lifted-gauge descent at height 0: phi(p) = psi_star_eval((p, 0)).  The
    N = 0 term caps it at inf_z psi(p + z), so the lifting never exceeds
    the gauge itself.
    """
    return psi_star_eval(cert, g, tuple(p) + (Fraction(0),), budget)


def psi_star_eval(cert: LiftCert, g: Gauge, point: Vec, budget: Budget = Budget()) -> Fraction:
    """Lifted-gauge descent: inf of psi_hat(point + (z, k)) over Z^n x Z_+.

    psi_hat is the gauge of the certifying cone; by its translation identity
    psi_hat((y, h)) = psi(y - h*pstar) + h*value, so the height-(h + k)
    candidates are the points y of the coset (p - (h + k)*pstar) + Z^n (not
    S, and maybe Z^n itself) with psi(y) <= best - (h + k)*value.  Heights
    stop once (h + k)*value reaches the running best.  The descent is
    Z^n-periodic: a truncation or a tail raises PreconditionViolated.
    """
    if not g.lattice.periodic:
        raise PreconditionViolated("the descent needs S = b + Z^n, with no truncation or tail")
    if len(point) != g.body.dim + 1:
        raise DimensionMismatch("expected a point one dimension above the body")
    h = rat(point[-1])
    if h < 0:
        raise DimensionMismatch("point height must be nonnegative")
    V = cert.value
    p = tuple(point[:-1])
    best = psi(g, vsub(p, vscale(h, cert.pstar))) + h * V
    k, hk = 0, h
    while hk * V < best:
        if k > budget.n_max:
            raise BudgetExceeded(f"descent search passed {budget.n_max} height steps")
        level = best - hk * V
        for y in _scan(vsub(p, vscale(hk, cert.pstar)), [(a, level) for a in g.body.rows]):
            best = min(best, psi(g, y) + hk * V)
        k, hk = k + 1, hk + 1
    return best
