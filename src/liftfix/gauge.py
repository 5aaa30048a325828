"""Gauges of polyhedral 0-neighborhoods and exact lifting values.

The gauge of B = {r : a_i . r <= 1} is psi(r) = max_i a_i . r.  For a point
p the smallest coefficient any minimal lifting can assign to p is computed
two independent ways and cross-certified:

* candidate search over lattice points (the algebraic route), and
* freeness of the lifted cone with apex (p, 1)/lambda (the geometric route).

A LiftCert carries the value together with every boundary witness of the
certifying cone, so third parties can re-verify with nothing but rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CertificateMismatch,
    DimensionMismatch,
    NonpositiveLambda,
    NoPositiveValueWithinBudget,
    BudgetExceeded,
    UnboundedRegion,
)
from .exactgeo import HPoly, Polygon2, vertices2, UNBOUNDED
from .lattice import Lattice, _scan, points_in
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

    def value(self, r: Vec) -> GaugeValue:
        return psi_eval(self, r)

    def body_polygon(self) -> Polygon2:
        poly = vertices2(self.body)
        if poly is UNBOUNDED:
            raise UnboundedRegion("gauge body is unbounded")
        return poly


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
    """
    pts = points_in(lat, body, strict=False)
    hits = [[] for _ in body.rows]
    witness = None
    for x in pts:
        vals = [dot(a, x) for a in body.rows]
        if all(v < 1 for v in vals):
            if witness is None:
                witness = x
        else:
            for i, v in enumerate(vals):
                if v == 1:
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


def _sublevel_points(g: Gauge, center: Vec, level):
    """Points x of S with psi(x - center) <= level, in lexicographic order.

    psi(x - center) <= level is the set of rows a.x <= level + a.center,
    whose points the exact scanline enumerates directly.
    """
    rows = [(a, level + dot(a, center)) for a in g.body.rows]
    return tuple(_scan(g.lattice.shift, rows))


def _integer_sublevel(g: Gauge, offset: Vec, level):
    """Points y of offset + Z^n with psi(y) <= level, in lexicographic order."""
    return tuple(_scan(offset, [(a, level) for a in g.body.rows]))


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
        out = []
        for x, k in self.blocking:
            gv = psi_eval(g, vsub(x, vscale(k, self.pstar)))
            out.append((x, k, gv.argmax))
        return tuple(out)


@dataclass(frozen=True)
class ConeCheck:
    free: bool
    tight: bool
    interior_witness: tuple | None  # (x, height)
    boundary: tuple  # ((x, height), ...) all heights >= 0


def _cone_walk(g: Gauge, pstar: Vec, lam, top=1, base=None):
    """Yield (x, k, slack) over the integer height slices of a lifted cone.

    The height-k slice is (base + k*pstar) + c*B with c = top - k*lam, for
    k = 0, 1, ... while c >= 0; no base means the origin.  Its points x of S
    come in (k, x) order with slack c - psi(x - base - k*pstar): zero on the
    cone's boundary and positive inside it.
    """
    k = 0
    while True:
        c = top - k * lam
        if c < 0:
            return
        center = vscale(k, pstar) if base is None else vadd(base, vscale(k, pstar))
        for x in _sublevel_points(g, center, c):
            yield x, k, c - psi(g, vsub(x, center))
        k += 1


def v_psi_geometric(g: Gauge, pstar: Vec, lam) -> ConeCheck:
    """Freeness of the lifted cone against S x Z_+, by integer-height slices.

    The height-k slice of the cone is (k*pstar) + (1 - k*lam) * B, so the
    scan is bounded: heights stop once 1 - k*lam goes negative.  The
    boundary comes in (height, x) order.
    """
    lam = rat(lam)
    if lam <= 0:
        raise NonpositiveLambda(f"lambda must be positive, got {lam}")
    interior = None
    boundary = []
    for x, k, slack in _cone_walk(g, pstar, lam):
        if slack > 0 and interior is None:
            interior = (x, k)
        elif slack == 0:
            boundary.append((x, k))
    tight = any(h >= 1 for _, h in boundary)
    return ConeCheck(interior is None, interior is None and tight, interior, tuple(boundary))


def v_psi(g: Gauge, pstar: Vec, budget: Budget = Budget()) -> LiftCert:
    """Smallest minimal-lifting coefficient at pstar, with certification.

    Candidate-first: scan lattice points x with x - N*pstar in the shrinking
    sublevel window, value (1 - psi(x - N*pstar)) / N.  Once a positive best
    exists, heights are capped at ceil(1/best), which makes the scan
    provably complete.  The result is then re-certified geometrically; a
    disagreement raises CertificateMismatch (a bug, never data).
    """
    best = None
    best_pair = None
    N = 1
    scanned = 0
    while True:
        if best is not None and best > 0:
            if N > math.ceil(1 / best):
                break
        elif N > budget.n_max:
            raise NoPositiveValueWithinBudget(
                f"no positive candidate for N <= {budget.n_max}",
                best=best,
                witness=best_pair,
            )
        level = 1 - N * best if (best is not None and best > 0) else Fraction(1)
        if level >= 0:
            center = vscale(N, pstar)
            for x in _sublevel_points(g, center, level):
                scanned += 1
                val = (1 - psi(g, vsub(x, center))) / N
                if best is None or val > best:
                    best, best_pair = val, (x, N)
        N += 1
    if best is None or best <= 0:
        raise NoPositiveValueWithinBudget(
            "search exhausted without a positive candidate", best=best, witness=best_pair
        )

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
                       "n_cap": math.ceil(1 / best), "scanned": scanned},
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
    The k2 = 1..cap, k1 = 0..cap windows close exactly once the running best
    is positive.  The value is verified free-and-tight on the 4-D cone.
    """
    v1 = rat(v1)
    # positive seed: k1 = 0 candidates are exactly the lifting candidates of p2
    seed = v_psi(g, p2, budget)
    best = seed.value
    improved = True
    while improved:
        improved = False
        k2 = 1
        while k2 <= math.ceil(1 / best):
            k1 = 0
            while k1 * v1 <= 1 - k2 * best or k1 == 0:
                level = 1 - k1 * v1 - k2 * best
                if level >= 0:
                    center = vadd(vscale(k1, p1), vscale(k2, p2))
                    for x in _sublevel_points(g, center, level):
                        val = (1 - k1 * v1 - psi(g, vsub(x, center))) / k2
                        if val > best:
                            best = val
                            improved = True
                if k1 * v1 > 1:
                    break
                k1 += 1
            k2 += 1

    # geometric verification on the twice-lifted cone, one p2-walk per k1
    interior = None
    boundary = []
    for k1 in range(math.floor(1 / v1) + 1):
        for x, k2, slack in _cone_walk(g, p2, best, 1 - k1 * v1, vscale(k1, p1)):
            if slack > 0 and interior is None:
                interior = (x, k1, k2)
            elif slack == 0 and k2 >= 1:
                boundary.append((x, k1, k2))
    if interior is not None or not boundary:
        raise CertificateMismatch(
            f"sequential value {best} failed geometric verification"
        )
    return SeqLiftCert(tuple(p1), tuple(p2), v1, best, tuple(sorted(boundary)))


# ---------------------------------------------------------------------------
# The two computable liftings
# ---------------------------------------------------------------------------


def phi_eval(cert: LiftCert, g: Gauge, p: Vec, budget: Budget = Budget()) -> Fraction:
    """Fill-in lifting value: inf of psi(w) + N*value over w + N*pstar in p + Z^2.

    N ranges over the nonnegative integers; the N = 0 term caps the value at
    inf_z psi(p + z), so the lifting never exceeds the gauge itself.  The
    window at each N is the exact sublevel polygon, so the infimum is
    attained and returned exactly.
    """
    V = cert.value
    pstar = cert.pstar
    best = psi(g, p)
    for y in _integer_sublevel(g, p, best):
        best = min(best, psi(g, y))
    N = 1
    while N * V < best:
        if N > budget.n_max:
            raise BudgetExceeded(f"fill-in search passed N = {budget.n_max}")
        offset = vsub(p, vscale(N, pstar))
        for y in _integer_sublevel(g, offset, best - N * V):
            best = min(best, psi(g, y) + N * V)
        N += 1
    return best


def psi_star_eval(cert: LiftCert, g: Gauge, point: Vec, budget: Budget = Budget()) -> Fraction:
    """Lifted-gauge descent: inf of psi_hat(point + (w, z)) over Z^2 x Z_+.

    psi_hat is the gauge of the certifying cone; by its translation identity
    psi_hat((y, h)) = psi(y - h*pstar) + h*value, so each height slice of
    the sublevel set is an explicit polygon and the scan is finite.
    """
    V = cert.value
    pstar = cert.pstar
    if len(point) != g.body.dim + 1:
        raise DimensionMismatch("expected a point one dimension above the body")
    h = rat(point[-1])
    if h < 0:
        raise DimensionMismatch("point height must be nonnegative")
    p2 = tuple(point[:-1])
    c0 = psi(g, vsub(p2, vscale(h, pstar))) + h * V
    best = c0
    z = 0
    while True:
        hz = h + z
        cz = c0 - hz * V
        if cz < 0:
            break
        if z > budget.n_max:
            raise BudgetExceeded(f"descent search passed {budget.n_max} height steps")
        offset = vsub(p2, vscale(hz, pstar))
        for y in _integer_sublevel(g, offset, cz):
            best = min(best, psi(g, y) + hz * V)
        z += 1
    return best
