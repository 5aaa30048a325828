"""Seeded inputs for the three benchmark workloads.

Everything here is plain `fractions.Fraction` arithmetic and never imports
liftfix: the instances a seed produces do not depend on the code under test,
and the program only ever sees the instance JSON written from them.  The
closed forms below (mixing slopes, facet rows, pyramid apex) restate the
source paper's formulas so that the harness can check certificates against
values it derived on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

DEFAULT_SEED = 1
HELDOUT_SEED = 2  # never used while tuning; a perf claim must also hold here

# Mixing bodies: every valid b whose two coordinates share a denominator of
# at most 14 (147 of them).  The set is the same for every seed so that the
# cost mix of a pass does not move with the seed; the seed only orders it.
# It is also most of a pass's work, which keeps the cost of the seeded gamma
# draws (20 to 370 ms each) a small share of certs_per_s.
MIXING_MAX_DENOMINATOR = 14
# Type 3 gamma draws per pass, split by whether the pyramid apex sits at a
# positive height.  Fixed counts keep the share of fast exit-2 answers
# (ApexConditionFailed) the same for every seed.
GAMMA_APEX_OK = 12
GAMMA_APEX_FAILED = 3
# Explicit-rows copies of the first apex-valid gamma draws.
ROWS_COPIES = 3

B1 = (F(-1, 4), F(-3, 4))  # the ROADMAP baseline instance
B2 = (F(-1, 8), F(-5, 8))  # the second tilt instance of the test suite
TILT_BETA = F(4)
# Expected tilt angles at beta = 4 (tests/test_type3.py).
TILT_ALPHAS_AT_4 = {B1: (F(0), F(0), F(13, 16)), B2: (F(0), F(0), F(25, 32))}


def q(x: F) -> str:
    """Rational as the "p/q" string liftfix reads and writes."""
    return str(x)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Closed forms for Type 3 triangles (independent of liftfix)
# ---------------------------------------------------------------------------


def mixing_gammas(b):
    b1, b2 = b
    return ((b2 - b1) / b1, (b1 - b2) / (1 + b1), b1 / (b1 - b2 - 1))


def _normalizers(b, g):
    (b1, b2), (g1, g2, g3) = b, g
    return ((b1 + 1) + g1 * (b2 + 1), -b1 + g2 * (b2 + 1), g3 * b1 - b2)


def triangle_valid(b, g) -> bool:
    """The domain constraints of a Type 3 triangle built from slopes."""
    (b1, b2), (g1, g2, g3) = b, g
    if not (-1 <= b2 <= b1 <= 0) or (b1.denominator == 1 and b2.denominator == 1):
        return False
    if not (g1 > 0 and 0 < g2 < 1 and 0 < g3 < 1):
        return False
    return all(d > 0 for d in _normalizers(b, g))


def mixing_valid(b) -> bool:
    b1, b2 = b
    if not (-1 < b2 < b1 < 0 and b1 - 2 * b2 > 1):
        return False
    if -b1 * b1 - b2 * b2 + b1 * b2 - b2 <= 0:
        return False
    return triangle_valid(b, mixing_gammas(b))


def facet_rows(b, g):
    d1, d2, d3 = _normalizers(b, g)
    g1, g2, g3 = g
    return ((1 / d1, g1 / d1), (-1 / d2, g2 / d2), (g3 / d3, -1 / d3))


def apex_condition(g) -> F:
    g1, g2, g3 = g
    return g2 * (2 - g3 + 2 * g1 * g3) - g1 * g3


def pyramid_apex(b, g):
    """Apex of the lifting pyramid, or None when it is not at positive height."""
    (b1, b2), (g1, g2, g3) = b, g
    cond = apex_condition(g)
    if cond <= 0:
        return None
    return (
        b1 + g2 * (2 + 2 * g1 - g3) / cond,
        b2 + (g1 * (2 - g3 + 2 * g2 * g3) - (1 + g2) * (-2 + g3)) / cond,
        2 * (1 + g1 + g2 - g2 * g3) / cond,
    )


def mixing_pool():
    """All valid mixing b with a common denominator <= MIXING_MAX_DENOMINATOR."""
    pool = set()
    for d in range(2, MIXING_MAX_DENOMINATOR + 1):
        for p in range(-d + 1, 0):
            for t in range(-d + 1, 0):
                b = (F(p, d), F(t, d))
                if mixing_valid(b):
                    pool.add(b)
    return sorted(pool)


def draw_gamma(rng: random.Random):
    """Same distribution as tests/conftest.py::random_valid_triangle."""
    while True:
        b2 = F(-rng.randint(1, 11), 12)
        b1 = F(-rng.randint(1, 11), 12)
        if b2 > b1:
            b1, b2 = b2, b1
        if b1 == b2 or b1 == 0 or b2 == -1:
            continue
        g = (F(rng.randint(2, 24), 8), F(rng.randint(1, 7), 8), F(rng.randint(1, 7), 8))
        if triangle_valid((b1, b2), g):
            return (b1, b2), g


# ---------------------------------------------------------------------------
# Instances and operations
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    name: str
    kind: str  # "type3-mixing", "type3-gamma" or "rows"
    obj: dict  # the instance JSON the program reads
    b: tuple
    gammas: tuple
    apex: tuple | None  # closed-form pyramid apex; None when the apex condition fails
    source: str | None = None  # rows copies: name of the gamma instance copied

    @property
    def text(self) -> str:
        return canonical_json(self.obj)

    @property
    def pstar(self):
        return None if self.apex is None else (self.apex[0] / self.apex[2], self.apex[1] / self.apex[2])

    @property
    def heights(self) -> list:
        """Positive integer heights of the lifting pyramid: 1..floor(apex_z)."""
        return [] if self.apex is None else list(range(1, math.floor(self.apex[2]) + 1))

    @property
    def mixing_value(self):
        """A mixing pyramid is lattice-free, so the lifting value at its apex
        direction is 1/apex_z (the one-point-fixability theorem)."""
        return q(1 / self.apex[2]) if self.kind == "type3-mixing" else None


@dataclass
class Op:
    """One call into liftfix: a CLI command line or one fixed_ball call."""

    instance: Instance
    args: list  # CLI arguments without --instance, or ["fixed_ball", beta]
    expect_exit: int = 0
    expect_error: str | None = None

    @property
    def key(self) -> str:
        """Content key: the same command on the same instance JSON, whatever the seed."""
        text = canonical_json([self.args, self.instance.obj])
        return hashlib.sha256(text.encode()).hexdigest()[:24]


@dataclass
class Cert:
    """One instance's full pipeline in a workload: the unit that is timed."""

    instance: Instance
    ops: list = field(default_factory=list)


def _mixing_instance(b) -> Instance:
    obj = {"body": {"type": "type3-mixing", "b": [q(b[0]), q(b[1])]}}
    g = mixing_gammas(b)
    return Instance(f"mixing({q(b[0])},{q(b[1])})", "type3-mixing", obj, b, g, pyramid_apex(b, g))


def _gamma_instance(b, g) -> Instance:
    obj = {"body": {"type": "type3-gamma", "b": [q(b[0]), q(b[1])], "gammas": [q(x) for x in g]}}
    name = f"gamma({q(b[0])},{q(b[1])};{','.join(q(x) for x in g)})"
    return Instance(name, "type3-gamma", obj, b, g, pyramid_apex(b, g))


def _rows_instance(src: Instance) -> Instance:
    """The same gauge as a gamma triangle, given as explicit rows with pstar."""
    b, g = src.b, src.gammas
    obj = {
        "body": {"type": "rows", "rows": [[q(x) for x in row] for row in facet_rows(b, g)]},
        "lattice": {"dim": 2, "shift": [q(b[0]), q(b[1])], "tail": 0, "truncation": None},
        "pstar": [q(x) for x in src.pstar],
    }
    return Instance("rows" + src.name[len("gamma"):], "rows", obj, b, g, src.apex, source=src.name)


def instances(seed: int) -> list:
    """The certify/check instance set for a seed, in seeded order."""
    rng = random.Random(seed)
    out = [_mixing_instance(b) for b in mixing_pool()]
    ok, failed = [], []
    seen = set()
    while len(ok) < GAMMA_APEX_OK or len(failed) < GAMMA_APEX_FAILED:
        b, g = draw_gamma(rng)
        if (b, g) in seen:
            continue
        seen.add((b, g))
        bucket, cap = (ok, GAMMA_APEX_OK) if pyramid_apex(b, g) else (failed, GAMMA_APEX_FAILED)
        if len(bucket) < cap:
            bucket.append(_gamma_instance(b, g))
    out += ok + failed + [_rows_instance(src) for src in ok[:ROWS_COPIES]]
    rng.shuffle(out)
    return out


def _point(p) -> str:
    return ",".join(q(x) for x in p)


def _needs_apex(inst: Instance, args) -> Op:
    """An operation that needs pstar: without an apex the answer is exit 2."""
    if inst.apex is None:
        return Op(inst, args, 2, "ApexConditionFailed")
    return Op(inst, args)


def certify_certs(insts) -> list:
    return [Cert(inst, [_needs_apex(inst, ["lift", "value"]), _needs_apex(inst, ["fix", "cover"])])
            for inst in insts]


def check_certs(insts, seed: int) -> list:
    """Third-party re-verification commands; evaluation points come from the seed."""
    rng = random.Random(seed * 7919 + 1)
    certs = []
    for inst in insts:
        base = inst.pstar or (F(0), F(0))
        small = [F(rng.randint(-2, 2), 16) for _ in range(4)]
        h = rng.randint(0, 1)
        point = (h * base[0] + small[0], h * base[1] + small[1], F(h))
        p2 = (base[0] + small[2], base[1] + small[3])
        ops = [Op(inst, ["gauge", "free"])]
        if inst.kind == "type3-mixing":
            ops.append(Op(inst, ["type3", "mixing-verify"]))
        if inst.kind != "rows":
            ops.append(_needs_apex(inst, ["type3", "claim-check"]))
        ops += [
            _needs_apex(inst, ["lift", "psistar", "--point=" + _point(point)]),
            _needs_apex(inst, ["lift", "seq", "--p2=" + _point(p2)]),
            _needs_apex(inst, ["fix", "region", "--format", "svg"]),
        ]
        certs.append(Cert(inst, ops))
    return certs


def tilt_certs(seed: int) -> list:
    """fixed_ball on B1 and B2, each at beta = 4 and at one more beta.

    The seed only orders these four certificates.  Tilting cost depends on
    b and, irregularly, on beta (2.6 to 4.2 s for B1 between beta = 5/2 and
    8), so with four certificates a pass a seeded beta or b would move the
    mean by more than the metrics' bounds from seed to seed.
    """
    certs = []
    for b, betas in ((B1, (TILT_BETA, F(9, 2))), (B2, (TILT_BETA, F(5)))):
        inst = _mixing_instance(b)
        certs += [Cert(inst, [Op(inst, ["fixed_ball", q(beta)])]) for beta in betas]
    random.Random(seed).shuffle(certs)
    return certs


def workload_certs(workload: str, seed: int) -> list:
    if workload == "tilt":
        return tilt_certs(seed)
    insts = instances(seed)
    return certify_certs(insts) if workload == "certify" else check_certs(insts, seed)


WORKLOADS = ("certify", "tilt", "check")
