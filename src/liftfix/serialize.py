"""JSON encoding of all certificate payloads.

Rationals travel as strings "p/q" (or "p" when the denominator is 1),
vectors as arrays of such strings, polygons as arrays of [x, y] pairs.
Serialization is canonical (sorted keys, fixed separators) so identical
inputs produce byte-identical files; parse(emit(x)) == x.
"""

from __future__ import annotations

import json

from .errors import DomainViolation
from .exactgeo import HPoly, Polygon2
from .fixing import CoverCert, FixApprox
from .gauge import Budget, Gauge, LiftCert, SeqLiftCert, check_sfree
from .lattice import Lattice
from .rational import parse_vec, rat, rat_str, vec_str
from .type3 import triangle_from_gammas, triangle_from_mixing


def polygon_to_json(poly: Polygon2) -> list:
    return [[rat_str(v[0]), rat_str(v[1])] for v in poly.vertices]


def polygon_from_json(obj) -> Polygon2:
    return Polygon2(tuple((rat(x), rat(y)) for x, y in obj))


def lattice_to_json(lat: Lattice) -> dict:
    return {
        "dim": lat.dim,
        "shift": vec_str(lat.shift),
        "tail": lat.tail,
        "truncation": None
        if lat.truncation is None
        else [[vec_str(a), rat_str(c)] for a, c in lat.truncation],
    }


def lattice_from_json(obj) -> Lattice:
    trunc = obj.get("truncation")
    return Lattice(
        dim=int(obj["dim"]),
        shift=parse_vec(obj["shift"]),
        tail=int(obj.get("tail", 0)),
        truncation=None
        if trunc is None
        else tuple((parse_vec(a), rat(c)) for a, c in trunc),
    )


def hpoly_to_json(poly: HPoly) -> list:
    return [vec_str(a) for a in poly.rows]


def hpoly_from_json(rows) -> HPoly:
    return HPoly.from_rows([parse_vec(a) for a in rows])


def liftcert_to_json(cert: LiftCert) -> dict:
    return {
        "pstar": vec_str(cert.pstar),
        "value": rat_str(cert.value),
        "blocking": [[vec_str(x), int(k)] for x, k in cert.blocking],
        "budget": dict(sorted(cert.search_budget.items())),
    }


def liftcert_from_json(obj) -> LiftCert:
    return LiftCert(
        pstar=parse_vec(obj["pstar"]),
        value=rat(obj["value"]),
        blocking=tuple((parse_vec(x), int(k)) for x, k in obj["blocking"]),
        search_budget=dict(obj.get("budget", {})),
    )


def seqcert_to_json(cert: SeqLiftCert) -> dict:
    return {
        "p1": vec_str(cert.p1),
        "p2": vec_str(cert.p2),
        "v1": rat_str(cert.v1),
        "value": rat_str(cert.value),
        "blocking": [[vec_str(x), int(k1), int(k2)] for x, k1, k2 in cert.blocking],
    }


def fixapprox_to_json(f: FixApprox) -> dict:
    return {
        "pstar": vec_str(f.pstar),
        "value": rat_str(f.cert.value),
        "pieces": [
            {
                "polygon": polygon_to_json(p.polygon),
                "pair": [vec_str(p.pair[0]), int(p.pair[1])],
                "facet": p.facet,
                "shift": p.shift,
            }
            for p in f.pieces
        ],
        "group": [vec_str(g) for g in f.group_generators],
    }


def covercert_to_json(c: CoverCert) -> dict:
    return {
        "covered_area": rat_str(c.covered_area),
        "total": rat_str(c.total),
        "is_full": c.is_full,
        "uncovered_witness": None
        if c.uncovered_witness is None
        else vec_str(c.uncovered_witness),
    }


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class Instance:
    """Parsed problem instance: a gauge, optional pstar, and budgets."""

    def __init__(self, gauge: Gauge, pstar, budget: Budget, body_kind: str, raw: dict,
                 triangle=None):
        self.gauge = gauge
        self.pstar = pstar
        self.budget = budget
        self.body_kind = body_kind
        self.raw = raw
        self.triangle = triangle


def instance_from_json(obj: dict, budget_override: Budget | None = None) -> Instance:
    """Parse and validate an instance; every malformed input is a DomainViolation."""
    try:
        return _parse_instance(obj, budget_override)
    except KeyError as exc:
        raise DomainViolation(f"instance is missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainViolation(f"malformed instance: {exc}") from exc


def _parse_instance(obj: dict, budget_override: Budget | None) -> Instance:
    body = obj.get("body")
    if body is None:
        raise DomainViolation("instance is missing a body descriptor")
    kind = body.get("type")
    triangle = None
    if kind == "rows":
        lat = lattice_from_json(obj["lattice"])
        gauge = Gauge(hpoly_from_json(body["rows"]), lat)
        free = check_sfree(gauge.body, lat)
        if not free.free:
            raise DomainViolation(
                f"body is not lattice-free: interior point {free.witness}"
            )
    elif kind == "type3-gamma":
        g1, g2, g3 = (rat(x) for x in body["gammas"])
        triangle = triangle_from_gammas(parse_vec(body["b"]), g1, g2, g3)
        gauge = triangle.gauge()
    elif kind == "type3-mixing":
        triangle = triangle_from_mixing(parse_vec(body["b"]))
        gauge = triangle.gauge()
    else:
        raise DomainViolation(f"unknown body type {kind!r}")
    pstar = None
    if obj.get("pstar") is not None:
        pstar = parse_vec(obj["pstar"])
    budgets = obj.get("budgets", {})
    budget = budget_override or Budget(
        n_max=int(budgets.get("n_max", 16)),
        window=int(budgets.get("window_radius", 12)),
    )
    return Instance(gauge, pstar, budget, kind, obj, triangle)


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
