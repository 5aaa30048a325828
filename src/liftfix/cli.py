"""Command-line front end: instance ingestion, dispatch, certificate emission.

Exit codes: 0 on success, 2 on validation/domain errors (with a
machine-readable error object on stdout), 3 on budget exhaustion.
Certificates are canonical JSON; repeated runs on the same instance are
byte-identical apart from the top-level "timing" field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import DomainViolation, LiftfixError
from .exactgeo import Polygon2, convex_hull
from .fixing import cover_certify, fix_approx, translate_instance
from .gauge import Budget, check_sfree, psi_eval, v_psi, v_seq, phi_eval, psi_star_eval
from .rational import rat, rat_str, vec_str
from .serialize import (
    Instance,
    covercert_to_json,
    dumps_canonical,
    fixapprox_to_json,
    hpoly_to_json,
    instance_from_json,
    liftcert_to_json,
    polygon_to_json,
    seqcert_to_json,
)
from .svg import render_svg
from .type3 import claim_check, figure_points, pyramid, split_cover_certify, tilt


def _parse_rat(text: str):
    try:
        return rat(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainViolation(f"not a rational number: {text!r}") from exc


def _parse_point(text: str):
    return tuple(_parse_rat(p) for p in text.split(","))


def _read_json(path):
    """Parsed JSON file; an unreadable file or invalid JSON is a DomainViolation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainViolation(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DomainViolation(f"{path} is not valid JSON: {exc}") from exc


def _load_instance(args) -> Instance:
    if not args.instance:
        raise DomainViolation("--instance PATH is required for this command")
    obj = _read_json(args.instance)
    budget = Budget(n_max=args.budget_n, window=args.budget_window)
    return instance_from_json(obj, budget_override=budget)


def _need_pstar(inst: Instance, args):
    if args.pstar:
        return _parse_point(args.pstar)
    if inst.pstar is not None:
        return inst.pstar
    if inst.triangle is not None:
        apex = pyramid(inst.triangle).apex
        return (apex[0] / apex[2], apex[1] / apex[2])
    raise DomainViolation("no pstar given (flag --pstar or instance field)")


def _cert_for(inst: Instance, args):
    return v_psi(inst.gauge, _need_pstar(inst, args), inst.budget)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (certificate payload, svg payload or None)
# ---------------------------------------------------------------------------


def _cmd_gauge_eval(inst, args):
    r = _parse_point(args.r) if isinstance(args.r, str) else tuple(_parse_rat(v) for v in args.r)
    gv = psi_eval(inst.gauge, r)
    return {"psi": rat_str(gv.value), "argmax": list(gv.argmax)}, None


def _cmd_gauge_free(inst, args):
    cert = check_sfree(inst.gauge.body, inst.gauge.lattice)
    return {
        "free": cert.free,
        "witness": None if cert.witness is None else vec_str(cert.witness),
        "facet_hits": [[vec_str(p) for p in hits] for hits in cert.facet_hits],
    }, None


def _cmd_lift_value(inst, args):
    cert = _cert_for(inst, args)
    return liftcert_to_json(cert), None


def _cmd_lift_blocking(inst, args):
    cert = _cert_for(inst, args)
    pairs = cert.blocking_with_facets(inst.gauge)
    return {
        "pstar": vec_str(cert.pstar),
        "value": rat_str(cert.value),
        "blocking": [
            {"point": vec_str(x), "height": int(k), "facets": list(fs)}
            for x, k, fs in pairs
        ],
    }, None


def _cmd_lift_seq(inst, args):
    if not args.p2:
        raise DomainViolation("--p2 \"x,y\" is required for lift seq")
    p1 = _need_pstar(inst, args)
    cert1 = v_psi(inst.gauge, p1, inst.budget)
    cert = v_seq(inst.gauge, p1, _parse_point(args.p2), cert1.value, inst.budget)
    return seqcert_to_json(cert), None


def _cmd_lift_phi(inst, args):
    if not args.p:
        raise DomainViolation("--p \"x,y\" is required for lift phi")
    cert = _cert_for(inst, args)
    val = phi_eval(cert, inst.gauge, _parse_point(args.p), inst.budget)
    return {"p": vec_str(_parse_point(args.p)), "phi": rat_str(val),
            "value": rat_str(cert.value)}, None


def _cmd_lift_psistar(inst, args):
    if not args.point:
        raise DomainViolation("--point \"x,y,h\" is required for lift psistar")
    cert = _cert_for(inst, args)
    point = _parse_point(args.point)
    val = psi_star_eval(cert, inst.gauge, point, inst.budget)
    return {"point": vec_str(point), "psistar": rat_str(val)}, None


def _cmd_fix_region(inst, args):
    cert = _cert_for(inst, args)
    approx = fix_approx(inst.gauge, cert)
    payload = fixapprox_to_json(approx)
    svg_payload = {
        "kind": "region",
        "body": polygon_to_json(inst.gauge.body_polygon()),
        "pieces": payload["pieces"],
    }
    return payload, svg_payload


def _cmd_fix_cover(inst, args):
    cert = _cert_for(inst, args)
    approx = fix_approx(inst.gauge, cert)
    cover = cover_certify(approx)
    payload = covercert_to_json(cover)
    svg_payload = {
        "kind": "cover",
        "pieces": fixapprox_to_json(approx)["pieces"],
        "uncovered_witness": payload["uncovered_witness"],
    }
    return payload, svg_payload


def _cmd_fix_translate(inst, args):
    if not args.m:
        raise DomainViolation("--m \"x,y\" is required for fix translate")
    m = _parse_point(args.m)
    cert = _cert_for(inst, args)
    g2, phat = translate_instance(inst.gauge, cert, m)
    cover0 = cover_certify(fix_approx(inst.gauge, cert))
    cert2 = v_psi(g2, phat, inst.budget)
    cover2 = cover_certify(fix_approx(g2, cert2))
    return {
        "m": vec_str(m),
        "phat": vec_str(phat),
        "value": rat_str(cert2.value),
        "rows": hpoly_to_json(g2.body),
        "original_cover": covercert_to_json(cover0),
        "translated_cover": covercert_to_json(cover2),
        "is_full_preserved": cover0.is_full == cover2.is_full,
    }, None


def _cmd_type3_mixing_verify(inst, args):
    if inst.triangle is None or inst.triangle.mixing_delta is None:
        raise DomainViolation("type3 mixing-verify needs a type3-mixing instance")
    tri = inst.triangle
    split = split_cover_certify(tri.b, inst.budget)
    oracle = check_sfree(pyramid(tri).body, tri.lattice.with_tail(1))
    return {
        "b": vec_str(tri.b),
        "delta_b": rat_str(tri.mixing_delta),
        "apex": vec_str(split.apex),
        "heights": list(split.heights),
        "residual_areas": [rat_str(r) for r in split.residuals],
        "split_cover_free": split.free,
        "enumeration_free": oracle.free,
        "agree": split.free == oracle.free,
    }, None


def _cmd_type3_tilt(inst, args):
    if inst.triangle is None:
        raise DomainViolation("type3 tilt needs a type3 instance")
    if not args.beta:
        raise DomainViolation("--beta Q is required for type3 tilt")
    res = tilt(inst.triangle, _parse_rat(args.beta), inst.budget)
    return {
        "beta": rat_str(res.beta),
        "alphas": [rat_str(a) for a in res.alphas],
        "apex": vec_str(res.apex),
        "rows": hpoly_to_json(res.body),
        "facet_witnesses": [vec_str(w) for w in res.facet_witnesses],
        "base_apex": vec_str(res.base_apex),
        "closed_form_alpha3": rat_str(res.closed_form_alpha3),
    }, None


def _cmd_type3_claim_check(inst, args):
    if inst.triangle is None:
        raise DomainViolation("type3 claim-check needs a type3 instance")
    pstar = _need_pstar(inst, args)
    report = claim_check(inst.triangle, pstar)
    return {
        "passed": report.passed,
        "v0_assumption": report.v0_assumption,
        "area_k": rat_str(report.area_k),
        "area_parts": [rat_str(a) for a in report.area_parts],
        "cases": [
            {"case": c, "vertex": v, "products": [rat_str(p) for p in ps]}
            for c, v, ps in report.cases
        ],
    }, None


def _cmd_type3_figure(inst, args):
    if inst.triangle is None:
        raise DomainViolation("type3 figure needs a type3 instance")
    pts = figure_points(inst.triangle)
    payload = {"points": {name: vec_str(p) for name, p in sorted(pts.items())}}
    k_poly = convex_hull([pts[n] for n in ("c2", "k", "j", "i", "g", "e1")])
    tri_poly = Polygon2(inst.triangle.vertices)
    svg_payload = {
        "kind": "figure",
        "body": polygon_to_json(tri_poly),
        "points": {name: vec_str(p) for name, p in sorted(pts.items())},
        "k_region": polygon_to_json(k_poly),
        "pieces": [],
    }
    return payload, svg_payload


def _cmd_plot_svg(args):
    if not args.instance:
        raise DomainViolation("plot svg needs --instance pointing at a payload JSON")
    payload = _read_json(args.instance)
    if "certificate" in payload:
        payload = payload["certificate"]
    svg = render_svg(payload if "kind" in payload else {"kind": "region", **payload})
    _write_out(args.out, svg)
    return 0


def _write_out(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_HANDLERS = {
    ("gauge", "eval"): _cmd_gauge_eval,
    ("gauge", "free"): _cmd_gauge_free,
    ("lift", "value"): _cmd_lift_value,
    ("lift", "blocking"): _cmd_lift_blocking,
    ("lift", "seq"): _cmd_lift_seq,
    ("lift", "phi"): _cmd_lift_phi,
    ("lift", "psistar"): _cmd_lift_psistar,
    ("fix", "region"): _cmd_fix_region,
    ("fix", "cover"): _cmd_fix_cover,
    ("fix", "translate"): _cmd_fix_translate,
    ("type3", "mixing-verify"): _cmd_type3_mixing_verify,
    ("type3", "tilt"): _cmd_type3_tilt,
    ("type3", "claim-check"): _cmd_type3_claim_check,
    ("type3", "figure"): _cmd_type3_figure,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="liftfix", description=__doc__)
    ap.add_argument("group", help="command group (gauge, lift, fix, type3, plot)")
    ap.add_argument("command", help="subcommand within the group")
    ap.add_argument("--instance", help="path to an instance or payload JSON")
    ap.add_argument("--out", help="output path (default: stdout)")
    ap.add_argument("--format", choices=("json", "svg"), default="json")
    ap.add_argument("--budget-n", type=int, default=16)
    ap.add_argument("--budget-window", type=int, default=12)
    ap.add_argument("--pstar", help='lifted point as "x,y"')
    ap.add_argument("--p2", help='second lifted point as "x,y"')
    ap.add_argument("--p", help='evaluation point as "x,y"')
    ap.add_argument("--point", help='lifted-space point as "x,y,h"')
    ap.add_argument("--m", help='translation vector as "x,y"')
    ap.add_argument("--beta", help="tilt steepness parameter (rational)")
    ap.add_argument("--r", help='gauge evaluation point as "x,y"', nargs="*")
    return ap


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    if (args.group, args.command) == ("plot", "svg"):
        return _cmd_plot_svg(args)
    handler = _HANDLERS.get((args.group, args.command))
    if handler is None:
        raise DomainViolation(f"unknown command: {args.group} {args.command}")
    if args.r is not None and len(args.r) == 1:
        args.r = args.r[0]

    start = time.monotonic()
    inst = _load_instance(args)
    payload, svg_payload = handler(inst, args)
    elapsed = time.monotonic() - start

    if args.format == "svg":
        if svg_payload is None:
            raise DomainViolation("this command has no SVG rendering")
        _write_out(args.out, render_svg(svg_payload))
        return 0
    report = {
        "command": f"{args.group} {args.command}",
        "inputs": inst.raw,
        "certificate": payload,
        "version": __version__,
        "timing": elapsed,
    }
    _write_out(args.out, dumps_canonical(report))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except LiftfixError as exc:
        sys.stdout.write(dumps_canonical({"error": exc.payload()}))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
