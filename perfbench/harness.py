"""Running operations against liftfix, timing them and checking their outputs.

Every operation goes through liftfix's public entry points in this process:
`liftfix.cli.main` for CLI commands (stdout captured in memory) and
`liftfix.type3.fixed_ball` for the tilt workload.  Each output is reduced to
a SHA-256 digest of its canonical form with the `timing` field removed, and
checked by rules that do not rely on the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 3  # fresh interpreters per measurement point


def library_present() -> bool:
    return (SRC / "liftfix" / "__init__.py").is_file()


def import_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("liftfix.cli")


def _mod(name):
    return importlib.import_module(f"liftfix.{name}")


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def write_instances(certs, tag: str):
    """Write each instance's JSON once.

    Returns the map instance name -> path for --instance, and the path of a
    listing of those files for the set-up probe.
    """
    folder = WORK / tag
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cert in certs:
        inst = cert.instance
        if inst.name not in paths:
            path = folder / f"{len(paths):03d}.json"
            path.write_text(inst.text + "\n", encoding="utf-8")
            paths[inst.name] = str(path)
    listing = folder / "instances.json"
    listing.write_text(json.dumps(list(paths.values())), encoding="utf-8")
    return paths, listing


def measure_setup(listing: Path, speed) -> list:
    """Scaled wall times of fresh interpreters that import liftfix and parse the instances."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(listing)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        end = time.perf_counter()
        times.append((end - start) * speed.scale(start, end))
    return times


# ---------------------------------------------------------------------------
# Executing and checking operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    exit_code: int | None = None
    text: str = ""
    ball: object = None  # the FixedBall of a tilt operation
    error: str | None = None  # an uncaught exception


def execute(op, paths) -> Outcome:
    try:
        if op.args[0] == "fixed_ball":
            inst = _mod("serialize").instance_from_json(json.loads(op.instance.text))
            ball = _mod("type3").fixed_ball(inst.triangle, F(op.args[1]))
            return Outcome(exit_code=0, ball=ball)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _mod("cli").main(op.args + ["--instance", paths[op.instance.name]])
        return Outcome(exit_code=code, text=buf.getvalue())
    except Exception as exc:  # an uncaught exception is a failed operation
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def _vec(v) -> list:
    return [wl.q(x) for x in v]


def ball_rendering(ball) -> dict:
    t = ball.tilt
    return {
        "pstar": _vec(ball.pstar),
        "radius": wl.q(ball.radius),
        "beta": wl.q(t.beta),
        "alphas": _vec(t.alphas),
        "apex": _vec(t.apex),
        "facet_witnesses": [_vec(w) for w in t.facet_witnesses],
    }


def canonical_output(op, out: Outcome) -> str:
    """The output a digest is taken of: JSON re-encoded without `timing`, or the SVG."""
    if out.ball is not None:
        return wl.canonical_json(ball_rendering(out.ball))
    if out.text.lstrip().startswith("{"):
        report = json.loads(out.text)
        report.pop("timing", None)
        return wl.canonical_json(report)
    return out.text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def independent_problems(op, out: Outcome) -> list:
    """Checks that hold whatever the golden digests say."""
    try:
        return _problems(op, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _problems(op, out: Outcome) -> list:
    inst, cmd = op.instance, op.args[:2]
    if out.error is not None:
        return [out.error]
    if out.exit_code != op.expect_exit:
        return [f"exit {out.exit_code}, expected {op.expect_exit}"]
    if op.expect_exit != 0:
        err = json.loads(out.text).get("error", {}).get("type")
        return [] if err == op.expect_error else [f"error {err}, expected {op.expect_error}"]
    if out.ball is not None:
        return _ball_problems(op, out.ball)
    if op.args[-1] == "svg":
        svg = "<svg" in out.text and out.text.rstrip().endswith("</svg>")
        return [] if svg else ["fix region did not emit an SVG document"]
    cert = json.loads(out.text)["certificate"]
    problems = []
    if cmd == ["fix", "cover"]:
        if (cert["covered_area"] == "1") != cert["is_full"]:
            problems.append("covered_area == 1 disagrees with is_full")
    elif cmd == ["lift", "value"]:
        expected = inst.mixing_value
        if expected is not None and cert["value"] != expected:
            problems.append(f"lifting value {cert['value']}, apex gives {expected}")
    elif cmd == ["type3", "mixing-verify"]:
        if cert["agree"] is not True:
            problems.append("split cover and enumeration disagree")
        if cert["heights"] != inst.heights:
            problems.append("split-cover heights differ from floor(apex height)")
    elif cmd == ["gauge", "free"]:
        if cert["free"] is not True:
            problems.append("body reported not lattice-free")
    return problems


def _ball_problems(op, ball) -> list:
    problems = []
    if not ball.radius > 0:
        problems.append("fixed ball has radius <= 0")
    b = op.instance.b
    if b in wl.TILT_ALPHAS_AT_4:
        tri = _mod("serialize").instance_from_json(op.instance.obj).triangle
        if ball.tilt.body.canonical_rows() != _mod("type3").pyramid(tri).body.canonical_rows():
            problems.append("tilted body differs from the lifting pyramid")
        if ball.tilt.beta == wl.TILT_BETA and ball.tilt.alphas != wl.TILT_ALPHAS_AT_4[b]:
            problems.append(f"alphas {_vec(ball.tilt.alphas)} at beta 4")
    return problems


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    timings: list = field(default_factory=list)  # per certificate: (start, end, seconds)
    attempted: int = 0
    digests: dict = field(default_factory=dict)  # op key -> digest, in stream order
    problems: list = field(default_factory=list)  # (op key, description)


def run_pass(certs, paths, golden: dict, speed) -> PassResult:
    """Time every certificate once; check every output after its timing ends.

    The time the speed probe's handler spent inside a certificate is not
    counted in it.
    """
    res = PassResult()
    certificates = {}  # (instance name, command) -> certificate JSON, for rows copies
    clock = time.perf_counter
    for cert in certs:
        busy = speed.busy
        start = clock()
        outs = [execute(op, paths) for op in cert.ops]
        end = clock()
        res.timings.append((start, end, end - start - (speed.busy - busy)))
        for op, out in zip(cert.ops, outs):
            res.attempted += 1
            problems = independent_problems(op, out)
            if not problems:
                d = digest(canonical_output(op, out))
                res.digests[op.key] = d
                if op.key in golden and golden[op.key] != d:
                    problems.append("digest differs from the golden digest")
                if op.expect_exit == 0 and out.ball is None and op.args[-1] != "svg":
                    certificates[(op.instance.name, tuple(op.args))] = json.loads(out.text)["certificate"]
            res.problems += [(op.key, f"{op.instance.name} {' '.join(op.args)}: {p}") for p in problems]
    res.problems += _rows_copy_problems(certs, certificates)
    return res


def _rows_copy_problems(certs, certificates) -> list:
    """A rows copy of a gamma triangle must get the same certificates as the triangle."""
    problems = []
    for cert in certs:
        inst = cert.instance
        if inst.source is None:
            continue
        for op in cert.ops:
            mine = certificates.get((inst.name, tuple(op.args)))
            theirs = certificates.get((inst.source, tuple(op.args)))
            if mine is not None and theirs is not None and mine != theirs:
                problems.append((op.key, f"{inst.name} {' '.join(op.args)}: differs from {inst.source}"))
    return problems


def scaled_ms(passes, speed) -> list:
    """Certificate times in ms, rescaled to the nominal machine (see speed.py)."""
    return [raw * speed.scale(start, end) * 1e3 for p in passes for start, end, raw in p.timings]


def combined_digest(digests: dict) -> str:
    return digest("\n".join(f"{k} {v}" for k, v in digests.items()))


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def instance_sizes(certs) -> list:
    """Per instance: lifting value, fixing-piece count and pyramid heights.

    Value and pieces need `v_psi` and `fix_approx`, so they are computed
    here, after the timed passes and outside any trace.
    """
    serialize, gauge, fixing = _mod("serialize"), _mod("gauge"), _mod("fixing")
    out, seen = [], set()
    for cert in certs:
        inst = cert.instance
        if inst.name in seen:
            continue
        seen.add(inst.name)
        entry = {"name": inst.name, "kind": inst.kind, "bytes": len(inst.text),
                 "value": None, "pieces": None, "heights": inst.heights}
        if inst.apex is not None:
            parsed = serialize.instance_from_json(inst.obj)
            lift = gauge.v_psi(parsed.gauge, inst.pstar, parsed.budget)
            entry["value"] = wl.q(lift.value)
            entry["pieces"] = len(fixing.fix_approx(parsed.gauge, lift).pieces)
        out.append(entry)
    return out


def environment() -> dict:
    sha = None  # not a git checkout
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "liftfix").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "git_sha": sha,
        "liftfix_source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }

