"""Per-layer spans and counters, recorded from outside liftfix.

A `Tracer` replaces public functions of the liftfix modules with wrappers
while it is active and restores them on exit.  A function is replaced in
every liftfix module that binds it (for example `liftfix.gauge.check_sfree`
and `liftfix.type3.check_sfree`), so nested calls through a module's own
import are seen too.  Spans nest: a span's self time is its duration minus
the time covered by its child spans.  Hot helpers (`rational.dot`, one
counter per importing module, and `gauge.psi`) get a call counter only.

Nothing in the measured loop waits: there are no threads, queues or I/O
inside a certificate, so no wait times are recorded.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function) pairs timed as spans; each reports self_s and calls.
SPANS = (
    ("lattice", "points_in"),
    ("exactgeo", "torus_cover"),
    ("exactgeo", "vertices_from_rows"),
    ("exactgeo", "area"),
    ("exactgeo", "clip_many"),
    ("exactgeo", "convex_intersection"),
    ("exactgeo", "fm_upper_bound"),
    ("gauge", "v_psi"),
    ("gauge", "v_psi_geometric"),
    ("gauge", "v_seq"),
    ("gauge", "psi_star_eval"),
    ("gauge", "check_sfree"),
    ("fixing", "boundary_pairs"),
    ("fixing", "fix_approx"),
    ("fixing", "cover_certify"),
    ("type3", "tilt"),
    ("type3", "fixed_ball"),
    ("type3", "split_cover_certify"),
    ("type3", "pyramid"),
    ("type3", "claim_check"),
    ("serialize", "instance_from_json"),
    ("serialize", "dumps_canonical"),
    ("svg", "render_svg"),
    ("cli", "main"),
)
# Modules whose own binding of rational.dot gets a separate call counter.
DOT_BINDINGS = ("lattice", "type3", "gauge", "exactgeo", "fixing")

# Work counters read from a span's result.
_RESULT_COUNTERS = {
    "lattice.points_in": ("points", len),
    "gauge.v_psi": ("scanned", lambda cert: cert.search_budget["scanned"]),
    "fixing.fix_approx": ("pieces", lambda approx: len(approx.pieces)),
}
_TILT = "type3.tilt"
_CHECK_SFREE = "gauge.check_sfree"


def layer_metrics() -> list:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = [(f"rational.dot.{m}.calls", "count") for m in DOT_BINDINGS]
    out.append(("gauge.psi.calls", "count"))
    for module, fn in SPANS:
        name = f"{module}.{fn}"
        out += [(name + ".self_s", "s"), (name + ".calls", "count")]
        if name in _RESULT_COUNTERS:
            out.append((f"{name}.{_RESULT_COUNTERS[name][0]}", "count"))
    out.append((_TILT + ".check_rounds", "count"))
    return out


def _liftfix_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "liftfix" or n.startswith("liftfix."))]


class Tracer:
    """Context manager: wraps liftfix functions on entry, restores them on exit."""

    def __init__(self):
        self.values = defaultdict(float)  # metric name -> seconds or count
        self._stack = []  # open spans: [time covered by children]
        self._tilt_depth = 0
        self._undo = []

    def __enter__(self):
        dot = importlib.import_module("liftfix.rational").dot
        for m in DOT_BINDINGS:
            mod = importlib.import_module(f"liftfix.{m}")
            if mod.dot is dot:
                self._set(mod, "dot", self._counter(dot, f"rational.dot.{m}.calls"))
        gauge = importlib.import_module("liftfix.gauge")
        self._rebind(gauge.psi, self._counter(gauge.psi, "gauge.psi.calls"))
        for module, fn in SPANS:
            orig = getattr(importlib.import_module(f"liftfix.{module}"), fn)
            self._rebind(orig, self._span(orig, f"{module}.{fn}"))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
        return False

    def counts(self) -> dict:
        """The deterministic part of the trace: every metric that is not a time."""
        return {k: int(v) for k, v in self.values.items() if not k.endswith(".self_s")}

    def _set(self, mod, attr, value):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _rebind(self, orig, wrapper):
        for mod in _liftfix_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def _counter(self, fn, key):
        values = self.values

        def counted(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name):
        values, stack = self.values, self._stack
        self_key, calls_key = name + ".self_s", name + ".calls"
        result_counter = _RESULT_COUNTERS.get(name)
        is_tilt = name == _TILT
        is_check = name == _CHECK_SFREE
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if is_check and self._tilt_depth:
                values[_TILT + ".check_rounds"] += 1
            if is_tilt:
                self._tilt_depth += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                values[self_key] += elapsed - frame[0]
                values[calls_key] += 1
                if is_tilt:
                    self._tilt_depth -= 1
            if result_counter is not None:
                values[f"{name}.{result_counter[0]}"] += result_counter[1](result)
            return result

        return spanned
