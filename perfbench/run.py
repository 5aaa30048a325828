"""The liftfix benchmark: one closed-loop client driving liftfix in-process.

    python3 perfbench/run.py --workload certify|tilt|check
        [--seed N] [--seconds S] [--trace 0|1] [--update-golden]

Workloads (see perfbench/README.md for why each exists):
  certify  `lift value` then `fix cover` on mixing, gamma and rows instances
  tilt     `type3.fixed_ball` on (-1/4,-3/4) and (-1/8,-5/8)
  check    gauge free, mixing-verify, claim-check, lift psistar, lift seq
           and fix region --format svg on the certify instance set

The seed (default 1; 2 is held out) makes the inputs.  With --trace 0 the
run repeats whole passes over them for at least --seconds and reports the
end-to-end metrics; with --trace 1 it makes one untraced and one traced
pass and reports the per-layer metrics of the traced one.  Every output is
checked; the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import harness
import tracing
import workloads as wl
from speed import SpeedProbe


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true",
                    help="record this run's digests as golden (default seed only)")
    return ap.parse_args(argv)


# Per-layer metrics a traced run adds to the layers' own.
TRACE_METRICS = {"trace.cert_p50_ms": "ms", "trace.overhead_ratio": "ratio"}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _failed(passes) -> int:
    return sum(len({key for key, _ in p.problems}) for p in passes)


def end_to_end(seconds, certs, paths, listing, golden):
    """Whole passes until at least `seconds` of wall time have gone by.

    Set-up is measured before the first pass and after each pass, so that
    its median samples the machine at several moments of the run.
    """
    passes, setup = [], []
    with SpeedProbe() as speed:
        start = time.perf_counter()
        setup += harness.measure_setup(listing, speed)
        while not passes or time.perf_counter() - start < seconds:
            passes.append(harness.run_pass(certs, paths, golden, speed))
            setup += harness.measure_setup(listing, speed)
    for p in passes[1:]:
        if p.digests != passes[0].digests:
            p.problems.append(("", "outputs differ between passes of the same run"))
    cert_ms = harness.scaled_ms(passes, speed)
    raw_ms = [raw * 1e3 for p in passes for _, _, raw in p.timings]
    timed_s = sum(cert_ms) / 1e3
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "cert_p50_ms": _metric(statistics.median(cert_ms), "ms"),
        "certs_per_s": _metric(len(cert_ms) / timed_s, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"passes": len(passes), "certificates": len(cert_ms), "setup_runs_s": setup,
             "unscaled_cert_p50_ms": statistics.median(raw_ms),
             "speed_samples": len(speed.durations)}
    if len(cert_ms) >= 100 * len(passes):
        extra["cert_p90_ms"] = statistics.quantiles(cert_ms, n=10)[-1]
    return passes, metrics, extra


def per_layer(certs, paths, golden):
    with SpeedProbe() as speed:
        plain = harness.run_pass(certs, paths, golden, speed)
        with tracing.Tracer() as tracer:
            traced = harness.run_pass(certs, paths, golden, speed)
    if traced.digests != plain.digests:
        traced.problems.append(("", "outputs differ with tracing on"))
    traced_ms = harness.scaled_ms([traced], speed)
    # self times get the traced pass's overall scale factor (see speed.py)
    factor = sum(traced_ms) / 1e3 / sum(raw for _, _, raw in traced.timings)
    metrics = {}
    for name, unit in tracing.layer_metrics():
        value = tracer.values.get(name, 0)
        metrics[name] = _metric(int(value) if unit == "count" else value * factor, unit)
    p50_plain = statistics.median(harness.scaled_ms([plain], speed))
    p50_traced = statistics.median(traced_ms)
    metrics["trace.cert_p50_ms"] = _metric(p50_traced, TRACE_METRICS["trace.cert_p50_ms"])
    metrics["trace.overhead_ratio"] = _metric(p50_traced / p50_plain, TRACE_METRICS["trace.overhead_ratio"])
    extra = {"passes": 2, "untraced_cert_p50_ms": p50_plain, "counts": tracer.counts()}
    return [plain, traced], metrics, extra


def tag(args) -> str:
    return f"{args.workload}-seed{args.seed}"


def update_golden(args, passes):
    if args.seed != wl.DEFAULT_SEED:
        raise SystemExit(f"golden digests are kept for the default seed {wl.DEFAULT_SEED} only")
    golden = json.loads(harness.GOLDEN.read_text()) if harness.GOLDEN.is_file() else {"digests": {}}
    golden["seed"] = wl.DEFAULT_SEED
    golden["digests"].update(passes[0].digests)
    golden["digests"] = dict(sorted(golden["digests"].items()))
    harness.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def print_summary(args, passes, metrics, extra, attempted, failed, combined):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {extra['passes']}  operations {attempted}  failed {failed}")
    if args.trace == 0:
        n = extra["certificates"]
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(extra['setup_runs_s'])} fresh interpreters)")
        print(f"  cert_p50_ms  {metrics['cert_p50_ms']['value']:.3f} ms  (n={n})")
        if "cert_p90_ms" in extra:
            print(f"  cert_p90_ms  {extra['cert_p90_ms']:.3f} ms  (n={n})")
        else:
            print(f"  cert_p90_ms  not reported: fewer than 100 certificates per pass (n={n})")
        print(f"  certs_per_s  {metrics['certs_per_s']['value']:.4f} 1/s")
        print(f"  failed_ratio {failed / attempted:.4f}  ({failed}/{attempted})")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
        print(f"  (times scaled to the nominal machine, see speed.py; unscaled cert_p50_ms "
              f"{extra['unscaled_cert_p50_ms']:.3f} ms)")
    else:
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
        print("  (no waits recorded: nothing in the loop queues, sleeps or does I/O)")
        print(f"  tracing overhead: traced cert_p50_ms / untraced cert_p50_ms = "
              f"{metrics['trace.overhead_ratio']['value']:.3f}")
    print(f"  digest {combined}")
    for _, problem in [pr for p in passes for pr in p.problems][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not harness.library_present():
        print(f"liftfix sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    harness.import_library()
    certs = wl.workload_certs(args.workload, args.seed)
    paths, listing = harness.write_instances(certs, tag(args))
    golden = harness.load_golden()
    if args.trace:
        passes, metrics, extra = per_layer(certs, paths, golden)
    else:
        passes, metrics, extra = end_to_end(args.seconds, certs, paths, listing, golden)
    attempted = sum(p.attempted for p in passes)
    failed = _failed(passes)
    combined = harness.combined_digest(passes[0].digests)
    if args.update_golden:
        update_golden(args, passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": harness.environment(),
        "combined_digest": combined,
        "failed_ratio": failed / attempted,
        "problems": [p for ps in passes for _, p in ps.problems],
        "instances": harness.instance_sizes(certs),
        **extra,
    }
    (harness.WORK / tag(args) / "digests.json").write_text(json.dumps(passes[0].digests, indent=1))
    print_summary(args, passes, metrics, extra, attempted, failed, combined)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
