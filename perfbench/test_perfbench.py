"""The benchmark's own tests: deterministic inputs, repeatable traces, and
certificates that tracing cannot disturb.  Run with

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
import tracing
import workloads as wl
from speed import SpeedProbe

harness.import_library()

from liftfix.errors import ApexConditionFailed  # noqa: E402
from liftfix import gauge, serialize, type3  # noqa: E402


def _texts(seed):
    return [inst.text for inst in wl.instances(seed)], [c.instance.text + c.ops[0].args[1] for c in wl.tilt_certs(seed)]


def test_same_seed_gives_byte_identical_instances():
    assert _texts(wl.DEFAULT_SEED) == _texts(wl.DEFAULT_SEED)
    assert _texts(wl.HELDOUT_SEED) == _texts(wl.HELDOUT_SEED)
    assert _texts(wl.DEFAULT_SEED) != _texts(wl.HELDOUT_SEED)
    ops = [op.key for w in wl.WORKLOADS for c in wl.workload_certs(w, 1) for op in c.ops]
    assert ops == [op.key for w in wl.WORKLOADS for c in wl.workload_certs(w, 1) for op in c.ops]


def test_closed_forms_agree_with_the_library():
    pool = wl.mixing_pool()
    assert len(pool) == 147
    for b in pool:
        tri = type3.triangle_from_mixing(b)
        assert tri.gammas == wl.mixing_gammas(b)
        assert type3.pyramid(tri).apex == wl.pyramid_apex(b, tri.gammas)
    for inst in wl.instances(wl.HELDOUT_SEED):
        parsed = serialize.instance_from_json(inst.obj)
        if inst.kind == "rows":
            assert parsed.gauge.body.rows == type3.triangle_from_gammas(inst.b, *inst.gammas).body.rows
            continue
        if inst.apex is None:
            with pytest.raises(ApexConditionFailed):
                type3.pyramid(parsed.triangle)
        else:
            assert type3.pyramid(parsed.triangle).apex == inst.apex


def test_golden_digests_cover_the_default_seed():
    golden = harness.load_golden()
    for w in wl.WORKLOADS:
        for cert in wl.workload_certs(w, wl.DEFAULT_SEED):
            for op in cert.ops:
                assert op.key in golden, (w, op.instance.name, op.args)


@pytest.fixture(scope="module")
def small_certs():
    """A few certificates of every workload, the tilt one at the cheapest instance."""
    certify = wl.workload_certs("certify", wl.DEFAULT_SEED)
    check = wl.workload_certs("check", wl.DEFAULT_SEED)
    kinds = {"type3-mixing", "type3-gamma", "rows"}
    picked = []
    for certs in (certify, check):
        for kind in sorted(kinds):
            picked.append(next(c for c in certs if c.instance.kind == kind))
        picked.append(next(c for c in certs if c.instance.apex is None))
    tilt = [c for c in wl.workload_certs("tilt", wl.DEFAULT_SEED)
            if c.instance.b == wl.B1 and c.ops[0].args[1] == "4"]
    return picked + tilt


def test_trace_counts_repeat_and_digests_match_untraced(small_certs):
    paths, _ = harness.write_instances(small_certs, "selftest")
    golden = harness.load_golden()
    with SpeedProbe() as speed:
        plain = harness.run_pass(small_certs, paths, golden, speed)
        traces = []
        for _ in range(2):
            with tracing.Tracer() as tracer:
                traced = harness.run_pass(small_certs, paths, golden, speed)
            traces.append(tracer.counts())
            assert traced.digests == plain.digests
            assert traced.problems == []
    assert plain.problems == []
    assert traces[0] == traces[1]
    assert traces[0]["type3.tilt.check_rounds"] == 5
    assert traces[0]["lattice.points_in.calls"] > 0
    # wrappers are gone again
    assert gauge.check_sfree is type3.check_sfree
    assert gauge.check_sfree.__module__ == "liftfix.gauge"


def test_benchmark_json_lists_the_reported_metrics(small_certs):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    certs = small_certs[:2]
    paths, listing = harness.write_instances(certs, "selftest-e2e")
    _, metrics, _ = run.end_to_end(0, certs, paths, listing, {})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    layer = dict(tracing.layer_metrics())
    layer.update(run.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
