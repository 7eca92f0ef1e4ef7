"""Tests of the benchmark itself; the repository's tier-1 run does not
collect them (its testpaths is tests/). Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"] if m["name"] not in bench_run.RUN_LEVEL]

# modules whose counts must read zero on a workload (the "flat on" column
# of LAYERS.md), by metric-name prefix
FLAT = {
    "scan-wide": ("evolution.", "spectral.", "calculus.", "quadrature."),
    "blowup-scaled": ("profiles.", "spectral.", "calculus.", "quadrature.",
                      "evolution.RescaledFlow.", "evolution.energy.",
                      "evolution.stable_mode_state."),
    "similarity-frame": ("profiles.", "evolution.solve_physical.",
                         "evolution.fit_blowup_time.", "manifest.compare_outputs."),
}
BUSY = {
    "scan-wide": ("profiles.solve_ivp.calls", "profiles.shoot.calls"),
    "blowup-scaled": ("evolution.solve_physical.steps", "evolution.solve_banded.bytes",
                      "manifest.write_csv.bytes"),
    "similarity-frame": ("evolution.RescaledFlow.step.calls", "evolution.energy.calls",
                         "spectral.assemble.calls", "calculus.verify_ibp.calls"),
}


@pytest.fixture(scope="module")
def cli():
    return harness.import_blowlab()


def _traced_counts(cli, workload, out_root):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = harness.run_pass(cli, workload, out_root, 5, tracer, pass_id="t")
    finally:
        tracer.uninstall()
    values = bench_run.layer_values(tracing.aggregate(tracer.spans), LAYER_NAMES)
    return rec, {k: v for k, v in values.items()
                 if k.rpartition(".")[2] in bench_run.COUNT_FIELDS}


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_counts_repeat_exactly(cli, name):
    workload = harness.WORKLOADS[name]
    out_root = harness.WORK / "test" / name
    harness.run_pass(cli, workload, out_root, 5)            # warm-up
    first_rec, first = _traced_counts(cli, workload, out_root)
    _, second = _traced_counts(cli, workload, out_root)
    shutil.rmtree(out_root, ignore_errors=True)
    assert first == second
    assert not any(r.error for r in first_rec.runs)
    for metric in BUSY[name]:
        assert first[metric] > 0, metric
    for metric, value in first.items():
        if metric.startswith(FLAT[name]):
            assert value == 0, metric


def test_untraced_run_leaves_blowlab_unwrapped(cli):
    workload = harness.WORKLOADS["similarity-frame"]
    original = cli.run_kind
    harness.run_pass(cli, workload, harness.WORK / "test" / "untraced", 5)
    assert tracing.wrapped_names() == []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.wrapped_names()
        import blowlab.experiments as experiments
        import blowlab.profiles as profiles
        # one wrapper replaces the name in every module that imported it
        assert experiments.solve_physical is sys.modules["blowlab.evolution"].solve_physical
        assert hasattr(experiments.shoot, tracing.MARK)
        assert hasattr(profiles.shoot, tracing.MARK)
        assert hasattr(cli.run_kind, tracing.MARK)
    finally:
        tracer.uninstall()
    assert {name.split(".", 1)[1] for name in wrapped} >= {
        f"{mod}.{attr}" for mod, attr, _ in tracing.TARGETS}
    assert tracing.wrapped_names() == []
    assert cli.run_kind is original
    shutil.rmtree(harness.WORK / "test", ignore_errors=True)


def test_every_per_layer_metric_names_a_span():
    spans = set(tracing.SPAN_NAMES) | {"cli.main"} | {
        f"cli.{run.label}" for w in harness.WORKLOADS.values() for run in w.runs}
    for name in LAYER_NAMES:
        span, _, key = name.rpartition(".")
        assert span in spans and key in ("s", "self_s") + bench_run.COUNT_FIELDS, name
    assert set(bench_run.RUN_LEVEL) <= {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name_re.match(m["name"]) and unit_re.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tail_has_ten_samples_beyond():
    t = bench_run.tail([float(i) for i in range(20)])
    assert t == {"value": 9.0, "percentile": 50.0, "beyond": 10, "samples": 20}
    assert bench_run.tail([3.0, 1.0, 2.0])["value"] == 3.0


def test_refuses_without_sources():
    bare = harness.WORK / "test" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "scan-wide", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(SPEC["command"] + ["--workload", "scan-wide", "--seed", "3",
                                             "--seconds", "1", "--trace", "1"],
                          cwd=harness.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # scan n=3 p=3 fails kappa-bracketed at the reference commit: 1 of 3 runs
    assert result["failed"] * 3 == result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["manifest.reference_mismatch"]["value"] == 0
