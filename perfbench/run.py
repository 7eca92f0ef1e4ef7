"""perfbench: end-to-end and per-layer benchmark of the blowlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread of control. Every run goes through
blowlab.cli.main(argv), the path a user's command takes, and each workload
is a closed loop over its runs (see harness.WORKLOADS and BENCHMARK.json).

Set-up: the process imports blowlab.cli and runs one warm-up pass at the
reference seed; two fresh processes (probe.py) do the same, and setup_s is
the median of the three. The warm-up artifacts are compared with the
recorded reference copies (reference.py). Then passes with --seed run for
--seconds:

  --trace 0  untraced passes give the end-to-end metrics.
  --trace 1  the first half of the time runs untraced, the second half with
             the span wrappers installed (tracing.py); the traced passes
             give the per-layer metrics, and the difference of the two
             medians is the tracing overhead.

Stdout ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the lines before it print every metric by name and unit, the
environment and the correctness result. The full record (passes, runs,
environment, drift report; spans when traced) goes to
.perfbench_work/results/. The seed reaches only blowlab's randomized
batteries, reduced modulo 2**32. Exit code 2 when the blowlab sources are
not present.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness
import reference
import tracing

SETUP_SAMPLES = 3
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
COUNT_FIELDS = ("calls", "steps", "nfev", "bytes")
# per-layer metrics measured by the run as a whole rather than by spans
RUN_LEVEL = ("import.blowlab_cli.s", "fail_ratio", "wall_s_median", "wall_s_tail",
             "wall_s_tail.percentile", "wall_s_tail.beyond", "trace.wall_s",
             "trace.overhead_s", "trace.spans", "manifest.reference_mismatch")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": nproc, "cpu_model": _cpu_model(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_vendor": vendor,
        "blas_threads_cap": {var: os.environ[var] for var in harness.THREAD_VARS},
        "seed": seed, "git_commit": _git_commit(),
    }


def probe(workload, out_root) -> tuple[float, list]:
    """Set-up time of a fresh process (import plus warm-up pass)."""
    proc = subprocess.run(
        [sys.executable, str(harness.ROOT / "perfbench" / "probe.py"),
         workload.name, str(out_root)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return data["setup_s"], [harness.RunRecord.from_dict(r) for r in data["runs"]]


def measure(cli, workload, out_root, seed, seconds, tracer=None, tag=""):
    """Closed loop: whole passes until the time is up (at least MIN_PASSES)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(harness.run_pass(cli, workload, out_root, seed, tracer,
                                       pass_id=f"{tag}{len(passes)}"))
    return passes


def fastest(passes, attr: str) -> float:
    """Sum over the workload's runs of each run's least time across passes.

    On a shared host, contention from outside the process only ever adds
    time, in bursts shorter than a pass; the per-run minimum is the
    estimate of uncontended cost that repeats from run to run.
    """
    return sum(min(getattr(p.runs[i], attr) for p in passes)
               for i in range(len(passes[0].runs)))


def tail(values) -> dict:
    """The highest percentile with at least ten samples above it; with
    eleven samples or fewer, the maximum (and fewer samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    beyond = n - 1 - k
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n,
            "beyond": beyond, "samples": n}


def layer_values(agg: dict, names) -> dict:
    """Per-layer metric values of one traced pass, by metric name."""
    total = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for name, vals in agg.items():
        if name.startswith("cli."):
            for key in total:
                total[key] += vals[key]
    agg = {**agg, "cli.main": total}
    out = {}
    for name in names:
        span, _, key = name.rpartition(".")
        out[name] = agg.get(span, {}).get(key, 0)
    return out


def set_up(workload, work):
    """Import blowlab.cli and run the warm-up pass here, then in fresh
    processes; returns the cli module, import time, set-up samples and the
    run records of every warm-up pass."""
    t0 = time.perf_counter()
    cli = harness.import_blowlab()
    import_s = time.perf_counter() - t0
    warm = harness.run_pass(cli, workload, work / "warmup", harness.REFERENCE_SEED)
    setup = [time.perf_counter() - t0]
    records = list(warm.runs)
    for k in range(1, SETUP_SAMPLES):
        secs, runs = probe(workload, work / f"probe{k}")
        setup.append(secs)
        records += runs
    return cli, import_s, setup, records


def per_layer(tracer, traced, names) -> tuple[dict, list]:
    """Median over traced passes of each span metric, and the count metrics
    that did not repeat exactly."""
    per_pass = [layer_values(tracing.aggregate(tracer.spans, p.span_lo, p.span_hi), names)
                for p in traced]
    layer = {name: statistics.median(v[name] for v in per_pass) for name in names}
    varying = [name for name in names if name.rpartition(".")[2] in COUNT_FIELDS
               and len({v[name] for v in per_pass}) > 1]
    return layer, varying


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = harness.cap_threads()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    workload = harness.WORKLOADS[args.workload]
    seed = args.seed % 2 ** 32
    work = harness.WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli, import_s, setup, checked = set_up(workload, work)
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot import blowlab: {exc}", file=sys.stderr)
        return 2
    drift = reference.compare(workload, work / "warmup", work / "compare")
    env = environment(nproc, args.seed)

    out_root = work / "runs"
    tracer = None
    if args.trace:
        untraced = measure(cli, workload, out_root, seed, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(cli, workload, out_root, seed, args.seconds / 2,
                             tracer, tag="t")
        finally:
            tracer.uninstall()
    else:
        untraced, traced = measure(cli, workload, out_root, seed, args.seconds), []
    measured = untraced + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = [r for p in measured for r in p.runs]
    checked += runs
    attempted, failed = len(runs), sum(r.failed for r in runs)
    expected = reference.expected_verdicts(workload)
    problems = []
    for i, rec in enumerate(checked):          # whole passes, in workload order
        problems += harness.check_run(rec, expected[i % len(workload.runs)])

    walls = [p.wall_s for p in untraced]
    wall_tail = tail(walls)
    e2e = {
        "wall_s": fastest(untraced, "wall_s"),
        "cpu_s": fastest(untraced, "cpu_s"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - failed) / attempted,
    }
    layer, varying = {}, []
    if traced:
        layer, varying = per_layer(tracer, traced, [
            m["name"] for m in spec["per_layer"] if m["name"] not in RUN_LEVEL])
        layer.update({
            "import.blowlab_cli.s": import_s,
            "fail_ratio": failed / attempted,
            "wall_s_median": statistics.median(walls),
            "wall_s_tail": wall_tail["value"],
            "wall_s_tail.percentile": wall_tail["percentile"],
            "wall_s_tail.beyond": wall_tail["beyond"],
            "trace.wall_s": fastest(traced, "wall_s"),
            "trace.overhead_s": fastest(traced, "wall_s") - e2e["wall_s"],
            "trace.spans": statistics.median(p.span_hi - p.span_lo for p in traced),
            "manifest.reference_mismatch": drift["mismatch"],
        })

    print(f"perfbench {workload.name}: seed {args.seed}, trace {args.trace}, "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"{attempted} runs")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"wall_s_median {statistics.median(walls):.6g} s; "
          f"wall_s_tail {wall_tail['value']:.6g} s at p{wall_tail['percentile']:.1f} "
          f"({wall_tail['beyond']} of {wall_tail['samples']} passes beyond)")
    shown = [(m, e2e) for m in spec["end_to_end"]]
    shown += [(m, layer) for m in spec["per_layer"]] if traced else []
    for m, values in shown:
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} (failed runs: "
          f"{sorted({r.label for r in runs if r.failed}) or 'none'})")
    print(f"reference drift: {drift['mismatch']} of {drift['files']} artifacts differ")
    if varying:
        print(f"warning: counts differ between traced passes: {varying}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"correct: {json.dumps(not problems)}")

    results = harness.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": workload.name, "environment": env, "seconds": args.seconds,
        "setup_samples_s": setup, "import_s": import_s,
        "end_to_end": e2e, "wall_s_tail": wall_tail, "per_layer": layer,
        "varying_counts": varying, "fail_ratio": failed / attempted,
        "reference": drift, "problems": problems,
        "passes": [{"traced": i >= len(untraced), "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "runs": [r.to_dict() for r in p.runs]}
                   for i, p in enumerate(measured)],
    }, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        (results / f"{stem}-spans.json.gz").write_bytes(gzip.compress(
            json.dumps({"fields": ["name", "run", "parent", "start", "end", "counts"],
                        "spans": tracer.spans}).encode()))
    shutil.rmtree(work, ignore_errors=True)

    reported, values = (spec["per_layer"], layer) if args.trace else (spec["end_to_end"], e2e)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
