"""Workloads and the closed-loop pass runner behind perfbench/run.py.

A pass runs every CLI invocation of one workload in order, in this process,
through ``blowlab.cli.main(argv)``: config resolution, runner, artifacts,
manifest hashing and verdicts, exactly as a user's command. The next
invocation starts when the previous one returns (closed loop, one client).

Nothing here imports numpy or blowlab at module level: cap_threads() must
run before numpy loads, and blowlab is imported by the caller so that the
import can be timed.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# warm-up and reference passes use this seed, so set-up does the same work
# on every run and its artifacts can be compared with the recorded copies
REFERENCE_SEED = 0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Run:
    """One CLI invocation. replay_of names the earlier run to replay."""
    label: str
    argv: tuple = ()
    replay_of: int | None = None

    @property
    def kind(self) -> str:
        return "replay" if self.replay_of is not None else self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple


def _set(*pairs):
    out = []
    for pair in pairs:
        out += ["--set", pair]
    return tuple(out)


WORKLOADS = {w.name: w for w in (
    # Profiles layer only (adaptive shooting plus bisection). The n = 3 scan
    # covers the singular (n-1)/r term and fails kappa-bracketed at the seed
    # commit, a known defect that stays in and is counted.
    Workload("scan-wide", (
        Run("scan-count129", ("scan",) + _set("count=129")),
        Run("scan-n3-p3", ("scan",) + _set("n=3", "p=3", "count=33")),
        Run("shoot", ("shoot",)),
    )),
    # Physical-frame stepper: banded solves and reaction substeps on the
    # fine interval, per-step matrix builds on the ball; a 40001-row CSV
    # written and read back by replay.
    Workload("blowup-scaled", (
        Run("theorem13-m40001", ("theorem13",) + _set("m=40001")),
        Run("replay-theorem13", replay_of=0),
        Run("blowup-ball-n3", ("blowup",) + _set("geometry=ball", "n=3", "amp=20",
                                                 "u_cap=1e12")),
    )),
    # Rescaled-frame stepper (energy every step, stable-mode eigensolve),
    # Gaussian-weighted calculus, quadrature and the spectral layer.
    Workload("similarity-frame", (
        Run("evolve-stable-mode", ("evolve-rescaled",) + _set("init=stable-mode")),
        Run("evolve-ball-n3-p3", ("evolve-rescaled",) + _set("geometry=ball", "n=3",
                                                            "p=3")),
        Run("verify-identities-n2", ("verify-identities",) + _set("n=2")),
        Run("spectrum-n2-N32", ("spectrum",) + _set("n=2", "N=32")),
        Run("exponents", ("exponents",)),
    )),
)}


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; call before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_blowlab():
    """Import blowlab.cli from this checkout's src/ (timed by the caller)."""
    if not (SRC / "blowlab" / "cli.py").is_file():
        raise FileNotFoundError(f"no blowlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import blowlab.cli
    return blowlab.cli


_VERDICT = re.compile(r"^\[(PASS|FAIL)\] ([^:]+):", re.MULTILINE)


@dataclass
class RunRecord:
    label: str
    kind: str
    wall_s: float
    cpu_s: float
    exit_code: int | None
    verdicts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def failed(self) -> bool:
        """Raised, exited non-zero, or printed a failing verdict."""
        return (self.error is not None or self.exit_code != 0
                or not all(self.verdicts.values()))

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(d["label"], d["kind"], d["wall_s"], d["cpu_s"], d["exit_code"],
                   d["verdicts"], d["error"])

    def to_dict(self) -> dict:
        return {"label": self.label, "kind": self.kind, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "exit_code": self.exit_code,
                "verdicts": self.verdicts, "error": self.error,
                "failed": self.failed}


@dataclass
class PassRecord:
    runs: list
    span_lo: int = 0
    span_hi: int = 0

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.runs)


def run_dirs(workload: Workload, out_root: Path) -> list[Path]:
    return [out_root / f"{i}-{run.label}" for i, run in enumerate(workload.runs)]


def _argv(workload: Workload, i: int, dirs: list[Path], seed: int) -> list[str]:
    run = workload.runs[i]
    if run.replay_of is not None:
        return ["replay", str(dirs[run.replay_of]), "--out", str(dirs[i])]
    return [*run.argv, "--out", str(dirs[i]), "--seed", str(seed)]


def run_once(cli, argv: list[str], label: str, kind: str, tracer=None) -> RunRecord:
    """One blowlab.cli.main(argv) call: timed, output captured, never raises."""
    out, err = io.StringIO(), io.StringIO()
    exit_code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.open(f"cli.{label}") if tracer is not None else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            exit_code = cli.main(argv)
        except Exception:   # a run that raises is recorded and the pass goes on
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if span is not None:
            tracer.close(span)
    verdicts = {name: status == "PASS"
                for status, name in _VERDICT.findall(out.getvalue() + err.getvalue())}
    return RunRecord(label, kind, wall, cpu, exit_code, verdicts, error)


def run_pass(cli, workload: Workload, out_root: Path, seed: int,
             tracer=None, pass_id: str = "") -> PassRecord:
    dirs = run_dirs(workload, out_root)
    record = PassRecord(runs=[])
    if tracer is not None:
        record.span_lo = len(tracer.spans)
    for i, run in enumerate(workload.runs):
        if tracer is not None:
            tracer.run_id = f"{pass_id}/{i}-{run.label}"
        record.runs.append(run_once(cli, _argv(workload, i, dirs, seed),
                                    run.label, run.kind, tracer))
    if tracer is not None:
        record.span_hi = len(tracer.spans)
    return record


def check_run(rec: RunRecord, expected: dict) -> list[str]:
    """Problems with one run, judged against the verdicts recorded at the
    reference commit. A verdict that failed there (a known defect) may fail
    or pass; one that passed there must still be present and pass."""
    problems = []
    if rec.error is not None:
        problems.append(f"{rec.label}: raised\n{rec.error}")
    elif rec.exit_code not in (0, 1):
        problems.append(f"{rec.label}: exit code {rec.exit_code}")
    elif (rec.exit_code == 0) != all(rec.verdicts.values()):
        problems.append(f"{rec.label}: exit code {rec.exit_code} disagrees with "
                        f"verdicts {rec.verdicts}")
    for name, passed in expected.items():
        if name not in rec.verdicts:
            problems.append(f"{rec.label}: verdict {name} missing")
        elif passed and not rec.verdicts[name]:
            problems.append(f"{rec.label}: verdict {name} failed")
    return problems
