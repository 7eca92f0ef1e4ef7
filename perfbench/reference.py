"""Reference artifacts and the drift check against them.

perfbench/reference/<workload>/<i>-<label>/ holds, for every run of a
workload's warm-up pass at REFERENCE_SEED, each artifact gzip-compressed
plus verdicts.json (verdict name -> passed). They were recorded from the
commit that introduced the benchmark. The drift check compares a pass's
artifacts with them through blowlab.manifest.compare_outputs (bitwise, else
relative 1e-12, replay's own rule). manifest.json is left out (it records
wall-clock times) and so are path-bearing fields such as replay.json's
``source``.

Re-record (only when a behaviour change is intended, and say so):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

import harness

REF_DIR = Path(__file__).resolve().parent / "reference"
SKIP = {"manifest.json"}
PATH_FIELDS = {"replay.json": ("source",)}


def _artifact_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    drop = PATH_FIELDS.get(path.name)
    if drop:
        obj = json.loads(data)
        for key in drop:
            obj.pop(key, None)
        data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    return data


def _artifacts(run_dir: Path) -> list[Path]:
    return sorted(p for p in run_dir.iterdir() if p.is_file() and p.name not in SKIP)


def expected_verdicts(workload) -> list[dict]:
    base = REF_DIR / workload.name
    return [json.loads((base / f"{i}-{run.label}" / "verdicts.json").read_text())
            for i, run in enumerate(workload.runs)]


def compare(workload, out_root: Path, stage: Path) -> dict:
    """Drift report for a pass written under out_root; stage is scratch space."""
    from blowlab.manifest import compare_outputs

    shutil.rmtree(stage, ignore_errors=True)
    files, mismatches = 0, []
    for run_dir in harness.run_dirs(workload, out_root):
        ref = REF_DIR / workload.name / run_dir.name
        ref_stage, got_stage = stage / run_dir.name / "ref", stage / run_dir.name / "got"
        ref_stage.mkdir(parents=True)
        got_stage.mkdir(parents=True)
        names = set()
        for gz in ref.glob("*.gz"):
            (ref_stage / gz.name[:-3]).write_bytes(gzip.decompress(gz.read_bytes()))
            names.add(gz.name[:-3])
        for path in _artifacts(run_dir):
            (got_stage / path.name).write_bytes(_artifact_bytes(path))
            names.add(path.name)
        for rep in compare_outputs(ref_stage, got_stage, sorted(names)):
            files += 1
            if not (rep["bitwise"] or rep["numeric_ok"]):
                mismatches.append({"run": run_dir.name, **rep})
    shutil.rmtree(stage, ignore_errors=True)
    return {"files": files, "mismatch": len(mismatches), "mismatches": mismatches}


def record(workload, out_root: Path, records) -> None:
    base = REF_DIR / workload.name
    shutil.rmtree(base, ignore_errors=True)
    for run_dir, rec in zip(harness.run_dirs(workload, out_root), records):
        dst = base / run_dir.name
        dst.mkdir(parents=True)
        for path in _artifacts(run_dir):
            (dst / (path.name + ".gz")).write_bytes(
                gzip.compress(_artifact_bytes(path), mtime=0))
        (dst / "verdicts.json").write_text(
            json.dumps(rec.verdicts, indent=2, sort_keys=True) + "\n")


def main() -> int:
    harness.cap_threads()
    cli = harness.import_blowlab()
    for workload in harness.WORKLOADS.values():
        out_root = harness.WORK / "record" / workload.name
        shutil.rmtree(out_root, ignore_errors=True)
        rec = harness.run_pass(cli, workload, out_root, harness.REFERENCE_SEED)
        for run in rec.runs:
            if run.error is not None:
                print(run.error, file=sys.stderr)
                return 1
        record(workload, out_root, rec.runs)
        shutil.rmtree(out_root)
        print(f"recorded {workload.name}: "
              + ", ".join(f"{r.label} exit {r.exit_code}" for r in rec.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
