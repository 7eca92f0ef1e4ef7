"""Run artifacts: atomic file writes, checksums, manifests, replay comparison.

Every CLI run leaves a manifest.json next to its outputs recording the tool
version, the resolved configuration, the seed, and a sha256 for each output
file. Replaying a manifest re-runs the same kind with the recorded config
and compares outputs file by file, bitwise first and numerically (relative
1e-12) as a fallback for text that embeds floats.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .config import config_hash, config_text, parse_config_roundtrip
from .errors import UsageError

TOOL_NAME = "blowlab"
TOOL_VERSION = "0.1.0"
MANIFEST_NAME = "manifest.json"
REL_TOL = 1e-12


def write_text_atomic(path, text: str) -> Path:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _json_default(obj):
    try:
        import numpy as np
    except ImportError:                       # pragma: no cover
        raise TypeError(f"not JSON serializable: {obj!r}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {obj!r}")


def json_text(obj) -> str:
    """Canonical JSON: sorted keys, repr floats, non-finite as strings."""
    cleaned = _sanitize(obj)
    return json.dumps(cleaned, indent=2, sort_keys=True, default=_json_default) + "\n"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)                       # 'inf', '-inf', 'nan'
    return obj


def write_json(path, obj) -> Path:
    return write_text_atomic(path, json_text(obj))


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def write_csv(path, header, rows) -> Path:
    return write_text_atomic(path, csv_text(header, rows))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class Verdict:
    """One named pass/fail judgement attached to a run."""
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "passed": bool(self.passed), "detail": self.detail}


def build_manifest(kind: str, cfg: dict, out_dir, files, verdicts,
                   seed: int, started: float, finished: float,
                   config_file: str | None = None,
                   overrides: dict | None = None) -> dict:
    out_dir = Path(out_dir)
    entries = []
    for name in sorted(files):
        p = out_dir / name
        entries.append({"name": name, "sha256": sha256_file(p), "bytes": p.stat().st_size})
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "kind": kind,
        "config_text": config_text(kind, cfg),
        "config_sha256": config_hash(kind, cfg),
        "config_file": config_file,
        "overrides": dict(overrides or {}),
        "seed": int(seed),
        "started_unix": started,
        "finished_unix": finished,
        "elapsed_seconds": finished - started,
        "outputs": entries,
        "verdicts": [v.to_dict() for v in verdicts],
        "all_passed": all(v.passed for v in verdicts),
    }


def save_manifest(out_dir, manifest: dict) -> Path:
    return write_json(Path(out_dir) / MANIFEST_NAME, manifest)


def load_manifest(path) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.is_file():
        raise UsageError(f"manifest not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest is not valid JSON: {path}: {exc}") from None
    for key in ("kind", "config_text", "config_sha256", "outputs"):
        if key not in data:
            raise UsageError(f"manifest missing field {key!r}: {path}")
    return data


def manifest_config(manifest: dict) -> tuple[str, dict]:
    """Recover (kind, resolved config); refuse if the hash does not match."""
    kind = manifest["kind"]
    cfg = parse_config_roundtrip(kind, manifest["config_text"])
    if config_hash(kind, cfg) != manifest["config_sha256"]:
        raise UsageError("config hash mismatch: manifest config text was edited; "
                         "refusing to replay")
    return kind, cfg


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _compare_values(a, b, worst: list) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return False
        return all(_compare_values(a[k], b[k], worst) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        return all(_compare_values(x, y, worst) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        d = _rel_diff(float(a), float(b))
        worst[0] = max(worst[0], d)
        return d <= REL_TOL
    return a == b


def _csv_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _parse_output(name: str, text: str):
    """JSON as loaded; CSV as rows whose cells are floats where they parse,
    text otherwise. Both then go through the one _compare_values rule."""
    if name.endswith(".json"):
        return json.loads(text)
    return [[_csv_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _compare_text(name: str, text_a: str, text_b: str) -> dict:
    result = {"name": name, "bitwise": text_a == text_b, "numeric_ok": True,
              "max_rel_diff": 0.0}
    if result["bitwise"]:
        return result
    worst = [0.0]
    try:
        ok = _compare_values(_parse_output(name, text_a),
                             _parse_output(name, text_b), worst)
    except json.JSONDecodeError:
        ok = False
    result["numeric_ok"] = ok
    result["max_rel_diff"] = worst[0]
    return result


def compare_outputs(dir_a, dir_b, names) -> list[dict]:
    """Per-file comparison reports; missing files count as mismatches."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    reports = []
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not pa.is_file() or not pb.is_file():
            reports.append({"name": name, "bitwise": False, "numeric_ok": False,
                            "max_rel_diff": math.inf})
            continue
        reports.append(_compare_text(name, pa.read_text(), pb.read_text()))
    return reports


def now() -> float:
    return time.time()
