"""Run artifacts: atomic file writes, checksums, manifests, replay comparison.

Every CLI run leaves a manifest.json next to its outputs recording the tool
version, the resolved configuration, the seed, and a sha256 for each output
file. Replaying a manifest re-runs the same kind with the recorded config
and compares outputs file by file, bitwise first and numerically (relative
1e-12) as a fallback for text that embeds floats.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .config import config_hash, config_text, parse_config_text, resolve_config, sha256
from .errors import UsageError

TOOL_NAME = "blowlab"
TOOL_VERSION = "0.1.0"
MANIFEST_NAME = "manifest.json"
REL_TOL = 1e-12
# every float cell of a CSV, whether written by format_cell or as an array
FLOAT_FORMAT = "%.12g"


# rows of a float array formatted per write_csv block: about 160 KB of text
# for two columns, so a 40001-row state is never one ~4 MB text in memory
CSV_BLOCK_ROWS = 4096


def _write_atomic(path, write) -> Path:
    """Call write(fh) on a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_text_atomic(path, text: str) -> Path:
    """Write text via a temp file in the same directory, then rename."""
    return _write_atomic(path, lambda fh: fh.write(text))


def json_text(obj) -> str:
    """Canonical JSON: sorted keys, repr floats, non-finite as strings; a
    dataclass instance is written as its fields, dataclasses.asdict, and a
    numpy scalar or array as its Python values, .tolist()."""
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n"


def _sanitize(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if type(obj).__module__ == "numpy":        # without importing numpy here
        obj = obj.tolist()
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
        return FLOAT_FORMAT % value
    return str(value)


def _write_csv_rows(fh, header, rows) -> None:
    """The header line through csv.writer, then one line per row of cells
    from format_cell. rows is any iterable of rows; a 2-D float64 ndarray is
    formatted CSV_BLOCK_ROWS rows at a time, each block in one % operation
    over a per-row template of FLOAT_FORMAT cells, which gives the same bytes
    as its rows as tuples: a float cell is FLOAT_FORMAT % value either way, and
    csv.writer quotes none of those texts (digits, sign, point, e, inf,
    nan)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    if getattr(rows, "ndim", None) == 2 and rows.dtype == "float64":
        count, width = rows.shape
        line = ",".join((FLOAT_FORMAT,) * width) + "\n"
        for start in range(0, count, CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
    else:
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def write_csv(path, header, rows) -> Path:
    """Write header and rows as CSV text (see _write_csv_rows) via a temp
    file, then rename; a float array never exists as one whole text."""
    return _write_atomic(path, lambda fh: _write_csv_rows(fh, header, rows))


def sha256_file(path) -> str:
    h = sha256()
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


def build_manifest(kind: str, cfg: dict, out_dir, files, verdicts,
                   started: float, finished: float,
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
        "seed": cfg["seed"],
        "started_unix": started,
        "finished_unix": finished,
        "elapsed_seconds": finished - started,
        "outputs": entries,
        "verdicts": [dataclasses.asdict(v) for v in verdicts],
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
    if not isinstance(data, dict):
        raise UsageError(f"manifest is not a JSON object: {path}")
    for key in ("kind", "config_text", "config_sha256"):
        if not isinstance(data.get(key), str):
            raise UsageError(f"manifest field {key!r} is missing or not a string: {path}")
    outputs = data.get("outputs")
    if not (isinstance(outputs, list)
            and all(isinstance(e, dict) and _is_file_name(e.get("name")) for e in outputs)):
        raise UsageError(f"manifest field 'outputs' is not a list of objects with "
                         f"a plain file name each: {path}")
    return data


def _is_file_name(name) -> bool:
    """A file name with no directory part, so it stays inside a run directory."""
    return isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name


def manifest_config(manifest: dict) -> tuple[str, dict]:
    """Recover (kind, resolved config) through the --config parser; refuse if
    the hash does not match."""
    kind = manifest["kind"]
    cfg = resolve_config(kind, parse_config_text(manifest["config_text"]))
    if config_hash(kind, cfg) != manifest["config_sha256"]:
        raise UsageError("config hash mismatch: manifest config text was edited; "
                         "refusing to replay")
    return kind, cfg


def _rel_diff(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|), or inf where numbers differ and that is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b) / max(abs(a), abs(b), 1e-300)
    return d if math.isfinite(d) else math.inf


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
