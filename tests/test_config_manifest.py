"""Typed config resolution and the run-artifact layer: canonical text,
hashing, atomic writes, CSV/JSON formatting, manifests, and the replay
comparison rules (bitwise first, numeric at relative 1e-12 as fallback).
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from blowlab import ConfigurationError, UsageError, config, experiments
from blowlab.calculus import CSV_HEADER, CheckRow
from blowlab.config import (
    KINDS,
    SCHEMAS,
    config_hash,
    config_text,
    load_config_file,
    parse_config_text,
    resolve_config,
)
from blowlab.evolution import ConvergenceReport, DissipationReport, WindowRow
from blowlab.manifest import (
    CSV_BLOCK_ROWS,
    REL_TOL,
    Verdict,
    build_manifest,
    compare_outputs,
    format_cell,
    json_text,
    load_manifest,
    manifest_config,
    save_manifest,
    sha256_file,
    write_csv,
    write_json,
    write_text_atomic,
)
from blowlab.profiles import Bracket
from blowlab.spectral import ModeLabel, SignChangeReport, SpectrumReport, StabilityReport

FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"


# ---------------------------------------------------------------------------
# config


def test_defaults_per_kind():
    cfg = resolve_config("scan")
    assert cfg["alpha_lo"] == 0.5 and cfg["alpha_hi"] == 1.5
    assert cfg["count"] == 33 and cfg["bisect_tol"] == 1e-8
    assert cfg["spacing"] == "linear"
    assert cfg["n"] == 1 and cfg["p"] == 2.0 and cfg["seed"] == 0
    with pytest.raises(ConfigurationError):
        resolve_config("replay")
    assert resolve_config("theorem13")["K"] == 1.0


def test_every_kind_has_a_runner():
    assert tuple(experiments.RUNNERS) == KINDS


def test_precedence_defaults_file_overrides():
    cfg = resolve_config("blowup", {"theta": "0.1"})
    assert cfg["theta"] == 0.1
    cfg = resolve_config("blowup", {"theta": "0.1"}, {"theta": "0.15"})
    assert cfg["theta"] == 0.15


def test_coercion_rules():
    cfg = resolve_config("spectrum", {"N": "12", "p": "3", "basis": "radial"})
    assert cfg["N"] == 12 and isinstance(cfg["N"], int)
    assert cfg["p"] == 3.0 and isinstance(cfg["p"], float)
    assert cfg["basis"] == "radial"
    for raw, want in (("true", True), ("1", True), ("yes", True), ("on", True),
                      ("false", False), ("0", False), ("no", False), ("off", False),
                      (True, True)):
        assert resolve_config("blowup", {"diffusion": raw})["diffusion"] is want
    assert resolve_config("exponents", {"n": 4.0})["n"] == 4
    with pytest.raises(ConfigurationError):
        resolve_config("exponents", {"n": "4.5"})
    with pytest.raises(ConfigurationError):
        resolve_config("exponents", {"n": "four"})
    with pytest.raises(ConfigurationError):
        resolve_config("blowup", {"diffusion": "maybe"})
    with pytest.raises(ConfigurationError):
        resolve_config("blowup", {"init": "sine"})


def test_unknown_kind_and_key():
    with pytest.raises(ConfigurationError):
        resolve_config("frobnicate")
    with pytest.raises(ConfigurationError):
        resolve_config("scan", {"alpha_max": "2.0"})


def test_kind_line_must_match():
    assert resolve_config("scan", {"kind": "scan"})["count"] == 33
    with pytest.raises(ConfigurationError):
        resolve_config("scan", {"kind": "blowup"})


def test_validation_rules():
    with pytest.raises(ConfigurationError):
        resolve_config("exponents", {"p": "1.0"})
    with pytest.raises(ConfigurationError):
        resolve_config("exponents", {"n": "0"})
    with pytest.raises(ConfigurationError):
        resolve_config("blowup", {"theta": "0.3"})
    with pytest.raises(ConfigurationError):
        resolve_config("blowup", {"theta": "0"})
    with pytest.raises(ConfigurationError):
        resolve_config("evolve-rescaled", {"L": "4"})
    with pytest.raises(ConfigurationError):
        resolve_config("scan", {"alpha_lo": "2.0", "alpha_hi": "1.0"})
    for kind in ("evolve-rescaled", "blowup", "theorem13"):
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            resolve_config(kind, {"n": "2"})
        assert resolve_config(kind, {"n": "2", "geometry": "ball"})["n"] == 2


@pytest.mark.parametrize("r_max", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("kind", ["shoot", "scan", "spectrum"])
def test_shots_refuse_a_degenerate_r_max(kind, r_max):
    # a scan's lanes would never reach a nan r_max
    with pytest.raises(ConfigurationError, match="r_max"):
        resolve_config(kind, {"r_max": r_max})


def test_parse_config_text():
    text = """
    # a comment
    kind = scan    # trailing comment
    count = 9

    count = 11
    """
    raw = parse_config_text(text)
    assert raw == {"kind": "scan", "count": "11"}
    # single quotes, as config_text writes text values, are dropped
    text = "kind = 'scan'\nspacing = 'log'\nempty = ''\nlone = '\n"
    assert parse_config_text(text) == {"kind": "scan", "spacing": "log",
                                       "empty": "", "lone": "'"}
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("kind scan")
    assert "line 1" in str(err.value)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("kind = shoot\nalpha = 2.0\n")
    values = load_config_file(path)
    assert values == {"kind": "shoot", "alpha": "2.0"}
    assert resolve_config("shoot", values)["alpha"] == 2.0
    assert resolve_config("shoot", values, {"alpha": "3.0"})["alpha"] == 3.0
    with pytest.raises(ConfigurationError):
        resolve_config("scan", values)             # file names another kind
    with pytest.raises(ConfigurationError):
        load_config_file(tmp_path / "absent.cfg")


def test_config_text_roundtrip_every_kind(tmp_path):
    # the config_text a manifest records is a config file: read back through
    # --config's path (load_config_file, resolve_config), quoted text included
    for kind in KINDS:
        cfg = resolve_config(kind)
        text = config_text(kind, cfg)
        assert text.splitlines()[0] == f"kind = {kind}"
        keys = [ln.split(" = ")[0] for ln in text.splitlines()[1:]]
        assert keys == sorted(keys)
        path = tmp_path / f"{kind}.cfg"
        path.write_text(text)
        again = resolve_config(kind, load_config_file(path))
        assert again == cfg
        assert config_hash(kind, again) == config_hash(kind, cfg)
        assert config_hash(kind, cfg) == config_hash(kind, dict(cfg))


def test_config_hash_sensitivity():
    a = resolve_config("scan")
    b = resolve_config("scan", {"count": "34"})
    assert config_hash("scan", a) != config_hash("scan", b)
    assert len(config_hash("scan", a)) == 64


def test_schema_defaults_are_valid():
    # every schema must resolve under its own validators
    for kind in SCHEMAS:
        resolve_config(kind)


# the refusals that pass each key's interval: the rules across keys
_CROSS_KEY = ("interval geometry is one-dimensional", "s_end/ds = ", "alpha_lo < alpha_hi")


def _interval_probes(field):
    """(raw value, inside) at each finite bound of the Field's interval, the
    nearest values on either side of it (ints step by 1), nan and +-inf; each
    value as the CLI passes it (text) and as a caller may (a number)."""
    text = field.interval
    assert text[0] in "([" and text[-1] in ")]", text
    lo, hi = (float(b) for b in text[1:-1].split(","))
    assert lo < hi
    closed_lo, closed_hi = text[0] == "[", text[-1] == "]"

    def step(v, d):
        return int(v) + d if field.typ is int else math.nextafter(v, d * math.inf)

    probes = [(math.nan, False), (math.inf, hi == math.inf and closed_hi),
              (-math.inf, lo == -math.inf and closed_lo)]
    if math.isfinite(lo):
        probes += [(int(lo) if field.typ is int else lo, closed_lo),
                   (step(lo, -1), False), (step(lo, 1), True)]
    if math.isfinite(hi):
        probes += [(int(hi) if field.typ is int else hi, closed_hi),
                   (step(hi, 1), False), (step(hi, -1), True)]
    return [(raw, inside) for v, inside in probes for raw in (repr(v), v)]


def _assert_refused(kind, key, raw):
    with pytest.raises(ConfigurationError) as err:
        resolve_config(kind, {key: raw})
    # "n: expected int, got 'nan'" or "n must be in [1, inf), got 0"
    assert str(err.value).startswith((f"{key}:", f"{key} must be in")), (raw, str(err.value))


_RANGED = [(kind, key) for kind, schema in SCHEMAS.items()
           for key, field in schema.items() if field.interval]


@pytest.mark.parametrize("kind, key", _RANGED, ids=[f"{k}-{key}" for k, key in _RANGED])
def test_each_key_accepts_exactly_its_interval(kind, key):
    # generated from the schema: each probe is accepted (or refused only by a
    # rule across keys) when it is inside, and refused naming the key if not
    for raw, inside in _interval_probes(SCHEMAS[kind][key]):
        if not inside:
            _assert_refused(kind, key, raw)
            continue
        try:
            resolve_config(kind, {key: raw})
        except ConfigurationError as err:
            assert any(rule in str(err) for rule in _CROSS_KEY), (raw, str(err))


def test_theorem13_refuses_what_blowup_refuses():
    # theorem13 inherits blowup's keys and their intervals through its schema
    for key, field in SCHEMAS["blowup"].items():
        if not field.interval:
            continue
        assert SCHEMAS["theorem13"][key] == field
        for raw, inside in _interval_probes(field):
            if not inside:
                _assert_refused("blowup", key, raw)
                _assert_refused("theorem13", key, raw)


# ---------------------------------------------------------------------------
# manifest plumbing


def test_write_text_atomic(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    write_text_atomic(target, "one\n")
    assert target.read_text() == "one\n"
    write_text_atomic(target, "two\n")
    assert target.read_text() == "two\n"
    assert list(target.parent.glob("*.tmp")) == []

    # a writer that raises partway leaves neither its temp file nor the target
    def rows():
        yield (1.0,)
        raise RuntimeError("rows ran out")
    with pytest.raises(RuntimeError):
        write_csv(target.parent / "partial.csv", ("x",), rows())
    assert sorted(q.name for q in target.parent.iterdir()) == ["out.txt"]


def test_json_text_canonical():
    text = json_text({"b": 1.5, "a": math.inf, "c": [math.nan, np.float64(0.25)],
                      "d": np.arange(3), "e": np.bool_(True)})
    data = json.loads(text)
    assert list(data) == ["a", "b", "c", "d", "e"]
    assert data["a"] == "inf" and data["c"][0] == "nan"
    assert data["d"] == [0, 1, 2] and data["e"] is True
    assert text.endswith("\n")
    # numpy scalars and arrays follow the non-finite rule too: no bare NaN
    def refuse(name):
        raise ValueError(f"bare {name} in JSON")
    text = json_text({"a": np.array([np.nan, 1.0]), "b": np.float32("inf"),
                      "c": np.int64(3), "d": np.bool_(True)})
    data = json.loads(text, parse_constant=refuse)
    assert data == {"a": ["nan", 1.0], "b": "inf", "c": 3, "d": True}
    with pytest.raises(TypeError):
        json_text({"x": object()})


def test_format_cell():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.0 / 3.0) == "0.333333333333"
    assert format_cell("hit-zero") == "hit-zero"


def _csv(tmp_path, header, rows) -> str:
    return write_csv(tmp_path / "t.csv", header, rows).read_text()


def test_csv_text_golden(tmp_path):
    text = _csv(tmp_path, ("alpha", "outcome", "ok"),
                [(0.5, "hit-zero", True), (1.0, "reached-Rmax-bounded", False)])
    assert text == ("alpha,outcome,ok\n"
                    "0.5,hit-zero,true\n"
                    "1,reached-Rmax-bounded,false\n")


@pytest.mark.parametrize("arr", [
    np.array([[math.nan, math.inf], [-math.inf, -0.0], [5e-324, 1e21],
              [3.0, 1.0 / 3.0], [0.1, -2.5e-300], [1e16, 123456789012.5]]),
    np.linspace(-2.0, 2.0, 1001).reshape(-1, 1) ** 3,
    np.random.default_rng(5).standard_normal((50, 5)) * 10.0 ** np.arange(-8, 17, 5),
    np.empty((0, 3)),
    np.empty((4, 0)),
], ids=["specials", "one-column", "five-columns", "no-rows", "no-columns"])
def test_csv_text_of_a_float_array_is_that_of_its_rows(arr, tmp_path):
    # a 2-D float64 array is formatted a block of rows per operation; the
    # bytes must be those of the per-cell path over the same rows as tuples
    header = tuple(f"c{j}" for j in range(arr.shape[1]))
    assert _csv(tmp_path, header, arr) == _csv(tmp_path, header, map(tuple, arr))


@pytest.mark.parametrize("count", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 40001])
def test_csv_blocks_join_to_the_whole_text(count, tmp_path):
    # the blocks around their boundaries, and the 40001-row final state:
    # the file is the array formatted in one % operation, and its rows as
    # tuples through the per-cell path
    x = np.linspace(-2.0, 2.0, count)
    arr = np.column_stack((x, np.exp(-x * x) * 1e3 / 7.0))
    line = "%.12g,%.12g\n"
    whole = "x,u\n" + (line * count) % tuple(arr.ravel().tolist())
    assert _csv(tmp_path, ("x", "u"), arr) == whole
    assert _csv(tmp_path, ("x", "u"), map(tuple, arr)) == whole


def test_csv_text_formats_other_arrays_per_cell(tmp_path):
    # float32 cells are not floats: they go through str() as before
    ints = np.arange(6).reshape(3, 2)
    assert _csv(tmp_path, ("a", "b"), ints) == "a,b\n0,1\n2,3\n4,5\n"
    small = np.array([[0.1, 1.0 / 3.0]], dtype=np.float32)
    assert _csv(tmp_path, ("a", "b"), small) == _csv(tmp_path, ("a", "b"), map(tuple, small))


def test_sha256_file(tmp_path):
    import hashlib
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    assert sha256_file(path) == hashlib.sha256(b"abc").hexdigest()


# empty, one byte, one read chunk of sha256_file (1 << 16), a chunk and a
# byte, and many chunks
DIGEST_SIZES = [0, 1, 65536, 65537, 1_000_000]


def _digest_input(size):
    return bytes(range(256)) * (size // 256) + bytes(range(size % 256))


@pytest.mark.parametrize("size", DIGEST_SIZES)
def test_digests_equal_hashlib_sha256(tmp_path, size):
    import hashlib
    data = _digest_input(size)
    path = tmp_path / "x.bin"
    path.write_bytes(data)
    want = hashlib.sha256(data).hexdigest()
    assert sha256_file(path) == want
    assert config.sha256(data).hexdigest() == want


@pytest.mark.parametrize("kind", KINDS)
def test_config_hash_equals_hashlib_sha256_of_config_text(kind):
    import hashlib
    cfg = resolve_config(kind)
    text = config_text(kind, cfg).encode()
    assert config_hash(kind, cfg) == hashlib.sha256(text).hexdigest()


def test_digests_through_the_hashlib_fallback(tmp_path):
    # with CPython's builtin SHA-256 modules made unimportable, blowlab takes
    # hashlib.sha256, and every digest is the same
    import hashlib
    script = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from blowlab import config, manifest
assert config.sha256 is hashlib.sha256
paths, kinds = json.loads(sys.argv[1])
print(json.dumps([[manifest.sha256_file(p) for p in paths],
                  [config.config_hash(k, config.resolve_config(k)) for k in kinds]]))
"""
    paths = []
    for size in DIGEST_SIZES:
        paths.append(str(tmp_path / f"{size}.bin"))
        Path(paths[-1]).write_bytes(_digest_input(size))
    env = dict(os.environ, PYTHONPATH=str(Path(config.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([paths, list(KINDS)])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    files, configs = json.loads(proc.stdout)
    assert files == [hashlib.sha256(_digest_input(s)).hexdigest() for s in DIGEST_SIZES]
    assert configs == [config_hash(k, resolve_config(k)) for k in KINDS]


def _small_run_dir(tmp_path, seed=0):
    out = tmp_path / "run"
    out.mkdir(exist_ok=True)
    write_csv(out / "table.csv", ("i", "v"), [(0, 0.5), (1, 0.25)])
    write_json(out / "summary.json", {"ok": True, "value": 1.0 / 3.0})
    cfg = resolve_config("exponents", {"seed": str(seed)})
    manifest = build_manifest("exponents", cfg, out,
                              ["table.csv", "summary.json"],
                              [Verdict("demo", True, "fine")],
                              started=1.0, finished=2.5)
    save_manifest(out, manifest)
    return out, manifest


def test_build_save_load_manifest(tmp_path):
    out, manifest = _small_run_dir(tmp_path)
    assert manifest["all_passed"] is True
    assert manifest["elapsed_seconds"] == 1.5
    names = [e["name"] for e in manifest["outputs"]]
    assert names == ["summary.json", "table.csv"]          # sorted
    for e in manifest["outputs"]:
        assert len(e["sha256"]) == 64 and e["bytes"] > 0
    loaded = load_manifest(out)                            # directory form
    assert loaded == json.loads(json_text(manifest))
    loaded = load_manifest(out / "manifest.json")          # file form
    assert loaded["kind"] == "exponents"
    kind, cfg = manifest_config(loaded)
    assert kind == "exponents" and cfg["seed"] == 0


def test_load_manifest_errors(tmp_path):
    with pytest.raises(UsageError):
        load_manifest(tmp_path / "missing")
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError):
        load_manifest(tmp_path)
    bad.write_text(json.dumps({"kind": "exponents"}))
    with pytest.raises(UsageError):
        load_manifest(tmp_path)


def test_manifest_tamper_refused(tmp_path):
    out, _ = _small_run_dir(tmp_path)
    data = json.loads((out / "manifest.json").read_text())
    data["config_text"] = data["config_text"].replace("random_p_count = 100",
                                                      "random_p_count = 10")
    (out / "manifest.json").write_text(json.dumps(data))
    with pytest.raises(UsageError) as err:
        manifest_config(load_manifest(out))
    assert "refusing to replay" in str(err.value)


def test_verdict_to_dict(tmp_path):
    # a manifest writes each verdict as its fields
    v = Verdict("x", False, "why")
    manifest = build_manifest("exponents", resolve_config("exponents"), tmp_path,
                              [], [v], started=0.0, finished=1.0)
    assert manifest["verdicts"] == [{"name": "x", "passed": False, "detail": "why"}]


# ---------------------------------------------------------------------------
# records written whole: a record's fields are the keys or columns it
# writes, so a new field reaches its artifact by itself and is pinned here


def _names(record) -> tuple:
    return tuple(f.name for f in fields(record))


def _formats_columns(file_name) -> tuple:
    """The columns FORMATS.md lists for a CSV table."""
    for line in FORMATS.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[1] == f"`{file_name}`":
            return tuple(cells[2].strip("`").split(","))
    raise AssertionError(f"FORMATS.md lists no columns for {file_name}")


def test_csv_records_are_their_tables_columns():
    assert _names(Bracket) == _formats_columns("brackets.csv")
    assert _names(WindowRow) == _formats_columns("window.csv")
    # identities.csv calls the name column check_name
    assert CSV_HEADER == _formats_columns("identities.csv")
    assert _names(CheckRow) == ("name",) + CSV_HEADER[1:]


def test_json_records_are_the_keys_they_write():
    # listed in FORMATS.md: a manifest's verdicts, evolve.json's dissipation
    assert _names(Verdict) == ("name", "passed", "detail")
    assert _names(DissipationReport) == ("s_lo", "s_hi", "lhs", "rhs", "rel_err", "holds")
    # report.json's convergence; spectrum.json's top-level report keys, its
    # sign_change and its stability with one object per mode
    assert _names(ConvergenceReport) == ("n", "p", "K", "conv_tol", "T_est", "a_est",
                                         "rows", "decreasing", "final_sup", "passed")
    assert _names(SpectrumReport) == ("n", "p", "basis_kind", "basis_size", "eigenvalues")
    assert _names(SignChangeReport) == ("min_H", "max_H", "sign_change", "lambda1",
                                        "consistent", "tau")
    assert _names(StabilityReport) == ("modes", "stable", "note")
    assert _names(ModeLabel) == ("eigenvalue", "label", "span_residual",
                                 "by_eigenvalue_only")


# ---------------------------------------------------------------------------
# output comparison


def test_compare_outputs_bitwise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        write_csv(d / "t.csv", ("x",), [(1.0,)])
    reports = compare_outputs(a, b, ["t.csv"])
    assert reports[0]["bitwise"] and reports[0]["numeric_ok"]
    assert reports[0]["max_rel_diff"] == 0.0


def test_compare_outputs_numeric_fallback(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "t.csv").write_text("x,tag\n1.0,ok\n")
    (b / "t.csv").write_text("x,tag\n1.0000000000001,ok\n")   # rel 1e-13
    rep = compare_outputs(a, b, ["t.csv"])[0]
    assert not rep["bitwise"]
    assert rep["numeric_ok"]
    assert 0.0 < rep["max_rel_diff"] <= REL_TOL

    (b / "t.csv").write_text("x,tag\n1.01,ok\n")
    rep = compare_outputs(a, b, ["t.csv"])[0]
    assert not rep["numeric_ok"]

    (b / "t.csv").write_text("x,tag\n1.0,different\n")
    rep = compare_outputs(a, b, ["t.csv"])[0]
    assert not rep["numeric_ok"]

    # nan matches nan however it is spelled
    (a / "t.csv").write_text("x,tag\nnan,ok\n")
    (b / "t.csv").write_text("x,tag\nNaN,ok\n")
    rep = compare_outputs(a, b, ["t.csv"])[0]
    assert not rep["bitwise"] and rep["numeric_ok"]
    assert rep["max_rel_diff"] == 0.0


def test_compare_outputs_csv_shapes_and_cell_types(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "t.csv").write_text("x,tag\n1.0,ok\n")
    (b / "t.csv").write_text("x,tag\n1.0,ok,extra\n")       # row length
    rep = compare_outputs(a, b, ["t.csv"])[0]
    assert not rep["bitwise"] and not rep["numeric_ok"]
    assert rep["max_rel_diff"] == 0.0

    (b / "t.csv").write_text("x,tag\n1.0,ok\n2.0,ok\n")     # row count
    assert not compare_outputs(a, b, ["t.csv"])[0]["numeric_ok"]

    (b / "t.csv").write_text("x,tag\nnan-ish,ok\n")          # number vs text
    rep = compare_outputs(a, b, ["t.csv"])[0]
    assert not rep["numeric_ok"]
    assert rep["max_rel_diff"] == 0.0

    # the printed forms differ, the numbers do not
    (b / "t.csv").write_text("x,tag\n1,ok\n")
    rep = compare_outputs(a, b, ["t.csv"])[0]
    assert not rep["bitwise"] and rep["numeric_ok"]


def test_compare_outputs_json_and_missing(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_json(a / "s.json", {"v": 0.1, "nested": [1.0, {"w": 2.0}]})
    write_json(b / "s.json", {"v": 0.1 * (1.0 + 5e-14), "nested": [1.0, {"w": 2.0}]})
    rep = compare_outputs(a, b, ["s.json"])[0]
    assert not rep["bitwise"] and rep["numeric_ok"]

    write_json(b / "s.json", {"v": 0.1, "nested": [1.0, {"w": 3.0}]})
    rep = compare_outputs(a, b, ["s.json"])[0]
    assert not rep["numeric_ok"]

    write_json(b / "s.json", {"v": 0.1, "nested": [1.0, {"w": 2.0}], "extra": 1})
    rep = compare_outputs(a, b, ["s.json"])[0]
    assert not rep["bitwise"] and not rep["numeric_ok"]

    (b / "s.json").write_text("not json\n")
    rep = compare_outputs(a, b, ["s.json"])[0]
    assert not rep["bitwise"] and not rep["numeric_ok"]

    rep = compare_outputs(a, b, ["absent.csv"])[0]
    assert not rep["bitwise"] and not rep["numeric_ok"]
    assert rep["max_rel_diff"] == math.inf
