"""Typed config resolution and the run-artifact layer: canonical text,
hashing, atomic writes, CSV/JSON formatting, manifests, and the replay
comparison rules (bitwise first, numeric at relative 1e-12 as fallback).
"""

import json
import math

import numpy as np
import pytest

from blowlab import ConfigurationError, UsageError
from blowlab.config import (
    KINDS,
    SCHEMAS,
    config_hash,
    config_text,
    load_config_file,
    parse_config_roundtrip,
    parse_config_text,
    resolve_config,
)
from blowlab.manifest import (
    REL_TOL,
    Verdict,
    build_manifest,
    compare_outputs,
    csv_text,
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


# ---------------------------------------------------------------------------
# config


def test_defaults_per_kind():
    cfg = resolve_config("scan")
    assert cfg["alpha_lo"] == 0.5 and cfg["alpha_hi"] == 1.5
    assert cfg["count"] == 33 and cfg["bisect_tol"] == 1e-8
    assert cfg["spacing"] == "linear"
    assert cfg["n"] == 1 and cfg["p"] == 2.0 and cfg["seed"] == 0
    assert resolve_config("replay") == {}
    assert resolve_config("theorem13")["K"] == 1.0


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


def test_parse_config_text():
    text = """
    # a comment
    kind = scan    # trailing comment
    count = 9

    count = 11
    """
    raw = parse_config_text(text)
    assert raw == {"kind": "scan", "count": "11"}
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


def test_config_text_roundtrip_every_kind():
    for kind in KINDS:
        cfg = resolve_config(kind)
        text = config_text(kind, cfg)
        assert text.splitlines()[0] == f"kind = {kind}"
        keys = [ln.split(" = ")[0] for ln in text.splitlines()[1:]]
        assert keys == sorted(keys)
        assert parse_config_roundtrip(kind, text) == cfg
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


# ---------------------------------------------------------------------------
# manifest plumbing


def test_write_text_atomic(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    write_text_atomic(target, "one\n")
    assert target.read_text() == "one\n"
    write_text_atomic(target, "two\n")
    assert target.read_text() == "two\n"
    assert list(target.parent.glob("*.tmp")) == []


def test_json_text_canonical():
    text = json_text({"b": 1.5, "a": math.inf, "c": [math.nan, np.float64(0.25)],
                      "d": np.arange(3), "e": np.bool_(True)})
    data = json.loads(text)
    assert list(data) == ["a", "b", "c", "d", "e"]
    assert data["a"] == "inf" and data["c"][0] == "nan"
    assert data["d"] == [0, 1, 2] and data["e"] is True
    assert text.endswith("\n")


def test_format_cell():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.0 / 3.0) == "0.333333333333"
    assert format_cell("hit-zero") == "hit-zero"


def test_csv_text_golden():
    text = csv_text(("alpha", "outcome", "ok"),
                    [(0.5, "hit-zero", True), (1.0, "reached-Rmax-bounded", False)])
    assert text == ("alpha,outcome,ok\n"
                    "0.5,hit-zero,true\n"
                    "1,reached-Rmax-bounded,false\n")


def test_sha256_file(tmp_path):
    import hashlib
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    assert sha256_file(path) == hashlib.sha256(b"abc").hexdigest()


def _small_run_dir(tmp_path, seed=0):
    out = tmp_path / "run"
    out.mkdir(exist_ok=True)
    write_csv(out / "table.csv", ("i", "v"), [(0, 0.5), (1, 0.25)])
    write_json(out / "summary.json", {"ok": True, "value": 1.0 / 3.0})
    cfg = resolve_config("exponents", {"seed": str(seed)})
    manifest = build_manifest("exponents", cfg, out,
                              ["table.csv", "summary.json"],
                              [Verdict("demo", True, "fine")],
                              seed=seed, started=1.0, finished=2.5)
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


def test_verdict_to_dict():
    v = Verdict("x", False, "why")
    assert v.to_dict() == {"name": "x", "passed": False, "detail": "why"}


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

    rep = compare_outputs(a, b, ["absent.csv"])[0]
    assert not rep["bitwise"] and not rep["numeric_ok"]
    assert rep["max_rel_diff"] == math.inf
