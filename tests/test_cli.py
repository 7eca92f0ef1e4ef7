"""End-to-end CLI runs: exit codes (0 pass, 1 verdict failure, 2 usage,
3 numerical failure), artifact layout, fixed CSV headers, manifests, and
replay round trips including the tamper guard.
"""

import csv
import json
import math
import warnings

import pytest

import blowlab.cli as cli
from blowlab import NumericError
from blowlab.config import config_hash, config_text
from blowlab.manifest import load_manifest


def run_cli(*argv):
    return cli.main(list(argv))


def header_of(path):
    return path.read_text().splitlines()[0]


def test_exponents_run_and_artifacts(tmp_path, capsys):
    out = tmp_path / "exp"
    code = run_cli("exponents", "--out", str(out),
                   "--set", "n=11", "--set", "n_scan_hi=20",
                   "--set", "random_p_count=25")
    assert code == 0
    captured = capsys.readouterr()
    assert "[PASS] kappa-identity" in captured.out
    assert "[PASS] exponent-ordering" in captured.out
    assert "manifest:" in captured.out and captured.err == ""

    assert header_of(out / "exponents_scan.csv") == "n,p_S,p_JL,p_L"
    summary = json.loads((out / "exponents.json").read_text())
    assert summary["exponents"]["p_L"] == 7.0
    assert abs(summary["exponents"]["p_JL"] - 6.922024586816337) < 1e-12
    assert summary["random_p"]["max_residual"] < 1e-12

    manifest = load_manifest(out)
    assert manifest["kind"] == "exponents"
    assert manifest["all_passed"] is True
    assert {e["name"] for e in manifest["outputs"]} == {
        "exponents_scan.csv", "exponents.json"}
    assert manifest["config_sha256"] == config_hash(
        "exponents", dict_from_text(manifest["config_text"]))


def dict_from_text(text):
    from blowlab.config import parse_config_roundtrip
    kind = text.splitlines()[0].split(" = ")[1]
    return parse_config_roundtrip(kind, text)


def test_seed_flag_lands_in_manifest(tmp_path):
    out = tmp_path / "exp"
    assert run_cli("exponents", "--out", str(out), "--seed", "5",
                   "--set", "random_p_count=10", "--quiet") == 0
    manifest = load_manifest(out)
    assert manifest["seed"] == 5
    assert "seed = 5" in manifest["config_text"]
    assert manifest["overrides"]["seed"] == "5"


def test_quiet_suppresses_pass_lines(tmp_path, capsys):
    out = tmp_path / "exp"
    assert run_cli("exponents", "--out", str(out), "--quiet",
                   "--set", "random_p_count=10") == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli("exponents", "--set", "bogus_key=1",
                   "--out", str(tmp_path / "a")) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli("exponents", "--set", "noequals",
                   "--out", str(tmp_path / "b")) == 2
    assert run_cli("exponents", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "c")) == 2
    assert run_cli("blowup", "--set", "theta=0.5",
                   "--out", str(tmp_path / "d")) == 2
    capsys.readouterr()
    assert run_cli("blowup", "--set", "n=2",
                   "--out", str(tmp_path / "e")) == 2
    assert "one-dimensional" in capsys.readouterr().err
    assert run_cli("not-a-command") == 2     # argparse usage exit
    assert run_cli() == 2


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "blowlab" in capsys.readouterr().out


def test_verdict_failure_exits_1(tmp_path, capsys):
    # reaction-only constant data certainly blows up; demanding
    # global-existence must fail the status verdict but still leave artifacts
    out = tmp_path / "blow"
    code = run_cli("blowup", "--out", str(out), "--quiet",
                   "--set", "diffusion=false", "--set", "init=constant",
                   "--set", "amp=1.0", "--set", "m=101",
                   "--set", "expected_status=global-existence")
    assert code == 1
    captured = capsys.readouterr()
    assert "[FAIL] status-expected" in captured.err
    manifest = load_manifest(out)
    assert manifest["all_passed"] is False
    assert (out / "suphistory.csv").exists()


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    def boom(kind, cfg, out_dir):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli, "run_kind", boom)
    out = tmp_path / "exp"
    assert run_cli("exponents", "--out", str(out)) == 3
    assert "numerical failure:" in capsys.readouterr().err
    manifest = load_manifest(out)              # failure manifest still written
    assert manifest["all_passed"] is False
    assert manifest["verdicts"][0]["name"] == "numeric-failure"


@pytest.mark.parametrize("kind", ["blowup", "theorem13"])
def test_negative_data_gives_verdicts(tmp_path, kind):
    # negative initial data blows up downward; the run must end in verdicts
    # with a manifest, not in a traceback
    out = tmp_path / kind
    assert run_cli(kind, "--out", str(out), "--quiet", "--set", "amp=-3") in (0, 1)
    manifest = load_manifest(out)
    assert manifest["kind"] == kind and manifest["verdicts"]


@pytest.mark.parametrize("amp", [3.0, -3.0])
def test_positivity_verdict_follows_the_sign_of_the_data(tmp_path, amp):
    out = tmp_path / "blowup"
    assert run_cli("blowup", "--out", str(out), "--quiet", "--set", f"amp={amp}") == 0
    verdict = {v["name"]: v for v in load_manifest(out)["verdicts"]}["positivity"]
    summary = json.loads((out / "blowup.json").read_text())
    assert verdict["passed"] is True
    if amp > 0.0:       # the text positive data always had
        assert verdict["detail"] == f"min u = {summary['min_u']:.3e}"
    else:
        assert verdict["detail"].startswith("max u = ")


def _assert_failure_manifest(out):
    manifest = load_manifest(out)
    assert manifest["all_passed"] is False
    assert manifest["verdicts"][0]["name"] == "numeric-failure"


def test_rescaled_overflow_ends_as_blew_up(tmp_path, capsys):
    # with a cap beyond float range the state overflows first; the run's own
    # finiteness checks must end it, before its energy overflows, without an
    # exception from the solver or a numpy warning
    out = tmp_path / "evo"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("evolve-rescaled", "--out", str(out),
                       "--set", "cap=1e300", "--set", "amp=10") == 1
    assert "[FAIL] completed" in capsys.readouterr().err
    assert load_manifest(out)["all_passed"] is False
    assert json.loads((out / "evolve.json").read_text())["status"] == "blew-up"
    with open(out / "timeseries.csv") as fh:
        energies = [float(row["E"]) for row in csv.DictReader(fh)]
    assert len(energies) > 1 and all(math.isfinite(e) for e in energies)


def test_rescaled_initial_energy_overflow_exits_3(tmp_path, capsys):
    out = tmp_path / "evo"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("evolve-rescaled", "--out", str(out),
                       "--set", "amp=1e200") == 3
    assert "non-finite energy" in capsys.readouterr().err
    _assert_failure_manifest(out)


def test_unconverged_stable_mode_exits_3(tmp_path, capsys):
    out = tmp_path / "evo"
    assert run_cli("evolve-rescaled", "--out", str(out),
                   "--set", "init=stable-mode", "--set", "geometry=ball",
                   "--set", "n=10", "--set", "m=9") == 3
    assert "did not converge" in capsys.readouterr().err
    _assert_failure_manifest(out)


def test_cap_near_float_max(tmp_path, capsys):
    # 1e307 outruns the resolution of t before the cap: numeric failure
    out = tmp_path / "big"
    assert run_cli("blowup", "--out", str(out), "--set", "u_cap=1e307") == 3
    assert "numerical failure:" in capsys.readouterr().err
    _assert_failure_manifest(out)
    # 10 u_cap overflows: a usage error
    assert run_cli("blowup", "--out", str(tmp_path / "huge"),
                   "--set", "u_cap=1e308") == 2
    assert "u_cap" in capsys.readouterr().err


def test_shoot_default_is_kappa(tmp_path, capsys):
    out = tmp_path / "shoot"
    assert run_cli("shoot", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "[PASS] constant-profile-residual" in captured.out
    assert "[PASS] H-positive" in captured.out
    assert header_of(out / "profile.csv") == "r,w,w_r,H"
    summary = json.loads((out / "shoot.json").read_text())
    assert summary["outcome"] == "reached-Rmax-bounded"
    assert summary["accepted_bounded_positive"] is True


def test_scan_via_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "scan.cfg"
    cfgfile.write_text("kind = scan\ncount = 3\nbisect_tol = 1e-6\n")
    out = tmp_path / "scan"
    assert run_cli("scan", "--config", str(cfgfile), "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "[PASS] brackets-refined" in captured.out
    assert "[PASS] kappa-bracketed" in captured.out
    assert header_of(out / "scan.csv") == "alpha,outcome,r_end"
    assert header_of(out / "brackets.csv") == \
        "alpha_lo,alpha_hi,outcome_lo,outcome_hi,width"
    summary = json.loads((out / "scan.json").read_text())
    assert summary["kappa_in_some_bracket"] is True
    manifest = load_manifest(out)
    assert manifest["config_file"] == str(cfgfile)


def test_spectrum_run(tmp_path):
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--out", str(out), "--quiet",
                   "--set", "N=8", "--set", "k=4") == 0
    assert header_of(out / "eigenvalues.csv") == "index,eigenvalue"
    summary = json.loads((out / "spectrum.json").read_text())
    lam = summary["eigenvalues"]
    assert abs(lam[0] + 1.0) < 1e-8 and abs(lam[3] - 0.5) < 1e-8
    assert summary["fd_check"]["max_abs_err"] < 1e-3
    assert summary["stability"]["stable"] is True


def test_verify_identities_run(tmp_path):
    out = tmp_path / "ids"
    assert run_cli("verify-identities", "--out", str(out), "--quiet",
                   "--set", "cases=3") == 0
    assert header_of(out / "identities.csv") == \
        "check_name,lhs,rhs,residual,holds"
    summary = json.loads((out / "identities.json").read_text())
    assert summary["all_hold"] is True and summary["failures"] == []


def test_evolve_rescaled_run(tmp_path):
    out = tmp_path / "evo"
    assert run_cli("evolve-rescaled", "--out", str(out), "--quiet",
                   "--set", "s_end=0.5", "--set", "m=201",
                   "--set", "diss_lo=0.05", "--set", "diss_hi=0.45") == 0
    assert header_of(out / "timeseries.csv") == \
        "s,sup_dev,E,dissipation_lhs,dissipation_rhs"
    summary = json.loads((out / "evolve.json").read_text())
    assert summary["status"] == "completed"
    assert summary["dissipation"]["holds"] is True


def test_theorem13_run(tmp_path, capsys):
    out = tmp_path / "thm"
    assert run_cli("theorem13", "--out", str(out)) == 0
    captured = capsys.readouterr()
    for name in ("blew-up", "window-count", "window-monotone", "window-final"):
        assert f"[PASS] {name}" in captured.out
    assert header_of(out / "window.csv") == "t,T_minus_t,s,sup_dev,min_H"
    assert header_of(out / "suphistory.csv") == "t,max_u"
    assert header_of(out / "final_state.csv") == "x,u"
    summary = json.loads((out / "report.json").read_text())
    assert summary["convergence"]["passed"] is True


def test_theorem13_negative_data_mirrors_positive(tmp_path, capsys):
    # u -> -u maps solutions to solutions, so amp=-3 blows up at the same
    # (T, a) towards -kappa and gives amp=3's window ladder exactly
    neg, pos = tmp_path / "neg", tmp_path / "pos"
    assert run_cli("theorem13", "--out", str(neg), "--set", "amp=-3") == 0
    captured = capsys.readouterr()
    for name in ("blew-up", "window-count", "window-monotone", "window-final"):
        assert f"[PASS] {name}" in captured.out
    assert run_cli("theorem13", "--out", str(pos), "--quiet", "--set", "amp=3") == 0
    assert (neg / "window.csv").read_bytes() == (pos / "window.csv").read_bytes()


def test_replay_reproduces_run(tmp_path, capsys):
    src = tmp_path / "src"
    assert run_cli("exponents", "--out", str(src), "--quiet",
                   "--seed", "3", "--set", "random_p_count=20") == 0
    dst = tmp_path / "dst"
    assert run_cli("replay", str(src / "manifest.json"), "--out", str(dst)) == 0
    captured = capsys.readouterr()
    assert "[PASS] replay-matches" in captured.out
    report = json.loads((dst / "replay.json").read_text())
    assert report["matches"] is True
    assert all(r["bitwise"] or r["numeric_ok"] for r in report["files"])
    # the directory form of the manifest path also works
    dst2 = tmp_path / "dst2"
    assert run_cli("replay", str(src), "--out", str(dst2), "--quiet") == 0


def test_replay_refuses_tampered_manifest(tmp_path, capsys):
    src = tmp_path / "src"
    assert run_cli("exponents", "--out", str(src), "--quiet",
                   "--set", "random_p_count=20") == 0
    path = src / "manifest.json"
    data = json.loads(path.read_text())
    data["config_text"] = data["config_text"].replace(
        "random_p_count = 20", "random_p_count = 19")
    path.write_text(json.dumps(data))
    assert run_cli("replay", str(path), "--out", str(tmp_path / "dst")) == 2
    assert "refusing to replay" in capsys.readouterr().err


def test_replay_of_replay_refused(tmp_path, capsys):
    fake = tmp_path / "manifest.json"
    fake.write_text(json.dumps({
        "kind": "replay",
        "config_text": config_text("replay", {}),
        "config_sha256": config_hash("replay", {}),
        "outputs": [],
    }))
    assert run_cli("replay", str(fake), "--out", str(tmp_path / "dst")) == 2
    assert "cannot replay a replay" in capsys.readouterr().err
