"""End-to-end CLI runs: exit codes (0 pass, 1 verdict failure, 2 usage,
3 numerical failure), artifact layout, fixed CSV headers, manifests, and
replay round trips including the tamper guard.
"""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blowlab.cli as cli
from blowlab import NumericError
from blowlab.config import SCHEMAS, config_hash, config_text, parse_config_text, resolve_config
from blowlab.manifest import load_manifest
from blowlab.profiles import bracket_splits


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
    kind = text.splitlines()[0].split(" = ")[1]
    return resolve_config(kind, parse_config_text(text))


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


def test_nonfinite_state_exits_3(tmp_path, capsys, inf_in_third_step):
    out = tmp_path / "blow"
    assert run_cli("blowup", "--out", str(out), "--quiet", "--set", "m=401") == 3
    assert "numerical failure: state left float range" in capsys.readouterr().err
    manifest = load_manifest(out)
    assert manifest["all_passed"] is False
    assert manifest["verdicts"][0]["name"] == "numeric-failure"


def test_one_eigendecomposition_per_spectrum_run(tmp_path, monkeypatch):
    # the runner's report, the sign-change check and the stability check
    # all read the operator's one decomposition
    from blowlab import spectral
    real = spectral.eigh
    calls = []

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(spectral, "eigh", counted)
    assert run_cli("spectrum", "--out", str(tmp_path / "s"), "--quiet",
                   "--set", "n=2", "--set", "N=32") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["blowup", "theorem13"])
def test_negative_data_gives_verdicts(tmp_path, kind):
    # negative initial data blows up downward; the run must end in verdicts
    # with a manifest, not in a traceback
    out = tmp_path / kind
    assert run_cli(kind, "--out", str(out), "--quiet", "--set", "amp=-3") in (0, 1)
    manifest = load_manifest(out)
    assert manifest["kind"] == kind and manifest["verdicts"]


@pytest.mark.parametrize("sets", [("amp=0",), ("amp=1e-200", "p=3")],
                         ids=["zero", "tiny-p3"])
def test_zero_and_tiny_data_give_verdicts(tmp_path, sets):
    # max|u|^(1-p) is 1/0 for zero data and overflows for 1e-200 at p = 3;
    # both runs exist globally and must end in verdicts with a manifest
    out = tmp_path / "blowup"
    argv = ["blowup", "--out", str(out), "--quiet"]
    for pair in sets:
        argv += ["--set", pair]
    assert run_cli(*argv) == 1
    verdicts = {v["name"]: v for v in load_manifest(out)["verdicts"]}
    assert verdicts["status-expected"]["detail"] == "status global-existence"
    summary = json.loads((out / "blowup.json").read_text())
    assert summary["status"] == "global-existence"


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


@pytest.mark.parametrize("sets", [
    ["alpha=nan"], ["alpha=-1"], ["alpha=inf"], ["profile=shoot", "alpha=nan"],
], ids=["shoot-nan", "shoot-negative", "shoot-inf", "spectrum-nan"])
def test_shots_refuse_a_degenerate_alpha(tmp_path, capsys, sets):
    # alpha > 0 used to pick kappa for any alpha that was not positive
    kind = "spectrum" if "profile=shoot" in sets else "shoot"
    argv = [kind, "--out", str(tmp_path / "o")]
    for setting in sets:
        argv += ["--set", setting]
    assert run_cli(*argv) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("kind, setting", [
    ("shoot", "alpha=1e300"), ("scan", "alpha_hi=1e300"), ("scan", "p=1e300"),
], ids=["shoot-alpha", "scan-alpha_hi", "scan-p"])
def test_a_series_start_out_of_float_range_is_refused(tmp_path, capsys, kind, setting):
    # shoot ended in scipy's "y0 must be finite" traceback, the scan never
    # returned (its lanes' step size went nan), and p = 1e300 ended in an
    # OverflowError traceback from alpha^(p-1)
    out = tmp_path / "o"
    assert run_cli(kind, "--out", str(out), "--set", setting) == 2
    assert "float range" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert [v["name"] for v in manifest["verdicts"]] == ["refused"]


@pytest.mark.parametrize("kind", ["exponents", "shoot", "scan", "spectrum", "evolve-rescaled"])
def test_kappa_out_of_float_range_is_refused(tmp_path, capsys, kind):
    # kappa overflows below p ~ 1.00699: each of these ended in an
    # OverflowError traceback from math.exp
    out = tmp_path / "o"
    assert run_cli(kind, "--out", str(out), "--set", "p=1.001") == 2
    assert "float range" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert [v["name"] for v in manifest["verdicts"]] == ["refused"]


@pytest.mark.parametrize("kind, setting", [
    ("spectrum", "k=0"), ("blowup", "u_cap=0"), ("blowup", "u_cap=-1"),
    ("theorem13", "K=0"), ("theorem13", "conv_tol=nan"), ("theorem13", "conv_tol=0"),
    ("blowup", "R=nan"), ("theorem13", "R=inf"),
    ("blowup", "width=0"), ("theorem13", "width=nan"),
    ("blowup", "t_max=nan"), ("theorem13", "t_max=-1"),
    ("blowup", "amp=inf"), ("theorem13", "amp=-inf"), ("evolve-rescaled", "amp=nan"),
    ("blowup", "R=1e-300"), ("theorem13", "R=1e-300 geometry=ball n=3"),
    ("scan", "alpha_hi=inf"),
], ids=["spectrum-k0", "blowup-u_cap0", "blowup-u_cap-negative", "theorem13-K0",
        "theorem13-conv_tol-nan", "theorem13-conv_tol0",
        "blowup-R-nan", "theorem13-R-inf", "blowup-width0", "theorem13-width-nan",
        "blowup-t_max-nan", "theorem13-t_max-negative",
        "blowup-amp-inf", "theorem13-amp-negative-inf", "evolve-rescaled-amp-nan",
        "blowup-R-underflow", "theorem13-ball-R-underflow", "scan-alpha_hi-inf"])
def test_degenerate_settings_exit_2(tmp_path, capsys, kind, setting):
    # each ended in a traceback, a vacuous pass, a run with no time limit or
    # no steps, or a "state left float range" exit 3 with leaked warnings;
    # R = 1e-300 leaked a divide-by-zero warning from 1/h^2, and alpha_hi = inf
    # an invalid-value warning from the scan's alpha grid. The first
    # setting is the one the refusal names
    argv = [kind, "--out", str(tmp_path / "o")]
    for one in setting.split():
        argv += ["--set", one]
    assert run_cli(*argv) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("status", ["global-existence", "any"])
def test_theorem13_refuses_an_expected_status_other_than_blew_up(tmp_path, capsys, status):
    # run_theorem13 never read the key, so these ran with no status verdict;
    # the default config_text, which names blew-up, still resolves unchanged
    out = tmp_path / "o"
    assert run_cli("theorem13", "--out", str(out), "--set", f"expected_status={status}") == 2
    assert "expected_status" in capsys.readouterr().err
    assert not out.exists()
    cfg = resolve_config("theorem13")
    assert "expected_status = 'blew-up'" in config_text("theorem13", cfg)
    assert resolve_config("theorem13", parse_config_text(config_text("theorem13", cfg))) == cfg


@pytest.mark.parametrize("kind, amp", [
    ("blowup", "1e308"), ("theorem13", "1e308"), ("blowup", "1e8"), ("theorem13", "-1e9"),
], ids=["blowup-1e308", "theorem13-1e308", "blowup-at-cap", "theorem13-beyond-cap"])
def test_data_at_or_beyond_the_cap_is_refused(tmp_path, capsys, kind, amp):
    # 1e308 ended in an OverflowError traceback while the snapshot ladder
    # was built; data at the cap has no history to fit a blow-up time
    out = tmp_path / "o"
    assert run_cli(kind, "--out", str(out), "--set", f"amp={amp}") == 2
    assert "u_cap" in capsys.readouterr().err
    manifest = load_manifest(out)
    assert manifest["all_passed"] is False
    assert [v["name"] for v in manifest["verdicts"]] == ["refused"]


@pytest.mark.parametrize("settings", [("diss_lo=1.995",), ("diss_lo=1.5", "diss_hi=1.0")],
                         ids=["narrow-window", "inverted-window"])
def test_a_refused_run_writes_only_its_manifest(tmp_path, capsys, settings):
    # refused after the run has stepped: timeseries.csv was left beside a
    # manifest that listed no outputs
    out = tmp_path / "o"
    argv = ["evolve-rescaled", "--out", str(out)]
    for one in settings:
        argv += ["--set", one]
    assert run_cli(*argv) == 2
    assert [q.name for q in out.iterdir()] == ["manifest.json"]
    manifest = load_manifest(out)
    assert manifest["outputs"] == []
    assert [v["name"] for v in manifest["verdicts"]] == ["refused"]


_SMALL = {
    "exponents": ("random_p_count=5", "n_scan_hi=12"),
    "verify-identities": ("cases=2",),
    "spectrum": ("N=8",),
    "shoot": (),
    "scan": ("count=5",),
    "evolve-rescaled": ("m=201", "s_end=0.5"),
    "blowup": ("m=401",),
    "theorem13": ("m=401",),
}


@pytest.mark.parametrize("kind", _SMALL)
def test_out_holds_exactly_the_manifest_outputs(tmp_path, capsys, kind):
    assert set(_SMALL) == set(cli.RUNNERS)
    out = tmp_path / "o"
    argv = [kind, "--out", str(out), "--quiet"]
    for one in _SMALL[kind]:
        argv += ["--set", one]
    assert run_cli(*argv) in (0, 1)
    names = {e["name"] for e in load_manifest(out)["outputs"]}
    assert names and {q.name for q in out.iterdir()} == names | {"manifest.json"}


@pytest.mark.parametrize("setting", [
    "rtol=nan", "rtol=inf", "rtol=0", "rtol=1e-300", "atol=nan", "atol=inf", "atol=-1",
], ids=["rtol-nan", "rtol-inf", "rtol-zero", "rtol-below-floor", "atol-nan", "atol-inf",
        "atol-negative"])
def test_shoot_refuses_a_degenerate_tolerance(tmp_path, capsys, setting):
    # a NaN tolerance never returned, a negative atol ended in scipy's
    # ValueError, and an rtol below the floor leaked scipy's warning
    assert run_cli("shoot", "--out", str(tmp_path / "o"), "--set", "alpha=0.7",
                   "--set", setting) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


def test_shoot_accepts_the_tolerance_floor(tmp_path, capsys):
    floor = 100 * sys.float_info.epsilon
    assert run_cli("shoot", "--out", str(tmp_path / "o"), "--set", "alpha=0.7",
                   "--set", f"rtol={floor!r}", "--set", "atol=0") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind, setting", [
    ("verify-identities", "cases=0"), ("verify-identities", "cases=-1"),
    ("exponents", "random_p_count=0"), ("exponents", "n_scan_hi=0"),
    ("exponents", "n_scan_hi=10"),
], ids=["cases0", "cases-negative", "random_p_count0", "n_scan_hi0", "n_scan_hi10"])
def test_vacuous_batteries_exit_2(tmp_path, capsys, kind, setting):
    # each passed on zero random cases or an empty n range
    assert run_cli(kind, "--out", str(tmp_path / "o"), "--set", setting) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, args", [
    ("exponents", "seed", ("--seed", "-1")),
    ("verify-identities", "seed", ("--seed", "-1")),
    ("blowup", "m", ("--set", "m=5")), ("theorem13", "m", ("--set", "m=8")),
    ("evolve-rescaled", "m", ("--set", "m=8")),
    ("scan", "count", ("--set", "count=1")), ("spectrum", "N", ("--set", "N=0")),
    ("evolve-rescaled", "diss_hi", ("--set", "diss_hi=-1")),
    ("evolve-rescaled", "diss_lo", ("--set", "diss_lo=nan")),
    ("verify-identities", "n", ("--set", "n=4")),
    ("shoot", "cap", ("--set", "cap=0")), ("shoot", "cap", ("--set", "cap=-1")),
    ("shoot", "cap", ("--set", "cap=nan")),
], ids=["exponents-seed", "verify-identities-seed", "blowup-m", "theorem13-m",
        "evolve-rescaled-m", "scan-count", "spectrum-N", "evolve-rescaled-diss_hi",
        "evolve-rescaled-diss_lo", "verify-identities-n", "shoot-cap0", "shoot-cap-negative",
        "shoot-cap-nan"])
def test_schema_refuses_what_the_run_crashed_on_or_refused(tmp_path, capsys, kind, key, args):
    # a negative seed ended in numpy's ValueError traceback, and diss_hi=-1
    # ran silently as s_end; the others were refused once the run started,
    # blowup's m=5 by a message naming R, diss_lo=nan by one naming no key
    # and shoot's cap by "cap must be positive"
    assert run_cli(kind, "--out", str(tmp_path / "o"), *args) == 2
    assert f"{key} must be in {SCHEMAS[kind][key].interval}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_smallest_exponents_battery_passes(tmp_path, capsys):
    out = tmp_path / "exp"
    assert run_cli("exponents", "--out", str(out), "--set", "n_scan_hi=11",
                   "--set", "random_p_count=1") == 0
    summary = json.loads((out / "exponents.json").read_text())
    assert summary["random_p"]["count"] == 1
    assert summary["ordering_scan"] == {"n_lo": 11, "n_hi": 11, "all_hold": True}


def test_spectrum_k_beyond_the_basis_gives_verdicts(tmp_path, capsys):
    # the fd check compares the eigenvalues the spectrum has, at most 6
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--out", str(out), "--set", "N=4",
                   "--set", "k=100") == 0
    assert "[PASS] fd-crosscheck" in capsys.readouterr().out
    summary = json.loads((out / "spectrum.json").read_text())
    assert len(summary["eigenvalues"]) == 4
    assert len(summary["fd_check"]["eigenvalues"]) == 4


def test_spectrum_at_a_huge_p_fails_without_a_warning(tmp_path, capsys):
    # the power iteration's norm overflowed on the operator's 1e300 entries
    # and leaked numpy's overflow warning; the rayleigh check still FAILs
    out = tmp_path / "spec"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("spectrum", "--out", str(out), "--set", "p=1e300") == 1
    err = capsys.readouterr().err
    assert "[FAIL] rayleigh-consistent" in err and "Warning" not in err
    assert load_manifest(out)["all_passed"] is False


@pytest.mark.parametrize("n", ["1", "3"])
def test_radial_spectrum_with_nonfinite_mode_norms_exits_3(tmp_path, capsys, n):
    # the degree-280 rule builds finitely, but its outer weights underflow to
    # 0 where the eigenfunctions' squares overflow: the classification's
    # norms were nan, leaked numpy's warnings, and the run exited 0
    out = tmp_path / "spec"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("spectrum", "--out", str(out), "--set", "basis=radial",
                       "--set", "N=140", "--set", f"n={n}") == 3
    err = capsys.readouterr().err
    assert "numerical failure: a weighted norm" in err and "Warning" not in err
    manifest = load_manifest(out)
    assert manifest["all_passed"] is False
    assert manifest["verdicts"][0]["name"] == "numeric-failure"


@pytest.mark.parametrize("p", ["2", "3"])
@pytest.mark.parametrize("profile", ["kappa", "zero", "shoot"])
def test_radial_basis_at_n1_passes_its_fd_crosscheck(tmp_path, capsys, profile, p):
    # at n = 1 the radial basis spans the even modes only; compared with the
    # whole line's spectrum it FAILed fd-crosscheck at 2.500e+00
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--out", str(out), "--set", "basis=radial",
                   "--set", f"profile={profile}", "--set", f"p={p}") == 0
    assert "[PASS] fd-crosscheck" in capsys.readouterr().out
    summary = json.loads((out / "spectrum.json").read_text())
    fd = summary["fd_check"]["eigenvalues"]
    assert len(fd) == 6
    assert np.abs(np.array(fd) - summary["eigenvalues"][:6]).max() < 1e-3
    if profile == "kappa":
        # the even modes of the line at kappa: lambda = k - 1
        assert np.abs(np.array(fd) - np.arange(-1.0, 5.0)).max() < 1e-3


def test_a_shot_profile_is_extended_once_per_spectrum_run(tmp_path, monkeypatch):
    # the operator's field and the finite-difference check read one spline
    from blowlab import experiments, profiles
    real = profiles.extended_profile
    calls = []

    def counted(prof):
        calls.append(prof.alpha)
        return real(prof)

    monkeypatch.setattr(profiles, "extended_profile", counted)
    monkeypatch.setattr(experiments, "extended_profile", counted)
    assert run_cli("spectrum", "--out", str(tmp_path / "s"), "--quiet",
                   "--set", "profile=shoot") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("kind, setting", [
    ("spectrum", "n=1 N=400"), ("spectrum", "n=3 basis=radial N=200"),
    ("verify-identities", "n=1 degree=600 cases=2"),
    ("verify-identities", "n=3 degree=2000 cases=1"), ("spectrum", "n=1 N=100000"),
], ids=["spectrum-hermite-degree-408", "spectrum-radial-degree-400",
        "verify-identities-degree-600", "verify-identities-n3-degree-2000",
        "spectrum-basis-beyond-the-budget"])
def test_quadrature_beyond_what_its_rule_builds_is_refused(tmp_path, capsys, kind, setting):
    # hermegauss gives non-finite weights above degree 370 and the radial rule
    # breaks above 363: these leaked RuntimeWarnings and then ended in a
    # traceback or FAILed on nan moments, or asked for arrays of 60+ GB
    out = tmp_path / "o"
    argv = [kind, "--out", str(out)]
    for one in setting.split():
        argv += ["--set", one]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "Warning" not in err
    manifest = load_manifest(out)
    assert [v["name"] for v in manifest["verdicts"]] == ["refused"]


@pytest.mark.parametrize("sets", [("alpha=0.9",), ("alpha=1.5",),
                                  ("n=3", "p=3", "alpha=0.5")],
                         ids=["below-kappa", "above-kappa", "n3-p3"])
def test_spectrum_refuses_a_shot_that_is_not_a_profile(tmp_path, capsys, sets):
    # a shot that hits zero (or blows up) is no profile to linearize about:
    # exit 2, and a failure manifest naming the outcome and r_end
    from blowlab import ProblemParams, shoot
    from blowlab.config import resolve_config
    out = tmp_path / "spec"
    sets = ("profile=shoot", "N=8") + sets
    argv = ["spectrum", "--out", str(out)]
    for s in sets:
        argv += ["--set", s]
    assert run_cli(*argv) == 2
    manifest = load_manifest(out)
    cfg = resolve_config("spectrum", {}, dict(s.split("=") for s in sets))
    prof = shoot(cfg["alpha"], ProblemParams(n=cfg["n"], p=cfg["p"]), r_max=cfg["r_max"])
    assert prof.outcome == "hit-zero"
    detail = f"outcome hit-zero at r_end = {prof.r_end!r}"
    assert detail in capsys.readouterr().err
    assert manifest["all_passed"] is False
    assert [v["name"] for v in manifest["verdicts"]] == ["refused"]
    assert detail in manifest["verdicts"][0]["detail"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


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


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_scan_refuses_a_degenerate_bisect_tol(tmp_path, capsys, tol):
    assert run_cli("scan", "--out", str(tmp_path / "scan"),
                   "--set", f"bisect_tol={tol}") == 2
    assert "bisect_tol" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["s_end=nan", "s_end=inf", "s_end=-1", "s_end=0",
                                     "ds=nan", "ds=inf", "ds=0", "L=nan", "L=inf",
                                     "ds=1e-300", "ds=1e-6", "ds=1e300", "s_end=1e-300",
                                     "s_end=0.009"])
def test_evolve_rescaled_refuses_degenerate_steps(tmp_path, capsys, setting):
    # ds=1e300 and s_end=1e-300 took no steps and passed on the initial state;
    # s_end=0.009 took 9 and was refused only after the run, by the default
    # dissipation window, which needs 10
    assert run_cli("evolve-rescaled", "--out", str(tmp_path / "evo"),
                   "--set", setting) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1", "nan"])
def test_evolve_rescaled_refuses_a_nonpositive_cap(tmp_path, capsys, cap):
    # each ran and ended as blew-up at s = 0 (exit 1), and then was refused
    # at run time; the schema now refuses it before --out is made
    out = tmp_path / "evo"
    assert run_cli("evolve-rescaled", "--out", str(out), "--set", f"cap={cap}") == 2
    assert "cap must be in (0, inf]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("L", ["1e300", "1.35e154"])
def test_evolve_rescaled_refuses_an_L_whose_square_overflows(tmp_path, L):
    # L = 1e300 ran to exit 0 and leaked overflow RuntimeWarnings from
    # y * y in the Gaussian and the initial state and from the stencil's
    # 1/h^2; a finite L * L keeps all three finite, since h <= L
    out = tmp_path / "evo"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "blowlab.cli", "evolve-rescaled",
         "--set", f"L={L}", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: domain half-width must be >= 8 with a finite square, " \
                          f"got {float(L)}\n"
    manifest = load_manifest(out)
    assert [v["name"] for v in manifest["verdicts"]] == ["refused"]
    assert manifest["outputs"] == []


@pytest.mark.parametrize("L, code", [("1e154", 2), ("1e3", 2), ("800", 0)])
def test_evolve_rescaled_refuses_a_mesh_step_above_2(tmp_path, capsys, L, code):
    # h = 2L / (m - 1) at the default m = 801. L = 1e154 ran to exit 0 on
    # cells ~2.5e151 wide, and L = 1e3 (h = 2.5) FAILed dissipation-identity
    # at 3.2%; at h = 2 the centre's neighbour keeps 1/e of rho's weight
    out = tmp_path / "evo"
    assert run_cli("evolve-rescaled", "--out", str(out), "--set", f"L={L}") == code
    names = [v["name"] for v in load_manifest(out)["verdicts"]]
    if code == 2:
        assert "mesh step must be <= 2" in capsys.readouterr().err
        assert names == ["refused"]
    else:
        assert "refused" not in names


@pytest.mark.parametrize("sets, code, detail", [
    ((), 0, "5 windows; 14 snapshots: 5 usable, 7 under-resolved, 2 before-regime"),
    (("p=3",), 1, "0 windows; 14 snapshots: 0 usable, 12 under-resolved, 2 before-regime"),
    (("K=0.5", "m=2001"), 0,
     "3 windows; 14 snapshots: 3 usable, 9 under-resolved, 2 before-regime"),
], ids=["default", "p3", "K05-m2001"])
def test_theorem13_window_count_says_why_snapshots_were_skipped(tmp_path, capsys,
                                                                 sets, code, detail):
    # the counts reach stdout and the manifest only: report.json keeps its keys
    out = tmp_path / "thm"
    argv = ["theorem13", "--out", str(out)]
    for pair in sets:
        argv += ["--set", pair]
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert f"window-count: {detail}\n" in captured.out + captured.err
    verdicts = {v["name"]: v for v in load_manifest(out)["verdicts"]}
    assert verdicts["window-count"]["detail"] == detail
    assert "under-resolved" not in (out / "report.json").read_text()


@pytest.mark.parametrize("n, code, final", [(2, 0, "0.03391"), (3, 1, "0.05367")])
def test_theorem13_on_the_ball_windows_radially(tmp_path, capsys, n, code, final):
    # the ball blows up at its centre, a = 0 = x[0]: a window |y| <= K about
    # it refused every snapshot (0 windows); the radial window 0 <= y <= K
    # needs only its outer edge on the mesh. n = 3 at m = 4001 misses
    # conv_tol 0.05, a desk-scale resolution the tolerance is not loosened for
    out = tmp_path / "thm"
    assert run_cli("theorem13", "--out", str(out), "--set", "geometry=ball",
                   "--set", f"n={n}", "--set", "amp=20") == code
    captured = capsys.readouterr()
    for name in ("blew-up", "window-count", "window-monotone"):
        assert f"[PASS] {name}" in captured.out
    assert f"final sup {final} vs tol 0.05" in captured.out + captured.err
    assert len((out / "window.csv").read_text().splitlines()) == 1 + 4
    assert json.loads((out / "report.json").read_text())["convergence"]["a_est"] == 0.0


def test_scan_below_float_resolution_ends_with_verdicts(tmp_path, capsys):
    # no midpoint lies strictly inside a bracket one ulp wide: bisection stops
    # there, and brackets-refined, which reads the same stop rule, passes and
    # reports the width it reached
    out = tmp_path / "scan"
    assert run_cli("scan", "--out", str(out), "--set", "count=5",
                   "--set", "bisect_tol=1e-20") == 0
    assert "[PASS] brackets-refined" in capsys.readouterr().out
    summary = json.loads((out / "scan.json").read_text())
    assert len(summary["brackets"]) == 2
    for b in summary["brackets"]:
        lo, hi = b["alpha_lo"], b["alpha_hi"]
        assert hi == math.nextafter(lo, math.inf)
    detail = {v["name"]: v for v in load_manifest(out)["verdicts"]}["brackets-refined"]
    assert detail["detail"].endswith(f"widest {max(b['width'] for b in summary['brackets']):.3g}")


def test_brackets_refined_reads_the_bisection_stop_rule(tmp_path, capsys):
    # bisect_tol = 1e-17 is below the float spacing at alpha ~ 1: the loop
    # stops where no float lies between a bracket's ends, and the verdict,
    # which once re-derived the width test alone, FAILed those brackets
    out = tmp_path / "scan"
    assert run_cli("scan", "--out", str(out), "--set", "bisect_tol=1e-17") == 0
    assert "[PASS] brackets-refined" in capsys.readouterr().out
    brackets = json.loads((out / "scan.json").read_text())["brackets"]
    assert brackets and max(b["width"] for b in brackets) > 1e-17
    assert not any(bracket_splits(b["alpha_lo"], b["alpha_hi"], 1e-17) for b in brackets)


@pytest.mark.parametrize("tol", ["1e-12", "5e-13"])
def test_scan_below_the_snap_band_brackets_kappa(tmp_path, capsys, tol):
    # bisection closes one bracket onto each edge of the snap band around
    # kappa; the band between them covers kappa
    out = tmp_path / "scan"
    assert run_cli("scan", "--out", str(out), "--set", f"bisect_tol={tol}") == 0
    assert "[PASS] kappa-bracketed" in capsys.readouterr().out
    summary = json.loads((out / "scan.json").read_text())
    kap = summary["kappa"]
    assert not any(b["alpha_lo"] <= kap <= b["alpha_hi"] for b in summary["brackets"])
    assert summary["kappa_in_some_bracket"] is True


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


def test_verify_identities_n3_default_degree_resolves_seed_3(tmp_path):
    # seed 3 draws a Gaussian sum that degree 32 does not resolve to the
    # identity tolerance (ibp-029 off by 2.9e-8)
    out = tmp_path / "ids"
    assert run_cli("verify-identities", "--out", str(out), "--quiet",
                   "--set", "n=3", "--seed", "3") == 0
    assert json.loads((out / "identities.json").read_text())["failures"] == []


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


@pytest.mark.parametrize("sets", [("init=kappa",), ("init=zero",), ("amp=1e-8",)],
                         ids=["kappa", "zero", "amp-1e-8"])
def test_evolve_rescaled_drop_at_rounding_gets_no_dissipation_verdict(tmp_path, sets):
    # the energy barely moves about kappa and not at all from zero: a drop
    # within the rounding floor decides nothing, so the run writes no report
    out = tmp_path / "evo"
    argv = ["evolve-rescaled", "--out", str(out), "--quiet"]
    for pair in sets:
        argv += ["--set", pair]
    assert run_cli(*argv) == 0
    names = [v["name"] for v in load_manifest(out)["verdicts"]]
    assert names == ["completed", "energy-monotone"]
    assert json.loads((out / "evolve.json").read_text())["dissipation"] is None


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


@pytest.mark.parametrize("K", ["1e-300", "0.01"])
def test_theorem13_windows_narrower_than_the_mesh_do_not_pass(tmp_path, capsys, K):
    # the window |y| <= K spans K sqrt(T - t) in x: 0 mesh cells at
    # K = 1e-300 and 0.06-0.56 cells at K = 0.01, where sup |w - kappa| reads
    # a sample or two near y = 0. Such windows PASSed window-final with the
    # default run's 0.02904; now every window spans at least 4 cells
    out = tmp_path / "thm"
    assert run_cli("theorem13", "--out", str(out), "--set", f"K={K}") == 1
    captured = capsys.readouterr()
    assert "[PASS] window-final" not in captured.out
    assert "[FAIL] window-final" in captured.err
    assert (out / "window.csv").read_text().splitlines() == ["t,T_minus_t,s,sup_dev,min_H"]


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
    assert "unknown run kind 'replay'" in capsys.readouterr().err
    assert not (tmp_path / "dst").exists()


@pytest.mark.parametrize("form, under", [("run", False), ("replay", False),
                                         ("run", True), ("replay", True)],
                         ids=["run", "replay", "run-under-file", "replay-under-file"])
def test_out_naming_a_file_is_refused(tmp_path, capsys, form, under):
    # ended in a FileExistsError (or NotADirectoryError) traceback and exit 1,
    # the code of a failed verdict
    src = tmp_path / "src"
    assert run_cli("exponents", "--out", str(src), "--quiet") == 0
    capsys.readouterr()
    target = tmp_path / "taken.txt"
    target.write_text("keep me\n")
    argv = ("exponents",) if form == "run" else ("replay", str(src))
    assert run_cli(*argv, "--out", str(target / "sub" if under else target)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert target.read_text() == "keep me\n"


@pytest.mark.parametrize("via", ["same-path", "symlink"])
def test_replay_into_the_manifests_own_directory_is_refused(tmp_path, capsys, via):
    # the re-run overwrote the recorded artifacts, then matched them bitwise
    src = tmp_path / "src"
    assert run_cli("exponents", "--out", str(src), "--quiet") == 0
    recorded = src / "exponents.json"
    recorded.write_text(recorded.read_text() + "\n")
    before = {f.name: f.read_bytes() for f in src.iterdir()}
    out = src
    if via == "symlink":
        out = tmp_path / "link"
        out.symlink_to(src, target_is_directory=True)
    capsys.readouterr()
    assert run_cli("replay", str(src), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "own directory" in err
    assert {f.name: f.read_bytes() for f in src.iterdir()} == before


def _valid_manifest():
    cfg = resolve_config("exponents")
    return {"kind": "exponents", "config_text": config_text("exponents", cfg),
            "config_sha256": config_hash("exponents", cfg),
            "outputs": [{"name": "exponents.json"}]}


@pytest.mark.parametrize("edit", [
    lambda m: None, lambda m: 3, lambda m: [m], lambda m: "manifest",
    lambda m: {**m, "kind": None}, lambda m: {**m, "config_text": 5},
    lambda m: {k: v for k, v in m.items() if k != "config_sha256"},
    lambda m: {**m, "outputs": {"name": "exponents.json"}},
    lambda m: {**m, "outputs": ["exponents.json"]},
    lambda m: {**m, "outputs": [{"sha256": "0" * 64}]},
    lambda m: {**m, "outputs": [{"name": "../exponents.json"}]},
    lambda m: {**m, "outputs": [{"name": "sub/exponents.json"}]},
    lambda m: {**m, "outputs": [{"name": "/etc/hostname"}]},
    lambda m: {**m, "outputs": [{"name": ".."}]},
], ids=["null", "number", "list", "string", "kind-null", "config-text-number",
        "no-config-sha256", "outputs-object", "output-not-object", "output-no-name",
        "name-parent", "name-subdir", "name-absolute", "name-dotdot"])
def test_replay_refuses_a_malformed_manifest(tmp_path, capsys, edit):
    # these ended in a TypeError or AttributeError traceback and exit 1, the
    # code of a failed verdict; compare_outputs joins each name to both dirs
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(edit(_valid_manifest())))
    assert run_cli("replay", str(path), "--out", str(tmp_path / "dst")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "dst").exists()


@pytest.mark.parametrize("argv", [("scan",), ("blowup", "--set", "m=401")],
                         ids=["scan", "blowup-m401"])
def test_manifest_config_text_is_a_config_file(tmp_path, argv):
    # a run's recorded config_text, passed back as --config, is the same run
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(*argv, "--out", str(first), "--quiet") == 0
    recorded = load_manifest(first)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(recorded["config_text"])
    assert run_cli(argv[0], "--config", str(cfgfile), "--out", str(second), "--quiet") == 0
    again = load_manifest(second)
    assert again["config_text"] == recorded["config_text"]
    assert again["config_sha256"] == recorded["config_sha256"]
    assert again["outputs"] == recorded["outputs"]
    for entry in recorded["outputs"]:
        name = entry["name"]
        assert (second / name).read_bytes() == (first / name).read_bytes()
