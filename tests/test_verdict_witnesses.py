"""Every verdict can FAIL: a witness for each verdict name in src/blowlab.

An AST walk collects every Verdict("<name>", ...) in src/blowlab. Each name
has a witness, a run that exits 1 printing [FAIL] <name>: a config alone
(RUNS), a config with one constant or input of the code replaced (SEEDED),
or, for replay-matches, the replay of a run whose artifact was edited. The
names no input can FAIL are listed in CANNOT_FAIL with the reason. A new
verdict without a witness fails the registry test.
"""

import ast
import math
from dataclasses import replace
from pathlib import Path

import pytest

from blowlab import calculus, cli, evolution, exponents, experiments, spectral

SRC = Path(__file__).resolve().parents[1] / "src" / "blowlab"

# (argv, the verdicts its run FAILs)
RUNS = [
    (["theorem13", "--set", "p=3"], ["window-count", "window-monotone", "window-final"]),
    (["blowup", "--set", "amp=0.001"], ["status-expected", "positivity"]),
    (["theorem13", "--set", "amp=0.001"], ["blew-up"]),
    (["scan", "--set", "count=32"], ["kappa-bracketed"]),
    (["shoot", "--set", "p=1.0071"], ["constant-profile-residual"]),
    (["spectrum", "--set", "profile=shoot", "--set", "N=8", "--set", "alpha=1.01",
      "--set", "r_max=4"], ["fd-crosscheck"]),
    (["spectrum", "--set", "p=1e300"], ["rayleigh-consistent"]),
    (["evolve-rescaled", "--set", "cap=1e300", "--set", "amp=10"], ["completed"]),
    (["evolve-rescaled", "--set", "s_end=5", "--set", "ds=0.5",
      "--set", "init=perturbed-kappa", "--set", "amp=-0.5"], ["dissipation-identity"]),
]

_energy, _critical_exponents = evolution.energy, exponents.critical_exponents

# (module, attribute, stand-in, argv, the verdicts the run FAILs with the
# attribute replaced)
SEEDED = [
    (exponents, "kappa", lambda p: 1.0, ["exponents"], ["kappa-identity"]),
    (experiments, "critical_exponents",
     lambda n: replace(_critical_exponents(n), p_JL=math.inf),
     ["exponents"], ["exponent-ordering"]),
    (calculus, "IDENTITY_TOL", 0.0, ["verify-identities", "--set", "cases=1"],
     ["all-identities-hold"]),
    (evolution, "energy", lambda *args, **kwargs: -_energy(*args, **kwargs),
     ["evolve-rescaled"], ["energy-monotone"]),
    (evolution, "FMINBOUND_MAXITER", 1,
     ["blowup", "--set", "diffusion=false", "--set", "init=constant", "--set", "amp=1",
      "--set", "m=101", "--set", "u_cap=100"], ["oracle-blowup-time", "oracle-exponent"]),
    (spectral, "LAMBDA1_TOL", -0.5,
     ["spectrum", "--set", "profile=shoot", "--set", "alpha=1.2", "--set", "r_max=3",
      "--set", "N=8"], ["signchange-consistent"]),
]

# verdict: why no input FAILs it. Deleting or redefining one changes a verdict
# list that perfbench/reference/ pins, so each waits for that re-record
# (ROADMAP items 23 and 24)
CANNOT_FAIL = {
    "brackets-refined":
        "re-reads the stop rule that scan_profiles' bisection loop already applied",
    "outcome-classified":
        "every RadialProfile the code builds takes one of the four OUTCOMES literals",
    "H-positive":
        "emitted only in the snap band, where shoot returns w = alpha, w_r = 0, so "
        "H = alpha/(p-1) > 0",
}


def verdict_names():
    """The first argument of every Verdict("<name>", ...) call in src/blowlab."""
    return {
        node.args[0].value
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "Verdict" and node.args
        and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
    }


def _failed(capsys, *argv):
    """The exit code of a quiet run of argv and the verdicts it FAILs."""
    code = cli.main([*map(str, argv), "--quiet"])
    err = capsys.readouterr().err.splitlines()
    return code, [line[len("[FAIL] "):].split(":")[0] for line in err
                  if line.startswith("[FAIL] ")]


def test_every_verdict_has_a_witness_or_a_reason():
    witnessed = [name for _, names in RUNS for name in names]
    witnessed += [name for *_, names in SEEDED for name in names] + ["replay-matches"]
    assert len(witnessed) == len(set(witnessed)) and not set(witnessed) & set(CANNOT_FAIL)
    assert verdict_names() == set(witnessed) | set(CANNOT_FAIL)


@pytest.mark.parametrize("argv, names", RUNS, ids=[" ".join(argv) for argv, _ in RUNS])
def test_run_fails_its_verdicts(tmp_path, capsys, argv, names):
    code, failed = _failed(capsys, *argv, "--out", tmp_path)
    assert code == 1 and set(names) <= set(failed)


@pytest.mark.parametrize("module, attribute, stand_in, argv, names", SEEDED,
                         ids=[attribute for _, attribute, *_ in SEEDED])
def test_seeded_run_fails_its_verdicts(tmp_path, capsys, monkeypatch,
                                       module, attribute, stand_in, argv, names):
    monkeypatch.setattr(module, attribute, stand_in)
    code, failed = _failed(capsys, *argv, "--out", tmp_path)
    assert code == 1 and set(names) <= set(failed)


def test_replay_of_an_edited_artifact_fails(tmp_path, capsys):
    assert _failed(capsys, "exponents", "--out", tmp_path / "run") == (0, [])
    scan = tmp_path / "run" / "exponents_scan.csv"
    scan.write_text(scan.read_text().replace("\n2,", "\n3,", 1))
    code, failed = _failed(capsys, "replay", tmp_path / "run", "--out", tmp_path / "again")
    assert code == 1 and failed == ["replay-matches"]
