"""Fresh-interpreter runs of the CLI. Inside the test session scipy's heavy
submodules are already loaded, which hides both what a subcommand imports
and a deferred import that is broken; a new process shows both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# once imported on call, now ported into blowlab (brentq, the bounded Brent
# search, CubicSpline, CubicHermiteSpline): no subcommand loads them
DEFERRED = ("scipy.optimize", "scipy.interpolate")

# run each argv through cli.main, then print the exit codes and every scipy
# module in sys.modules
SCRIPT = """
import json, sys
import blowlab.cli as cli
codes = [cli.main(argv + ["--out", f"run{i}", "--quiet"])
         for i, argv in enumerate(json.loads(sys.argv[1]))]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def run_fresh(tmp_path, runs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_profiles_path_loads_no_scipy(tmp_path):
    # the lanes carry the DOP853 tableau and brentq themselves, a shot off
    # kappa is one lane, and shoot at kappa is the snapped constant: none of
    # them imports any of scipy. The last scan brackets nothing (kappa lies
    # outside its range) and sends all 5 of its alphas, bounded at r_max,
    # through shoot
    got = run_fresh(tmp_path, [
        ["scan", "--set", "count=5"],
        ["shoot"],
        ["exponents", "--set", "random_p_count=5", "--set", "n_scan_hi=12"],
        ["shoot", "--set", "alpha=0.7"],
        ["scan", "--set", "alpha_lo=1.01", "--set", "alpha_hi=1.1", "--set", "count=5",
         "--set", "r_max=3"],
    ])
    assert got == {"codes": [0] * 5, "scipy": []}


def test_similarity_frame_loads_no_deferred_scipy(tmp_path):
    # the rescaled flow, the identity battery, the spectrum and the exponents
    # need numpy, scipy.linalg and scipy.special only
    got = run_fresh(tmp_path, [
        ["evolve-rescaled", "--set", "m=201", "--set", "s_end=0.5"],
        ["evolve-rescaled", "--set", "init=stable-mode", "--set", "m=201",
         "--set", "s_end=0.5"],
        ["verify-identities", "--set", "cases=2"],
        ["spectrum", "--set", "N=8"],
        ["spectrum", "--set", "N=8", "--set", "profile=shoot"],
        ["exponents", "--set", "random_p_count=5", "--set", "n_scan_hi=12"],
    ])
    assert got["codes"] == [0] * 6
    assert [m for m in DEFERRED if m in got["scipy"]] == []


def test_physical_frame_loads_scipy_linalg_only(tmp_path):
    # banded solves, the snapshot splines and the blow-up fit: dgtsv is all
    # of scipy they call, so none of the modules scipy.interpolate and
    # scipy.optimize used to bring in is loaded
    got = run_fresh(tmp_path, [
        ["blowup"],
        ["blowup", "--set", "geometry=ball", "--set", "n=3", "--set", "amp=20"],
        ["theorem13", "--set", "m=1001"],
    ])
    assert got["codes"] == [0] * 3
    assert "scipy.linalg" in got["scipy"]
    # a loaded submodule loads its package, so the packages' names suffice
    assert set(got["scipy"]).isdisjoint(DEFERRED + ("scipy.sparse", "scipy.special"))


def test_deferred_imports_resolve_in_a_fresh_process(tmp_path):
    # scan with bisection and shoot off kappa run the lanes, spectrum on a
    # bounded shot off kappa the Hermite spline, theorem13 the not-a-knot
    # spline and the bounded search: each exits 0 with what it imports on
    # call (scipy.linalg), and none loads the modules blowlab carries ports of
    got = run_fresh(tmp_path, [
        ["scan", "--set", "count=5", "--set", "bisect_tol=1e-4"],
        ["shoot", "--set", "alpha=0.7"],
        ["spectrum", "--set", "N=8", "--set", "n=2", "--set", "profile=shoot",
         "--set", "alpha=1.01", "--set", "r_max=4"],
        ["theorem13", "--set", "m=1001"],
    ])
    assert got["codes"] == [0] * 4
    assert "scipy.linalg" in got["scipy"]
    assert [m for m in DEFERRED if m in got["scipy"]] == []
    assert "scipy.integrate" not in got["scipy"]
