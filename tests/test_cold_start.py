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

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.interpolate")

# run each argv through cli.main, then print the exit codes and which of
# DEFERRED ended up in sys.modules
SCRIPT = """
import json, sys
import blowlab.cli as cli
codes = [cli.main(argv + ["--out", f"run{i}", "--quiet"])
         for i, argv in enumerate(json.loads(sys.argv[1]))]
print(json.dumps({"codes": codes,
                  "loaded": [m for m in json.loads(sys.argv[2]) if m in sys.modules]}))
"""


def run_fresh(tmp_path, runs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs), json.dumps(DEFERRED)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_similarity_frame_loads_no_deferred_scipy(tmp_path):
    # the rescaled flow, the identity battery, the spectrum and the exponents
    # need numpy, scipy.linalg and scipy.special only
    got = run_fresh(tmp_path, [
        ["evolve-rescaled", "--set", "m=201", "--set", "s_end=0.5"],
        ["evolve-rescaled", "--set", "init=stable-mode", "--set", "m=201",
         "--set", "s_end=0.5"],
        ["verify-identities", "--set", "cases=2"],
        ["spectrum", "--set", "N=8"],
        ["exponents", "--set", "random_p_count=5", "--set", "n_scan_hi=12"],
    ])
    assert got == {"codes": [0] * 5, "loaded": []}


def test_deferred_imports_resolve_in_a_fresh_process(tmp_path):
    # scan runs the lanes (tableau, brentq), shoot solve_ivp, spectrum on a
    # shot the Hermite spline, theorem13 CubicSpline and minimize_scalar
    got = run_fresh(tmp_path, [
        ["scan", "--set", "count=5", "--set", "bisect_tol=1e-4"],
        ["shoot", "--set", "alpha=0.7"],
        ["spectrum", "--set", "N=8", "--set", "profile=shoot"],
        ["theorem13", "--set", "m=1001"],
    ])
    assert got == {"codes": [0] * 4, "loaded": list(DEFERRED)}
