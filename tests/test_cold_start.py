"""Fresh-interpreter runs of the CLI, and of the lone-module loader before
the scipy packages it loads from. Inside the test session scipy's heavy
submodules are already loaded, which hides both what a subcommand imports
and a deferred import that is broken; a new process shows both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# once imported on call, now ported into blowlab (the bounded Brent search,
# CubicSpline, CubicHermiteSpline) or loaded from them as lone modules
# (brentq's scipy.optimize._zeros): no subcommand loads the packages
DEFERRED = ("scipy.optimize", "scipy.interpolate")

# the two modules the lanes load by themselves, without their packages
LONE = ["scipy.integrate._ivp.dop853_coefficients", "scipy.optimize._zeros"]

# the one scipy.special module a radial grid loads by itself, for its
# compiled gamma, gammaln and binom; the package is never imported
SPECIAL = ["scipy.special._special_ufuncs"]

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


def special(got):
    return [m for m in got["scipy"] if m == "scipy.special" or m.startswith("scipy.special.")]


def run_fresh(tmp_path, runs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_profiles_path_loads_no_scipy(tmp_path):
    # the lanes load scipy's DOP853 tableau and compiled brentq as lone
    # modules, a shot off kappa is one lane, and shoot at kappa is the
    # snapped constant: none of them imports a scipy package, scipy itself
    # included. The last scan brackets nothing (kappa lies outside its
    # range) and sends all 5 of its alphas, bounded at r_max, through shoot
    got = run_fresh(tmp_path, [
        ["scan", "--set", "count=5"],
        ["shoot"],
        ["exponents", "--set", "random_p_count=5", "--set", "n_scan_hi=12"],
        ["shoot", "--set", "alpha=0.7"],
        ["scan", "--set", "alpha_lo=1.01", "--set", "alpha_hi=1.1", "--set", "count=5",
         "--set", "r_max=3"],
    ])
    assert got == {"codes": [0] * 5, "scipy": LONE}


def test_similarity_frame_loads_no_deferred_scipy(tmp_path):
    # the identity battery's radial grid needs the LAPACK extension module
    # and scipy.special._special_ufuncs, and the spectrum only the LAPACK
    # module; nothing loads the scipy.special or scipy.linalg package
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
    assert special(got) == SPECIAL


def test_physical_frame_loads_no_scipy_linalg(tmp_path):
    # banded solves, the snapshot splines, the blow-up fit and the rescaled
    # flow's factored solves: dgtsv, dgttrf and dgttrs are all of scipy they
    # call, and they come from the LAPACK extension module alone
    got = run_fresh(tmp_path, [
        ["blowup"],
        ["blowup", "--set", "geometry=ball", "--set", "n=3", "--set", "amp=20"],
        ["theorem13", "--set", "m=1001"],
        ["evolve-rescaled", "--set", "m=201", "--set", "s_end=0.5"],
        ["evolve-rescaled", "--set", "init=stable-mode", "--set", "m=201",
         "--set", "s_end=0.5"],
    ])
    assert got["codes"] == [0] * 5
    assert "scipy.linalg._flapack" in got["scipy"]
    absent = DEFERRED + ("scipy.linalg", "scipy.sparse", "scipy.special")
    assert set(got["scipy"]).isdisjoint(absent)


def test_lapack_loader_then_scipy_linalg_in_a_fresh_process(tmp_path):
    # the loader runs first and registers the extension module; a later
    # import of scipy.linalg takes that module and exports the same
    # routines, which solve bitwise as the loader's did
    script = """
import numpy as np
from blowlab import _scipy
dl, d, du = np.full(99, -1.0), np.full(100, 3.0), np.full(99, -0.5)
b = np.linspace(-1.0, 1.0, 100)
first = _scipy.gtsv(dl.copy(), d.copy(), du.copy(), b.copy())
import sys
assert "scipy.linalg" not in sys.modules
import scipy.linalg
from scipy.linalg import lapack
module = _scipy._flapack()
assert all(getattr(module, f) is getattr(lapack, f) for f in ("dgtsv", "dgttrf", "dgttrs"))
ab = np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]])
assert np.array_equal(first, scipy.linalg.solve_banded((1, 1), ab, b))
assert np.array_equal(first, lapack.dgtsv(dl, d, du, b)[3])
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_lone_modules_then_their_packages_in_a_fresh_process(tmp_path):
    # the lanes run first and register the tableau and brentq's module; later
    # imports of scipy.integrate and scipy.optimize reuse both, and their
    # solve_ivp and brentq still work, with the lanes' results
    script = """
import sys
import blowlab.profiles as profiles
from blowlab import ProblemParams, _scipy, shoot
params = ProblemParams(n=2, p=2.0)
shot = shoot(0.7, params)
assert shot.outcome == "hit-zero"
lone = %r
assert sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")) == lone
tableau, zeros = (sys.modules[m] for m in lone)
import scipy.integrate
import scipy.optimize
from scipy.integrate._ivp import dop853_coefficients, rk
from scipy.optimize import _zeros
assert dop853_coefficients is tableau and rk.dop853_coefficients is tableau
assert _zeros is zeros and _scipy.tableau() is tableau
r0, w0, w0r, _, _ = profiles.series_start(0.7, params)
zero = lambda r, z: z[0]
zero.terminal, zero.direction = True, -1
sol = scipy.integrate.solve_ivp(profiles._rhs(params, 1e6), (r0, 20.0), [w0, w0r],
                                method="DOP853", rtol=1e-10, atol=1e-12, events=zero)
assert sol.status == 1 and sol.t_events[0][0] == shot.r_end
f = lambda x: x ** 3 - 0.1
assert scipy.optimize.brentq(f, 0.0, 1.0) == _scipy.brentq(
    f, 0.0, 1.0, 2e-12, 4 * sys.float_info.epsilon)
print("ok")
""" % LONE
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_deferred_imports_resolve_in_a_fresh_process(tmp_path):
    # scan with bisection and shoot off kappa run the lanes, spectrum on a
    # bounded shot off kappa the Hermite spline, theorem13 the not-a-knot
    # spline and the bounded search: each exits 0 with what it loads on call
    # (scipy's LAPACK extension module, the tableau and brentq's module),
    # and none loads the packages blowlab carries ports of or loads from
    got = run_fresh(tmp_path, [
        ["scan", "--set", "count=5", "--set", "bisect_tol=1e-4"],
        ["shoot", "--set", "alpha=0.7"],
        ["spectrum", "--set", "N=8", "--set", "n=2", "--set", "profile=shoot",
         "--set", "alpha=1.01", "--set", "r_max=4"],
        ["theorem13", "--set", "m=1001"],
    ])
    assert got["codes"] == [0] * 4
    assert "scipy.linalg._flapack" in got["scipy"]
    assert [m for m in DEFERRED + ("scipy.linalg",) if m in got["scipy"]] == []
    assert "scipy.integrate" not in got["scipy"]


def test_radial_grids_load_no_scipy_linalg(tmp_path):
    # the Gauss-Laguerre rule's banded eigensolve (dsbevd) and the spectrum's
    # dsyevr and dstebz come from the LAPACK extension module alone; the
    # radial basis's Laguerre values are ported, and its gamma, gammaln and
    # binom come from scipy.special._special_ufuncs alone. At n = 1 (alpha =
    # -1/2) binom takes its half-integer branch
    got = run_fresh(tmp_path, [
        ["spectrum", "--set", "basis=radial", "--set", "n=3"],
        ["spectrum", "--set", "basis=radial", "--set", "n=1"],
        ["verify-identities", "--set", "n=2"],
    ])
    assert got["codes"] == [0] * 3
    assert "scipy.linalg._flapack" in got["scipy"]
    assert set(got["scipy"]).isdisjoint(DEFERRED + ("scipy.linalg", "scipy.sparse"))
    assert special(got) == SPECIAL


def test_special_ufuncs_loader_then_scipy_special_in_a_fresh_process(tmp_path):
    # a radial basis is built first and registers
    # scipy.special._special_ufuncs; a later import of scipy.special reuses
    # that module, exports its gamma, gammaln and binom, and its
    # eval_genlaguerre and roots_genlaguerre give the basis bitwise
    script = """
import sys
import numpy as np
from blowlab import quadrature, spectral
basis = spectral.build_basis(1, 48, 48, kind="radial")
x, w = quadrature.roots_genlaguerre(48, -0.5)
assert "scipy.special" not in sys.modules
module = sys.modules["scipy.special._special_ufuncs"]
import scipy.special
from scipy.special import _special_ufuncs
assert _special_ufuncs is module
assert all(getattr(scipy.special, f) is getattr(module, f) for f in ("gamma", "gammaln", "binom"))
want = scipy.special.roots_genlaguerre(48, -0.5)
assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])
rows = quadrature.laguerre_table(47, -0.5, x)
assert all(np.array_equal(rows[:, k], scipy.special.eval_genlaguerre(k, -0.5, x))
           for k in range(48))
assert np.array_equal(basis.grid.x, x)
assert np.array_equal(basis.values, rows / quadrature.laguerre_norms(1, 48))
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_hermite_spectrum_loads_no_scipy_subpackage(tmp_path):
    # a Hermite basis needs numpy's hermegauss and LAPACK's dsyevr and
    # dstebz: beyond what `import scipy` loads (its private modules and
    # scipy.version), only the LAPACK extension module, so no scipy.linalg
    got = run_fresh(tmp_path, [["spectrum"], ["spectrum", "--set", "n=2", "--set", "N=32"]])
    assert got["codes"] == [0] * 2
    public = {m for m in got["scipy"] if m != "scipy" and not m.startswith("scipy._")}
    assert public == {"scipy.linalg._flapack", "scipy.version"}


def test_runs_without_numpy_random_never_map_openssl(tmp_path):
    # manifests hash with CPython's builtin SHA-256, so importing blowlab and
    # these runs never load hashlib's _hashlib, which maps OpenSSL's libcrypto
    # (~3.5 MB); runs that draw numpy random numbers load it through
    # numpy.random -> secrets -> hmac
    script = """
import json, sys
import blowlab
import blowlab.cli as cli
seen = ["_hashlib" in sys.modules]
codes = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    codes.append(cli.main(argv + ["--out", f"run{i}", "--quiet"]))
    seen.append("_hashlib" in sys.modules)
print(json.dumps({"codes": codes, "hashlib": seen}))
"""
    runs = [["shoot"], ["scan"], ["blowup"], ["theorem13", "--set", "m=1001"],
            ["spectrum", "--set", "n=2", "--set", "N=32"]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"codes": [0] * len(runs), "hashlib": [False] * (len(runs) + 1)}
