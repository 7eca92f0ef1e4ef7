"""Every way blowlab reaches scipy: the one module that holds a scipy module
object. Importing it loads no scipy, and no scipy package init but scipy's
own ever runs: each module below is loaded on first use, by itself.

`_lone(name)` loads one scipy module without running scipy/__init__.py or
any package init, and registers it in sys.modules under its own name, so a
later import of its package reuses it. The profiles' lanes read their DOP853
tableau this way (`tableau`) and locate their events with scipy's compiled
brentq (`brentq`); those packages would bring in scipy.linalg, scipy.sparse
and scipy.special. The radial grids take scipy's compiled gamma, gammaln and
binom from `special_ufuncs()`: importing the scipy.special package grows a
cold CLI process's peak RSS by about 18 MB, loading the lone module by about
1 MB.

`_flapack()` is scipy's compiled LAPACK wrapper module, loaded by `_lone`
after `import scipy`: the scipy.linalg package is not imported (its init
brings in numpy.f2py, numpy.testing, numpy.random and numpy.ma: about 19 MB
of peak RSS in a cold blowup run, 18 MB in a cold spectrum run), and each
routine is the same compiled function scipy.linalg.lapack exports. It serves
every LAPACK call in blowlab, each made with the arguments scipy 1.17.1
passes:

- dgtsv: `gtsv`, the physical frame's banded solves and the not-a-knot
  slopes;
- dgttrf and dgttrs: `tridiagonal_solver`, the rescaled flow's factored
  step and the stable-mode iteration;
- dsyevr and dsyevr_lwork: `spectral.eigh` (scipy.linalg.eigh);
- dstebz: `spectral.fd_eigenvalues_1d` (scipy.linalg.eigh_tridiagonal
  with select="i", eigenvalues only);
- dsbevd: `quadrature.roots_genlaguerre`, the banded eigensolve of
  scipy.special.roots_genlaguerre (ported).

Every info code goes through one rule, `_check`: nonzero raises
NumericError, which names the zero pivot's row for dgtsv and dgttrf. Other
modules call a routine through `lapack`; the per-step solves (`gtsv`, and
`tridiagonal_solver`'s dgttrs) call theirs bound and share only `_check`.

Piecewise cubics as scipy.interpolate builds and evaluates them, ported
from scipy 1.17.1 operation for operation, so every coefficient and value is
bitwise scipy's, without importing scipy.interpolate (which brings in
scipy.sparse, scipy.special, scipy.spatial and scipy.fft):

- `not_a_knot_slopes(x, y)` are CubicSpline(x, y)'s knot slopes, from one
  tridiagonal solve, as CubicSpline's general branch takes them;
- `hermite(x, y, dydx)` is `CubicHermiteSpline(x, y, dydx).c`; on knots
  x[lo:hi] it is bitwise those columns of the whole table;
- `derivative(c)` is `PPoly.derivative().c`, c[:-1] times (3, 2, 1);
- `evaluate(c, x, xv, nu)` is `PPoly(c, x)(xv, nu)`, extrapolating.

Coefficients c are (k, n - 1), highest power first, in the local variable
s = xv - x[i] of the interval i with x[i] <= xv < x[i + 1]. The checks of
scipy's `prepare_input` stay: at least 4 knots (so CubicSpline's special
cases for 2 and 3 never arise), finite and strictly increasing, with finite
samples.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .errors import NumericError, UsageError


_FLAPACK = "scipy.linalg._flapack"

# iterations of an event's root search: scipy brentq's default maxiter
BRENTQ_MAXITER = 100


def _lone(name: str):
    """The scipy module `name`, loaded once by itself from its directory under
    scipy's install location (find_spec of the top-level package runs no
    init); a scipy without it raises ImportError and registers nothing."""
    module = sys.modules.get(name)
    if module is None:
        import importlib.machinery
        import importlib.util

        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(root, *name.split(".")[1:-1])])
        if spec is None:
            raise ImportError(f"scipy has no module {name}; the modules blowlab "
                              "loads by themselves are pinned to scipy 1.17.1", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _flapack():
    """scipy.linalg._flapack, loaded by `_lone` after `import scipy`, whose
    distributor init locates the bundled OpenBLAS."""
    if _FLAPACK not in sys.modules:
        import scipy  # noqa: F401
    return _lone(_FLAPACK)


def _check(routine: str, info: int) -> None:
    """Raise NumericError for a nonzero LAPACK info code: a zero pivot in row
    info of dgtsv or dgttrf (an exactly singular matrix), or else a routine
    that did not converge (info > 0) or refused an argument (info < 0)."""
    if info != 0:
        what = (f"hit a zero pivot in row {info}" if info > 0 and routine in ("dgtsv", "dgttrf")
                else f"failed with info {info}")
        raise NumericError(f"LAPACK {routine} {what}",
                           payload={"routine": routine, "info": int(info)})


def lapack(routine: str, *args, **kw) -> list:
    """The outputs of LAPACK `routine`(*args, **kw) but its info, which
    `_check` has passed."""
    *out, info = getattr(_flapack(), routine)(*args, **kw)
    _check(routine, info)
    return out


def gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub-, main and super-diagonal dl, d, du)
    for b by LAPACK dgtsv (partial pivoting), as scipy.linalg.solve_banded's
    (1, 1) branch calls it but without the wrapper's validation, overwriting
    all four; returns the solution, b itself when b is a contiguous float
    array."""
    *_, x, info = _flapack().dgtsv(dl, d, du, b, 1, 1, 1, 1)
    _check("dgtsv", info)
    return x


def tridiagonal_solver(dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """solve(b) for a tridiagonal matrix, from its LU factors by LAPACK
    dgttrf (partial pivoting). solve runs dgttrs, which does the arithmetic
    of dgtsv, so its result is bitwise that of `gtsv`; b is overwritten."""
    lu = lapack("dgttrf", dl, d, du)
    dgttrs = _flapack().dgttrs

    def solve(b: np.ndarray) -> np.ndarray:
        x, info = dgttrs(*lu, b, overwrite_b=1)
        _check("dgttrs", info)
        return x

    return solve


def tableau():
    """scipy's DOP853 tableau module (scipy.integrate._ivp.dop853_coefficients):
    C nodes, A stage matrix (13 stages plus 3 for the interpolant), B
    weights, E3 and E5 error estimators, D dense-output matrix and the stage
    counts."""
    return _lone("scipy.integrate._ivp.dop853_coefficients")


def brentq(f, a, b, xtol, rtol):
    """scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol): Brent's (1973)
    root finder, scipy's compiled _zeros._brentq called as brentq calls it,
    behind the same wrapper that turns a NaN function value into ValueError.
    f(a), f(b) of equal sign raise ValueError, and no convergence within
    BRENTQ_MAXITER iterations, scipy's default, raises RuntimeError."""
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    return _lone("scipy.optimize._zeros")._brentq(
        call, a, b, xtol, rtol, BRENTQ_MAXITER, (), False, True)


def special_ufuncs():
    """scipy.special._special_ufuncs: the compiled gamma, gammaln and binom
    that scipy.special exports, without its package init."""
    return _lone("scipy.special._special_ufuncs")


def _steps(x: np.ndarray, *ys: np.ndarray) -> np.ndarray:
    """np.diff(x), after scipy's input checks on the knots x and samples ys."""
    if x.ndim != 1 or x.size < 4:
        raise UsageError(f"a piecewise cubic needs at least 4 knots, got shape {x.shape}")
    if any(y.shape != x.shape for y in ys):
        raise UsageError("samples do not match the knots")
    if not np.isfinite(x).all():
        raise UsageError("knots must be finite")
    if not all(np.isfinite(y).all() for y in ys):
        raise NumericError("a piecewise cubic needs finite samples")
    dx = np.diff(x)
    if (dx <= 0).any():
        raise UsageError("knots must be strictly increasing")
    return dx


def hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray) -> np.ndarray:
    """The coefficients of the cubic Hermite interpolant of values y and
    slopes dydx at the knots x."""
    dx = _steps(x, y, dydx)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))


def not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The knot slopes of the not-a-knot cubic spline through y at x."""
    dx = _steps(x, y)
    n = x.size
    slope = np.diff(y) / dx
    # the slope system in banded (1, 1) form: upper, main, lower rows
    A = np.zeros((3, n))
    b = np.empty(n)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    A[1, 0] = dx[1]
    A[0, 1] = x[2] - x[0]
    d = x[2] - x[0]
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    A[1, -1] = dx[-2]
    A[-1, -2] = x[-1] - x[-3]
    d = x[-1] - x[-3]
    b[-1] = (dx[-1]**2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return gtsv(A[2, :-1], A[1], A[0, 1:], b)


def derivative(c: np.ndarray) -> np.ndarray:
    """The coefficients of the derivative of the piecewise polynomial c."""
    return c[:-1] * np.arange(c.shape[0] - 1, 0, -1.0)[:, None]


def evaluate(c: np.ndarray, x: np.ndarray, xv, nu: int):
    """The nu-th derivative of the piecewise polynomial (c, x) at xv, in
    scipy's evaluate_poly1 order: the sum runs from the constant term up,
    starting from 0.0, with each power one more product by s."""
    xv = np.asarray(xv, dtype=float)
    i = np.clip(np.searchsorted(x, xv, "right") - 1, 0, x.size - 2)
    s = xv - x[i]
    k = c.shape[0]
    res, z = 0.0, 1.0
    for kp in range(nu, k):
        res = res + c[k - 1 - kp, i] * z * math.perm(kp, nu)
        z = z * s
    return res
