"""Piecewise cubics as scipy.interpolate builds and evaluates them, and the
tridiagonal solve behind them.

Ported from scipy 1.17.1 operation for operation, so every coefficient and
value is bitwise scipy's, without importing scipy.interpolate (which brings
in scipy.sparse, scipy.special, scipy.spatial and scipy.fft):

- `not_a_knot(x, y)` is `CubicSpline(x, y).c`: the knot slopes come from one
  tridiagonal solve, as CubicSpline's general branch takes them;
- `hermite(x, y, dydx)` is `CubicHermiteSpline(x, y, dydx).c`;
- `derivative(c)` is `PPoly.derivative().c`, c[:-1] times (3, 2, 1);
- `evaluate(c, x, xv, nu)` is `PPoly(c, x)(xv, nu)`, extrapolating.

Coefficients c are (k, n - 1), highest power first, in the local variable
s = xv - x[i] of the interval i with x[i] <= xv < x[i + 1]. The checks of
scipy's `prepare_input` stay: at least 4 knots (so CubicSpline's special
cases for 2 and 3 never arise), finite and strictly increasing, with finite
samples.

`gtsv` is the (1, 1) branch of scipy.linalg.solve_banded: LAPACK dgtsv on
the three diagonals in place, without the wrapper's validation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, UsageError


def gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub-, main and super-diagonal dl, d, du)
    for b by LAPACK dgtsv (partial pivoting), overwriting all four; returns
    the solution, b itself when b is a contiguous float array. An exactly
    singular matrix raises NumericError."""
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise NumericError(f"tridiagonal solve hit a zero pivot in row {info}",
                           payload={"row": int(info)})
    if info < 0:
        raise UsageError(f"illegal value in argument {-info} of dgtsv")
    return x


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


def not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The coefficients of the not-a-knot cubic spline through y at x."""
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
    return hermite(x, y, gtsv(A[2, :-1], A[1], A[0, 1:], b))


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
