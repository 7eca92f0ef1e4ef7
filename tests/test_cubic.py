"""blowlab._cubic against scipy.interpolate, its reference: the not-a-knot
spline and the Hermite cubic, their coefficients, their values and first
derivatives (PPoly's nu = 1 and PPoly.derivative) bitwise, sign bits
included, on knots, at both ends, between knots and beyond them. Also the
input checks and the tridiagonal solve's refusal of a singular matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from blowlab import NumericError, UsageError, _cubic, evolution


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def meshes(draw):
    """(x, y, dydx, xv): a uniform or non-uniform mesh of 4 to 60 knots,
    samples and slopes over many scales, and evaluation points that include
    every knot, both ends, points between knots and points past either end."""
    n = draw(st.integers(4, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(-10.0, 10.0))
    width = 10.0 ** draw(st.floats(-3.0, 2.0))
    if draw(st.booleans()):
        x = np.linspace(lo, lo + width, n)
    else:
        x = lo + width * np.cumsum(rng.uniform(0.01, 1.0, n))
    y = rng.standard_normal(n) * 10.0 ** draw(st.floats(-6.0, 6.0))
    dydx = rng.standard_normal(n) * 10.0 ** draw(st.floats(-6.0, 6.0))
    span = x[-1] - x[0]
    xv = np.concatenate((x, [x[0], x[-1]], rng.uniform(x[0], x[-1], 40),
                         rng.uniform(x[0] - 0.2 * span, x[0], 5),
                         rng.uniform(x[-1], x[-1] + 0.2 * span, 5)))
    return x, y, dydx, xv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(meshes())
def test_not_a_knot_spline_is_scipys(mesh):
    x, y, _, xv = mesh
    spl = CubicSpline(x, y)
    c = _cubic.not_a_knot(x, y)
    assert same(c, spl.c)
    for nu in (0, 1):
        assert same(_cubic.evaluate(c, x, xv, nu), spl(xv, nu))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(meshes())
def test_hermite_cubic_and_its_derivative_are_scipys(mesh):
    x, y, dydx, xv = mesh
    spl = CubicHermiteSpline(x, y, dydx)
    dspl = spl.derivative()
    c = _cubic.hermite(x, y, dydx)
    dc = _cubic.derivative(c)
    assert same(c, spl.c) and same(dc, dspl.c)
    assert same(_cubic.evaluate(c, x, xv, 0), spl(xv))
    assert same(_cubic.evaluate(dc, x, xv, 0), dspl(xv))
    # a scalar point, as extended_profile evaluates the cut
    mid = 0.5 * (x[1] + x[2])
    assert float(_cubic.evaluate(c, x, mid, 0)) == float(spl(mid))


def test_spline_of_a_constant_is_flat():
    x = np.linspace(0.0, 1.0, 9)
    c = _cubic.not_a_knot(x, np.full(9, 2.5))
    xv = np.linspace(-0.5, 1.5, 41)
    assert (_cubic.evaluate(c, x, xv, 0) == 2.5).all()
    assert (_cubic.evaluate(c, x, xv, 1) == 0.0).all()


@pytest.mark.parametrize("x, y, error", [
    (np.linspace(0.0, 1.0, 3), np.ones(3), UsageError),             # too few knots
    (np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4), UsageError),       # repeated knot
    (np.array([0.0, 2.0, 1.0, 3.0]), np.ones(4), UsageError),       # decreasing
    (np.array([0.0, 1.0, math.nan, 3.0]), np.ones(4), UsageError),
    (np.linspace(0.0, 1.0, 5), np.ones(4), UsageError),             # shapes differ
    (np.linspace(0.0, 1.0, 5), np.array([1.0, 2.0, math.inf, 0.0, 1.0]), NumericError),
    (np.linspace(0.0, 1.0, 5), np.array([1.0, 2.0, math.nan, 0.0, 1.0]), NumericError),
], ids=["three-knots", "repeated", "decreasing", "nan-knot", "shapes", "inf-sample",
        "nan-sample"])
def test_input_checks_are_scipys(x, y, error):
    # scipy refuses each of these with a ValueError but three knots, where
    # CubicSpline fits a parabola; the port has no such special case
    if x.size >= 4:
        with pytest.raises(ValueError):
            CubicSpline(x, y)
    with pytest.raises(error):
        _cubic.not_a_knot(x, y)
    with pytest.raises(error):
        _cubic.hermite(x, y, np.zeros_like(y))


def test_singular_tridiagonal_solve_raises_numeric_error():
    # a zero first pivot with nothing below it to swap in: dgtsv's info = 1,
    # which scipy's solve_banded raised as an uncaught LinAlgError
    ab = np.array([[0.0, 1.0, 1.0, 1.0],
                   [0.0, 2.0, 2.0, 2.0],
                   [0.0, 1.0, 1.0, 0.0]])
    with pytest.raises(NumericError, match="zero pivot in row 1"):
        evolution.solve_banded((1, 1), ab, np.ones(4))
    with pytest.raises(UsageError):
        evolution.solve_banded((1, 2), np.zeros((4, 4)), np.ones(4))
