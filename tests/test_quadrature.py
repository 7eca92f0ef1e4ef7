"""Quadrature rules, closed-form Gaussian moments, and the orthonormal bases."""

import math
import warnings

import numpy as np
import pytest
import scipy.special

from blowlab import (
    ConfigurationError,
    UsageError,
    gaussian_moment_1d,
    gaussian_radial_moment,
    radial_grid,
    tensor_grid,
)
from blowlab.quadrature import (
    TOTAL_MASS_1D,
    cutoff_radial,
    hermite_basis,
    laguerre_basis,
    laguerre_table,
    require_basis_fits,
    require_same_grid,
    smoothstep,
    smoothstep_slope,
    sphere_area,
)

TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def test_total_mass_tensor():
    # int exp(-|y|^2/4) dy = (2 sqrt(pi))^n = (4 pi)^(n/2)
    for n in (1, 2, 3):
        g = tensor_grid(n)
        want = TWO_SQRT_PI ** n
        assert g.weights.sum() == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx((4.0 * math.pi) ** (n / 2.0), rel=1e-15)


def test_total_mass_radial():
    for n in (1, 2, 3, 5):
        g = radial_grid(n, 48)
        assert g.weights.sum() == pytest.approx(TWO_SQRT_PI ** n, rel=1e-13)


def test_moment_closed_form_against_gamma():
    # independent oracle: int y^k exp(-y^2/4) dy = 2^(k+1) Gamma((k+1)/2), even k
    for k in range(0, 13):
        if k % 2:
            assert gaussian_moment_1d(k) == 0.0
        else:
            want = 2.0 ** (k + 1) * math.gamma((k + 1) / 2.0)
            assert gaussian_moment_1d(k) == pytest.approx(want, rel=1e-14)
    assert gaussian_moment_1d(0) == pytest.approx(TWO_SQRT_PI)
    assert gaussian_moment_1d(2) == pytest.approx(2.0 * TWO_SQRT_PI)
    assert gaussian_moment_1d(4) == pytest.approx(12.0 * TWO_SQRT_PI)


def test_radial_moment_consistency():
    # n = 1 radial moments duplicate the even 1-D moments
    for k in range(0, 11, 2):
        assert gaussian_radial_moment(1, k) == pytest.approx(
            gaussian_moment_1d(k), rel=1e-14)
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_tensor_quadrature_moments_exact():
    g = tensor_grid(1, 64)
    y = g.points[:, 0]
    for k in range(0, 40, 2):
        got = float(np.dot(g.weights, y**k))
        assert got == pytest.approx(gaussian_moment_1d(k), rel=1e-12), f"k = {k}"
    # odd moments vanish by symmetry of the nodes
    assert abs(np.dot(g.weights, y**7)) < 1e-9


def test_radial_quadrature_moments_exact():
    # Laguerre nodes are polynomials in r^2: even powers integrate exactly
    for n in (2, 3):
        g = radial_grid(n, 48)
        for k in range(0, 22, 2):
            got = float(np.dot(g.weights, g.r**k))
            assert got == pytest.approx(gaussian_radial_moment(n, k), rel=1e-12)


def test_hermite_basis_orthonormal():
    g = tensor_grid(1, 64)
    B = hermite_basis(g.nodes_1d, 32)
    gram = B.T @ (g.weights[:, None] * B)
    assert np.abs(gram - np.eye(32)).max() < 1e-12


def test_radial_basis_orthonormal():
    for n in (1, 3):
        g = radial_grid(n, 40)
        values, _ = laguerre_basis(g, 40)
        gram = values.T @ (g.weights[:, None] * values)
        assert np.abs(gram - np.eye(40)).max() < 1e-8


def check_grid(grid):
    """Diagnostics: weight-sum relative error and worst moment relative error.

    Tensor grids are checked against 1-D Gaussian moments per axis, radial
    grids against the closed-form radial moments. Exactness is expected for
    polynomial degree <= 2*degree - 1.
    """
    mass = TOTAL_MASS_1D ** grid.n
    mass_rel = abs(grid.weights.sum() - mass) / mass
    worst = 0.0
    top = 2 * grid.degree - 1
    if grid.kind == "tensor":
        y0 = grid.points[:, 0]
        rest = TOTAL_MASS_1D ** (grid.n - 1)
        for k in range(0, top + 1, 2):
            exact = gaussian_moment_1d(k) * rest
            got = float(np.dot(grid.weights, y0**k))
            worst = max(worst, abs(got - exact) / abs(exact))
    else:
        for k in range(0, top + 1, 2):
            exact = gaussian_radial_moment(grid.n, k)
            got = float(np.dot(grid.weights, grid.r**k))
            worst = max(worst, abs(got - exact) / abs(exact))
    return {"mass_rel_err": float(mass_rel), "moment_rel_err": float(worst)}


def test_check_grid_diagnostics():
    d = check_grid(tensor_grid(1, 48))
    assert d["mass_rel_err"] < 1e-13
    assert d["moment_rel_err"] < 1e-11
    d = check_grid(radial_grid(3, 32))
    assert d["mass_rel_err"] < 1e-13
    assert d["moment_rel_err"] < 1e-11


def test_smoothstep_shape():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    t = np.linspace(0.0, 1.0, 2001)
    assert smoothstep_slope(t).max() == pytest.approx(1.875, abs=1e-6)


def test_cutoff_radial_profile():
    r = np.linspace(0.0, 8.0, 1601)
    vals, slope = cutoff_radial(r, 4.0)
    assert np.all(vals[r <= 4.0] == 1.0)
    assert np.all(vals[r >= 5.0] == 0.0)
    assert np.abs(slope).max() <= 1.875 + 1e-12   # within the |grad eta| <= 2 allowance
    mid = (r > 4.0) & (r < 5.0)
    assert np.all(slope[mid] <= 0.0)
    with pytest.raises(UsageError):
        cutoff_radial(r, 0.0)


def test_grid_argument_errors():
    with pytest.raises(UsageError):
        tensor_grid(0)
    with pytest.raises(UsageError):
        tensor_grid(1, 1)
    with pytest.raises(UsageError):
        radial_grid(2, 1)
    with pytest.raises(UsageError):
        require_same_grid(tensor_grid(1, 16), tensor_grid(1, 24))
    with pytest.raises(UsageError):
        require_same_grid(tensor_grid(1, 16), radial_grid(1, 16))


def test_basis_capacity_guard():
    g = tensor_grid(1, 16)
    require_basis_fits(g, 16)
    with pytest.raises(ConfigurationError):
        require_basis_fits(g, 17)


@pytest.mark.parametrize("build, n, degree", [
    (tensor_grid, 1, 371), (radial_grid, 1, 364), (radial_grid, 20, 363), (tensor_grid, 3, 224),
], ids=["hermite-371", "laguerre-364", "laguerre-n20-363", "tensor-beyond-the-budget"])
def test_grids_refuse_rules_they_cannot_build(build, n, degree):
    # each leaked overflow warnings and built non-finite weights, or asked
    # for more than the work budget's values (224^3 points in R^3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError):
            build(n, degree)


@pytest.mark.parametrize("build, n, degree", [
    (tensor_grid, 1, 370), (radial_grid, 1, 363), (radial_grid, 20, 362),
], ids=["hermite-370", "laguerre-363", "laguerre-n20-362"])
def test_the_largest_rules_build_finitely(build, n, degree):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build(n, degree)
    assert np.isfinite(g.points).all() and np.isfinite(g.weights).all()


@pytest.mark.parametrize("n", [*range(1, 14), 20, 41, 42, 43, 100])
def test_laguerre_table_is_scipys(n):
    # every order up to the largest rule's, at alpha and at alpha + 1 (the
    # derivative's rows), on x up to 1500: from the origin through the
    # nodes of the largest rule, where the values overflow
    alpha = n / 2.0 - 1.0
    x = np.concatenate([[0.0, 1e-300], np.geomspace(1e-6, 1500.0, 60),
                        np.linspace(0.5, 50.0, 24)])
    for a in (alpha, alpha + 1.0):
        with np.errstate(all="ignore"):
            rows = laguerre_table(363, a, x)
            for k in range(364):
                want = scipy.special.eval_genlaguerre(k, a, x)
                assert np.array_equal(rows[:, k].view(np.int64), want.view(np.int64)), (a, k)


def test_special_ufuncs_are_scipy_specials_own():
    from blowlab import _scipy

    module = _scipy.special_ufuncs()
    assert module.gamma is scipy.special.gamma
    assert module.gammaln is scipy.special.gammaln
    assert module.binom is scipy.special.binom
