"""Weighted inner products, the operators L and L_w, H, and the integral
identities/inequalities, pinned against hand-computed Gaussian moments.

All closed-form values below are multiples of 2 sqrt(pi) = [1]_W in 1-D:
[y^2] = 2 [1], [y^4] = 12 [1].
"""

import dataclasses
import math

import numpy as np
import pytest

from blowlab import (
    ProblemParams,
    SampledField,
    UsageError,
    compute_H,
    kappa,
    linearized_apply,
    ou_apply,
    radial_grid,
    tensor_grid,
    verify_ibp,
    verify_log_test_inequality,
    verify_poincare,
    verify_prop35_inequality,
    weighted_inner,
)
from blowlab import calculus
from blowlab.quadrature import hermite_basis
from blowlab.calculus import (
    CheckRow,
    GaussianSum,
    cutoff_field,
    growth_diagnostic,
    make_log_test_eigenpair,
    poly_field,
    prop35_constants,
    random_bump_field,
    random_gaussian_sum,
    random_poly_field,
    sobolev_mass,
)

M0 = 2.0 * math.sqrt(math.pi)
P2 = ProblemParams(n=1, p=2.0)


@pytest.fixture(scope="module")
def g1():
    return tensor_grid(1, 64)


@pytest.fixture(scope="module")
def g2():
    return tensor_grid(2, 48)


def test_weighted_inner_documented_values(g1):
    one = SampledField.constant(g1, 1.0)
    y = poly_field(g1, [0.0, 1.0])
    assert weighted_inner(one, one) == pytest.approx(M0, rel=1e-14)
    assert weighted_inner(one, one) == pytest.approx(3.5449077018110318, rel=1e-14)
    assert weighted_inner(y, y) == pytest.approx(2.0 * M0, rel=1e-14)
    assert weighted_inner(y, y) == pytest.approx(7.0898154036220635, rel=1e-14)
    assert weighted_inner(one, y) == pytest.approx(0.0, abs=1e-12)


def test_weighted_inner_dimension_two(g2):
    one = SampledField.constant(g2, 1.0)
    assert weighted_inner(one, one) == pytest.approx(M0**2, rel=1e-13)


def test_grid_mismatch_rejected(g1):
    other = tensor_grid(1, 32)
    with pytest.raises(UsageError):
        weighted_inner(SampledField.constant(g1, 1.0), SampledField.constant(other, 1.0))


def test_ou_apply_eigenfields(g1, g2):
    # L 1 = 0, L y_i = -y_i/2, L |y|^2 = 2n - |y|^2
    one = SampledField.constant(g1, 1.0)
    assert np.abs(ou_apply(one)).max() == 0.0
    y = poly_field(g1, [0.0, 1.0])
    assert np.abs(ou_apply(y) + 0.5 * y.values).max() < 1e-10
    r2 = poly_field(g2, np.array([[0.0, 0.0, 1.0], [0.0] * 3, [1.0, 0.0, 0.0]]))
    want = 2.0 * 2 - r2.values
    assert np.abs(ou_apply(r2) - want).max() < 1e-9


def test_ou_apply_needs_laplacian(g1):
    f = SampledField(grid=g1, values=np.ones(g1.npoints),
                     grad=np.zeros((g1.npoints, 1)))
    with pytest.raises(UsageError):
        ou_apply(f)


def test_linearized_apply_at_kappa(g1):
    # at w = kappa the potential is p kappa^(p-1) = p/(p-1), so
    # L_kappa 1 = 1 (eigenvalue -1) and L_kappa y = y/2 (eigenvalue -1/2)
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        w = SampledField.constant(g1, kappa(p))
        one = SampledField.constant(g1, 1.0)
        out = linearized_apply(w, one, params)
        assert np.abs(out - 1.0).max() < 1e-12
    y = poly_field(g1, [0.0, 1.0])
    w = SampledField.constant(g1, 1.0)
    out = linearized_apply(w, y, P2)
    assert np.abs(out - 0.5 * y.values).max() < 1e-10


def test_linearized_apply_at_zero(g1):
    w = SampledField.constant(g1, 0.0)
    one = SampledField.constant(g1, 1.0)
    out = linearized_apply(w, one, P2)
    assert np.abs(out + 1.0).max() < 1e-12


def test_compute_H_values(g1):
    w = SampledField.constant(g1, 1.0)
    H = compute_H(w, P2)
    assert np.abs(H - 1.0).max() == 0.0
    assert H.min() == H.max() == 1.0

    y = poly_field(g1, [0.0, 1.0])
    H = compute_H(y, P2)
    assert np.abs(H - 1.5 * y.grid.points[:, 0]).max() < 1e-12
    assert H.min() < 0.0 < H.max()      # sign-changing


def test_verify_ibp_documented_pairs(g1):
    # f = g = y^2: both sides -16 sqrt(pi); f = g = y: both sides -2 sqrt(pi)
    y2 = poly_field(g1, [0.0, 0.0, 1.0])
    row = verify_ibp(y2, y2)
    assert row.holds
    assert row.lhs == pytest.approx(-8.0 * M0, rel=1e-12)
    assert row.rhs == pytest.approx(-8.0 * M0, rel=1e-12)
    y = poly_field(g1, [0.0, 1.0])
    row = verify_ibp(y, y)
    assert row.holds
    assert row.lhs == pytest.approx(-M0, rel=1e-12)
    assert row.rhs == pytest.approx(-M0, rel=1e-12)


def test_verify_ibp_random_polynomials(g1, g2):
    rng = np.random.default_rng(19)
    for grid in (g1, g2):
        for _ in range(25):
            row = verify_ibp(random_poly_field(grid, rng),
                             random_poly_field(grid, rng))
            assert row.holds, f"ibp residual {row.residual:.3e} on n={grid.n}"


def test_verify_ibp_gaussian_pairs(g1):
    rng = np.random.default_rng(23)
    for _ in range(10):
        f, h = random_gaussian_sum(rng, 1).field(g1), random_gaussian_sum(rng, 1).field(g1)
        row = verify_ibp(f, h)
        assert row.holds, f"residual {row.residual:.3e}"


def test_log_test_documented_example_constant(g1):
    # w = kappa, f = H(kappa) = 1, mu = -1, phi = 1, p = 2:
    # lhs = [2] = 2 [1], rhs = [4] = 4 [1]
    w = SampledField.constant(g1, 1.0)
    f = SampledField.constant(g1, 1.0)
    phi = SampledField.constant(g1, 1.0)
    row = verify_log_test_inequality(w, f, -1.0, phi, P2)
    assert row.holds
    assert row.lhs == pytest.approx(2.0 * M0, rel=1e-12)
    assert row.rhs == pytest.approx(4.0 * M0, rel=1e-12)


def test_log_test_documented_example_linear_window(g1):
    # same eigenpair, phi = y: lhs = 2 [y^2] = 4 [1],
    # rhs = [4] + 4 [y^2] = 4 [1] + 8 [1] = 12 [1]
    w = SampledField.constant(g1, 1.0)
    f = SampledField.constant(g1, 1.0)
    phi = poly_field(g1, [0.0, 1.0])
    row = verify_log_test_inequality(w, f, -1.0, phi, P2)
    assert row.holds
    assert row.lhs == pytest.approx(4.0 * M0, rel=1e-12)
    assert row.rhs == pytest.approx(12.0 * M0, rel=1e-12)


def test_log_test_rejects_sign_changing_eigenfunction(g1):
    w = SampledField.constant(g1, 1.0)
    f = poly_field(g1, [0.0, 1.0])
    phi = SampledField.constant(g1, 1.0)
    with pytest.raises(UsageError):
        verify_log_test_inequality(w, f, -1.0, phi, P2)


def test_poincare_closed_forms(g1):
    # v = 1: [y^2] = 2 [1] vs 4n [1]; v = y: [y^4] = 12 [1] vs 16 [1] + 8 [1]
    one = SampledField.constant(g1, 1.0)
    row = verify_poincare(one)
    assert row.holds
    assert row.lhs == pytest.approx(2.0 * M0, rel=1e-12)
    assert row.rhs == pytest.approx(4.0 * M0, rel=1e-12)
    y = poly_field(g1, [0.0, 1.0])
    row = verify_poincare(y)
    assert row.holds
    assert row.lhs == pytest.approx(12.0 * M0, rel=1e-12)
    assert row.rhs == pytest.approx(24.0 * M0, rel=1e-12)


def test_poincare_random_bumps(g2):
    rng = np.random.default_rng(5)
    for _ in range(25):
        row = verify_poincare(random_bump_field(g2, rng))
        assert row.holds, f"poincare residual {row.residual:.3e}"


def test_prop35_constants_structure():
    c = prop35_constants(2.0, 2.0)
    assert c["q"] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert 0.0 < c["eps"] <= 0.5 * (1.0 - c["q"]) + 1e-15
    assert c["theta"] <= 0.5 * (1.0 + c["q"]) + 1e-15
    assert c["B"] == pytest.approx(1.0)
    assert c["C"] >= c["B"] / (1.0 - c["theta"]) - 1e-12
    with pytest.raises(UsageError):
        prop35_constants(0.5, 2.0)


def test_prop35_documented_cases(g1):
    # w = kappa, m = p = 2, eta supported on radius 4
    w = SampledField.constant(g1, 1.0)
    eta = cutoff_field(g1, 4.0)
    row = verify_prop35_inequality(w, 2.0, eta, P2)
    assert row.holds
    assert row.lhs < row.rhs
    # m = (p-1)/2 is admissible for p = 2.5 (above 1 + 2/sqrt(3))
    p = ProblemParams(n=1, p=2.5)
    w = SampledField.constant(g1, kappa(2.5))
    row = verify_prop35_inequality(w, 0.75, eta, p)
    assert row.holds


def test_prop35_rejects_bad_m(g1):
    w = SampledField.constant(g1, 1.0)
    eta = cutoff_field(g1, 4.0)
    with pytest.raises(UsageError):
        verify_prop35_inequality(w, 0.5, eta, P2)


def test_cutoff_field_shape(g1):
    eta = cutoff_field(g1, 4.0)
    y = g1.points[:, 0]
    assert np.all(eta.values[np.abs(y) <= 4.0] == 1.0)
    assert np.all(eta.values[np.abs(y) >= 5.0] == 0.0)
    assert np.sqrt(eta.grad_sq()).max() <= 1.875 + 1e-12
    rg = radial_grid(3, 32)
    eta = cutoff_field(rg, 4.0)
    assert np.all(eta.values[rg.r >= 5.0] == 0.0)


def test_poly_field_matches_spectral_gradient(g1):
    # dual route: analytic polynomial derivatives vs those of the field's
    # expansion in the orthonormal Hermite functions, b_k' = sqrt(k/2) b_{k-1}
    rng = np.random.default_rng(2)
    coef = rng.uniform(-1.0, 1.0, size=7)
    f = poly_field(g1, coef)
    inner = np.abs(g1.points[:, 0]) <= 8.0
    nb = 16
    b = hermite_basis(g1.points[:, 0], nb)
    a = b.T @ (g1.weights * f.values)
    k = np.arange(nb)
    grad = b[:, :-1] @ (a[1:] * np.sqrt(k[1:] / 2.0))
    lap = b[:, :-2] @ (a[2:] * np.sqrt(k[2:] * k[1:-1]) / 2.0)
    assert np.abs(b @ a - f.values)[inner].max() < 1e-8
    assert np.abs(f.grad[:, 0] - grad)[inner].max() < 1e-8
    assert np.abs(f.lap - lap)[inner].max() < 1e-7


def test_gaussian_sum_derivatives_match_finite_differences():
    rng = np.random.default_rng(31)
    gs = random_gaussian_sum(rng, 2)
    pts = rng.uniform(-3.0, 3.0, (40, 2))
    h = 1e-5
    g = lambda q: gs.at(q).values()
    lap = lambda q: gs.at(q).lap()

    def fd_grad(q):
        out = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            out[i] = (g(q[None] + e) - g(q[None] - e))[0] / (2 * h)
        return out

    for q in pts[:8]:
        assert np.abs(gs.at(q[None]).grad()[0] - fd_grad(q)).max() < 1e-8

    # laplacian, hessian and third-order pieces against central differences
    q = pts[:8]
    lap_fd = sum((g(q + h * np.eye(2)[i]) - 2 * g(q) + g(q - h * np.eye(2)[i])) / h**2
                 for i in range(2))
    assert np.abs(lap(q) - lap_fd).max() < 1e-4
    hess_fd = np.empty((8, 2, 2))
    for i in range(2):
        for j in range(2):
            ei, ej = h * np.eye(2)[i], h * np.eye(2)[j]
            hess_fd[:, i, j] = (g(q + ei + ej) - g(q + ei - ej)
                                - g(q - ei + ej) + g(q - ei - ej)) / (4 * h * h)
    assert np.abs(gs.at(q).hess() - hess_fd).max() < 1e-4
    glap_fd = np.empty((8, 2))
    for i in range(2):
        e = h * np.eye(2)[i]
        glap_fd[:, i] = (lap(q + e) - lap(q - e)) / (2 * h)
    assert np.abs(gs.at(q).grad_lap() - glap_fd).max() < 1e-5
    gou_fd = np.empty((8, 2))
    for i in range(2):
        e = h * np.eye(2)[i]
        up, down = gs.at(q + e), gs.at(q - e)
        gou_fd[:, i] = (up.ou(up.grad()) - down.ou(down.grad())) / (2 * h)
    terms = gs.at(q)
    assert np.abs(terms.grad_ou(terms.grad(), terms.hess()) - gou_fd).max() < 1e-5

    # poly_field's analytic gradient and Laplacian, by the same differences of
    # its values on the grid shifted along each axis, bounded relative to its size
    for n, coef in ((1, rng.uniform(-1.0, 1.0, 7)), (2, rng.uniform(-1.0, 1.0, (4, 4)))):
        grid = tensor_grid(n, 16)
        at = lambda e: poly_field(dataclasses.replace(grid, points=grid.points + e), coef).values
        f = poly_field(grid, coef)
        inner = (np.abs(grid.points) <= 3.0).all(axis=1)
        fd_grad = np.stack([(at(e) - at(-e)) / (2 * h) for e in h * np.eye(n)], axis=1)
        fd_lap = sum((at(e) - 2 * f.values + at(-e)) / h**2 for e in h * np.eye(n))
        scale = 1.0 + np.abs(f.values[inner]).max()
        assert np.abs(f.grad - fd_grad)[inner].max() < 1e-8 * scale
        assert np.abs(f.lap - fd_lap)[inner].max() < 1e-4 * scale


# GaussianSum as it was before its terms were shared: each method computes
# y - c, |y - c|^2 and the exponentials afresh. The oracle of the shared terms.


def _fresh_parts(gs, pts):
    d2 = ((pts[None, :, :] - gs.c[:, None, :]) ** 2).sum(axis=2)
    return gs.a[:, None] * np.exp(-gs.b[:, None] * d2)


def _fresh_value(gs, pts):
    return _fresh_parts(gs, pts).sum(axis=0)


def _fresh_grad(gs, pts):
    parts = _fresh_parts(gs, pts)
    diff = pts[None, :, :] - gs.c[:, None, :]
    return (-2.0 * gs.b[:, None, None] * diff * parts[:, :, None]).sum(axis=0)


def _fresh_lap(gs, pts):
    n = pts.shape[1]
    parts = _fresh_parts(gs, pts)
    d2 = ((pts[None, :, :] - gs.c[:, None, :]) ** 2).sum(axis=2)
    return ((4.0 * gs.b[:, None] ** 2 * d2 - 2.0 * n * gs.b[:, None]) * parts).sum(axis=0)


def _fresh_hess(gs, pts):
    parts = _fresh_parts(gs, pts)
    diff = pts[None, :, :] - gs.c[:, None, :]
    b = gs.b[:, None, None, None]
    outer = diff[:, :, :, None] * diff[:, :, None, :]
    eye = np.eye(pts.shape[1])[None, None, :, :]
    return ((4.0 * b * b * outer - 2.0 * b * eye)
            * parts[:, :, None, None]).sum(axis=0)


def _fresh_grad_lap(gs, pts):
    n = pts.shape[1]
    parts = _fresh_parts(gs, pts)
    diff = pts[None, :, :] - gs.c[:, None, :]
    d2 = (diff ** 2).sum(axis=2)
    b = gs.b[:, None]
    coef = (8.0 + 4.0 * n) * b * b - 8.0 * b ** 3 * d2
    return (coef[:, :, None] * diff * parts[:, :, None]).sum(axis=0)


def _fresh_ou(gs, pts, grad):
    return _fresh_lap(gs, pts) - 0.5 * (pts * grad).sum(axis=1)


def _fresh_grad_ou(gs, pts, grad, hess):
    hy = np.einsum("qij,qj->qi", hess, pts)
    return _fresh_grad_lap(gs, pts) - 0.5 * (grad + hy)


def _fresh_all(gs, pts):
    grad, hess = _fresh_grad(gs, pts), _fresh_hess(gs, pts)
    return {"values": _fresh_value(gs, pts), "grad": grad, "lap": _fresh_lap(gs, pts),
            "hess": hess, "grad_lap": _fresh_grad_lap(gs, pts),
            "ou": _fresh_ou(gs, pts, grad), "grad_ou": _fresh_grad_ou(gs, pts, grad, hess)}


def _terms_all(terms):
    grad, hess = terms.grad(), terms.hess()
    return {"values": terms.values(), "grad": grad, "lap": terms.lap(), "hess": hess,
            "grad_lap": terms.grad_lap(), "ou": terms.ou(grad),
            "grad_ou": terms.grad_ou(grad, hess)}


def _assert_bitwise(got, want):
    for key in got:
        assert got[key].shape == want[key].shape, key
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gaussian_sum_shared_terms_are_fresh_evaluations(n):
    rng = np.random.default_rng(40 + n)
    gs = random_gaussian_sum(rng, n)
    pts = rng.uniform(-4.0, 4.0, (50, n))
    _assert_bitwise(_terms_all(gs.at(pts)), _fresh_all(gs, pts))
    # a shrink step reuses the exponentials of the unshrunk terms
    half = GaussianSum(a=gs.a * 0.5, b=gs.b, c=gs.c)
    _assert_bitwise(_terms_all(gs.at(pts).scaled(0.5)), _fresh_all(half, pts))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_from_callable_of_a_gaussian_sum_is_the_fresh_field(n):
    grid = tensor_grid(n, {1: 64, 2: 24, 3: 12}[n])
    gs = random_gaussian_sum(np.random.default_rng(n), n)
    sampled = SampledField.from_callable(grid, lambda pts: gs.at(pts).values(),
                                         grad=lambda pts: gs.at(pts).grad(),
                                         lap=lambda pts: gs.at(pts).lap())
    for f in (gs.field(grid), sampled):
        assert np.array_equal(f.values, _fresh_value(gs, grid.points))
        assert np.array_equal(f.grad, _fresh_grad(gs, grid.points))
        assert np.array_equal(f.lap, _fresh_lap(gs, grid.points))


def _fresh_log_test_eigenpair(grid, rng, params, amp):
    """make_log_test_eigenpair as it was, on the fresh evaluations."""
    p = params.p
    floor = 0.1 * p / (p - 1.0)
    gs = random_gaussian_sum(rng, grid.n, amp=amp)
    pts = grid.points
    for _ in range(60):
        grad = _fresh_grad(gs, pts)
        pot = p / (p - 1.0) - _fresh_ou(gs, pts, grad) - (grad ** 2).sum(axis=1)
        if pot.min() > floor:
            wvals = (pot / p) ** (1.0 / (p - 1.0))
            hess = _fresh_hess(gs, pts)
            gpot = -_fresh_grad_ou(gs, pts, grad, hess) \
                - 2.0 * np.einsum("qij,qj->qi", hess, grad)
            wgrad = (wvals / ((p - 1.0) * pot))[:, None] * gpot
            w = SampledField(grid=grid, values=wvals, grad=wgrad)
            if compute_H(w, params).min() > 0.0:
                break
        gs = GaussianSum(a=gs.a * 0.5, b=gs.b, c=gs.c)
    else:
        raise UsageError("could not scale the eigenpair sample to a positive potential")
    gv = _fresh_value(gs, pts)
    f = SampledField(grid=grid, values=np.exp(gv), grad=np.exp(gv)[:, None] * grad)
    return w, f


@pytest.mark.parametrize("amp", [0.25, 8.0])
@pytest.mark.parametrize("n,p", [(1, 2.0), (2, 3.0), (3, 2.0)])
def test_log_test_eigenpair_and_bump_are_the_fresh_samples(monkeypatch, n, p, amp):
    # amplitude 0.25 is the battery's draw and needs no shrink; at 8 every
    # sample here is halved two or three times before its potential is positive
    monkeypatch.setattr(calculus, "random_gaussian_sum",
                        lambda rng, n, amp=amp: random_gaussian_sum(rng, n, amp=amp))
    grid = tensor_grid(n, {1: 64, 2: 24, 3: 12}[n])
    params = ProblemParams(n=n, p=p)
    for seed in (0, 3, 7, 12):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pair = make_log_test_eigenpair(grid, rng, params)
        w, f = _fresh_log_test_eigenpair(grid, ref, params, amp)
        for got, want in ((pair.w, w), (pair.f, f)):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.grad, want.grad)
        bump = random_bump_field(grid, rng)
        gs = random_gaussian_sum(ref, n, amp=1.0)
        eta = cutoff_field(grid, 4.0)
        vals = _fresh_value(gs, grid.points) * eta.values
        grad = _fresh_grad(gs, grid.points) * eta.values[:, None] \
            + _fresh_value(gs, grid.points)[:, None] * eta.grad
        assert np.array_equal(bump.values, vals) and np.array_equal(bump.grad, grad)
        assert rng.random() == ref.random()     # the same draws were taken


def test_random_bump_field_support(g2):
    rng = np.random.default_rng(8)
    f = random_bump_field(g2, rng)
    r = np.sqrt((g2.points**2).sum(axis=1))
    assert np.all(f.values[r >= 5.0] == 0.0)
    assert np.abs(f.values).max() > 0.0


def test_eigenpair_construction_is_exact(g1):
    # the inverse construction: f = exp(g) with the potential defined so that
    # L_w f = f; rebuilt here with an analytic laplacian to close the loop
    rng = np.random.default_rng(13)
    gs = random_gaussian_sum(rng, 1, amp=0.1)
    pts = g1.points
    p = 2.0
    terms = gs.at(pts)
    pot = p / (p - 1.0) - terms.ou(terms.grad()) - (terms.grad() ** 2).sum(axis=1)
    assert pot.min() > 0.0
    wvals = (pot / p) ** (1.0 / (p - 1.0))
    w = SampledField(grid=g1, values=wvals, grad=np.zeros((g1.npoints, 1)))
    gv, grad, lap = terms.values(), terms.grad(), terms.lap()
    f = SampledField(grid=g1, values=np.exp(gv), grad=np.exp(gv)[:, None] * grad,
                     lap=np.exp(gv) * (lap + (grad**2).sum(axis=1)))
    out = linearized_apply(w, f, P2)
    assert np.abs(out - f.values).max() < 1e-10


def test_make_log_test_eigenpair_contract(g1):
    for seed in (0, 4, 9):
        rng = np.random.default_rng(seed)
        pair = make_log_test_eigenpair(g1, rng, P2)
        assert pair.mu == -1.0
        assert pair.w.values.min() > 0.0
        assert pair.f.values.min() > 0.0
        assert compute_H(pair.w, P2).min() > 0.0
        phi = cutoff_field(g1, 3.0)
        row = verify_log_test_inequality(pair.w, pair.f, pair.mu, phi, P2)
        assert row.holds, f"seed {seed}: residual {row.residual:.3e}"


def test_growth_diagnostic_smooth_vs_growing():
    rng = np.random.default_rng(21)
    gs = random_gaussian_sum(rng, 1)
    row = growth_diagnostic(gs.field, n=1, degree=24)
    assert row.holds

    # e^(y^2/8) has infinite weighted H^1 mass: the sampled mass keeps
    # growing with the quadrature degree and the diagnostic must say no
    def growing(g):
        y = g.points[:, 0]
        v = np.exp(y * y / 8.0)
        return SampledField(grid=g, values=v, grad=(0.25 * y * v)[:, None])

    row = growth_diagnostic(growing, n=1, degree=24)
    assert not row.holds
    assert row.rhs / row.lhs > 1.5


def test_sobolev_mass_constant(g1):
    one = SampledField.constant(g1, 1.0)
    assert sobolev_mass(one) == pytest.approx(M0, rel=1e-13)


def test_check_row_csv_shape(g1):
    row = verify_ibp(poly_field(g1, [0.0, 1.0]), poly_field(g1, [0.0, 1.0]))
    name, lhs, rhs, residual, holds = dataclasses.astuple(row)
    assert name == "ibp" and holds is True
    assert residual <= 1e-8 * (1.0 + abs(rhs))


def test_check_row_rules_at_the_tolerance_edge(monkeypatch):
    # power-of-two tolerances put each edge on an exact float
    up = lambda x: math.nextafter(x, math.inf)
    down = lambda x: math.nextafter(x, -math.inf)
    # identity: |lhs - rhs| <= tol (1 + |rhs|), at rhs = 1 and tol = 2^-20
    tol = 2.0 ** -20
    for edge, past in ((1.0 + 2.0 ** -19, up), (1.0 - 2.0 ** -19, down)):
        row = CheckRow.identity("edge", edge, 1.0, tol)
        assert row.holds is True and row.residual == 2.0 ** -19
        assert CheckRow.identity("edge", past(edge), 1.0, tol).holds is False
    # bound: lhs <= rhs + tol (1 + |lhs| + |rhs|); at tol = 1/4, lhs = 2 and
    # rhs = 1 the right side is exactly 2, and it stays 2 one ulp past lhs
    monkeypatch.setattr(calculus, "INEQUALITY_TOL", 0.25)
    row = CheckRow.bound("edge", 2.0, 1.0)
    assert row.holds is True and row.residual == 1.0
    assert CheckRow.bound("edge", up(2.0), 1.0).holds is False
    assert CheckRow.bound("edge", 0.5, 1.0).residual == 0.0
    for lhs, rhs in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
        assert CheckRow.identity("nan", lhs, rhs, tol).holds is False
        assert CheckRow.bound("nan", lhs, rhs).holds is False
