"""Spectral discretization of the linearized operator, pinned against closed
forms (constant steady state, zero state) and a finite-difference oracle.

Convention: L v = -lambda v, so negative eigenvalues are the unstable ones;
at w = kappa the tensor eigenvalues are k/2 - 1, the radial ones k - 1.
"""

import math

import numpy as np
import pytest

from blowlab import (
    ConfigurationError,
    ProblemParams,
    SampledField,
    UsageError,
    assemble,
    build_basis,
    fd_eigenvalues_1d,
    first_eigenvalue_rayleigh,
    kappa,
    sign_change_check,
    spectrum,
    stability_classify,
)
from blowlab.calculus import GaussianSum, poly_field

P2 = ProblemParams(n=1, p=2.0)


@pytest.fixture(scope="module")
def basis16():
    return build_basis(1, 16)


def kappa_values(basis, p):
    return np.full(basis.grid.npoints, kappa(p))


def test_basis_constant_mode(basis16):
    # first basis function is the normalized constant (4 pi)^(-1/4)
    c0 = (4.0 * math.pi) ** -0.25
    assert np.abs(basis16.values[:, 0] - c0).max() < 1e-14
    assert basis16.ou_eigs[0] == 0.0
    assert basis16.ou_eigs[2] == -1.0


def test_basis_orthonormal(basis16):
    assert basis16.gram_residual() < 1e-12
    rad = build_basis(3, 8, kind="radial")
    assert rad.gram_residual() < 1e-12
    assert np.all(rad.ou_eigs == -np.arange(8.0))


def test_basis_two_dimensional_ordering():
    b = build_basis(2, 6)
    assert b.labels[0] == (0, 0)
    assert set(b.labels[1:3]) == {(0, 1), (1, 0)}
    degs = [sum(lab) for lab in b.labels]
    assert degs == sorted(degs)
    assert b.gram_residual() < 1e-12


def test_basis_argument_errors():
    with pytest.raises(UsageError):
        build_basis(1, 0)
    with pytest.raises(UsageError):
        build_basis(1, 4, kind="chebyshev")
    with pytest.raises(ConfigurationError):
        build_basis(1, 40, degree=16)
    with pytest.raises(ConfigurationError):
        build_basis(3, 40, degree=8, kind="radial")


def test_assemble_diagonal_at_kappa():
    basis = build_basis(1, 4)
    op = assemble(kappa_values(basis, 2.0), basis, P2)
    want = np.diag([1.0, 0.5, 0.0, -0.5])
    assert np.abs(op.matrix - want).max() < 1e-12
    assert op.asym_residual < 1e-12


def test_assemble_diagonal_at_zero():
    basis = build_basis(1, 2)
    op = assemble(np.zeros(basis.grid.npoints), basis, P2)
    want = np.diag([-1.0, -1.5])
    assert np.abs(op.matrix - want).max() < 1e-12


def test_assemble_argument_guards(basis16):
    with pytest.raises(UsageError):
        assemble(np.zeros(3), basis16, P2)
    # negative tolerance turns the symmetry guard into an unconditional trip
    from blowlab import NumericError
    with pytest.raises(NumericError):
        assemble(kappa_values(basis16, 2.0), basis16, P2, sym_tol=-1.0)


def test_spectrum_closed_form_tensor(basis16):
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        rep = spectrum(assemble(kappa_values(basis16, p), basis16, params), 4)
        assert np.abs(rep.eigenvalues - np.array([-1.0, -0.5, 0.0, 0.5])).max() < 1e-10
        assert rep.lambda1 == pytest.approx(-1.0, abs=1e-10)
    d = rep.to_dict()
    assert d["p"] == 5.0 and len(d["eigenvalues"]) == 4


def test_spectrum_closed_form_radial():
    basis = build_basis(3, 8, kind="radial")
    params = ProblemParams(n=3, p=3.0)
    rep = spectrum(assemble(kappa_values(basis, 3.0), basis, params))
    assert np.abs(rep.eigenvalues - (np.arange(8.0) - 1.0)).max() < 1e-10


def test_spectrum_at_zero_state(basis16):
    # lambda_k = k/2 + 1/(p-1), all positive: the zero state is linearly stable
    for p in (2.0, 3.0):
        params = ProblemParams(n=1, p=p)
        rep = spectrum(assemble(np.zeros(basis16.grid.npoints), basis16, params), 3)
        want = 0.5 * np.arange(3.0) + 1.0 / (p - 1.0)
        assert np.abs(rep.eigenvalues - want).max() < 1e-10


def test_rayleigh_matches_spectrum(basis16):
    for p in (2.0, 5.0):
        params = ProblemParams(n=1, p=p)
        op = assemble(kappa_values(basis16, p), basis16, params)
        assert first_eigenvalue_rayleigh(op) == pytest.approx(-1.0, abs=1e-9)
    op = assemble(np.zeros(basis16.grid.npoints), basis16, ProblemParams(n=1, p=3.0))
    assert first_eigenvalue_rayleigh(op) == pytest.approx(0.5, abs=1e-9)


def test_lambda1_nonincreasing_in_basis_size():
    # variational principle on nested discrete spaces
    gs = GaussianSum(a=np.array([0.4]), b=np.array([0.5]), c=np.zeros((1, 1)))
    prev = math.inf
    for N in (4, 8, 12, 20):
        basis = build_basis(1, N, degree=64)
        w = kappa(2.0) + gs(basis.grid.points)
        lam1 = spectrum(assemble(w, basis, P2), 1).lambda1
        assert lam1 <= prev + 1e-12
        prev = lam1


def test_fd_oracle_at_kappa():
    lam = fd_eigenvalues_1d(lambda y: np.full(y.size, kappa(2.0)), P2, k=4)
    assert np.abs(lam - np.array([-1.0, -0.5, 0.0, 0.5])).max() < 1e-3
    lam = fd_eigenvalues_1d(lambda y: np.zeros(y.size), P2, k=3)
    assert np.abs(lam - np.array([1.0, 1.5, 2.0])).max() < 1e-3
    with pytest.raises(UsageError):
        fd_eigenvalues_1d(lambda y: np.zeros(y.size), ProblemParams(n=2, p=2.0))


def test_fd_against_spectral_nontrivial(basis16):
    # same operator through both discretizations, no closed form involved
    gs = GaussianSum(a=np.array([0.3]), b=np.array([0.25]), c=np.zeros((1, 1)))
    w_at = lambda y: kappa(2.0) + gs(np.atleast_2d(y).reshape(-1, 1))
    big = build_basis(1, 24)
    rep = spectrum(assemble(w_at(big.grid.points[:, 0]), big, P2), 3)
    lam_fd = fd_eigenvalues_1d(w_at, P2, k=3)
    assert np.abs(rep.eigenvalues - lam_fd).max() < 1e-3


def test_sign_change_at_kappa(basis16):
    w = SampledField.constant(basis16.grid, kappa(2.0))
    rep = sign_change_check(w, assemble(w, basis16, P2))
    assert not rep.sign_change
    assert rep.min_H == pytest.approx(1.0)
    assert rep.lambda1 == pytest.approx(-1.0, abs=1e-9)
    assert rep.consistent
    d = rep.to_dict()
    assert d["consistent"] is True


def test_sign_change_with_deep_well(basis16):
    # w = 1 + 10 exp(-y^2): H = 1 + 10(1 - y^2)exp(-y^2) changes sign and the
    # potential well pushes lambda_1 far below -1, as the theory demands
    gs = GaussianSum(a=np.array([10.0]), b=np.array([1.0]), c=np.zeros((1, 1)))
    pts = basis16.grid.points
    w = SampledField(grid=basis16.grid, values=1.0 + gs(pts), grad=gs.grad(pts))
    rep = sign_change_check(w, assemble(w, basis16, P2))
    assert rep.sign_change
    assert rep.lambda1 < -1.0
    assert rep.consistent


def test_sign_change_logic_can_fail(basis16):
    # w = 0.1 y is not a steady profile; H = 0.15 y changes sign while
    # lambda_1 stays near +0.77, so the implication must report False
    w = poly_field(basis16.grid, [0.0, 0.1])
    rep = sign_change_check(w, assemble(w, basis16, P2))
    assert rep.sign_change
    assert rep.lambda1 > 0.0
    assert not rep.consistent


def test_stability_classify_at_kappa(basis16):
    w = SampledField.constant(basis16.grid, kappa(2.0))
    rep = stability_classify(w, assemble(w, basis16, P2))
    assert rep.stable
    labels = {round(m.eigenvalue, 6): m.label for m in rep.modes}
    assert labels[-1.0] == "trivial-span"
    assert labels[-0.5] == "translation-by-eigenvalue"
    assert rep.note != ""
    d = rep.to_dict()
    assert d["stable"] is True and len(d["modes"]) == 2


def test_stability_classify_zero_state(basis16):
    w = SampledField.constant(basis16.grid, 0.0)
    rep = stability_classify(w, assemble(w, basis16, P2))
    assert rep.stable
    assert rep.modes == ()
    assert rep.note == ""


def test_stability_classify_genuine_mode(basis16):
    gs = GaussianSum(a=np.array([10.0]), b=np.array([1.0]), c=np.zeros((1, 1)))
    pts = basis16.grid.points
    w = SampledField(grid=basis16.grid, values=1.0 + gs(pts), grad=gs.grad(pts))
    rep = stability_classify(w, assemble(w, basis16, P2))
    assert not rep.stable
    assert any(m.label == "genuine" for m in rep.modes)


def test_checks_refuse_an_operator_of_another_field(basis16):
    w = SampledField.constant(basis16.grid, kappa(2.0))
    other = assemble(SampledField.constant(basis16.grid, 0.5), basis16, P2)
    for check in (sign_change_check, stability_classify):
        with pytest.raises(UsageError, match="other values"):
            check(w, other)
    # the same constant on a grid of another degree
    wide = SampledField.constant(build_basis(1, 16, degree=48).grid, kappa(2.0))
    for check in (sign_change_check, stability_classify):
        with pytest.raises(UsageError, match="mismatched grids"):
            check(wide, assemble(w, basis16, P2))
