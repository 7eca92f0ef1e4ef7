"""Spectral discretization of the linearized operator, pinned against closed
forms (constant steady state, zero state) and a finite-difference oracle.

Convention: L v = -lambda v, so negative eigenvalues are the unstable ones;
at w = kappa the tensor eigenvalues are k/2 - 1, the radial ones k - 1.
"""

import json
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
    tensor_grid,
)
from blowlab import spectral
from blowlab.calculus import GaussianSum, poly_field
from blowlab.manifest import json_text
from blowlab.quadrature import (
    default_tensor_degree,
    hermite_basis,
    laguerre_norms,
    laguerre_table,
)

P2 = ProblemParams(n=1, p=2.0)


@pytest.fixture(scope="module")
def basis16():
    return build_basis(1, 16)


def kappa_field(basis, p):
    return SampledField.constant(basis.grid, kappa(p))


def zero_field(basis):
    return SampledField.constant(basis.grid, 0.0)


def kappa_plus(gs, basis):
    """kappa(2) + gs as a field on the basis grid, with gs's derivatives."""
    f = gs.field(basis.grid)
    return SampledField(grid=f.grid, values=kappa(2.0) + f.values, grad=f.grad, lap=f.lap)


def decay_rates(basis):
    """-L's eigenvalue on each basis function: 1 - diag of the form at kappa
    (p = 2), where the potential p kappa^(p-1) - 1/(p-1) is 1."""
    return 1.0 - np.diag(assemble(kappa_field(basis, 2.0), basis, P2).matrix)


def test_basis_constant_mode(basis16):
    # first basis function is the normalized constant (4 pi)^(-1/4)
    c0 = (4.0 * math.pi) ** -0.25
    assert np.abs(basis16.values[:, 0] - c0).max() < 1e-14
    rates = decay_rates(basis16)
    assert abs(rates[0]) < 1e-12
    assert abs(rates[2] - 1.0) < 1e-12


def test_basis_orthonormal(basis16):
    assert basis16.gram_residual() < 1e-12
    rad = build_basis(3, 8, kind="radial")
    assert rad.gram_residual() < 1e-12
    assert np.abs(decay_rates(rad) - np.arange(8.0)).max() < 1e-10


def test_basis_two_dimensional_ordering():
    b = build_basis(2, 6)
    degs = 2.0 * decay_rates(b)
    assert np.abs(degs - [0.0, 1.0, 1.0, 2.0, 2.0, 2.0]).max() < 1e-12
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
    op = assemble(kappa_field(basis, 2.0), basis, P2)
    want = np.diag([1.0, 0.5, 0.0, -0.5])
    assert np.abs(op.matrix - want).max() < 1e-12
    assert op.asym_residual < 1e-12


def test_assemble_diagonal_at_zero():
    basis = build_basis(1, 2)
    op = assemble(zero_field(basis), basis, P2)
    want = np.diag([-1.0, -1.5])
    assert np.abs(op.matrix - want).max() < 1e-12


def test_assemble_argument_guards(monkeypatch, basis16):
    # a malformed field: three values on the basis grid
    w = SampledField(grid=basis16.grid, values=np.zeros(3), grad=np.zeros((3, 1)))
    with pytest.raises(UsageError):
        assemble(w, basis16, P2)
    # negative tolerance turns the symmetry guard into an unconditional trip
    from blowlab import NumericError
    monkeypatch.setattr(spectral, "SYM_TOL", -1.0)
    with pytest.raises(NumericError):
        assemble(kappa_field(basis16, 2.0), basis16, P2)


def test_spectrum_closed_form_tensor(basis16):
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        rep = spectrum(assemble(kappa_field(basis16, p), basis16, params), 4)
        assert np.abs(rep.eigenvalues - np.array([-1.0, -0.5, 0.0, 0.5])).max() < 1e-10
        assert rep.lambda1 == pytest.approx(-1.0, abs=1e-10)
    d = json.loads(json_text(rep))
    assert d["p"] == 5.0 and len(d["eigenvalues"]) == 4


def test_spectrum_closed_form_radial():
    basis = build_basis(3, 8, kind="radial")
    params = ProblemParams(n=3, p=3.0)
    rep = spectrum(assemble(kappa_field(basis, 3.0), basis, params))
    assert np.abs(rep.eigenvalues - (np.arange(8.0) - 1.0)).max() < 1e-10


def test_spectrum_at_zero_state(basis16):
    # lambda_k = k/2 + 1/(p-1), all positive: the zero state is linearly stable
    for p in (2.0, 3.0):
        params = ProblemParams(n=1, p=p)
        rep = spectrum(assemble(zero_field(basis16), basis16, params), 3)
        want = 0.5 * np.arange(3.0) + 1.0 / (p - 1.0)
        assert np.abs(rep.eigenvalues - want).max() < 1e-10


def test_rayleigh_matches_spectrum(basis16):
    for p in (2.0, 5.0):
        params = ProblemParams(n=1, p=p)
        op = assemble(kappa_field(basis16, p), basis16, params)
        assert first_eigenvalue_rayleigh(op) == pytest.approx(-1.0, abs=1e-9)
    op = assemble(zero_field(basis16), basis16, ProblemParams(n=1, p=3.0))
    assert first_eigenvalue_rayleigh(op) == pytest.approx(0.5, abs=1e-9)


def test_lambda1_nonincreasing_in_basis_size():
    # variational principle on nested discrete spaces
    gs = GaussianSum(a=np.array([0.4]), b=np.array([0.5]), c=np.zeros((1, 1)))
    prev = math.inf
    for N in (4, 8, 12, 20):
        basis = build_basis(1, N, degree=64)
        lam1 = spectrum(assemble(kappa_plus(gs, basis), basis, P2), 1).lambda1
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
    w_at = lambda y: kappa(2.0) + gs.at(np.atleast_2d(y).reshape(-1, 1)).values()
    big = build_basis(1, 24)
    rep = spectrum(assemble(kappa_plus(gs, big), big, P2), 3)
    lam_fd = fd_eigenvalues_1d(w_at, P2, k=3)
    assert np.abs(rep.eigenvalues - lam_fd).max() < 1e-3


def test_sign_change_at_kappa(basis16):
    w = SampledField.constant(basis16.grid, kappa(2.0))
    rep = sign_change_check(assemble(w, basis16, P2))
    assert not rep.sign_change
    assert rep.min_H == pytest.approx(1.0)
    assert rep.lambda1 == pytest.approx(-1.0, abs=1e-9)
    assert rep.consistent
    d = json.loads(json_text(rep))
    assert d["consistent"] is True


def test_sign_change_with_deep_well(basis16):
    # w = 1 + 10 exp(-y^2): H = 1 + 10(1 - y^2)exp(-y^2) changes sign and the
    # potential well pushes lambda_1 far below -1, as the theory demands
    gs = GaussianSum(a=np.array([10.0]), b=np.array([1.0]), c=np.zeros((1, 1)))
    terms = gs.at(basis16.grid.points)
    w = SampledField(grid=basis16.grid, values=1.0 + terms.values(), grad=terms.grad())
    rep = sign_change_check(assemble(w, basis16, P2))
    assert rep.sign_change
    assert rep.lambda1 < -1.0
    assert rep.consistent


def test_sign_change_logic_can_fail(basis16):
    # w = 0.1 y is not a steady profile; H = 0.15 y changes sign while
    # lambda_1 stays near +0.77, so the implication must report False
    w = poly_field(basis16.grid, [0.0, 0.1])
    rep = sign_change_check(assemble(w, basis16, P2))
    assert rep.sign_change
    assert rep.lambda1 > 0.0
    assert not rep.consistent


def test_stability_classify_at_kappa(basis16):
    w = SampledField.constant(basis16.grid, kappa(2.0))
    rep = stability_classify(assemble(w, basis16, P2))
    assert rep.stable
    labels = {round(m.eigenvalue, 6): m.label for m in rep.modes}
    assert labels[-1.0] == "trivial-span"
    assert labels[-0.5] == "translation-by-eigenvalue"
    assert rep.note != ""
    d = json.loads(json_text(rep))
    assert d["stable"] is True and len(d["modes"]) == 2


def test_stability_classify_zero_state(basis16):
    w = SampledField.constant(basis16.grid, 0.0)
    rep = stability_classify(assemble(w, basis16, P2))
    assert rep.stable
    assert rep.modes == ()
    assert rep.note == ""


def test_stability_classify_genuine_mode(basis16):
    gs = GaussianSum(a=np.array([10.0]), b=np.array([1.0]), c=np.zeros((1, 1)))
    terms = gs.at(basis16.grid.points)
    w = SampledField(grid=basis16.grid, values=1.0 + terms.values(), grad=terms.grad())
    rep = stability_classify(assemble(w, basis16, P2))
    assert not rep.stable
    assert any(m.label == "genuine" for m in rep.modes)


def test_assemble_refuses_a_field_on_another_grid(basis16):
    # a field on another grid with as many points is not assembled on this one
    w = SampledField.constant(tensor_grid(2, 8), kappa(2.0))
    assert w.grid.npoints == basis16.grid.npoints
    with pytest.raises(UsageError, match="mismatched grids"):
        assemble(w, basis16, P2)


def _broadcast_basis(n, N, degree=None):
    """Reference tensor basis: each label's products by nested broadcasting
    over a Hermite table with one extra column."""
    per_axis = 1
    while per_axis**n < N:
        per_axis += 1
    if degree is None:
        degree = max(default_tensor_degree(n), per_axis + 8)
    grid = tensor_grid(n, degree)
    labels = spectral._tensor_indices(n, per_axis, N)
    b1 = hermite_basis(grid.nodes_1d, per_axis + 1)
    shape = (degree,) * n
    values = np.empty((grid.npoints, N))
    grads = np.empty((grid.npoints, N, n))
    for j, lab in enumerate(labels):
        prod = np.ones(shape)
        for ax, k in enumerate(lab):
            prod = prod * b1[:, k].reshape((1,) * ax + (-1,) + (1,) * (n - ax - 1))
        values[:, j] = prod.reshape(-1)
        for ax in range(n):
            k = lab[ax]
            dcol = math.sqrt(k / 2.0) * b1[:, k - 1] if k > 0 else np.zeros(degree)
            dprod = np.ones(shape)
            for ax2 in range(n):
                col = dcol if ax2 == ax else b1[:, lab[ax2]]
                dprod = dprod * col.reshape((1,) * ax2 + (-1,) + (1,) * (n - ax2 - 1))
            grads[:, j, ax] = dprod.reshape(-1)
    return values, grads


@pytest.mark.parametrize("n, N, degree", [(1, 64, 64), (2, 36, 6), (3, 27, 3), (4, 16, None)])
def test_basis_matches_the_broadcast_products_bitwise(n, N, degree):
    # the basis gathers each point's factors from the grid's own Hermite
    # table; assemble rounds differently on another memory layout
    basis = build_basis(n, N, degree=degree)
    values, grads = _broadcast_basis(n, N, degree)
    assert basis.values.flags.c_contiguous and basis.grads.flags.c_contiguous
    assert basis.values.shape == values.shape and basis.grads.shape == grads.shape
    assert basis.values.tobytes() == values.tobytes()
    assert basis.grads.tobytes() == grads.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("N", [1, 2, 20, 40])
def test_radial_basis_is_the_full_degree_tables_first_columns(n, N):
    # the N-column tables are bitwise the first N columns of the degree-wide
    # ones the grid used to hold: the recurrences and norms act column by column
    basis = build_basis(n, N, 40, kind="radial")
    grid = basis.grid
    alpha = n / 2.0 - 1.0
    norms = laguerre_norms(n, 40)
    values = laguerre_table(39, alpha, grid.x) / norms
    grads = np.zeros_like(values)
    grads[:, 1:] = (-(grid.r / 2.0))[:, None] * laguerre_table(38, alpha + 1.0, grid.x) / norms[1:]
    assert basis.values.shape == (40, N) and basis.grads.shape == (40, N, 1)
    assert basis.values.tobytes() == values[:, :N].copy().tobytes()
    assert basis.grads.tobytes() == grads[:, :N].copy().tobytes()


@pytest.mark.parametrize("profile", ["kappa", "zero"])
@pytest.mark.parametrize("n, kind", [(1, "hermite"), (2, "hermite"), (3, "radial")])
def test_a_constant_profile_assembles_as_the_constant_field(profile, n, kind):
    # a spectrum run lifts every profile kind through radial_field; for a
    # constant that must be the constant field, bit for bit
    from blowlab.calculus import radial_field
    from blowlab.experiments import _spectrum_profile
    params = ProblemParams(n=n, p=3.0)
    basis = build_basis(n, 8, kind=kind)
    w_at = _spectrum_profile({"profile": profile}, params)
    const = params.kappa if profile == "kappa" else 0.0
    lifted = assemble(radial_field(basis.grid, w_at), basis, params)
    direct = assemble(SampledField.constant(basis.grid, const), basis, params)
    assert lifted.matrix.tobytes() == direct.matrix.tobytes()
    assert sign_change_check(lifted) == sign_change_check(direct)
    assert stability_classify(lifted) == stability_classify(direct)
