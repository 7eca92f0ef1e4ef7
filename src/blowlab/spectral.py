"""Discretization of the linearized operator L_w = L - 1/(p-1) + p |w|^(p-1)
in the Gaussian-weighted L^2 space, eigenvalue reports, and the stability
checks built on them.

Convention: eigenvalues lambda solve L_w v = -lambda v, so lambda < 0 means a
growing mode of the rescaled flow. In the Hermite/Laguerre eigenbasis of L the
quadratic form is

    A_ij = -[grad v_i . grad v_j]_W + [(p|w|^(p-1) - 1/(p-1)) v_i v_j]_W,

symmetric, and lambda_k = -(k-th largest eigenvalue of A). At w = kappa the
potential is identically 1 for every p and the matrix is exactly diagonal:
lambda = k/2 - 1 on tensor bases (k total Hermite degree), lambda = k - 1 on
radial bases.

Two consistency anchors with the continuous theory: H = w/(p-1) + y.grad(w)/2
always satisfies L_w H = H along exact profiles (lambda = -1), and a sign
change of H forces lambda_1 < -1.

Each field's operator is assembled once: the Rayleigh, sign-change and
stability checks all take the SpectralOperator, and the two that also read
the field refuse one assembled on other values or another grid. The operator
also holds its one eigendecomposition, so every spectrum report on it shares
a single `eigh`.

Importing this module loads no scipy: `eigh` and `eigh_tridiagonal` import
scipy.linalg on their first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .calculus import SampledField, compute_H
from .errors import ConfigurationError, NumericError, UsageError
from .exponents import ProblemParams
from .quadrature import (
    Grid,
    hermite_basis,
    radial_grid,
    require_basis_fits,
    require_same_grid,
    tensor_grid,
)


def eigh(a):
    """scipy.linalg.eigh(a), imported on the first call. A module-level name
    so that a test can count the eigendecompositions of a run."""
    from scipy.linalg import eigh as _eigh
    return _eigh(a)


@dataclass(frozen=True, eq=False)
class WeightedBasis:
    """Orthonormal eigenfunctions of L sampled on a quadrature grid."""

    grid: Grid
    n: int
    size: int
    values: np.ndarray          # (nq, size)
    grads: np.ndarray           # (nq, size, ncomp)
    ou_eigs: np.ndarray         # (size,)  L v_k = ou_eigs[k] v_k
    labels: tuple               # multi-indices (tensor) or k (radial)
    kind: str

    def gram_residual(self) -> float:
        gram = self.values.T @ (self.grid.weights[:, None] * self.values)
        return float(np.abs(gram - np.eye(self.size)).max())

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.values @ coeffs


def _tensor_indices(n: int, per_axis: int, count: int) -> list[tuple[int, ...]]:
    idx = [()]
    for _ in range(n):
        idx = [t + (k,) for t in idx for k in range(per_axis)]
    idx.sort(key=lambda t: (sum(t), t))
    return idx[:count]


def build_basis(n: int, N: int, degree: int | None = None,
                kind: str = "auto") -> WeightedBasis:
    """First N eigenfunctions of L: Hermite tensor products ordered by total
    degree (kind 'hermite'), or radial Laguerre functions (kind 'radial').

    'auto' picks hermite. The quadrature degree must cover the basis; an
    insufficient grid raises ConfigurationError.
    """
    if N < 1:
        raise UsageError("basis size must be >= 1")
    if kind == "auto":
        kind = "hermite"
    if kind == "radial":
        deg = degree if degree is not None else max(2 * N, 32)
        if N > deg:
            raise ConfigurationError(
                f"radial basis of size {N} needs quadrature degree >= {N}, got {deg}"
            )
        grid = radial_grid(n, deg)
        values = grid.basis[:, :N].copy()
        grads = grid.basis_dr[:, :N].copy().reshape(grid.npoints, N, 1)
        ou = -np.arange(N, dtype=float)
        return WeightedBasis(grid=grid, n=n, size=N, values=values, grads=grads,
                             ou_eigs=ou, labels=tuple(range(N)), kind="radial")
    if kind != "hermite":
        raise UsageError(f"unknown basis kind {kind!r}")
    per_axis = 1
    while per_axis**n < N:
        per_axis += 1
    if degree is None:
        degree = max({1: 64, 2: 32}.get(n, 16), per_axis + 8)
    grid = tensor_grid(n, degree)
    require_basis_fits(grid, per_axis)
    labels = _tensor_indices(n, per_axis, N)
    b1 = hermite_basis(grid.nodes_1d, per_axis + 1)  # one extra for derivative shifts
    nq = grid.npoints
    shape = (grid.degree,) * n
    values = np.empty((nq, N))
    grads = np.empty((nq, N, n))
    for j, lab in enumerate(labels):
        cols = [b1[:, k] for k in lab]
        prod = np.ones(shape)
        for ax, col in enumerate(cols):
            prod = prod * col.reshape((1,) * ax + (-1,) + (1,) * (n - ax - 1))
        values[:, j] = prod.reshape(-1)
        for ax in range(n):
            k = lab[ax]
            dcol = math.sqrt(k / 2.0) * b1[:, k - 1] if k > 0 else np.zeros(grid.degree)
            dprod = np.ones(shape)
            for ax2 in range(n):
                col = dcol if ax2 == ax else b1[:, lab[ax2]]
                dprod = dprod * col.reshape((1,) * ax2 + (-1,) + (1,) * (n - ax2 - 1))
            grads[:, j, ax] = dprod.reshape(-1)
    ou = np.array([-sum(lab) / 2.0 for lab in labels])
    return WeightedBasis(grid=grid, n=n, size=N, values=values, grads=grads,
                         ou_eigs=ou, labels=tuple(labels), kind="hermite")


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    basis: WeightedBasis
    params: ProblemParams
    matrix: np.ndarray
    asym_residual: float
    w_values: np.ndarray

    @property
    def size(self) -> int:
        return self.basis.size

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, eigenvectors) of the matrix, computed on
        first use and shared, read-only, by every report on this operator."""
        mu, vecs = eigh(self.matrix)
        mu.flags.writeable = vecs.flags.writeable = False
        return mu, vecs


def assemble(w, basis: WeightedBasis, params: ProblemParams,
             sym_tol: float = 1e-10) -> SpectralOperator:
    """Quadratic form of L_w in the given basis; enforces symmetry."""
    wv = w.values if isinstance(w, SampledField) else np.asarray(w, dtype=float)
    if wv.shape != (basis.grid.npoints,):
        raise UsageError("w values must live on the basis grid")
    p = params.p
    wq = basis.grid.weights
    pot = p * np.abs(wv) ** (p - 1.0) - 1.0 / (p - 1.0)
    A = -np.einsum("qic,q,qjc->ij", basis.grads, wq, basis.grads)
    A += basis.values.T @ ((wq * pot)[:, None] * basis.values)
    asym = float(np.abs(A - A.T).max())
    scale = 1.0 + float(np.abs(A).max())
    if asym > sym_tol * scale:
        raise NumericError(
            f"assembled operator is not symmetric (residual {asym:.3e})",
            payload={"asym": asym},
        )
    A = 0.5 * (A + A.T)
    return SpectralOperator(basis=basis, params=params, matrix=A,
                            asym_residual=asym, w_values=wv)


@dataclass(frozen=True)
class SpectrumReport:
    """First k eigenvalues (ascending; lambda < 0 unstable) with coefficient
    vectors and grid values of the eigenfunctions."""

    params: ProblemParams
    basis_kind: str
    basis_size: int
    eigenvalues: np.ndarray
    coeffs: np.ndarray            # (N, k)
    func_values: np.ndarray       # (nq, k)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    def to_dict(self) -> dict:
        return {
            "n": self.params.n,
            "p": self.params.p,
            "basis_kind": self.basis_kind,
            "basis_size": self.basis_size,
            "eigenvalues": [float(v) for v in self.eigenvalues],
        }


def spectrum(op: SpectralOperator, k: int | None = None) -> SpectrumReport:
    k = op.size if k is None else min(k, op.size)
    mu, vecs = op.eigenpairs
    lam = -mu[::-1][:k]
    coeffs = vecs[:, ::-1][:, :k]
    return SpectrumReport(
        params=op.params, basis_kind=op.basis.kind, basis_size=op.size,
        eigenvalues=lam, coeffs=coeffs,
        func_values=op.basis.synthesize(coeffs),
    )


def first_eigenvalue_rayleigh(op: SpectralOperator, tol: float = 1e-14,
                              max_iter: int = 100000) -> float:
    """min over the discrete space of the Rayleigh quotient of L_w.

    Independent route: shifted power iteration on the assembled form (the
    quotient's minimum is -max eig of the matrix); deterministic start.
    """
    A = op.matrix
    sigma = float(np.abs(A).sum(axis=1).max()) + 1.0  # Gershgorin: A + sigma I > 0
    v = np.ones(op.size) + 1e-3 * np.arange(op.size)
    v /= np.linalg.norm(v)
    q_old = math.inf
    for _ in range(max_iter):
        w = A @ v + sigma * v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        q = float(v @ (A @ v))
        if abs(q - q_old) <= tol * (1.0 + abs(q)):
            break
        q_old = q
    return -q


def fd_eigenvalues_1d(w_at, params: ProblemParams, L: float = 12.0,
                      npts: int = 2401, k: int = 6) -> np.ndarray:
    """Independent 1-D check: second-order finite differences on the
    symmetrized operator.

    The substitution v = exp(y^2/8) vt turns L_w into the Schroedinger form
    vt'' + (1/4 - y^2/16 - 1/(p-1) + p|w|^(p-1)) vt with Dirichlet walls at
    +-L; the Gaussian factor makes the truncation error ~ exp(-L^2/4).
    Returns the first k eigenvalues ascending.
    """
    if params.n != 1:
        raise UsageError("the finite-difference check is one-dimensional")
    y = np.linspace(-L, L, npts)[1:-1]
    h = y[1] - y[0]
    p = params.p
    wv = np.asarray(w_at(y), dtype=float)
    diag = -2.0 / h**2 + 0.25 - y**2 / 16.0 - 1.0 / (p - 1.0) + p * np.abs(wv) ** (p - 1.0)
    off = np.full(y.size - 1, 1.0 / h**2)
    from scipy.linalg import eigh_tridiagonal
    mu = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                          select_range=(y.size - k, y.size - 1))
    return -mu[::-1]


@dataclass(frozen=True)
class SignChangeReport:
    """Does H change sign, and if so is lambda_1 < -1 as the theory demands?"""

    min_H: float
    max_H: float
    sign_change: bool
    lambda1: float
    consistent: bool
    tau: float

    def to_dict(self) -> dict:
        return {
            "min_H": self.min_H, "max_H": self.max_H,
            "sign_change": self.sign_change, "lambda1": self.lambda1,
            "consistent": self.consistent, "tau": self.tau,
        }


def _require_assembled_on(w: SampledField, op: SpectralOperator) -> None:
    """The checks read w's derivatives and op's matrix: both must describe
    the same field on the same grid."""
    require_same_grid(w.grid, op.basis.grid)
    if not np.array_equal(w.values, op.w_values):
        raise UsageError("operator was assembled on other values than w")


def sign_change_check(w: SampledField, op: SpectralOperator,
                      tau_factor: float = 1e-8,
                      lam_tol: float = 1e-4) -> SignChangeReport:
    """H sign change must imply lambda_1 < -1 (checked as < -1 + lam_tol),
    with op = assemble(w, basis, params)."""
    _require_assembled_on(w, op)
    H = compute_H(w, op.params)
    tau = tau_factor * max(abs(H.min), abs(H.max))
    sign_change = (H.min < -tau) and (H.max > tau)
    lam1 = spectrum(op, 1).lambda1
    consistent = (not sign_change) or (lam1 < -1.0 + lam_tol)
    return SignChangeReport(min_H=H.min, max_H=H.max, sign_change=sign_change,
                            lambda1=lam1, consistent=consistent, tau=tau)


@dataclass(frozen=True)
class ModeLabel:
    eigenvalue: float
    label: str                 # 'trivial-span' | 'translation-by-eigenvalue' | 'genuine'
    span_residual: float
    by_eigenvalue_only: bool


@dataclass(frozen=True)
class StabilityReport:
    """Negative modes classified against the trivial directions.

    span{H, d_i w} are the modes generated by time and space translation of
    the underlying solution; at w = kappa the translation eigenfunctions exist
    while grad(kappa) = 0, so eigenvalues within mode_tol of -1/2 are labeled
    translation modes by eigenvalue alone (flagged)."""

    modes: tuple
    stable: bool
    note: str

    def to_dict(self) -> dict:
        return {
            "stable": self.stable,
            "note": self.note,
            "modes": [
                {"eigenvalue": m.eigenvalue, "label": m.label,
                 "span_residual": m.span_residual,
                 "by_eigenvalue_only": m.by_eigenvalue_only}
                for m in self.modes
            ],
        }


def stability_classify(w: SampledField, op: SpectralOperator,
                       span_tol: float = 1e-4, neg_tol: float = 1e-8,
                       mode_tol: float = 1e-6) -> StabilityReport:
    """Stable iff every lambda < 0 eigenfunction lies in the trivial span
    (projection residual < span_tol) or is a translation mode, with
    op = assemble(w, basis, params)."""
    _require_assembled_on(w, op)
    basis = op.basis
    rep = spectrum(op)
    wq = basis.grid.weights

    span = [compute_H(w, op.params).values]
    if basis.kind != "radial":
        for i in range(basis.n):
            span.append(w.grad[:, i])
    ortho = []
    scale = max(math.sqrt(float(np.dot(wq, v * v))) for v in span)
    for v in span:
        u = v.astype(float).copy()
        for o in ortho:
            u -= np.dot(wq, u * o) * o
        nrm = math.sqrt(float(np.dot(wq, u * u)))
        if nrm > 1e-10 * max(scale, 1e-300):
            ortho.append(u / nrm)

    modes = []
    stable = True
    for j, lam in enumerate(rep.eigenvalues):
        if lam >= -neg_tol:
            break
        u = rep.func_values[:, j]
        nrm = math.sqrt(float(np.dot(wq, u * u)))
        resid = u.copy()
        for o in ortho:
            resid -= np.dot(wq, resid * o) * o
        rel = math.sqrt(float(np.dot(wq, resid * resid))) / max(nrm, 1e-300)
        if rel < span_tol:
            modes.append(ModeLabel(float(lam), "trivial-span", rel, False))
        elif abs(lam + 0.5) < mode_tol:
            modes.append(ModeLabel(float(lam), "translation-by-eigenvalue", rel, True))
        else:
            modes.append(ModeLabel(float(lam), "genuine", rel, False))
            stable = False
    note = ("translation modes recognized by eigenvalue where grad(w) vanishes"
            if any(m.by_eigenvalue_only for m in modes) else "")
    return StabilityReport(modes=tuple(modes), stable=stable, note=note)
