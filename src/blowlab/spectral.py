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

Two consistency anchors with the continuous theory: the monotonicity
quantity H (`exponents.H_of`) always satisfies L_w H = H along exact profiles
(lambda = -1), and a sign change of H forces lambda_1 < -1.

Each field's operator is assembled once: the Rayleigh, sign-change and
stability checks take the SpectralOperator alone. The operator holds the
SampledField it was assembled from, so the two checks that read the field's
derivatives read the very values the matrix was built on. It also holds its
one eigendecomposition, so every spectrum report on it shares a single
`eigh`.

Importing this module loads no scipy: `eigh` and `fd_eigenvalues_1d` call
LAPACK dsyevr and dstebz through `_scipy`, as scipy.linalg.eigh and
eigh_tridiagonal call them, bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _scipy
from .calculus import SampledField, compute_H
from .errors import ConfigurationError, NumericError, UsageError
from .exponents import ProblemParams
from .quadrature import (
    Grid,
    default_tensor_degree,
    hermite_basis,
    laguerre_basis,
    radial_grid,
    require_basis_fits,
    require_same_grid,
    require_within_budget,
    tensor_grid,
)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.linalg.eigh(a) for a real symmetric float matrix: (eigenvalues
    ascending, orthonormal eigenvectors) from LAPACK dsyevr on the lower
    triangle, with the work sizes dsyevr_lwork gives, as scipy 1.17.1 calls
    it. a is not overwritten. A non-finite entry, or a failed solve, raises
    NumericError. A module-level name so that a test can count the
    eigendecompositions of a run."""
    if not np.isfinite(a).all():
        raise NumericError("the matrix to diagonalise is not finite")
    lwork, liwork = _scipy.lapack("dsyevr_lwork", a.shape[0], lower=1)
    w, v, _, _ = _scipy.lapack("dsyevr", a, compute_v=1, lower=1, overwrite_a=0,
                               lwork=int(lwork), liwork=int(liwork))
    return w, v


@dataclass(frozen=True, eq=False)
class WeightedBasis:
    """Orthonormal eigenfunctions of L sampled on a quadrature grid."""

    grid: Grid
    n: int
    size: int
    values: np.ndarray          # (nq, size)
    grads: np.ndarray           # (nq, size, ncomp)
    kind: str

    def gram_residual(self) -> float:
        gram = self.values.T @ (self.grid.weights[:, None] * self.values)
        return float(np.abs(gram - np.eye(self.size)).max())


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
    insufficient grid raises ConfigurationError, and so does a tensor basis
    of more than config.WORK_BUDGET gradient values.
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
        values, grads = laguerre_basis(grid, N)
        grads = grads.reshape(grid.npoints, N, 1)
        return WeightedBasis(grid=grid, n=n, size=N, values=values, grads=grads, kind="radial")
    if kind != "hermite":
        raise UsageError(f"unknown basis kind {kind!r}")
    per_axis = 1
    while per_axis**n < N:
        per_axis += 1
    if degree is None:
        degree = max(default_tensor_degree(n), per_axis + 8)
    require_within_budget(degree**n * N * n, f"a basis of {N} functions on a degree-{degree} "
                          f"tensor grid in n = {n}")
    grid = tensor_grid(n, degree)
    require_basis_fits(grid, per_axis)
    b = hermite_basis(grid.nodes_1d, per_axis)
    db = np.zeros_like(b)                    # d/dy b_k = sqrt(k/2) b_{k-1}
    db[:, 1:] = np.sqrt(np.arange(1, per_axis) / 2.0) * b[:, :-1]
    node = grid.node                          # each point's node per axis
    ks = np.array(_tensor_indices(n, per_axis, N)).T      # each function's degree per axis
    vals = [b[:, ks[ax]][node[ax]] for ax in range(n)]      # (nq, N) factors per axis
    grads = np.empty((grid.npoints, N, n))
    for ax in range(n):
        factors = vals[:ax] + [db[:, ks[ax]][node[ax]]] + vals[ax + 1:]
        out = grads[:, :, ax]
        out[...] = factors[0]
        for f in factors[1:]:
            out *= f
    values = vals[0]                         # in place: the gradients are done with it
    for f in vals[1:]:
        values *= f
    return WeightedBasis(grid=grid, n=n, size=N, values=values, grads=grads, kind="hermite")


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    basis: WeightedBasis
    params: ProblemParams
    matrix: np.ndarray
    asym_residual: float
    field: SampledField          # the field assembled on

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


# the assembled form is symmetric within SYM_TOL (1 + max |A_ij|)
SYM_TOL = 1e-10


def assemble(w: SampledField, basis: WeightedBasis,
             params: ProblemParams) -> SpectralOperator:
    """Quadratic form of L_w in the given basis; enforces symmetry. w is a
    SampledField on the basis grid, which the operator keeps."""
    require_same_grid(w.grid, basis.grid)
    wv = w.values
    if wv.shape != (basis.grid.npoints,):
        raise UsageError("w values must live on the basis grid")
    p = params.p
    wq = basis.grid.weights
    pot = p * np.abs(wv) ** (p - 1.0) - 1.0 / (p - 1.0)
    A = -np.einsum("qic,q,qjc->ij", basis.grads, wq, basis.grads)
    A += basis.values.T @ ((wq * pot)[:, None] * basis.values)
    asym = float(np.abs(A - A.T).max())
    scale = 1.0 + float(np.abs(A).max())
    if asym > SYM_TOL * scale:
        raise NumericError(
            f"assembled operator is not symmetric (residual {asym:.3e})",
            payload={"asym": asym},
        )
    A = 0.5 * (A + A.T)
    return SpectralOperator(basis=basis, params=params, matrix=A,
                            asym_residual=asym, field=w)


@dataclass(frozen=True)
class SpectrumReport:
    """First k eigenvalues (ascending; lambda < 0 unstable)."""

    n: int
    p: float
    basis_kind: str
    basis_size: int
    eigenvalues: np.ndarray

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])


def spectrum(op: SpectralOperator, k: int | None = None) -> SpectrumReport:
    k = op.size if k is None else min(k, op.size)
    mu = op.eigenpairs[0]
    return SpectrumReport(n=op.params.n, p=op.params.p, basis_kind=op.basis.kind,
                          basis_size=op.size, eigenvalues=-mu[::-1][:k])


def first_eigenvalue_rayleigh(op: SpectralOperator) -> float:
    """min over the discrete space of the Rayleigh quotient of L_w.

    Independent route: shifted power iteration on the assembled form (the
    quotient's minimum is -max eig of the matrix); deterministic start. It
    stops once the quotient q moves by at most 1e-14 (1 + |q|) in a step, or
    after 100000 steps. An operator near float max overflows the norm; the
    iterate then collapses to 0, and the quotient disagrees with eigh.
    """
    A = op.matrix
    sigma = float(np.abs(A).sum(axis=1).max()) + 1.0  # Gershgorin: A + sigma I > 0
    v = np.ones(op.size) + 1e-3 * np.arange(op.size)
    v /= np.linalg.norm(v)
    q_old = math.inf
    with np.errstate(over="ignore"):
        for _ in range(100000):
            w = A @ v + sigma * v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
            q = float(v @ (A @ v))
            if abs(q - q_old) <= 1e-14 * (1.0 + abs(q)):
                break
            q_old = q
    return -q


def fd_eigenvalues_1d(w_at, params: ProblemParams, k: int = 6) -> np.ndarray:
    """Independent 1-D check: second-order finite differences on the
    symmetrized operator.

    The substitution v = exp(y^2/8) vt turns L_w into the Schroedinger form
    vt'' + (1/4 - y^2/16 - 1/(p-1) + p|w|^(p-1)) vt with Dirichlet walls at
    +-L, L = 12, on 2401 mesh points; the Gaussian factor makes the
    truncation error ~ exp(-L^2/4). Returns the first k eigenvalues ascending;
    a non-finite operator raises NumericError.
    """
    if params.n != 1:
        raise UsageError("the finite-difference check is one-dimensional")
    y = np.linspace(-12.0, 12.0, 2401)[1:-1]
    h = y[1] - y[0]
    p = params.p
    wv = np.asarray(w_at(y), dtype=float)
    diag = -2.0 / h**2 + 0.25 - y**2 / 16.0 - 1.0 / (p - 1.0) + p * np.abs(wv) ** (p - 1.0)
    off = np.full(y.size - 1, 1.0 / h**2)
    if not np.isfinite(diag).all():
        raise NumericError("the finite-difference operator is not finite")
    # eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
    # select_range=(y.size - k, y.size - 1)): bisection by index, in order
    m, mu, _, _ = _scipy.lapack("dstebz", diag, off, 2, 0.0, 1.0,
                                y.size - k + 1, y.size, 0.0, "E")
    return -mu[:m][::-1]


@dataclass(frozen=True)
class SignChangeReport:
    """Does H change sign, and if so is lambda_1 < -1 as the theory demands?"""

    min_H: float
    max_H: float
    sign_change: bool
    lambda1: float
    consistent: bool
    tau: float


# H changes sign when it leaves the band SIGN_CHANGE_BAND max|H| on both
# sides; lambda_1 < -1 is checked as lambda_1 < -1 + LAMBDA1_TOL
SIGN_CHANGE_BAND = 1e-8
LAMBDA1_TOL = 1e-4


def sign_change_check(op: SpectralOperator) -> SignChangeReport:
    """H sign change must imply lambda_1 < -1 (checked as < -1 + LAMBDA1_TOL),
    for the field op was assembled on."""
    H = compute_H(op.field, op.params)
    h_min, h_max = float(H.min()), float(H.max())
    tau = SIGN_CHANGE_BAND * max(abs(h_min), abs(h_max))
    sign_change = (h_min < -tau) and (h_max > tau)
    lam1 = float(-op.eigenpairs[0][-1])
    consistent = (not sign_change) or (lam1 < -1.0 + LAMBDA1_TOL)
    return SignChangeReport(min_H=h_min, max_H=h_max, sign_change=sign_change,
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
    while grad(kappa) = 0, so eigenvalues within MODE_TOL of -1/2 are labeled
    translation modes by eigenvalue alone (flagged)."""

    modes: tuple
    stable: bool
    note: str


# a mode with lambda < -NEG_TOL is negative; it lies in the trivial span when
# its relative projection residual is below SPAN_TOL, and is a translation
# mode by eigenvalue when |lambda + 1/2| < MODE_TOL
NEG_TOL = 1e-8
SPAN_TOL = 1e-4
MODE_TOL = 1e-6


def _weighted_norm(wq: np.ndarray, u: np.ndarray) -> float:
    """sqrt([u^2]_W) on quadrature weights wq. A norm that is not finite
    raises NumericError: a basis too large for its rule has eigenfunctions
    whose squares overflow where the rule's outer weights underflow to 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = float(np.dot(wq, u * u))
    if not math.isfinite(sq):
        raise NumericError(
            "a weighted norm in the stability classification is not finite; "
            "the basis is too large for its quadrature rule",
            payload={"norm_squared": sq})
    return math.sqrt(sq)


def stability_classify(op: SpectralOperator) -> StabilityReport:
    """Stable iff every lambda < 0 eigenfunction lies in the trivial span
    (projection residual < SPAN_TOL) or is a translation mode, for the field
    op was assembled on. A norm that is not finite raises NumericError."""
    w = op.field
    basis = op.basis
    mu, vecs = op.eigenpairs
    funcs = basis.values @ vecs[:, ::-1]        # eigenfunctions, lambda ascending
    wq = basis.grid.weights

    span = [compute_H(w, op.params)]
    if basis.kind != "radial":
        for i in range(basis.n):
            span.append(w.grad[:, i])
    ortho = []
    scale = max(_weighted_norm(wq, v) for v in span)
    for v in span:
        u = v.astype(float).copy()
        for o in ortho:
            u -= np.dot(wq, u * o) * o
        nrm = _weighted_norm(wq, u)
        if nrm > 1e-10 * max(scale, 1e-300):
            ortho.append(u / nrm)

    modes = []
    stable = True
    for j, lam in enumerate(-mu[::-1]):
        if lam >= -NEG_TOL:
            break
        u = funcs[:, j]
        nrm = _weighted_norm(wq, u)
        resid = u.copy()
        for o in ortho:
            resid -= np.dot(wq, resid * o) * o
        rel = _weighted_norm(wq, resid) / max(nrm, 1e-300)
        if rel < SPAN_TOL:
            modes.append(ModeLabel(float(lam), "trivial-span", rel, False))
        elif abs(lam + 0.5) < MODE_TOL:
            modes.append(ModeLabel(float(lam), "translation-by-eigenvalue", rel, True))
        else:
            modes.append(ModeLabel(float(lam), "genuine", rel, False))
            stable = False
    note = ("translation modes recognized by eigenvalue where grad(w) vanishes"
            if any(m.by_eigenvalue_only for m in modes) else "")
    return StabilityReport(modes=tuple(modes), stable=stable, note=note)
