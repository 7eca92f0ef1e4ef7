"""Gaussian-weighted quadrature and the orthonormal eigenbases of L = Lap - y/2 . grad.

Everything is built around the measure exp(-|y|^2/4) dy on R^n. Two node
families:

  * tensor Gauss-Hermite: y = sqrt(2) x from the probabilists' rule
    (weight exp(-x^2/2)), giving sum(weights) = (2 sqrt(pi))^n and exactness
    for per-axis polynomial degree <= 2*degree - 1;
  * radial Gauss-Laguerre (generalized, alpha = n/2 - 1): r = 2 sqrt(x),
    weights carry the sphere area, for radially symmetric integrands.

The matching orthonormal bases, used for spectral differentiation and for
operator assembly, are

    b_k(y)   = He_k(y / sqrt(2)) / sqrt(2 sqrt(pi) k!),      L b_k  = -(k/2) b_k
    phi_k(r) = L_k^(n/2-1)(r^2/4) / c_{n,k},                 L phi_k = -k phi_k

with c_{n,k}^2 = sphere_area(n) 2^(n-1) Gamma(k + n/2) / k!.

Importing this module loads no scipy; the radial family imports
scipy.special where it is built (`laguerre_norms`, `radial_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import ConfigurationError, UsageError

SQRT2 = math.sqrt(2.0)
TOTAL_MASS_1D = 2.0 * math.sqrt(math.pi)  # int exp(-y^2/4) dy


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 for n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def gaussian_moment_1d(k: int) -> float:
    """int y^k exp(-y^2/4) dy = 2 sqrt(pi) (k-1)!! 2^(k/2) for even k, 0 for odd."""
    if k % 2 == 1:
        return 0.0
    val = TOTAL_MASS_1D * 2.0 ** (k // 2)
    for j in range(k - 1, 0, -2):
        val *= j
    return val


def gaussian_radial_moment(n: int, k: int) -> float:
    """int_{R^n} |y|^k exp(-|y|^2/4) dy."""
    return sphere_area(n) * 2.0 ** (n + k - 1) * math.gamma((n + k) / 2.0)


def hermite_basis(points: np.ndarray, nfuncs: int) -> np.ndarray:
    """Values of b_0..b_{nfuncs-1} at 1-D points, by the normalized recurrence.

    b_{k+1} = (t b_k - sqrt(k) b_{k-1}) / sqrt(k+1) with t = y / sqrt(2),
    finally scaled by (4 pi)^(-1/4); values stay O(1) where the weight lives.
    """
    t = np.asarray(points, dtype=float) / SQRT2
    out = np.empty((t.size, nfuncs))
    out[:, 0] = 1.0
    if nfuncs > 1:
        out[:, 1] = t
    for k in range(1, nfuncs - 1):
        out[:, k + 1] = (t * out[:, k] - math.sqrt(k) * out[:, k - 1]) / math.sqrt(k + 1)
    return out * (4.0 * math.pi) ** (-0.25)


def hermite_coeff_derivative(coeffs: np.ndarray, axis: int = 0) -> np.ndarray:
    """Coefficient image of d/dy: (Dc)_k = sqrt((k+1)/2) c_{k+1}."""
    c = np.moveaxis(np.asarray(coeffs), axis, 0)
    out = np.zeros_like(c)
    deg = c.shape[0]
    ks = np.sqrt(np.arange(1, deg) / 2.0)
    out[:-1] = ks.reshape((-1,) + (1,) * (c.ndim - 1)) * c[1:]
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True, eq=False)
class TensorGrid:
    """Tensor Gauss-Hermite grid for exp(-|y|^2/4) on R^n."""

    n: int
    degree: int
    points: np.ndarray = field(repr=False)     # (nq, n)
    weights: np.ndarray = field(repr=False)    # (nq,)
    nodes_1d: np.ndarray = field(repr=False)
    weights_1d: np.ndarray = field(repr=False)
    basis_1d: np.ndarray = field(repr=False)   # (degree, degree) values of b_k

    kind = "tensor"

    @property
    def npoints(self) -> int:
        return self.weights.size

    def total_mass(self) -> float:
        return TOTAL_MASS_1D ** self.n

    def reshape(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values).reshape((self.degree,) * self.n)

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Hermite coefficients, analysis exact through degree-1 per axis."""
        c = self.reshape(values)
        analysis = self.basis_1d.T * self.weights_1d  # (deg, deg) @ axis values
        for ax in range(self.n):
            c = np.moveaxis(np.tensordot(analysis, np.moveaxis(c, ax, 0), axes=(1, 0)), 0, ax)
        return c

    def from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        c = coeffs
        for ax in range(self.n):
            c = np.moveaxis(np.tensordot(self.basis_1d, np.moveaxis(c, ax, 0), axes=(1, 0)), 0, ax)
        return c.reshape(-1)

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Spectral gradient, (nq, n)."""
        c = self.to_coeffs(values)
        out = np.empty((self.npoints, self.n))
        for ax in range(self.n):
            out[:, ax] = self.from_coeffs(hermite_coeff_derivative(c, axis=ax))
        return out

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        c = self.to_coeffs(values)
        out = np.zeros(self.npoints)
        for ax in range(self.n):
            out += self.from_coeffs(
                hermite_coeff_derivative(hermite_coeff_derivative(c, axis=ax), axis=ax)
            )
        return out


def tensor_grid(n: int, degree: int | None = None) -> TensorGrid:
    """Build the tensor grid; default degrees 64 / 32 / 16 for n = 1 / 2 / >=3."""
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"grid dimension must be a positive integer, got {n!r}")
    if degree is None:
        degree = {1: 64, 2: 32}.get(n, 16)
    if degree < 2:
        raise UsageError("grid degree must be at least 2")
    x, w = hermegauss(degree)
    nodes = SQRT2 * x
    wts = SQRT2 * w
    mesh = np.meshgrid(*([nodes] * n), indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    wmesh = np.meshgrid(*([wts] * n), indexing="ij")
    weights = np.ones(degree**n)
    for wm in wmesh:
        weights = weights * wm.reshape(-1)
    return TensorGrid(
        n=n, degree=degree, points=points, weights=weights,
        nodes_1d=nodes, weights_1d=wts, basis_1d=hermite_basis(nodes, degree),
    )


def laguerre_norms(n: int, nfuncs: int) -> np.ndarray:
    """Weighted L^2 norms of L_k^(n/2-1)(r^2/4) over R^n (radial measure)."""
    from scipy.special import gammaln
    alpha = n / 2.0 - 1.0
    ks = np.arange(nfuncs)
    log_n2 = (
        math.log(sphere_area(n)) + (n - 1) * math.log(2.0)
        + gammaln(ks + alpha + 1.0) - gammaln(ks + 1.0)
    )
    return np.exp(0.5 * log_n2)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial Gauss-Laguerre grid; weights integrate radial f over all of R^n."""

    n: int
    degree: int
    r: np.ndarray = field(repr=False)          # (nq,)
    weights: np.ndarray = field(repr=False)    # (nq,)
    basis: np.ndarray = field(repr=False)      # (nq, degree) values of phi_k
    basis_dr: np.ndarray = field(repr=False)   # (nq, degree) values of phi_k'

    kind = "radial"

    @property
    def npoints(self) -> int:
        return self.r.size

    @property
    def points(self) -> np.ndarray:
        return self.r.reshape(-1, 1)

    def total_mass(self) -> float:
        return TOTAL_MASS_1D ** self.n

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        return self.basis.T @ (self.weights * np.asarray(values))

    def from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return self.basis @ coeffs

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Radial derivative d/dr as an (nq, 1) array."""
        return (self.basis_dr @ self.to_coeffs(values)).reshape(-1, 1)

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Lap f = L f + (r/2) f_r, using L phi_k = -k phi_k exactly."""
        c = self.to_coeffs(values)
        ou = self.basis @ (-np.arange(self.degree) * c)
        fr = self.basis_dr @ c
        return ou + 0.5 * self.r * fr


def radial_grid(n: int, degree: int = 48) -> RadialGrid:
    """Radial grid: r = 2 sqrt(x) from generalized Gauss-Laguerre, alpha = n/2-1."""
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"grid dimension must be a positive integer, got {n!r}")
    if degree < 2:
        raise UsageError("grid degree must be at least 2")
    from scipy.special import eval_genlaguerre, roots_genlaguerre
    alpha = n / 2.0 - 1.0
    x, wx = roots_genlaguerre(degree, alpha)
    r = 2.0 * np.sqrt(x)
    weights = sphere_area(n) * 2.0 ** (n - 1) * wx
    norms = laguerre_norms(n, degree)
    basis = np.stack(
        [eval_genlaguerre(k, alpha, x) / norms[k] for k in range(degree)], axis=1
    )
    # d/dr L_k(r^2/4) = -(r/2) L_{k-1}^(alpha+1)(r^2/4)
    basis_dr = np.zeros_like(basis)
    for k in range(1, degree):
        basis_dr[:, k] = -(r / 2.0) * eval_genlaguerre(k - 1, alpha + 1.0, x) / norms[k]
    return RadialGrid(n=n, degree=degree, r=r, weights=weights,
                      basis=basis, basis_dr=basis_dr)


Grid = TensorGrid | RadialGrid


def require_same_grid(a: Grid, b: Grid) -> None:
    if not (a is b or (a.kind == b.kind and a.n == b.n and a.degree == b.degree)):
        raise UsageError(
            f"mismatched grids: {a.kind}(n={a.n}, degree={a.degree}) vs "
            f"{b.kind}(n={b.n}, degree={b.degree})"
        )


def smoothstep(t):
    """C^2 ramp 0 -> 1 on [0, 1]: 6 t^5 - 15 t^4 + 10 t^3, max slope 1.875."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smoothstep_slope(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tt = np.where(inside, t, 0.0)
    return np.where(inside, 30.0 * tt * tt * (tt - 1.0) * (tt - 1.0), 0.0)


def cutoff_radial(r, R: float):
    """Cutoff eta_R(|y|): 1 on [0, R], smoothstep down to 0 on [R, R+1].

    Returns (values, d/dr values); |d/dr| <= 1.875 < 2 everywhere.
    """
    if R <= 0:
        raise UsageError(f"cutoff radius must be positive, got {R!r}")
    r = np.asarray(r, dtype=float)
    t = R + 1.0 - r
    return smoothstep(t), -smoothstep_slope(t)


def require_basis_fits(grid: Grid, per_axis: int) -> None:
    """A grid integrates a basis exactly in the Gram sense up to its own
    degree of functions per axis (tensor) or in total (radial)."""
    if per_axis > grid.degree:
        raise ConfigurationError(
            f"basis needs {per_axis} functions per axis but the degree-{grid.degree} "
            "grid is only Gram-exact up to its own degree; enlarge the grid"
        )
