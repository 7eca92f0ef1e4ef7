"""Gaussian-weighted quadrature and the orthonormal eigenbases of L = Lap - y/2 . grad.

Everything is built around the measure exp(-|y|^2/4) dy on R^n. Two node
families:

  * tensor Gauss-Hermite: y = sqrt(2) x from the probabilists' rule
    (weight exp(-x^2/2)), giving sum(weights) = (2 sqrt(pi))^n and exactness
    for per-axis polynomial degree <= 2*degree - 1;
  * radial Gauss-Laguerre (generalized, alpha = n/2 - 1): r = 2 sqrt(x),
    weights carry the sphere area, for radially symmetric integrands.

Each grid owns its layout: `points` is (nq, n), or (nq, 1) holding r on a
radial grid. A tensor grid gathers its points and weights, and build_basis
its product basis, through `node`, each point's node per axis in C order.

The grids are quadrature rules only. The orthonormal eigenbases that
spectral.build_basis samples on them, with `hermite_basis` and
`laguerre_basis`, are

    b_k(y)   = He_k(y / sqrt(2)) / sqrt(2 sqrt(pi) k!),      L b_k  = -(k/2) b_k
    phi_k(r) = L_k^(n/2-1)(r^2/4) / c_{n,k},                 L phi_k = -k phi_k

with c_{n,k}^2 = sphere_area(n) 2^(n-1) Gamma(k + n/2) / k!.

Importing this module loads no scipy. The radial family is built from ports
that are bitwise scipy 1.17.1's: `laguerre_table` is the integer-order
recurrence of scipy.special.eval_genlaguerre, and `roots_genlaguerre` is
scipy.special.roots_genlaguerre, whose banded eigensolve calls LAPACK dsbevd.
That, and the gamma, gammaln and binom they need, come from `_scipy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from . import _scipy
from .config import WORK_BUDGET
from .errors import ConfigurationError, DomainError, UsageError

SQRT2 = math.sqrt(2.0)
TOTAL_MASS_1D = 2.0 * math.sqrt(math.pi)  # int exp(-y^2/4) dy

# the largest rules that build finitely, measured with numpy 2.4.6 and scipy
# 1.17.1: hermegauss gives non-finite weights from degree 371 on, and
# roots_genlaguerre from 364 on at n <= 10 (earlier at larger n: 357 at n = 100)
MAX_HERMITE_DEGREE = 370
MAX_LAGUERRE_DEGREE = 363


def sphere_area(n: int) -> float:
    """Area of the unit sphere in R^n (2 for n = 1); DomainError past float range."""
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise DomainError(f"the unit sphere's area in n = {n} leaves float range") from None


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


@dataclass(frozen=True, eq=False)
class TensorGrid:
    """Tensor Gauss-Hermite grid for exp(-|y|^2/4) on R^n."""

    n: int
    degree: int
    points: np.ndarray = field(repr=False)     # (nq, n): nodes_1d[node].T
    weights: np.ndarray = field(repr=False)    # (nq,)
    nodes_1d: np.ndarray = field(repr=False)
    node: np.ndarray = field(repr=False)       # (n, nq): each point's node per axis

    kind = "tensor"

    @property
    def npoints(self) -> int:
        return self.weights.size


def default_tensor_degree(n: int) -> int:
    """Nodes per axis of a tensor grid given no degree: 64 / 32 / 16 for n = 1 / 2 / >=3."""
    return {1: 64, 2: 32}.get(n, 16)


def tensor_grid(n: int, degree: int | None = None) -> TensorGrid:
    """Build the tensor grid, of default_tensor_degree(n) unless degree is given.

    Refuses (ConfigurationError) a degree above MAX_HERMITE_DEGREE and a grid
    of more than config.WORK_BUDGET point coordinates.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"grid dimension must be a positive integer, got {n!r}")
    if degree is None:
        degree = default_tensor_degree(n)
    if degree < 2:
        raise UsageError("grid degree must be at least 2")
    if degree > MAX_HERMITE_DEGREE:
        raise ConfigurationError(
            f"a Gauss-Hermite rule of degree {degree} does not build finitely; "
            f"the largest that does is {MAX_HERMITE_DEGREE}")
    require_within_budget(degree**n * n, f"a degree-{degree} tensor grid in n = {n}")
    x, w = hermegauss(degree)
    nodes = SQRT2 * x
    node = np.indices((degree,) * n).reshape(n, -1)    # C order: the last axis runs fastest
    points = np.ascontiguousarray(nodes[node].T)
    weights = np.prod((SQRT2 * w)[node], axis=0)
    return TensorGrid(n=n, degree=degree, points=points, weights=weights, nodes_1d=nodes,
                      node=node)


def laguerre_norms(n: int, nfuncs: int) -> np.ndarray:
    """Weighted L^2 norms of L_k^(n/2-1)(r^2/4) over R^n (radial measure)."""
    gammaln = _scipy.special_ufuncs().gammaln
    alpha = n / 2.0 - 1.0
    ks = np.arange(nfuncs)
    log_n2 = (
        math.log(sphere_area(n)) + (n - 1) * math.log(2.0)
        + gammaln(ks + alpha + 1.0) - gammaln(ks + 1.0)
    )
    return np.exp(0.5 * log_n2)


def laguerre_table(kmax: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """Column k, for k = 0..kmax, is scipy.special.eval_genlaguerre(k, alpha,
    x) at an integer k, as an (x.size, kmax + 1) array. Ported from scipy
    1.17.1's eval_genlaguerre_l operation for operation, so every value is
    bitwise scipy's: column 1 is -x + alpha + 1, and from d = -x/(alpha + 1)
    and p = d + 1 each step k = 1, 2, ... takes
    d = -x/(k + alpha + 1) p + k/(k + alpha + 1) d and p = d + p, so that
    column k + 1 is binom(k + 1 + alpha, k + 1) p. The partial sums p do not
    depend on the order asked for, so one pass gives every column."""
    out = np.empty((x.size, kmax + 1))
    out[:, 0] = 1.0
    if kmax >= 1:
        out[:, 1] = -x + alpha + 1
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, kmax):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = d + p
        out[:, k + 1] = p
    ks = np.arange(2.0, kmax + 1)
    out[:, 2:] *= _scipy.special_ufuncs().binom(ks + alpha, ks)
    return out


def roots_genlaguerre(degree: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """scipy.special.roots_genlaguerre(degree, alpha) for degree >= 2: the
    nodes and weights of Gauss-Laguerre quadrature for x^alpha exp(-x) on
    [0, inf). Ported from scipy 1.17.1 operation for operation, so both are
    bitwise scipy's: the nodes are the eigenvalues of the Jacobi matrix of
    the Laguerre recurrence (Golub and Welsch 1969), taken by LAPACK dsbevd
    on its upper band as scipy.linalg.eigvals_banded takes them; one Newton
    step refines them, and the weights come from log-normalised values of
    L_(degree-1) and the derivative, scaled to sum to Gamma(alpha + 1).
    Overflow on the way is the caller's to test for."""
    mu0 = _scipy.special_ufuncs().gamma(alpha + 1)
    k = np.arange(degree, dtype="d")
    c = np.zeros((2, degree))
    c[0, 1:] = -np.sqrt(k[1:] * (k[1:] + alpha))
    c[1, :] = 2 * k + alpha + 1
    x, _ = _scipy.lapack("dsbevd", c, compute_v=0, lower=0, overwrite_ab=1)
    rows = laguerre_table(degree, alpha, x)
    y = rows[:, degree]
    dy = (degree * y - (degree + alpha) * rows[:, degree - 1]) / x
    x -= y / dy
    fm = laguerre_table(degree - 1, alpha, x)[:, degree - 1]
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= mu0 / w.sum()
    return x, w


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial Gauss-Laguerre grid; weights integrate radial f over all of R^n."""

    n: int
    degree: int
    r: np.ndarray = field(repr=False)          # (nq,)
    x: np.ndarray = field(repr=False)          # (nq,) Laguerre nodes, r^2/4
    weights: np.ndarray = field(repr=False)    # (nq,)

    kind = "radial"

    @property
    def npoints(self) -> int:
        return self.r.size

    @property
    def points(self) -> np.ndarray:
        return self.r.reshape(-1, 1)


def laguerre_basis(grid: RadialGrid, nfuncs: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of phi_0..phi_{nfuncs-1} and of their d/dr at the grid's nodes,
    each an (nq, nfuncs) array."""
    alpha = grid.n / 2.0 - 1.0
    norms = laguerre_norms(grid.n, nfuncs)
    values = laguerre_table(nfuncs - 1, alpha, grid.x) / norms
    # d/dr L_k(r^2/4) = -(r/2) L_{k-1}^(alpha+1)(r^2/4)
    dr = np.zeros_like(values)
    if nfuncs > 1:
        dr[:, 1:] = ((-(grid.r / 2.0))[:, None]
                     * laguerre_table(nfuncs - 2, alpha + 1.0, grid.x) / norms[1:])
    return values, dr


def radial_grid(n: int, degree: int = 48) -> RadialGrid:
    """Radial grid: r = 2 sqrt(x) from generalized Gauss-Laguerre, alpha = n/2-1.

    Refuses (ConfigurationError) a degree above MAX_LAGUERRE_DEGREE and a rule
    whose nodes or weights come out non-finite.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"grid dimension must be a positive integer, got {n!r}")
    if degree < 2:
        raise UsageError("grid degree must be at least 2")
    alpha = n / 2.0 - 1.0
    refusal = ConfigurationError(
        f"the Gauss-Laguerre rule of degree {degree} in n = {n} does not build "
        f"finitely (at most degree {MAX_LAGUERRE_DEGREE} does, fewer at large n)")
    if degree > MAX_LAGUERRE_DEGREE:
        raise refusal
    with np.errstate(all="ignore"):
        x, wx = roots_genlaguerre(degree, alpha)
    if not (np.isfinite(x).all() and np.isfinite(wx).all()):
        raise refusal
    r = 2.0 * np.sqrt(x)
    weights = sphere_area(n) * 2.0 ** (n - 1) * wx
    return RadialGrid(n=n, degree=degree, r=r, x=x, weights=weights)


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


def require_within_budget(count: int, what: str) -> None:
    """Refuse an array of more than config.WORK_BUDGET values."""
    if count > WORK_BUDGET:
        raise ConfigurationError(
            f"{what} needs {count} values, beyond the work budget of {WORK_BUDGET}")


def require_basis_fits(grid: Grid, per_axis: int) -> None:
    """A grid integrates a basis exactly in the Gram sense up to its own
    degree of functions per axis (tensor) or in total (radial)."""
    if per_axis > grid.degree:
        raise ConfigurationError(
            f"basis needs {per_axis} functions per axis but the degree-{grid.degree} "
            "grid is only Gram-exact up to its own degree; enlarge the grid"
        )
