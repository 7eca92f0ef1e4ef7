"""Weighted calculus for the rescaled equation: inner products, L = Lap - y/2 . grad,
the linearization L_w = L - 1/(p-1) + p |w|^(p-1), the monotonicity quantity
H = w/(p-1) + y . grad(w) / 2, and the integral identities and inequalities
the analysis rests on:

  integration by parts   [f L g]_W = -[grad f . grad g]_W
  log-test               [phi^2 (p|w|^(p-1) + |grad log f|^2)]_W
                             <= [4 |grad phi|^2 - 2 (mu - 1/(p-1)) phi^2]_W
                         whenever L_w f = -mu f with f > 0
  weighted Poincare      [v^2 |y|^2]_W <= 16 [|grad v|^2]_W + 4 n [v^2]_W
  moment inequality      [eta^2 |w|^(2m+p-1)]_W
                             <= C [ |w|^(2m) (|grad eta|^2 + eta^2) ]_W
                         for admissible m (m > 1/2, m^2 < p(2m-1)), with an
                         explicitly assembled constant C = C(p, m, eps).

[f]_W denotes the integral of f against exp(-|y|^2/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import UsageError
from .exponents import ProblemParams, admissible_m_interval, m_condition
from .quadrature import (
    Grid,
    RadialGrid,
    TensorGrid,
    cutoff_radial,
    require_same_grid,
    tensor_grid,
)


@dataclass(frozen=True, eq=False)
class SampledField:
    """A function sampled on a grid together with first (and maybe second)
    derivative data. grad has shape (nq, n) on tensor grids and (nq, 1) on
    radial grids (d/dr)."""

    grid: Grid
    values: np.ndarray
    grad: np.ndarray
    lap: np.ndarray | None = None

    @classmethod
    def from_values(cls, grid: Grid, values) -> "SampledField":
        """Derivatives filled in spectrally from the grid's orthonormal basis.

        Trustworthy in the weighted norm and pointwise where the weight
        lives; far quadrature nodes amplify coefficient roundoff, so supply
        analytic derivatives for anything that is not polynomial-like.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.npoints,):
            raise UsageError(
                f"values shape {values.shape} does not match grid ({grid.npoints},)"
            )
        return cls(grid=grid, values=values, grad=grid.gradient(values),
                   lap=grid.laplacian(values))

    @classmethod
    def from_callable(cls, grid: Grid, f, grad=None, lap=None) -> "SampledField":
        """Sample callables; any derivative not supplied is computed spectrally."""
        pts = grid.points
        values = np.asarray(f(pts), dtype=float).reshape(-1)
        g = None if grad is None else np.asarray(grad(pts), dtype=float)
        l = None if lap is None else np.asarray(lap(pts), dtype=float).reshape(-1)
        if g is None:
            g = grid.gradient(values)
        if l is None:
            l = grid.laplacian(values)
        return cls(grid=grid, values=values, grad=g, lap=l)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "SampledField":
        nq = grid.npoints
        ncomp = 1 if grid.kind == "radial" else grid.n
        return cls(grid=grid, values=np.full(nq, float(c)),
                   grad=np.zeros((nq, ncomp)), lap=np.zeros(nq))

    @classmethod
    def coordinate(cls, grid: Grid, i: int = 0) -> "SampledField":
        if grid.kind == "radial":
            raise UsageError("coordinate fields are not radially symmetric")
        nq = grid.npoints
        g = np.zeros((nq, grid.n))
        g[:, i] = 1.0
        return cls(grid=grid, values=grid.points[:, i].copy(), grad=g, lap=np.zeros(nq))

    def grad_sq(self) -> np.ndarray:
        return (self.grad * self.grad).sum(axis=1)

    def y_dot_grad(self) -> np.ndarray:
        if self.grid.kind == "radial":
            return self.grid.r * self.grad[:, 0]
        return (self.grid.points * self.grad).sum(axis=1)


def weighted_inner(f: SampledField, g: SampledField) -> float:
    require_same_grid(f.grid, g.grid)
    return float(np.dot(f.grid.weights, f.values * g.values))


def bracket(f: SampledField | np.ndarray, grid: Grid | None = None) -> float:
    """[f]_W: integral against the Gaussian weight."""
    if isinstance(f, SampledField):
        return float(np.dot(f.grid.weights, f.values))
    if grid is None:
        raise UsageError("bracket of a bare array needs the grid")
    return float(np.dot(grid.weights, np.asarray(f)))


def ou_apply(f: SampledField) -> np.ndarray:
    """(L f) values: Lap f - y/2 . grad f. Needs laplacian data."""
    if f.lap is None:
        raise UsageError("ou_apply needs a field with laplacian data")
    return f.lap - 0.5 * f.y_dot_grad()


def linearized_apply(w, v: SampledField, params: ProblemParams) -> np.ndarray:
    """(L_w v) values with L_w = L - 1/(p-1) + p |w|^(p-1)."""
    wv = w.values if isinstance(w, SampledField) else np.asarray(w)
    p = params.p
    return ou_apply(v) - v.values / (p - 1.0) + p * np.abs(wv) ** (p - 1.0) * v.values


@dataclass(frozen=True)
class HQuantity:
    """H = w/(p-1) + y . grad(w)/2. Positivity of H is equivalent to u_t > 0
    in the original variables."""

    values: np.ndarray
    min: float
    max: float


def compute_H(w: SampledField, p) -> HQuantity:
    p = p.p if isinstance(p, ProblemParams) else float(p)
    vals = w.values / (p - 1.0) + 0.5 * w.y_dot_grad()
    return HQuantity(values=vals, min=float(vals.min()), max=float(vals.max()))


@dataclass(frozen=True)
class CheckRow:
    """One identity/inequality evaluation. For identities residual =
    |lhs - rhs|; for one-sided bounds residual = max(0, lhs - rhs)."""

    name: str
    lhs: float
    rhs: float
    residual: float
    holds: bool
    info: dict = dc_field(default_factory=dict)

    def csv_row(self) -> tuple:
        return (self.name, self.lhs, self.rhs, self.residual, self.holds)


CSV_HEADER = ("check_name", "lhs", "rhs", "residual", "holds")


def verify_ibp(f: SampledField, g: SampledField, tol: float = 1e-8,
               name: str = "ibp") -> CheckRow:
    """[f L g]_W + [grad f . grad g]_W = 0, within tol (1 + |[grad f . grad g]|)."""
    require_same_grid(f.grid, g.grid)
    lhs = float(np.dot(f.grid.weights, f.values * ou_apply(g)))
    rhs = -float(np.dot(f.grid.weights, (f.grad * g.grad).sum(axis=1)))
    res = abs(lhs - rhs)
    return CheckRow(name, lhs, rhs, res, res <= tol * (1.0 + abs(rhs)), {"tol": tol})


def verify_log_test_inequality(w, f: SampledField, mu: float, phi: SampledField,
                               params, tol: float = 1e-9,
                               name: str = "log_test") -> CheckRow:
    """Given an exact positive eigenpair L_w f = -mu f, check
    [phi^2 (p|w|^(p-1) + |grad log f|^2)] <= [4|grad phi|^2 - 2(mu - 1/(p-1)) phi^2].
    """
    require_same_grid(f.grid, phi.grid)
    if f.values.min() <= 0.0:
        raise UsageError("log-test needs a strictly positive eigenfunction")
    wv = w.values if isinstance(w, SampledField) else np.asarray(w)
    p = params.p if isinstance(params, ProblemParams) else float(params)
    wq = f.grid.weights
    glog2 = (f.grad / f.values[:, None]) ** 2
    lhs = float(np.dot(wq, phi.values**2 * (p * np.abs(wv) ** (p - 1.0) + glog2.sum(axis=1))))
    rhs = float(np.dot(wq, 4.0 * phi.grad_sq() - 2.0 * (mu - 1.0 / (p - 1.0)) * phi.values**2))
    scale = 1.0 + abs(lhs) + abs(rhs)
    res = max(0.0, lhs - rhs)
    return CheckRow(name, lhs, rhs, res, lhs <= rhs + tol * scale,
                    {"mu": mu, "tol": tol})


def verify_poincare(v: SampledField, tol: float = 1e-9,
                    name: str = "poincare") -> CheckRow:
    """[v^2 |y|^2]_W <= 16 [|grad v|^2]_W + 4 n [v^2]_W."""
    grid = v.grid
    r2 = grid.r**2 if grid.kind == "radial" else (grid.points**2).sum(axis=1)
    lhs = float(np.dot(grid.weights, v.values**2 * r2))
    rhs = 16.0 * float(np.dot(grid.weights, v.grad_sq())) \
        + 4.0 * grid.n * float(np.dot(grid.weights, v.values**2))
    scale = 1.0 + abs(lhs) + abs(rhs)
    res = max(0.0, lhs - rhs)
    return CheckRow(name, lhs, rhs, res, lhs <= rhs + tol * scale, {"tol": tol})


def prop35_constants(m: float, p: float) -> dict:
    """Assemble the moment-inequality constant.

    Starting from eps0 = (1 - q)/2 with q = m^2/(p(2m-1)) < 1, halve eps until
    theta(eps) = (1+eps) m^2 / (p(2m-1-eps)) <= (1+q)/2; this always
    terminates since theta -> q as eps -> 0+. Then
        A = (1 + 1/eps)/p + theta/eps,  B = 1/(p-1),  C = max(A, B)/(1 - theta).
    """
    if not m_condition(p, m):
        lo, hi = admissible_m_interval(p)
        raise UsageError(
            f"m = {m} inadmissible for p = {p}: need m > 1/2 and m in ({lo:.6g}, {hi:.6g})"
        )
    q = m * m / (p * (2.0 * m - 1.0))
    eps = 0.5 * (1.0 - q)
    target = 0.5 * (1.0 + q)
    while True:
        denom = p * (2.0 * m - 1.0 - eps)
        if denom > 0.0:
            theta = (1.0 + eps) * m * m / denom
            if theta <= target:
                break
        eps *= 0.5
    A = (1.0 + 1.0 / eps) / p + theta / eps
    B = 1.0 / (p - 1.0)
    C = max(A, B) / (1.0 - theta)
    return {"q": q, "eps": eps, "theta": theta, "A": A, "B": B, "C": C}


def verify_prop35_inequality(w: SampledField, m: float, eta: SampledField,
                             params, tol: float = 1e-9,
                             name: str = "moment_bound") -> CheckRow:
    """[eta^2 |w|^(2m+p-1)]_W <= C [ |w|^(2m) (|grad eta|^2 + eta^2) ]_W."""
    require_same_grid(w.grid, eta.grid)
    p = params.p if isinstance(params, ProblemParams) else float(params)
    consts = prop35_constants(m, p)
    wq = w.grid.weights
    aw = np.abs(w.values)
    lhs = float(np.dot(wq, eta.values**2 * aw ** (2.0 * m + p - 1.0)))
    rhs = consts["C"] * float(
        np.dot(wq, aw ** (2.0 * m) * (eta.grad_sq() + eta.values**2))
    )
    scale = 1.0 + abs(lhs) + abs(rhs)
    res = max(0.0, lhs - rhs)
    return CheckRow(name, lhs, rhs, res, lhs <= rhs + tol * scale,
                    {"m": m, **consts, "tol": tol})


def radial_field(grid: Grid, f) -> SampledField:
    """A radial function as a field, where f(r) returns (values, d/dr values).

    On radial grids grad is d/dr; on tensor grids it is lifted to
    slope * y/|y|, taken as 0 at the origin.
    """
    if grid.kind == "radial":
        vals, slope = f(grid.r)
        return SampledField(grid=grid, values=vals, grad=slope.reshape(-1, 1))
    r = np.sqrt((grid.points**2).sum(axis=1))
    vals, slope = f(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(r[:, None] > 0.0, grid.points / np.maximum(r, 1e-300)[:, None], 0.0)
    return SampledField(grid=grid, values=vals, grad=slope[:, None] * unit)


def cutoff_field(grid: Grid, R: float) -> SampledField:
    """eta_R(|y|) as a field with analytic gradient; |grad| <= 1.875 < 2."""
    return radial_field(grid, lambda r: cutoff_radial(r, R))


# ---------------------------------------------------------------------------
# analytic field constructors used by the randomized batteries


def poly_field(grid: TensorGrid, coef: np.ndarray) -> SampledField:
    """Polynomial with coefficient tensor coef (n = 1 or 2), all derivatives
    analytic."""
    if grid.kind != "tensor" or grid.n > 2:
        raise UsageError("poly_field supports tensor grids with n <= 2")
    coef = np.asarray(coef, dtype=float)
    pts = grid.points
    if grid.n == 1:
        c = coef.reshape(-1)
        vals = P.polyval(pts[:, 0], c)
        grad = P.polyval(pts[:, 0], P.polyder(c))[:, None]
        lap = P.polyval(pts[:, 0], P.polyder(c, 2))
    else:
        x, y = pts[:, 0], pts[:, 1]
        vals = P.polyval2d(x, y, coef)
        gx = P.polyval2d(x, y, P.polyder(coef, axis=0))
        gy = P.polyval2d(x, y, P.polyder(coef, axis=1))
        grad = np.stack([gx, gy], axis=1)
        lap = P.polyval2d(x, y, P.polyder(coef, 2, axis=0)) \
            + P.polyval2d(x, y, P.polyder(coef, 2, axis=1))
    return SampledField(grid=grid, values=np.asarray(vals), grad=grad, lap=np.asarray(lap))


def random_poly_field(grid: TensorGrid, rng: np.random.Generator,
                      max_deg: int = 6) -> SampledField:
    shape = (max_deg + 1,) * grid.n
    return poly_field(grid, rng.uniform(-1.0, 1.0, size=shape))


@dataclass(frozen=True)
class GaussianSum:
    """g(y) = sum_j a_j exp(-b_j |y - c_j|^2), with analytic derivatives."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray  # (nterms, n)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self._parts(pts).sum(axis=0)

    def _parts(self, pts: np.ndarray) -> np.ndarray:
        d2 = ((pts[None, :, :] - self.c[:, None, :]) ** 2).sum(axis=2)
        return self.a[:, None] * np.exp(-self.b[:, None] * d2)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        parts = self._parts(pts)
        diff = pts[None, :, :] - self.c[:, None, :]
        return (-2.0 * self.b[:, None, None] * diff * parts[:, :, None]).sum(axis=0)

    def lap(self, pts: np.ndarray) -> np.ndarray:
        n = pts.shape[1]
        parts = self._parts(pts)
        d2 = ((pts[None, :, :] - self.c[:, None, :]) ** 2).sum(axis=2)
        return ((4.0 * self.b[:, None] ** 2 * d2 - 2.0 * n * self.b[:, None]) * parts).sum(axis=0)

    def hess(self, pts: np.ndarray) -> np.ndarray:
        parts = self._parts(pts)
        diff = pts[None, :, :] - self.c[:, None, :]
        b = self.b[:, None, None, None]
        outer = diff[:, :, :, None] * diff[:, :, None, :]
        eye = np.eye(pts.shape[1])[None, None, :, :]
        return ((4.0 * b * b * outer - 2.0 * b * eye)
                * parts[:, :, None, None]).sum(axis=0)

    def grad_lap(self, pts: np.ndarray) -> np.ndarray:
        n = pts.shape[1]
        parts = self._parts(pts)
        diff = pts[None, :, :] - self.c[:, None, :]
        d2 = (diff ** 2).sum(axis=2)
        b = self.b[:, None]
        coef = (8.0 + 4.0 * n) * b * b - 8.0 * b ** 3 * d2
        return (coef[:, :, None] * diff * parts[:, :, None]).sum(axis=0)

    def ou(self, pts: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """L g = Lap g - y . grad g / 2, with grad = self.grad(pts) passed in
        so callers that need it too evaluate it once."""
        return self.lap(pts) - 0.5 * (pts * grad).sum(axis=1)

    def grad_ou(self, pts: np.ndarray, grad: np.ndarray,
                hess: np.ndarray) -> np.ndarray:
        """grad(L g) = grad(Lap g) - (grad g + Hess(g) y) / 2, with
        grad = self.grad(pts) and hess = self.hess(pts) passed in."""
        hy = np.einsum("qij,qj->qi", hess, pts)
        return self.grad_lap(pts) - 0.5 * (grad + hy)


def random_gaussian_sum(rng: np.random.Generator, n: int, nterms: int = 3,
                        amp: float = 0.25, spread: float = 2.0) -> GaussianSum:
    # widths stay below 0.3 so the bumps are resolved by the default
    # quadrature in every supported dimension
    return GaussianSum(
        a=rng.uniform(-amp, amp, nterms),
        b=rng.uniform(0.08, 0.3, nterms),
        c=rng.uniform(-spread, spread, (nterms, n)),
    )


def random_bump_field(grid: TensorGrid, rng: np.random.Generator,
                      support_R: float = 4.0) -> SampledField:
    """Smooth compactly supported field: Gaussian sum times a radial cutoff."""
    gs = random_gaussian_sum(rng, grid.n, amp=1.0)
    pts = grid.points
    eta = cutoff_field(grid, support_R)
    vals = gs(pts) * eta.values
    grad = gs.grad(pts) * eta.values[:, None] + gs(pts)[:, None] * eta.grad
    return SampledField(grid=grid, values=vals, grad=grad)


@dataclass(frozen=True)
class EigenpairSample:
    """A synthetic exact eigenpair for the log-test battery.

    Built backwards: draw g, set f = exp(g) and define the potential field w
    through p |w|^(p-1) = p/(p-1) - (L g + |grad g|^2), so that
    L_w f = f exactly, i.e. mu = -1. The amplitude of g is shrunk until the
    potential stays positive. w enters the checks through its values only.
    """

    w: SampledField
    f: SampledField
    mu: float


def make_log_test_eigenpair(grid: TensorGrid, rng: np.random.Generator,
                            params: ProblemParams) -> EigenpairSample:
    p = params.p
    floor = 0.1 * p / (p - 1.0)
    gs = random_gaussian_sum(rng, grid.n)
    pts = grid.points
    for _ in range(60):
        grad = gs.grad(pts)
        pot = p / (p - 1.0) - gs.ou(pts, grad) - (grad ** 2).sum(axis=1)
        if pot.min() > floor:
            # w must be a bounded positive field with H > 0; shrinking the
            # sample drives w toward the constant kappa where H = kappa/(p-1).
            # grad pot = -grad(L g) - 2 Hess(g) grad(g), all analytic; the
            # quadrature-grid spectral gradient is useless this far out.
            wvals = (pot / p) ** (1.0 / (p - 1.0))
            hess = gs.hess(pts)
            gpot = -gs.grad_ou(pts, grad, hess) \
                - 2.0 * np.einsum("qij,qj->qi", hess, grad)
            wgrad = (wvals / ((p - 1.0) * pot))[:, None] * gpot
            w = SampledField(grid=grid, values=wvals, grad=wgrad)
            if compute_H(w, p).min > 0.0:
                break
        gs = GaussianSum(a=gs.a * 0.5, b=gs.b, c=gs.c)
    else:
        raise UsageError("could not scale the eigenpair sample to a positive potential")
    gv = gs(pts)
    f = SampledField(grid=grid, values=np.exp(gv), grad=np.exp(gv)[:, None] * grad)
    return EigenpairSample(w=w, f=f, mu=-1.0)


def sobolev_mass(f: SampledField) -> float:
    """[f^2 + |grad f|^2]_W, the weighted H^1 mass."""
    return float(np.dot(f.grid.weights, f.values**2 + f.grad_sq()))


def growth_diagnostic(make_field, n: int, degree: int) -> CheckRow:
    """Weighted-H^1 growth diagnostic: mass at quadrature degree d vs 2d.

    A ratio near 1 is numerical evidence (not proof) that the field lies in
    the weighted H^1 space.
    """
    g1 = tensor_grid(n, degree)
    g2 = tensor_grid(n, 2 * degree)
    m1 = sobolev_mass(make_field(g1))
    m2 = sobolev_mass(make_field(g2))
    ratio = m2 / m1 if m1 != 0.0 else math.inf
    return CheckRow("h1_growth_diagnostic", m1, m2, abs(ratio - 1.0),
                    abs(ratio - 1.0) < 1e-6, {"ratio": ratio})
