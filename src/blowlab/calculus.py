"""Weighted calculus for the rescaled equation: inner products, L = Lap - y/2 . grad,
the linearization L_w = L - 1/(p-1) + p |w|^(p-1), the monotonicity quantity
H of `exponents.H_of` on a sampled field, and the integral identities and
inequalities the analysis rests on:

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

The randomized batteries draw Gaussian sums g = sum_j a_j exp(-b_j |y-c_j|^2).
`GaussianSum.at(pts)` evaluates y - c_j, |y - c_j|^2 and exp(-b_j |y-c_j|^2)
once per point set, and values, gradient, Laplacian, Hessian and
grad-Laplacian all read them; `GaussianSum.field(grid)` is the sampled
field (values, gradient, Laplacian) of one such evaluation. Halving the
amplitudes in `make_log_test_eigenpair` reuses the exponentials, since b, c
and the points stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import UsageError
from .exponents import H_of, ProblemParams, admissible_m_interval, m_condition
from .quadrature import (
    Grid,
    TensorGrid,
    cutoff_radial,
    require_same_grid,
    tensor_grid,
)


@dataclass(frozen=True, eq=False)
class SampledField:
    """A function sampled on a grid together with its derivative data, given
    by the caller. grad has the shape of grid.points: (nq, n) on tensor
    grids and (nq, 1) on radial grids, where it is d/dr. The methods read
    both kinds through points alone."""

    grid: Grid
    values: np.ndarray
    grad: np.ndarray
    lap: np.ndarray | None = None

    @classmethod
    def from_callable(cls, grid: Grid, f, grad, lap) -> "SampledField":
        """Sample callables of the points (nq, n): the function, its gradient
        and its Laplacian."""
        pts = grid.points
        return cls(grid=grid, values=np.asarray(f(pts), dtype=float).reshape(-1),
                   grad=np.asarray(grad(pts), dtype=float),
                   lap=np.asarray(lap(pts), dtype=float).reshape(-1))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "SampledField":
        nq = grid.npoints
        return cls(grid=grid, values=np.full(nq, float(c)),
                   grad=np.zeros(grid.points.shape), lap=np.zeros(nq))

    def grad_sq(self) -> np.ndarray:
        return (self.grad * self.grad).sum(axis=1)

    def y_dot_grad(self) -> np.ndarray:
        return (self.grid.points * self.grad).sum(axis=1)


def weighted_inner(f: SampledField, g: SampledField) -> float:
    require_same_grid(f.grid, g.grid)
    return float(np.dot(f.grid.weights, f.values * g.values))


def ou_apply(f: SampledField) -> np.ndarray:
    """(L f) values: Lap f - y/2 . grad f. Needs laplacian data."""
    if f.lap is None:
        raise UsageError("ou_apply needs a field with laplacian data")
    return f.lap - 0.5 * f.y_dot_grad()


def linearized_apply(w: SampledField, v: SampledField, params: ProblemParams) -> np.ndarray:
    """(L_w v) values with L_w = L - 1/(p-1) + p |w|^(p-1)."""
    p = params.p
    return ou_apply(v) - v.values / (p - 1.0) + p * np.abs(w.values) ** (p - 1.0) * v.values


def compute_H(w: SampledField, params: ProblemParams) -> np.ndarray:
    """exponents.H_of at the field's points."""
    return H_of(w.values, w.y_dot_grad(), params.p)


@dataclass(frozen=True)
class CheckRow:
    """One identity/inequality evaluation; its fields, in order, are the
    columns of identities.csv (CSV_HEADER). identity() and bound() hold the
    two pass rules, each computed from the row's own lhs and rhs."""

    name: str
    lhs: float
    rhs: float
    residual: float
    holds: bool

    @classmethod
    def identity(cls, name: str, lhs: float, rhs: float, tol: float) -> "CheckRow":
        """lhs = rhs: residual |lhs - rhs|, held within tol (1 + |rhs|)."""
        res = abs(lhs - rhs)
        return cls(name, lhs, rhs, res, res <= tol * (1.0 + abs(rhs)))

    @classmethod
    def bound(cls, name: str, lhs: float, rhs: float) -> "CheckRow":
        """lhs <= rhs: residual max(0, lhs - rhs), held when
        lhs <= rhs + INEQUALITY_TOL (1 + |lhs| + |rhs|)."""
        return cls(name, lhs, rhs, max(0.0, lhs - rhs),
                   lhs <= rhs + INEQUALITY_TOL * (1.0 + abs(lhs) + abs(rhs)))


CSV_HEADER = ("check_name", "lhs", "rhs", "residual", "holds")

# the integration-by-parts identity holds within IDENTITY_TOL (1 + |rhs|); a
# one-sided bound lhs <= rhs holds within INEQUALITY_TOL (1 + |lhs| + |rhs|)
IDENTITY_TOL = 1e-8
INEQUALITY_TOL = 1e-9


def verify_ibp(f: SampledField, g: SampledField, name: str = "ibp") -> CheckRow:
    """[f L g]_W + [grad f . grad g]_W = 0, within
    IDENTITY_TOL (1 + |[grad f . grad g]|)."""
    require_same_grid(f.grid, g.grid)
    lhs = float(np.dot(f.grid.weights, f.values * ou_apply(g)))
    rhs = -float(np.dot(f.grid.weights, (f.grad * g.grad).sum(axis=1)))
    return CheckRow.identity(name, lhs, rhs, IDENTITY_TOL)


def verify_log_test_inequality(w: SampledField, f: SampledField, mu: float, phi: SampledField,
                               params: ProblemParams, name: str = "log_test") -> CheckRow:
    """Given an exact positive eigenpair L_w f = -mu f, check
    [phi^2 (p|w|^(p-1) + |grad log f|^2)] <= [4|grad phi|^2 - 2(mu - 1/(p-1)) phi^2].
    """
    require_same_grid(f.grid, phi.grid)
    if f.values.min() <= 0.0:
        raise UsageError("log-test needs a strictly positive eigenfunction")
    p = params.p
    wq = f.grid.weights
    glog2 = (f.grad / f.values[:, None]) ** 2
    pot = p * np.abs(w.values) ** (p - 1.0)
    lhs = float(np.dot(wq, phi.values**2 * (pot + glog2.sum(axis=1))))
    rhs = float(np.dot(wq, 4.0 * phi.grad_sq() - 2.0 * (mu - 1.0 / (p - 1.0)) * phi.values**2))
    return CheckRow.bound(name, lhs, rhs)


def verify_poincare(v: SampledField, name: str = "poincare") -> CheckRow:
    """[v^2 |y|^2]_W <= 16 [|grad v|^2]_W + 4 n [v^2]_W."""
    grid = v.grid
    lhs = float(np.dot(grid.weights, v.values**2 * (grid.points**2).sum(axis=1)))
    rhs = 16.0 * float(np.dot(grid.weights, v.grad_sq())) \
        + 4.0 * grid.n * float(np.dot(grid.weights, v.values**2))
    return CheckRow.bound(name, lhs, rhs)


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
                             params: ProblemParams, name: str = "moment_bound") -> CheckRow:
    """[eta^2 |w|^(2m+p-1)]_W <= C [ |w|^(2m) (|grad eta|^2 + eta^2) ]_W."""
    require_same_grid(w.grid, eta.grid)
    p = params.p
    consts = prop35_constants(m, p)
    wq = w.grid.weights
    aw = np.abs(w.values)
    lhs = float(np.dot(wq, eta.values**2 * aw ** (2.0 * m + p - 1.0)))
    rhs = consts["C"] * float(
        np.dot(wq, aw ** (2.0 * m) * (eta.grad_sq() + eta.values**2))
    )
    return CheckRow.bound(name, lhs, rhs)


def radial_field(grid: Grid, f) -> SampledField:
    """A radial function as a field, where f(r) returns (values, d/dr values).

    grad is slope * y/|y|, taken as 0 at the origin: on radial grids, whose
    points are the column r, that is d/dr.
    """
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
    """g(y) = sum_j a_j exp(-b_j |y - c_j|^2), with analytic derivatives.

    at(pts) evaluates the terms on one point set for every derivative;
    field(grid) is the sampled field of the terms on the grid's points.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray  # (nterms, n)

    def at(self, pts: np.ndarray) -> "GaussianTerms":
        diff = pts[None, :, :] - self.c[:, None, :]
        d2 = (diff ** 2).sum(axis=2)
        expo = np.exp(-self.b[:, None] * d2)
        return GaussianTerms(self, pts, diff, d2, expo, self.a[:, None] * expo)

    def field(self, grid: TensorGrid) -> SampledField:
        terms = self.at(grid.points)
        return SampledField(grid=grid, values=terms.values(), grad=terms.grad(),
                            lap=terms.lap())


@dataclass(frozen=True, eq=False)
class GaussianTerms:
    """A GaussianSum's terms on the points pts (nq, n): y - c_j, |y - c_j|^2,
    exp(-b_j |y - c_j|^2) and the parts a_j exp(-b_j |y - c_j|^2), each
    (nterms, nq, ...), evaluated once and read by every derivative."""

    gs: GaussianSum
    pts: np.ndarray
    diff: np.ndarray
    d2: np.ndarray
    expo: np.ndarray
    parts: np.ndarray

    def scaled(self, factor: float) -> "GaussianTerms":
        """The terms of the sum with every amplitude times factor; the
        points, centres and widths are unchanged, so are the exponentials."""
        gs = GaussianSum(a=self.gs.a * factor, b=self.gs.b, c=self.gs.c)
        return GaussianTerms(gs, self.pts, self.diff, self.d2, self.expo,
                             gs.a[:, None] * self.expo)

    def values(self) -> np.ndarray:
        return self.parts.sum(axis=0)

    def grad(self) -> np.ndarray:
        b = self.gs.b[:, None, None]
        return (-2.0 * b * self.diff * self.parts[:, :, None]).sum(axis=0)

    def lap(self) -> np.ndarray:
        n = self.pts.shape[1]
        b = self.gs.b[:, None]
        return ((4.0 * b ** 2 * self.d2 - 2.0 * n * b) * self.parts).sum(axis=0)

    def hess(self) -> np.ndarray:
        b = self.gs.b[:, None, None, None]
        outer = self.diff[:, :, :, None] * self.diff[:, :, None, :]
        eye = np.eye(self.pts.shape[1])[None, None, :, :]
        return ((4.0 * b * b * outer - 2.0 * b * eye)
                * self.parts[:, :, None, None]).sum(axis=0)

    def grad_lap(self) -> np.ndarray:
        n = self.pts.shape[1]
        b = self.gs.b[:, None]
        coef = (8.0 + 4.0 * n) * b * b - 8.0 * b ** 3 * self.d2
        return (coef[:, :, None] * self.diff * self.parts[:, :, None]).sum(axis=0)

    def ou(self, grad: np.ndarray) -> np.ndarray:
        """L g = Lap g - y . grad g / 2, with grad = self.grad() passed in
        so callers that need it too evaluate it once."""
        return self.lap() - 0.5 * (self.pts * grad).sum(axis=1)

    def grad_ou(self, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        """grad(L g) = grad(Lap g) - (grad g + Hess(g) y) / 2, with
        grad = self.grad() and hess = self.hess() passed in."""
        hy = np.einsum("qij,qj->qi", hess, self.pts)
        return self.grad_lap() - 0.5 * (grad + hy)


# terms of a random Gaussian sum, and the half-width of the cube its centres
# are drawn from
GAUSSIAN_TERMS = 3
GAUSSIAN_SPREAD = 2.0


def random_gaussian_sum(rng: np.random.Generator, n: int,
                        amp: float = 0.25) -> GaussianSum:
    # widths stay below 0.3 so the bumps are resolved by the default
    # quadrature in every supported dimension
    return GaussianSum(
        a=rng.uniform(-amp, amp, GAUSSIAN_TERMS),
        b=rng.uniform(0.08, 0.3, GAUSSIAN_TERMS),
        c=rng.uniform(-GAUSSIAN_SPREAD, GAUSSIAN_SPREAD, (GAUSSIAN_TERMS, n)),
    )


def random_bump_field(grid: TensorGrid, rng: np.random.Generator) -> SampledField:
    """Smooth compactly supported field: Gaussian sum times the radial cutoff
    eta_R with R = 4, which is 1 on |y| <= 4 and 0 beyond |y| = 5."""
    terms = random_gaussian_sum(rng, grid.n, amp=1.0).at(grid.points)
    eta = cutoff_field(grid, 4.0)
    gv = terms.values()
    vals = gv * eta.values
    grad = terms.grad() * eta.values[:, None] + gv[:, None] * eta.grad
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
    terms = random_gaussian_sum(rng, grid.n).at(grid.points)
    for _ in range(60):
        grad = terms.grad()
        pot = p / (p - 1.0) - terms.ou(grad) - (grad ** 2).sum(axis=1)
        if pot.min() > floor:
            # w must be a bounded positive field with H > 0; shrinking the
            # sample drives w toward the constant kappa where H = kappa/(p-1).
            # grad pot = -grad(L g) - 2 Hess(g) grad(g), all analytic; the
            # quadrature-grid spectral gradient is useless this far out.
            wvals = (pot / p) ** (1.0 / (p - 1.0))
            hess = terms.hess()
            gpot = -terms.grad_ou(grad, hess) \
                - 2.0 * np.einsum("qij,qj->qi", hess, grad)
            wgrad = (wvals / ((p - 1.0) * pot))[:, None] * gpot
            w = SampledField(grid=grid, values=wvals, grad=wgrad)
            if compute_H(w, params).min() > 0.0:
                break
        terms = terms.scaled(0.5)
    else:
        raise UsageError("could not scale the eigenpair sample to a positive potential")
    gv = terms.values()
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
                    abs(ratio - 1.0) < 1e-6)
