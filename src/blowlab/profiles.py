"""Radial self-similar profiles by shooting.

A bounded positive solution of

    w'' + ((n-1)/r - r/2) w' - w/(p-1) + |w|^(p-1) w = 0,   w'(0) = 0,

is a blow-up profile in similarity variables. Shooting from the center value
alpha = w(0) uses the regular series start

    w = alpha + c r^2 + d r^4 + O(r^6),
    c = (alpha/(p-1) - alpha^p) / (2n),
    d = c p (1/(p-1) - alpha^(p-1)) / (4(n+2)),

from a start radius r0 small enough that the correction stays tiny relative
to alpha (fixed 1e-3 shrinks further for large alpha, where |c| ~ alpha^p).

Outcomes: hit-zero (w crosses 0), blew-up (|w| crosses the cap),
converged-to-kappa-like-tail, or reached-Rmax-bounded. The constant solution
w = kappa is the only bounded positive profile in the probed regimes; scans
bracket outcome changes and bisection re-discovers kappa.

The constant branch is a separatrix: perturbations of the regular series
solution grow only like r^2, but the second, singular solution of the
linearized equation grows like e^{r^2/4}, so the rounding defect of kappa in
double precision (and the integrator's own tolerance noise) becomes O(1)
before r = 14. Within a machine-level band around kappa the branches cannot
be distinguished in floats; shoot() therefore snaps alpha inside that band to
the exact constant trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .calculus import SampledField, radial_field
from .errors import DomainError, NumericError, UsageError
from .exponents import ProblemParams, kappa
from .quadrature import Grid

OUTCOMES = (
    "converged-to-kappa-like-tail",
    "hit-zero",
    "blew-up",
    "reached-Rmax-bounded",
)


def series_start(alpha: float, params: ProblemParams) -> tuple[float, float, float, float, float]:
    """(r0, w(r0), w'(r0), c, d) for the regular expansion at the origin."""
    p, n = params.p, params.n
    c = (alpha / (p - 1.0) - abs(alpha) ** (p - 1.0) * alpha) / (2.0 * n)
    d = c * p * (1.0 / (p - 1.0) - abs(alpha) ** (p - 1.0)) / (4.0 * (n + 2.0))
    r0 = 1e-3
    if c != 0.0:
        r0 = min(r0, 0.03 * math.sqrt(abs(alpha / c)))
    if d != 0.0:
        r0 = min(r0, 0.03 * abs(alpha / d) ** 0.25)
    w0 = alpha + c * r0**2 + d * r0**4
    w0r = 2.0 * c * r0 + 4.0 * d * r0**3
    return r0, w0, w0r, c, d


def _rhs(params: ProblemParams, cap: float):
    p, n = params.p, params.n
    soft = 10.0 * cap  # keep powers finite on rejected trial steps past the cap

    def rhs(r, z):
        w, wr = z
        ww = min(abs(w), soft)
        return (wr, -((n - 1.0) / r - 0.5 * r) * wr + w / (p - 1.0) - ww ** (p - 1.0) * w)

    return rhs


@dataclass
class RadialProfile:
    """A shot trajectory on a uniform mesh, with its classification."""

    params: ProblemParams
    alpha: float
    r: np.ndarray
    w: np.ndarray
    w_r: np.ndarray
    outcome: str
    r_end: float
    events: dict = dc_field(default_factory=dict)
    meta: dict = dc_field(default_factory=dict)

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])

    def H_values(self) -> np.ndarray:
        return self.w / (self.params.p - 1.0) + 0.5 * self.r * self.w_r

    def trusted_radius(self, band_factor: float = 10.0) -> float:
        """Largest r up to which w stays positive and below the acceptance band."""
        band = band_factor * max(kappa(self.params.p), self.alpha)
        bad = np.nonzero((self.w <= 0.0) | (np.abs(self.w) > band))[0]
        if bad.size == 0:
            return float(self.r[-1])
        if bad[0] == 0:
            return float(self.r[0])
        return float(self.r[bad[0] - 1])


def shoot(alpha: float, params: ProblemParams, r_max: float = 20.0,
          rtol: float = 1e-10, atol: float = 1e-12, cap: float = 1e6,
          mesh_points: int = 4001, method: str = "DOP853",
          tail_tol: float = 1e-3) -> RadialProfile:
    """Integrate from the series start; classify by the first terminal event."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"shooting needs alpha > 0, got {alpha!r}")
    if r_max <= 0.0 or cap <= 0.0:
        raise UsageError("r_max and cap must be positive")
    r0, w0, w0r, c, d = series_start(alpha, params)
    if r_max <= r0:
        raise UsageError(f"r_max = {r_max} does not exceed the start radius {r0}")

    kap = kappa(params.p)
    if abs(alpha - kap) <= 1e-12 * max(1.0, kap):
        # separatrix snap (see module docstring); the band is far below any
        # bisection tolerance a scan would use
        rr = np.linspace(r0, r_max, mesh_points)
        return RadialProfile(
            params=params, alpha=alpha, r=rr, w=np.full(mesh_points, alpha),
            w_r=np.zeros(mesh_points), outcome="reached-Rmax-bounded",
            r_end=float(r_max),
            events={"zero_at": None, "cap_at": None},
            meta={"r0": r0, "c": 0.0, "d": 0.0, "rtol": rtol, "atol": atol,
                  "cap": cap, "r_max": r_max, "method": method,
                  "snapped_to_constant": True},
        )

    def ev_zero(r, z):
        return z[0]
    ev_zero.terminal = True
    ev_zero.direction = -1.0

    def ev_cap(r, z):
        return abs(z[0]) - cap
    ev_cap.terminal = True
    ev_cap.direction = 1.0

    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(_rhs(params, cap), (r0, r_max), (w0, w0r),
                        method=method, rtol=rtol, atol=atol,
                        events=(ev_zero, ev_cap), dense_output=True)
    if sol.status == -1:
        raise NumericError(f"integration failed at r = {sol.t[-1]:.6g}: {sol.message}",
                           payload={"r": sol.t, "w": sol.y[0], "w_r": sol.y[1]})

    t_zero = sol.t_events[0][0] if sol.t_events[0].size else math.inf
    t_cap = sol.t_events[1][0] if sol.t_events[1].size else math.inf
    r_end = float(min(t_zero, t_cap, sol.t[-1]))
    rr = np.linspace(r0, r_end, mesh_points)
    zz = sol.sol(rr)
    w, w_r = zz[0].copy(), zz[1].copy()

    if t_zero <= t_cap and math.isfinite(t_zero):
        outcome = "hit-zero"
    elif math.isfinite(t_cap):
        outcome = "blew-up"
    else:
        quarter = rr >= r0 + 0.75 * (r_end - r0)
        kap = kappa(params.p)
        near = (np.abs(w[quarter] - kap).max() <= tail_tol * max(1.0, kap)
                and np.abs(w_r[quarter]).max() <= tail_tol)
        # the constant trajectory itself (alpha = kappa) never moved, so it is
        # plain bounded; the kappa-tail label is reserved for trajectories
        # that actually travelled before settling
        moved = float(np.abs(w - kap).max()) > 10.0 * tail_tol * max(1.0, kap)
        outcome = "converged-to-kappa-like-tail" if (near and moved) else "reached-Rmax-bounded"

    return RadialProfile(
        params=params, alpha=alpha, r=rr, w=w, w_r=w_r, outcome=outcome,
        r_end=r_end,
        events={"zero_at": None if math.isinf(t_zero) else float(t_zero),
                "cap_at": None if math.isinf(t_cap) else float(t_cap)},
        meta={"r0": r0, "c": c, "d": d, "rtol": rtol, "atol": atol,
              "cap": cap, "r_max": r_max, "method": method},
    )


def rk4_shoot(alpha: float, params: ProblemParams, r_max: float = 10.0,
              h: float = 1e-3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step classic RK4 from the same series start; the independent
    cross-check for the adaptive integrator (no event handling)."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"shooting needs alpha > 0, got {alpha!r}")
    r0, w0, w0r, _, _ = series_start(alpha, params)
    rhs = _rhs(params, cap=1e300)
    nsteps = int(math.ceil((r_max - r0) / h))
    rs = np.empty(nsteps + 1)
    ws = np.empty(nsteps + 1)
    wrs = np.empty(nsteps + 1)
    r, w, wr = r0, w0, w0r
    rs[0], ws[0], wrs[0] = r, w, wr
    for i in range(nsteps):
        step = min(h, r_max - r)
        k1 = rhs(r, (w, wr))
        k2 = rhs(r + step / 2, (w + step / 2 * k1[0], wr + step / 2 * k1[1]))
        k3 = rhs(r + step / 2, (w + step / 2 * k2[0], wr + step / 2 * k2[1]))
        k4 = rhs(r + step, (w + step * k3[0], wr + step * k3[1]))
        w += step * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        wr += step * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        r += step
        rs[i + 1], ws[i + 1], wrs[i + 1] = r, w, wr
        if not (math.isfinite(w) and math.isfinite(wr)):
            raise NumericError(f"fixed-step integration left float range at r = {r:.6g}",
                               payload={"r": rs[: i + 2], "w": ws[: i + 2]})
    return rs, ws, wrs


def profile_residual(profile: RadialProfile) -> float:
    """Sup of the equation residual, with w'' recomputed by fourth-order
    central differences of the stored w' (independent of the integrator)."""
    r, w, w_r = profile.r, profile.w, profile.w_r
    h = profile.h
    p, n = profile.params.p, profile.params.n
    if r.size < 7:
        raise UsageError("profile mesh too short for the residual stencil")
    i = slice(2, -2)
    w_rr = (-w_r[4:] + 8.0 * w_r[3:-1] - 8.0 * w_r[1:-3] + w_r[:-4]) / (12.0 * h)
    res = (w_rr + ((n - 1.0) / r[i] - 0.5 * r[i]) * w_r[i]
           - w[i] / (p - 1.0) + np.abs(w[i]) ** (p - 1.0) * w[i])
    return float(np.abs(res).max())


def accepts_bounded_positive(profile: RadialProfile, r_max: float = 20.0,
                             band_factor: float = 10.0) -> bool:
    """w > 0 and |w| <= band on all of [0, r_max]."""
    if profile.r[-1] < r_max - 1e-9:
        return False
    band = band_factor * max(kappa(profile.params.p), profile.alpha)
    return bool(profile.w.min() > 0.0 and np.abs(profile.w).max() <= band)


@dataclass(frozen=True)
class Bracket:
    alpha_lo: float
    alpha_hi: float
    outcome_lo: str
    outcome_hi: str

    @property
    def width(self) -> float:
        return self.alpha_hi - self.alpha_lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.alpha_lo + self.alpha_hi)


@dataclass
class ScanResult:
    params: ProblemParams
    alphas: np.ndarray
    outcomes: list
    r_ends: np.ndarray
    brackets: list

    def rows(self):
        return [(float(a), o, float(re)) for a, o, re in
                zip(self.alphas, self.outcomes, self.r_ends)]


def scan_profiles(params: ProblemParams, alpha_lo: float, alpha_hi: float,
                  count: int = 33, spacing: str = "linear",
                  bisect_tol: float = 1e-8, **shoot_kw) -> ScanResult:
    """Classify count alphas, then bisect every consecutive outcome change
    down to width bisect_tol * max(1, alpha)."""
    if not (0.0 < alpha_lo < alpha_hi):
        raise DomainError("need 0 < alpha_lo < alpha_hi")
    if count < 2:
        raise UsageError("scan needs at least two points")
    if spacing == "linear":
        alphas = np.linspace(alpha_lo, alpha_hi, count)
    elif spacing == "log":
        alphas = np.geomspace(alpha_lo, alpha_hi, count)
    else:
        raise UsageError(f"unknown spacing {spacing!r}")

    cache: dict[float, RadialProfile] = {}

    def classify(a: float) -> RadialProfile:
        if a not in cache:
            cache[a] = shoot(a, params, **shoot_kw)
        return cache[a]

    outcomes = [classify(float(a)).outcome for a in alphas]
    r_ends = np.array([cache[float(a)].r_end for a in alphas])

    brackets = []
    for a, b, oa, ob in zip(alphas[:-1], alphas[1:], outcomes[:-1], outcomes[1:]):
        if oa == ob:
            continue
        lo, hi, olo, ohi = float(a), float(b), oa, ob
        while hi - lo > bisect_tol * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            om = classify(mid).outcome
            if om == olo:
                lo = mid
            else:
                hi, ohi = mid, om
        brackets.append(Bracket(lo, hi, olo, ohi))
    return ScanResult(params=params, alphas=alphas, outcomes=outcomes,
                      r_ends=r_ends, brackets=brackets)


def extended_profile(profile: RadialProfile, band_factor: float = 10.0):
    """(w_at, r_cut), where w_at(r) returns (w, w_r): cubic-Hermite inside the
    trusted radius, then the steady power tail r^(-2/(p-1)); values below r0
    use the series start.

    The tail keeps the far field positive and slowly varying so Gaussian-
    weighted functionals see no artifacts from the (weight ~ e^{-r^2/4})
    region beyond the trajectory's certified range.
    """
    p = profile.params.p
    r_cut = profile.trusted_radius(band_factor)
    mask = profile.r <= r_cut + 1e-12
    if mask.sum() < 4:
        raise UsageError("profile has no usable positive range to extend")
    spl = CubicHermiteSpline(profile.r[mask], profile.w[mask], profile.w_r[mask])
    dspl = spl.derivative()
    r_lo = float(profile.r[0])
    w_cut = float(spl(min(r_cut, profile.r[mask][-1])))
    gamma = -2.0 / (p - 1.0)
    alpha, c, d = profile.alpha, profile.meta.get("c", 0.0), profile.meta.get("d", 0.0)

    def w_at(r):
        r = np.asarray(r, dtype=float)
        w, w_r = np.empty_like(r), np.empty_like(r)
        lo = r < r_lo
        hi = r > r_cut
        mid = ~(lo | hi)
        w[lo] = alpha + c * r[lo] ** 2 + d * r[lo] ** 4
        w_r[lo] = 2.0 * c * r[lo] + 4.0 * d * r[lo] ** 3
        w[mid] = spl(r[mid])
        w_r[mid] = dspl(r[mid])
        w[hi] = w_cut * (r[hi] / r_cut) ** gamma
        w_r[hi] = w_cut * gamma / r_cut * (r[hi] / r_cut) ** (gamma - 1.0)
        return w, w_r

    return w_at, r_cut


def profile_field(profile: RadialProfile, grid: Grid) -> SampledField:
    """Sample an (extended) profile on a quadrature grid with analytic
    radial gradient, ready for the spectral checks."""
    return radial_field(grid, extended_profile(profile)[0])
