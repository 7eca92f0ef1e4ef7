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

One DOP853 integrator shoots: each alpha is a lane of one vectorised
integration that repeats scipy's solve_ivp arithmetic (tableau, step-size
control, event location on the dense interpolant by brentq), ending at its
first terminal event. A scan needs only each alpha's outcome and end radius,
and classify_lanes takes them for a whole list of alphas at once; a lane
that no event ends (the snap band below, or a shot still bounded at r_max,
whose tail test reads the mesh) gives None. shoot is one lane that keeps its
steps and evaluates their dense output on its mesh as solve_ivp's
OdeSolution does. Dense output is built once per batch of steps, on the
lanes' right-hand side; _rhs is rk4_shoot's and the tests' scipy
reference's. scan_profiles classifies its grid in one batch, and
bisects every bracket BISECT_DEPTH levels per batch, tree-exact: the
brackets are those of the sequential loop, and an alpha no event decides
goes through shoot() only if the grid or the walk reads it, as in that loop.

The constant branch is a separatrix: perturbations of the regular series
solution grow only like r^2, but the second, singular solution of the
linearized equation grows like e^{r^2/4}, so the rounding defect of kappa in
double precision (and the integrator's own tolerance noise) becomes O(1)
before r = 14. Within a machine-level band around kappa the branches cannot
be distinguished in floats; shoot() therefore snaps alpha inside that band to
the exact constant trajectory.

Profiles import no scipy: the DOP853 tableau, brentq and extended_profile's
Hermite spline (scipy's CubicHermiteSpline and PPoly evaluation, ported)
come from `_scipy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import repeat

import numpy as np

from . import _scipy
from .errors import DomainError, NumericError, UsageError
from .exponents import ProblemParams, kappa

OUTCOMES = (
    "converged-to-kappa-like-tail",
    "hit-zero",
    "blew-up",
    "reached-Rmax-bounded",
)

# relative half-width of the snap band around kappa (module docstring); a
# scan bisecting below it closes its brackets onto the band's two edges
SNAP_BAND = 1e-12


def in_snap_band(alpha: float, kap: float) -> bool:
    """True for alpha in the snap band, |alpha - kap| <= SNAP_BAND max(1, kap),
    where a shot is the constant trajectory kap."""
    return abs(alpha - kap) <= SNAP_BAND * max(1.0, kap)


# scipy's DOP853 step-size control, for the lane classifier; the tableau
# is _scipy.tableau()
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 8.0                       # -1 / (error estimator order + 1)
_EPS = float(np.finfo(float).eps)

# levels of the sequential bisection that one batch of lanes settles
BISECT_DEPTH = 5

# points of a shot's uniform mesh from its start radius to its end
MESH_POINTS = 4001

# a bounded shot's kappa-tail test: |w - kappa| <= TAIL_TOL max(1, kappa) and
# |w_r| <= TAIL_TOL over the last quarter of its mesh
TAIL_TOL = 1e-3

# a profile is trusted while 0 < w <= BAND_FACTOR max(kappa, alpha)
BAND_FACTOR = 10.0


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.

    Nothing in blowlab calls it: shoot runs on the lanes. It stays only as
    a name that perfbench's tracer wraps, until runs record their own
    counters (ROADMAP item 8)."""
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


def series_start(alpha: float, params: ProblemParams) -> tuple[float, float, float, float, float]:
    """(r0, w(r0), w'(r0), c, d) for the regular expansion at the origin;
    DomainError where they leave float range."""
    p, n = params.p, params.n
    q = _pow_or_inf(abs(alpha), p - 1.0)        # inf leaves r0 = 0, refused below
    c = (alpha / (p - 1.0) - q * alpha) / (2.0 * n)
    d = c * p * (1.0 / (p - 1.0) - q) / (4.0 * (n + 2.0))
    r0 = 1e-3
    if c != 0.0:
        r0 = min(r0, 0.03 * math.sqrt(abs(alpha / c)))
    if d != 0.0:
        r0 = min(r0, 0.03 * abs(alpha / d) ** 0.25)
    w0 = alpha + c * r0**2 + d * r0**4
    w0r = 2.0 * c * r0 + 4.0 * d * r0**3
    if not (r0 > 0.0 and math.isfinite(w0) and math.isfinite(w0r)):
        raise DomainError(f"the series start at alpha = {alpha!r}, p = {p!r} leaves float range")
    return r0, w0, w0r, c, d


def _rhs(params: ProblemParams, cap: float):
    """rhs(r, (w, w_r)) = (w_r, w_r'): rk4_shoot's; shooting runs on _rhs_lanes."""
    p, n = params.p, params.n
    soft = 10.0 * cap  # keep powers finite on rejected trial steps past the cap

    def rhs(r, z):
        # Python floats: cheaper than numpy scalars, and the same for the
        # ndarray solve_ivp passes and the tuple rk4_shoot passes
        w, wr = float(z[0]), float(z[1])
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

    def trusted_radius(self) -> float:
        """Largest r up to which w stays positive and below the acceptance band."""
        band = BAND_FACTOR * max(kappa(self.params.p), self.alpha)
        bad = np.nonzero((self.w <= 0.0) | (np.abs(self.w) > band))[0]
        if bad.size == 0:
            return float(self.r[-1])
        if bad[0] == 0:
            return float(self.r[0])
        return float(self.r[bad[0] - 1])


def _shot_start(alpha: float, params: ProblemParams, r_max: float, cap: float):
    """Check one shot's arguments and start it: (r0, w0, w0r, c, d, snapped)
    from series_start, with snapped true for alpha in the snap band (module
    docstring), whose trajectory is the constant kappa. shoot and the lanes
    both start here, so they refuse the same arguments."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"shooting needs alpha > 0, got {alpha!r}")
    if not cap > 0.0:
        raise UsageError(f"cap must be positive, got {cap}")
    r0, w0, w0r, c, d = series_start(alpha, params)
    if not r0 < r_max < math.inf:
        raise UsageError(f"r_max = {r_max} must be finite and exceed the start "
                         f"radius {r0}")
    return r0, w0, w0r, c, d, in_snap_band(alpha, kappa(params.p))


def shoot(alpha: float, params: ProblemParams, r_max: float = 20.0,
          rtol: float = 1e-10, atol: float = 1e-12,
          cap: float = 1e6) -> RadialProfile:
    """Integrate from the series start to the first terminal event (w crosses
    0 downward, or |w| crosses cap upward) and classify the shot by it; a
    shot that none ends is bounded up to r_max, and its tail on the mesh
    decides between the kappa-tail label and plain bounded. For alpha in the
    snap band (module docstring) the trajectory is the constant kappa."""
    r0, w0, w0r, c, d, snapped = _shot_start(alpha, params, r_max, cap)
    meta = {"r0": r0, "c": c, "d": d, "rtol": rtol, "atol": atol,
            "cap": cap, "r_max": r_max}
    if snapped:
        rr = np.linspace(r0, r_max, MESH_POINTS)
        return RadialProfile(
            params=params, alpha=alpha, r=rr, w=np.full(MESH_POINTS, alpha),
            w_r=np.zeros(MESH_POINTS), outcome="reached-Rmax-bounded",
            r_end=float(r_max), events={"zero_at": None, "cap_at": None},
            meta=meta | {"c": 0.0, "d": 0.0, "snapped_to_constant": True},
        )

    result, steps = [None], []
    _run_lanes(params, np.zeros(1, dtype=int), np.array([r0]), np.array([[w0, w0r]]),
               float(r_max), rtol, atol, cap, [alpha], result, steps)
    outcome, r_end = result[0] or (None, float(r_max))
    rr = np.linspace(r0, r_end, MESH_POINTS)
    w, w_r = _on_mesh(params, cap, steps, r_end, rr)
    if outcome is None:
        quarter = rr >= r0 + 0.75 * (r_end - r0)
        kap = kappa(params.p)
        near = (np.abs(w[quarter] - kap).max() <= TAIL_TOL * max(1.0, kap)
                and np.abs(w_r[quarter]).max() <= TAIL_TOL)
        # the constant trajectory itself (alpha = kappa) never moved, so it is
        # plain bounded; the kappa-tail label is reserved for trajectories
        # that actually travelled before settling
        moved = float(np.abs(w - kap).max()) > 10.0 * TAIL_TOL * max(1.0, kap)
        outcome = "converged-to-kappa-like-tail" if (near and moved) else "reached-Rmax-bounded"

    return RadialProfile(
        params=params, alpha=alpha, r=rr, w=w, w_r=w_r, outcome=outcome,
        r_end=r_end,
        events={"zero_at": r_end if outcome == "hit-zero" else None,
                "cap_at": r_end if outcome == "blew-up" else None},
        meta=meta,
    )


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e for x >= 0 per lane, with the C library's pow as Python floats
    and numpy scalars compute it (numpy's vectorised power can differ in the
    last bit); inf where the power overflows or divides by zero."""
    if e == 1.0:
        return x
    vals = x.tolist()
    try:
        return np.fromiter(map(math.pow, vals, repeat(e)), float, len(vals))
    except (OverflowError, ValueError):
        return np.array([_pow_or_inf(v, e) for v in vals])


def _pow_or_inf(v: float, e: float) -> float:
    try:
        return v ** e
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each lane's row of x, through the same ddot."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _rhs_lanes(params: ProblemParams, cap: float):
    """_rhs's expression on lanes, in two parts: drift(r) is the coefficient
    -((n-1)/r - r/2) of w_r, for radii of any shape, and rhs(drift_r, y, out)
    writes (w_r, w_r') for the lane states y (lanes, 2) into out."""
    p, n = params.p, params.n
    soft = 10.0 * cap

    def drift(r):
        return -((n - 1.0) / r - 0.5 * r)

    def rhs(drift_r, y, out):
        w, wr = y[:, 0], y[:, 1]
        out[:, 0] = wr
        out[:, 1] = drift_r * wr + w / (p - 1.0) - _pow(np.minimum(np.abs(w), soft), p - 1.0) * w

    return drift, rhs


def _initial_step(drift, rhs, t, y, f, t_bound, rtol, atol):
    """scipy's select_initial_step for DOP853 (error estimator order 7), per lane."""
    interval = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0 = _norms(y / scale) / 2 ** 0.5
    d1 = _norms(f / scale) / 2 ** 0.5
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, interval)
    f1 = np.empty_like(y)
    rhs(drift(t + h0), y + h0[:, None] * f, f1)
    d2 = _norms((f1 - f) / scale) / 2 ** 0.5 / h0
    tiny = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(tiny, np.maximum(1e-6, h0 * 1e-3),
                  _pow(0.01 / np.where(d2 > d1, d2, d1), 1.0 / 8.0))
    return np.minimum(np.minimum(100.0 * h0, h1), interval)


def _dense(drift, rhs, t_old, t_new, y_old, y_new, K):
    """scipy's DOP853 dense output F (steps, 7, 2) of a stack of accepted
    steps. K (steps, 16, 2) holds each step's 13 stages; the 3 extra stages
    go into its last rows, evaluated on the lanes' drift, rhs as scipy's
    _dense_output_impl evaluates them."""
    tab = _scipy.tableau()
    h = (t_new - t_old)[:, None]
    Kt = K.transpose(0, 2, 1)
    for s in range(tab.N_STAGES + 1, tab.N_STAGES_EXTENDED):
        dy = np.matmul(Kt[:, :, :s], tab.A[s, :s])
        dy *= h
        dy += y_old
        rhs(drift(t_old + tab.C[s] * h[:, 0]), dy, K[:, s])
    delta = y_new - y_old
    F = np.empty((t_old.size, tab.INTERPOLATOR_POWER, 2))
    F[:, 0] = delta
    F[:, 1] = h * K[:, 0] - delta
    F[:, 2] = 2 * delta - h * (K[:, tab.N_STAGES] + K[:, 0])
    F[:, 3:] = h[:, :, None] * np.matmul(tab.D, K)
    return F


def _dense_sum(F, x):
    """Dop853DenseOutput's alternating sum over the rows of F, last row
    first, at x = (r - t_old) / h, before y_old is added: on Python floats
    for an event's root search, or on arrays for a mesh."""
    y = 0.0
    for i, f in enumerate(reversed(F)):
        y = (y + f) * (x if i % 2 == 0 else 1 - x)
    return y


def _first_event(F, t_old, t_new, w_old, cap, zero, up):
    """(outcome, radius) of the terminal event in one lane's accepted step,
    located on the step's dense output F by _scipy.brentq (xtol = rtol =
    4 eps) as solve_ivp locates it; the earlier root wins, hit-zero on a tie,
    as solve_ivp's first terminal event does."""
    coeffs, h = F[:, 0].tolist(), t_new - t_old

    def w_at(t):
        return _dense_sum(coeffs, (t - t_old) / h) + w_old

    tol = 4 * _EPS
    tests = [(w_at, "hit-zero", zero), (lambda t: abs(w_at(t)) - cap, "blew-up", up)]
    roots = [(_scipy.brentq(g, t_old, t_new, tol, tol), outcome)
             for g, outcome, on in tests if on]
    r, outcome = min(roots, key=lambda root: root[0])
    return outcome, float(r)


def _on_mesh(params, cap, steps, r_end, rr):
    """(w, w_r) at the ascending radii rr from one lane's steps, as solve_ivp's
    OdeSolution evaluates its dense output: point r takes segment
    searchsorted(ts, r, side="left") - 1 of ts = (step starts, r_end), held
    in range, and that segment's Dop853DenseOutput sum."""
    t_old, t_new, y_old, y_new, K = (np.array(x) for x in zip(*steps))
    seg = np.clip(np.searchsorted(np.append(t_old, r_end), rr, side="left") - 1,
                  0, len(steps) - 1)
    F = _dense(*_rhs_lanes(params, cap), t_old, t_new, y_old, y_new, K)
    x = ((rr - t_old[seg]) / (t_new - t_old)[seg])[:, None]
    y = _dense_sum(F[seg].transpose(1, 0, 2), x) + y_old[seg]
    return y[:, 0].copy(), y[:, 1].copy()


def classify_lanes(alphas, params: ProblemParams, r_max: float = 20.0,
                   rtol: float = 1e-10, atol: float = 1e-12,
                   cap: float = 1e6) -> list[tuple[str, float] | None]:
    """shoot(alpha, params, ...)'s (outcome, r_end) for every alpha that a
    terminal event decides, from one batch; None for the others (the snap
    band, or a shot that reaches r_max), whose outcome needs shoot()'s mesh.

    Each alpha is a lane with its own r, (w, w_r), step size and rejected-step
    flag; one vectorised DOP853 step per iteration advances every lane. The
    tableau, initial step, error norm and step-size control are scipy's, with
    the same arithmetic, so a lane takes solve_ivp's steps. A lane ends on
    the first accepted step where w crosses 0 downward or |w| crosses cap
    upward, located on that step's dense interpolant.
    """
    alphas = [float(a) for a in alphas]
    results: list = [None] * len(alphas)
    lanes, starts = [], []
    for i, alpha in enumerate(alphas):
        r0, w0, w0r, _, _, snapped = _shot_start(alpha, params, r_max, cap)
        if not snapped:
            lanes.append(i)
            starts.append((r0, w0, w0r))
    if lanes:
        start = np.array(starts)
        _run_lanes(params, np.array(lanes), start[:, 0], start[:, 1:], float(r_max),
                   rtol, atol, cap, alphas, results)
    return results


def _step(drift, rhs, t, y, f, h_abs, rejected, t_bound, rtol, atol):
    """One DOP853 step attempt per lane, one pass of scipy's
    RungeKutta._step_impl loop, with the coefficients of _scipy.tableau().
    h_abs is the step size to try (already held at or above the minimum
    step) and rejected flags the lanes whose last attempt failed. Returns
    (t_new, y_new, K, ok, h_next): K holds the stages as (lane, stage,
    component), ok the lanes whose attempt is accepted, h_next the step size
    each lane tries next."""
    t_new = np.minimum(t + h_abs, t_bound)
    h = t_new - t
    h_abs = np.abs(h)

    # each lane's K is laid out as scipy's, so matmul runs scipy's np.dot
    # on it lane by lane
    tab = _scipy.tableau()
    ns = tab.N_STAGES
    K = np.empty((t.size, tab.N_STAGES_EXTENDED, 2))
    Kt = K.transpose(0, 2, 1)
    K[:, 0] = f
    drift_r = drift(t + tab.C[:ns + 1, None] * h)    # C[12] = 1: r = t + h
    h2 = h[:, None]
    for s in range(1, ns):
        dy = np.matmul(Kt[:, :, :s], tab.A[s, :s])
        dy *= h2
        dy += y
        rhs(drift_r[s], dy, K[:, s])
    y_new = y + h2 * np.matmul(Kt[:, :, :ns], tab.B)
    rhs(drift_r[ns], y_new, K[:, ns])

    # scipy's DOP853 error norm and step-size factor
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    e5 = _pow(_norms(np.matmul(Kt[:, :, :ns + 1], tab.E5) / scale), 2.0)
    e3 = _pow(_norms(np.matmul(Kt[:, :, :ns + 1], tab.E3) / scale), 2.0)
    err = np.where((e5 == 0.0) & (e3 == 0.0), 0.0,
                   h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * 2))
    ok = err < 1.0
    factor = _SAFETY * _pow(err, _ERR_EXP)
    grow = np.where(err == 0.0, _MAX_FACTOR,
                    np.where(factor < _MAX_FACTOR, factor, _MAX_FACTOR))
    grow = np.where(rejected & ~(grow < 1.0), 1.0, grow)
    shrink = np.where(factor > _MIN_FACTOR, factor, _MIN_FACTOR)
    return t_new, y_new, K, ok, h_abs * np.where(ok, grow, shrink)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_lanes(params, idx, t, y, t_bound, rtol, atol, cap, alphas, results, steps=None):
    """Integrate lanes idx from radii t and states y (lanes, 2) to their first
    terminal event, writing (outcome, r_end) into results; a lane that
    reaches t_bound without one leaves its result alone. steps, for a single
    lane, receives (t_old, t_new, y_old, y_new, K) for each accepted step."""
    if atol < 0.0:
        raise UsageError("atol must not be negative")
    rtol = max(rtol, 100 * _EPS)                # solve_ivp's floor
    drift, rhs = _rhs_lanes(params, cap)
    ns = _scipy.tableau().N_STAGES
    f = np.empty_like(y)
    rhs(drift(t), y, f)
    h_abs = _initial_step(drift, rhs, t, y, f, t_bound, rtol, atol)
    g_zero, g_cap = y[:, 0], np.abs(y[:, 0]) - cap
    rejected = np.zeros(idx.size, dtype=bool)
    while idx.size:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~rejected & (h_abs < min_step), min_step, h_abs)
        # a nan step size is too small as well: it would be retried forever
        small = rejected & ~(h_abs >= min_step)
        if small.any():
            j = int(np.argmax(small))
            raise NumericError(
                f"integration failed at r = {t[j]:.6g}: required step size is "
                "less than spacing between numbers",
                payload={"alpha": alphas[idx[j]], "r": float(t[j])})
        t_new, y_new, K, ok, h_abs = _step(drift, rhs, t, y, f, h_abs, rejected,
                                           t_bound, rtol, atol)
        rejected = ~ok
        if steps is not None and ok[0]:
            steps.append((t[0], t_new[0], y[0], y_new[0], K[0]))

        # terminal events on accepted steps, by solve_ivp's sign tests
        gz_new = np.where(ok, y_new[:, 0], g_zero)
        gc_new = np.where(ok, np.abs(y_new[:, 0]) - cap, g_cap)
        zero = ok & (g_zero >= 0.0) & (gz_new <= 0.0)
        up = ok & (g_cap <= 0.0) & (gc_new >= 0.0)
        fired = zero | up
        if fired.any():
            F = _dense(drift, rhs, t[fired], t_new[fired], y[fired], y_new[fired], K[fired])
            for j, F_j in zip(np.flatnonzero(fired).tolist(), F):
                results[idx[j]] = _first_event(F_j, float(t[j]), float(t_new[j]),
                                               float(y[j, 0]), cap, zero[j], up[j])
        reached = ok & ~fired & (t_new >= t_bound)

        t = np.where(ok, t_new, t)
        y = np.where(ok[:, None], y_new, y)
        f = np.where(ok[:, None], K[:, ns], f)
        g_zero, g_cap = gz_new, gc_new
        keep = ~(fired | reached)
        if not keep.all():
            idx, t, y, f, h_abs, rejected, g_zero, g_cap = (
                x[keep] for x in (idx, t, y, f, h_abs, rejected, g_zero, g_cap))


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


def accepts_bounded_positive(profile: RadialProfile, r_max: float = 20.0) -> bool:
    """w > 0 and |w| <= band on all of [0, r_max]."""
    if profile.r[-1] < r_max - 1e-9:
        return False
    band = BAND_FACTOR * max(kappa(profile.params.p), profile.alpha)
    return bool(profile.w.min() > 0.0 and np.abs(profile.w).max() <= band)


@dataclass(frozen=True)
class Bracket:
    """One outcome change of a scan, refined; its fields, in order, are the
    columns of brackets.csv."""

    alpha_lo: float
    alpha_hi: float
    outcome_lo: str
    outcome_hi: str
    width: float = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "width", self.alpha_hi - self.alpha_lo)


@dataclass
class ScanResult:
    alphas: np.ndarray
    outcomes: list
    r_ends: np.ndarray
    brackets: list


def bracket_splits(lo: float, hi: float, tol: float) -> bool:
    """Whether bisection splits the bracket [lo, hi] again: it is wider than
    tol max(1, |hi|) and, as rounding allows, its midpoint lies strictly inside."""
    return hi - lo > tol * max(1.0, abs(hi)) and lo < 0.5 * (lo + hi) < hi


def scan_profiles(params: ProblemParams, alpha_lo: float, alpha_hi: float,
                  count: int = 33, spacing: str = "linear",
                  bisect_tol: float = 1e-8, **shoot_kw) -> ScanResult:
    """Classify count alphas, then bisect every consecutive outcome change
    until bracket_splits(lo, hi, bisect_tol) closes it.

    The grid is one batch of lanes. Bisection is the sequential loop's, run
    BISECT_DEPTH levels per batch: each round classifies, for every open
    bracket, every midpoint the loop could visit in its next BISECT_DEPTH
    steps, then walks those steps. An alpha no event decides goes to shoot()
    when the grid or the walk reads its outcome, so shoot() runs for the
    alphas it ran for in the sequential loop, in the same order. The brackets
    are bitwise that loop's. shoot_kw reaches both shoot() and the lanes.
    """
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

    cache: dict[float, tuple[str, float] | None] = {}

    def classify(batch: list[float]) -> None:
        todo = list(dict.fromkeys(a for a in batch if a not in cache))
        if todo:
            cache.update(zip(todo, classify_lanes(todo, params, **shoot_kw)))

    def outcome(alpha: float) -> str:
        # an alpha no event decided goes to shoot() only when its outcome is
        # read, as in the sequential loop
        if cache[alpha] is None:
            prof = shoot(alpha, params, **shoot_kw)
            cache[alpha] = (prof.outcome, prof.r_end)
        return cache[alpha][0]

    def midpoints(lo: float, hi: float, depth: int) -> list[float]:
        if depth == 0 or not bracket_splits(lo, hi, bisect_tol):
            return []
        mid = 0.5 * (lo + hi)
        return [mid] + midpoints(lo, mid, depth - 1) + midpoints(mid, hi, depth - 1)

    grid = alphas.tolist()
    classify(grid)
    outcomes = [outcome(a) for a in grid]
    r_ends = np.array([cache[a][1] for a in grid])

    # [lo, hi, outcome_lo, outcome_hi] per outcome change, in grid order
    brackets = [[lo, hi, olo, ohi] for lo, hi, olo, ohi in
                zip(grid[:-1], grid[1:], outcomes[:-1], outcomes[1:]) if olo != ohi]
    active = [b for b in brackets if bracket_splits(b[0], b[1], bisect_tol)]
    while active:
        classify([m for b in active for m in midpoints(b[0], b[1], BISECT_DEPTH)])
        for b in active:
            for _ in range(BISECT_DEPTH):
                if not bracket_splits(b[0], b[1], bisect_tol):
                    break
                mid = 0.5 * (b[0] + b[1])
                om = outcome(mid)
                if om == b[2]:
                    b[0] = mid
                else:
                    b[1], b[3] = mid, om
        active = [b for b in active if bracket_splits(b[0], b[1], bisect_tol)]
    return ScanResult(alphas=alphas, outcomes=outcomes,
                      r_ends=r_ends, brackets=[Bracket(*b) for b in brackets])


def extended_profile(profile: RadialProfile):
    """(w_at, r_cut), where w_at(r) returns (w, w_r): cubic-Hermite inside the
    trusted radius (bitwise scipy's CubicHermiteSpline and its derivative),
    then the steady power tail r^(-2/(p-1)); values below r0 use the series
    start.

    The tail keeps the far field positive and slowly varying so Gaussian-
    weighted functionals see no artifacts from the (weight ~ e^{-r^2/4})
    region beyond the trajectory's certified range.
    """
    p = profile.params.p
    r_cut = profile.trusted_radius()
    mask = profile.r <= r_cut + 1e-12
    if mask.sum() < 4:
        raise UsageError("profile has no usable positive range to extend")
    alpha, c, d = profile.alpha, profile.meta.get("c", 0.0), profile.meta.get("d", 0.0)
    knots = profile.r[mask]
    spl = _scipy.hermite(knots, profile.w[mask], profile.w_r[mask])
    dspl = _scipy.derivative(spl)
    w_cut = float(_scipy.evaluate(spl, knots, min(r_cut, knots[-1]), 0))
    r_lo = float(profile.r[0])
    gamma = -2.0 / (p - 1.0)

    def w_at(r):
        r = np.asarray(r, dtype=float)
        w, w_r = np.empty_like(r), np.empty_like(r)
        lo = r < r_lo
        hi = r > r_cut
        mid = ~(lo | hi)
        w[lo] = alpha + c * r[lo] ** 2 + d * r[lo] ** 4
        w_r[lo] = 2.0 * c * r[lo] + 4.0 * d * r[lo] ** 3
        w[mid] = _scipy.evaluate(spl, knots, r[mid], 0)
        w_r[mid] = _scipy.evaluate(dspl, knots, r[mid], 0)
        w[hi] = w_cut * (r[hi] / r_cut) ** gamma
        w_r[hi] = w_cut * gamma / r_cut * (r[hi] / r_cut) ** (gamma - 1.0)
        return w, w_r

    return w_at, r_cut
