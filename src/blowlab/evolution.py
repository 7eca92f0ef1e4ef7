"""Time evolution in both frames.

Physical frame: u_t = u_xx + |u|^(p-1) u on an interval (Dirichlet) or a ball
(radial, Dirichlet at r = R), by Strang splitting with the reaction substep
solved exactly,

    u(dt) = u0 (1 - (p-1) dt |u0|^(p-1))^(-1/(p-1)),

and Crank-Nicolson diffusion. The step policy dt = theta (max|u|)^(1-p)
follows the blow-up so the run reaches any cap in O(log) steps. A step
allocates no mesh-sized array: the state alternates between two buffers and
the reaction is written into them with out= ufuncs. One routine,
`_crank_nicolson`, takes the diffusion half: it computes r = dt/(2 h^2) and,
on the ball, the curvature coefficient once, writes the right-hand side into
the spare state buffer and the left matrix into one (3, m) band array per
run, and hands both to solve_banded (LAPACK dgtsv) to overwrite. The solve
makes no finite check; the loop tests max|u| for finiteness before every
step, so a nan or inf state ends the run as a NumericError.

Rescaled frame: w(y, s) with y = (x-a)/sqrt(T-t), s = -log(T-t),
w = (T-t)^(1/(p-1)) u, solving

    w_s = w_yy - (y/2) w_y - w/(p-1) + |w|^(p-1) w

by a semi-implicit step (linear part implicit, nonlinearity explicit) that
keeps the constants 0 and kappa fixed to solver roundoff. The step matrix is
tridiagonal and fixed, so it is LU-factored once and each step is one O(m)
solve. The stable-mode initial state comes from shift-invert inverse
iteration on the same tridiagonal operator (O(m) per iteration); dense
eigensolvers of `linearized_matrix` serve only as the tests' oracle. No
diagonal similarity makes the operator symmetric in general: on the ball
with n >= 4, and on coarse interval meshes with a wide domain, some product
of opposite off-diagonals is negative.

The weighted energy with rho = (4 pi)^(-n/2) exp(-|y|^2/4) (unit mass),

    E(w) = int [ |grad w|^2 / 2 + w^2 / (2(p-1)) - |w|^(p+1)/(p+1) ] rho dy,

decreases along the rescaled flow with dissipation rate int |w_s|^2 rho dy.
`energy` takes one state (m,) or a stack of states (k, m); it reduces along
the last axis, so each row of a stack gets bitwise its single-state energy.

`RescaledFlow.run` takes its steps one at a time into a block of up to
_BLOCK states and then does the per-state bookkeeping for the whole block
in one vectorised pass: the finite-and-below-cap test, one `energy` call on
the stack, sup |w - kappa| and the dissipation rates, whose centred
differences in s reach two states back into the previous block. The run
stops where a per-step check would: at the first state that is non-finite,
past the cap or of non-finite energy, which is dropped; the block's later
steps are discarded. The run keeps its last state and four per-state
series (s, energy, sup |w - kappa|, rate), filled in place, not its states:
its memory is O(_BLOCK m) plus 32 bytes a step, whatever s_end asks for.

Both frames discretize the Laplacian with the same three-point stencil:
d^2/dx^2 on the interval, d^2/dr^2 + (n-1)/r d/dr with the smooth origin row
n d^2/dr^2 on the ball. The rescaled frame builds its matrix once from
`_laplacian_bands` and adds its drift and mass terms on top; the physical
frame's `_crank_nicolson` writes both its halves every step from dt. They
stay separate: building that Laplacian once per run and scaling it by dt/2
each step rounds differently, and moved `theorem13 m=40001`'s T_est by
9.5e-12 relative and its window sup_dev by 3.8e-10, beyond replay's 1e-12.
The mesh density rho (`gaussian_density`) and the dissipation rate
(`RescaledFlow._dissipation`) exist once each.

Importing this module loads no scipy, and both frames load scipy.linalg
only: it comes in with the first banded solve (`solve_banded`, LAPACK dgtsv
called directly), the first snapshot spline (whose slopes are one dgtsv
solve) or the first tridiagonal factorisation (`_tridiagonal_solver`, once
per RescaledFlow or stable-mode iteration, not per step). The snapshot
rescaling's not-a-knot spline (blowlab._cubic) and the blow-up fit's
bounded minimisation (`_fminbound`) are scipy.interpolate's CubicSpline and
scipy.optimize's bounded Brent search, ported operation for operation, so
every result is bitwise scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _cubic
from .calculus import SampledField
from .errors import DomainError, NumericError, UsageError
from .exponents import ProblemParams, kappa
from .quadrature import sphere_area


@dataclass(frozen=True)
class EnergyValue:
    """Energy parts: floats for one state, (k,) arrays for a (k, m) stack."""

    total: float | np.ndarray
    dirichlet: float | np.ndarray
    quadratic: float | np.ndarray
    potential: float | np.ndarray


def _energy_parts(values, grad_sq, weights, norm, p) -> EnergyValue:
    d = 0.5 * float(np.dot(weights, grad_sq)) * norm
    q = float(np.dot(weights, values**2)) / (2.0 * (p - 1.0)) * norm
    pot = float(np.dot(weights, np.abs(values) ** (p + 1.0))) / (p + 1.0) * norm
    return EnergyValue(total=d + q - pot, dirichlet=d, quadratic=q, potential=pot)


def gaussian_density(y: np.ndarray, geometry: str, n: int) -> np.ndarray:
    """The unit-mass Gaussian rho on the mesh y, with the radial measure
    folded in on the ball, so trapezoid sums over y integrate against rho."""
    if geometry == "interval":
        return (4.0 * math.pi) ** (-0.5) * np.exp(-y * y / 4.0)
    if geometry == "ball":
        return ((4.0 * math.pi) ** (-n / 2.0) * np.exp(-y * y / 4.0)
                * sphere_area(n) * np.maximum(y, 0.0) ** (n - 1))
    raise UsageError(f"unknown geometry {geometry!r}")


def energy(w, params: ProblemParams, y: np.ndarray | None = None,
           geometry: str = "interval") -> EnergyValue:
    """Weighted energy of a rescaled state.

    Accepts a SampledField (quadrature grid; exact for the polynomial part)
    or mesh values with the mesh y: one state (m,), giving float parts, or a
    stack of states (k, m), giving (k,) arrays whose rows are bitwise the
    energies of the single rows. Mesh integrals use the trapezoid rule
    against the normalized Gaussian; constants are then only as exact as
    the truncated tail, so checks at 1e-10 should use fields.
    """
    p = params.p
    if isinstance(w, SampledField):
        norm = (4.0 * math.pi) ** (-w.grid.n / 2.0)
        return _energy_parts(w.values, w.grad_sq(), w.grid.weights, norm, p)
    if y is None:
        raise UsageError("mesh energy needs the mesh")
    w = np.ascontiguousarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != y.size:
        raise UsageError(f"mesh values of shape {w.shape} do not match the mesh "
                         f"({y.size},)")
    # every reduction runs along the last axis of a C-contiguous array, where
    # numpy's pairwise sum works row by row
    grad = np.gradient(w, y[1] - y[0], axis=-1, edge_order=2)
    dens = gaussian_density(y, geometry, params.n)
    d = np.trapezoid(0.5 * grad**2 * dens, y, axis=-1)
    q = np.trapezoid(w * w / (2.0 * (p - 1.0)) * dens, y, axis=-1)
    pot = np.trapezoid(np.abs(w) ** (p + 1.0) / (p + 1.0) * dens, y, axis=-1)
    if w.ndim == 1:
        d, q, pot = float(d), float(q), float(pot)
    return EnergyValue(total=d + q - pot, dirichlet=d, quadratic=q, potential=pot)


def exact_energy_kappa(params: ProblemParams) -> float:
    """E(kappa) = (1/2 - 1/(p+1)) kappa^(p+1)."""
    p = params.p
    return (0.5 - 1.0 / (p + 1.0)) * kappa(p) ** (p + 1.0)


def rescale_to_similarity(u: np.ndarray, x: np.ndarray, t: float, T: float,
                          a: float, y_out: np.ndarray,
                          params: ProblemParams
                          ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(w, w_y on y_out, s, validity mask) for w(y) = (T-t)^(1/(p-1)) u(a + sqrt(T-t) y),
    from the not-a-knot cubic spline of u (bitwise scipy's CubicSpline).
    Outside the sampled x-range w and w_y are nan."""
    if not T > t:
        raise UsageError(f"need T > t, got T = {T}, t = {t}")
    lam = math.sqrt(T - t)
    scale = (T - t) ** (1.0 / (params.p - 1.0))
    xt = a + lam * np.asarray(y_out)
    mask = (xt >= x[0]) & (xt <= x[-1])
    c = _cubic.not_a_knot(x, u)
    w = np.full(xt.shape, np.nan)
    w_y = np.full(xt.shape, np.nan)
    xm = xt[mask]
    w[mask] = scale * _cubic.evaluate(c, x, xm, 0)
    w_y[mask] = (scale * lam) * _cubic.evaluate(c, x, xm, 1)
    return w, w_y, -math.log(T - t), mask


# ---------------------------------------------------------------------------
# rescaled frame


def _laplacian_bands(x: np.ndarray, c: float, geometry: str,
                     n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c times the (lower, main, upper) diagonals of the discrete Laplacian on
    the uniform mesh x: d^2/dx^2 on the interval; d^2/dr^2 + (n-1)/r d/dr on
    the ball, whose origin row is the smooth limit n d^2/dr^2. Boundary rows
    are the caller's."""
    m = x.size
    h = x[1] - x[0]
    r = c / (h * h)
    lo = np.full(m, r)
    di = np.full(m, -2.0 * r)
    up = np.full(m, r)
    if geometry == "ball":
        curv = c * (n - 1.0) / (x[1:] * 2.0 * h)
        lo[1:] -= curv
        up[1:] += curv
        lo[0], di[0], up[0] = 0.0, -2.0 * n * r, 2.0 * n * r
    return lo, di, up


def _rescaled_banded(y: np.ndarray, params: ProblemParams, ds: float,
                     geometry: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I - ds A) with A = Lap - (y/2) d/dy - 1/(p-1), Neumann walls, as
    LAPACK's tridiagonal (dl, d, du): sub-, main and super-diagonal. The
    drift vanishes on the ball's origin row, where y = 0."""
    h = y[1] - y[0]
    lo, di, up = _laplacian_bands(y, ds, geometry, params.n)
    drift = ds * (-y / 2.0) / (2.0 * h)
    lo -= drift
    up += drift
    di -= ds / (params.p - 1.0)
    if geometry != "ball":
        up[0] += lo[0]
        lo[0] = 0.0
    lo[-1] += up[-1]
    up[-1] = 0.0
    return -lo[1:], 1.0 - di, -up[:-1]


def solve_banded(l_and_u, ab, b):
    """scipy.linalg.solve_banded(l_and_u, ab, b, overwrite_ab=True,
    overwrite_b=True, check_finite=False) for l_and_u = (1, 1): LAPACK dgtsv
    on ab's three rows and b in place, as scipy's (1, 1) branch calls it,
    without the wrapper's validation. A singular matrix raises NumericError.

    A module-level name so that perfbench's tracer can wrap the physical
    frame's banded solves and read (l_and_u, ab, b) from their positional
    arguments; the name stays until runs record their own counters (ROADMAP
    item 8)."""
    if tuple(l_and_u) != (1, 1):
        raise UsageError(f"only tridiagonal bands (1, 1) are solved, got {l_and_u}")
    return _cubic.gtsv(ab[2, :-1], ab[1], ab[0, 1:], b)


def _tridiagonal_solver(dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """solve(b) for a tridiagonal matrix, from its LU factors by LAPACK
    ?gttrf (partial pivoting); an exactly singular matrix raises. solve runs
    ?gttrs, which does the arithmetic of ?gtsv (which solve_banded calls for
    (1, 1) bands), so its result is bitwise that of solve_banded; b is
    overwritten."""
    from scipy.linalg.lapack import dgttrf, dgttrs
    *lu, info = dgttrf(dl, d, du)
    if info > 0:
        raise NumericError(f"tridiagonal factorisation hit a zero pivot in row {info}",
                           payload={"row": int(info)})

    def solve(b: np.ndarray) -> np.ndarray:
        return dgttrs(*lu, b, overwrite_b=1)[0]

    return solve


# states per bookkeeping block of RescaledFlow.run. A block's temporaries
# (about 150 KB each at m = 801) are small enough for the allocator to reuse
# from block to block; 256-state ones (1.6 MB) go back to the OS and are
# faulted in again every block, ~25k minor faults per evolve-rescaled run
_BLOCK = 24


@dataclass
class RescaledRun:
    ds: float
    s_values: np.ndarray
    energies: np.ndarray
    sup_dev: np.ndarray          # sup |w - kappa| per state
    rates: np.ndarray            # int |w_s|^2 rho dy per state
    final: np.ndarray            # the last state
    status: str                  # 'completed' | 'blew-up'
    events: dict = dc_field(default_factory=dict)


class RescaledFlow:
    """Semi-implicit integrator for the rescaled equation on [-L, L] (interval,
    Neumann) or [0, L] (ball, Neumann)."""

    def __init__(self, params: ProblemParams, L: float = 8.0, m: int = 801,
                 ds: float = 1e-2, geometry: str = "interval", cap: float = 1e6):
        if not 8.0 <= L < math.inf:
            raise UsageError(f"domain half-width must be finite and >= 8, got {L}")
        if geometry not in ("interval", "ball"):
            raise UsageError(f"unknown geometry {geometry!r}")
        if not (0.0 < ds < math.inf) or m < 9:
            raise UsageError("need ds > 0 and a reasonable mesh")
        if not cap > 0.0:
            raise UsageError(f"cap must be positive, got {cap}")
        self.params = params
        self.geometry = geometry
        self.cap = cap
        self.ds = ds
        self.y = np.linspace(-L, L, m) if geometry == "interval" else np.linspace(0.0, L, m)
        self._dens = gaussian_density(self.y, geometry, params.n)
        # the step matrix never changes: factor it once, solve every step
        self._solve = _tridiagonal_solver(*_rescaled_banded(self.y, params, ds, geometry))

    def step(self, w: np.ndarray) -> np.ndarray:
        p = self.params.p
        rhs = w + self.ds * np.abs(w) ** (p - 1.0) * w
        return self._solve(rhs)

    def _dissipation(self, hi: np.ndarray, lo: np.ndarray, dt: float) -> np.ndarray:
        """int |w_s|^2 rho dy for each row of w_s = (hi - lo) / dt, a stack of
        state differences; w_s is divided, squared and weighted in place."""
        ws = hi - lo
        ws /= dt
        ws *= ws
        ws *= self._dens
        return np.trapezoid(ws, self.y, axis=1)

    # numpy's overflow warnings on the way to a blow-up would only leak to
    # the caller; the run ends there as blew-up
    @np.errstate(over="ignore", invalid="ignore")
    def run(self, w0: np.ndarray, s_end: float) -> RescaledRun:
        """Step from the state w0 on the mesh y to s_end, one step at a time.
        The stop test, the energies, sup |w - kappa| and the dissipation rates
        are evaluated per block of up to _BLOCK states. The run ends as
        blew-up at the first state that is non-finite, past the cap or of
        non-finite energy, which is dropped with the block's later steps."""
        w = np.asarray(w0, dtype=float)
        if w.shape != self.y.shape:
            raise UsageError("initial state does not match the mesh")
        if not math.isfinite(s_end):
            raise UsageError(f"s_end must be finite, got {s_end}")
        kap = kappa(self.params.p)
        nsteps = max(int(round(s_end / self.ds)), 0)     # s_end < 0 takes no step
        e0 = energy(w, self.params, self.y, self.geometry).total
        if not math.isfinite(e0):
            raise NumericError("initial state has non-finite energy",
                               payload={"energy": e0})
        # the four per-state series, filled in place. They get room for every
        # step asked for, but up front no more than one block of states takes
        # (_BLOCK m / 4 steps); past that the room doubles as the run needs
        # it, so a run that blows up early holds none for the steps it skips
        series = np.empty((4, min(nsteps, _BLOCK * w.size // 4) + 1))
        s_vals, energies, sup_dev, rates = series
        s_vals[0], energies[0], sup_dev[0] = 0.0, e0, np.abs(w - kap).max()
        stack = w[None, :].copy()               # the latest states, oldest first
        status = "completed"
        events = {}
        count = 1                               # states kept
        while count <= nsteps:
            k = min(_BLOCK, nsteps + 1 - count)
            block = np.empty((k, w.size))
            for j in range(k):
                w = self.step(w)
                block[j] = w
            amax = np.abs(block).max(axis=1)
            ok = np.isfinite(amax) & (amax <= self.cap)
            good = k if ok.all() else int(ok.argmin())
            e = energy(block[:good], self.params, self.y, self.geometry).total
            if not np.isfinite(e).all():
                good = int(np.isfinite(e).argmin())
            end = count + good
            if end > series.shape[1]:
                grown = np.empty((4, min(2 * series.shape[1], nsteps + 1)))
                grown[:, :count] = series[:, :count]
                series = grown
                s_vals, energies, sup_dev, rates = series
            s_vals[count:end] = np.arange(count, end) * self.ds
            energies[count:end] = e[:good]
            sup_dev[count:end] = np.abs(block[:good] - kap).max(axis=1)
            # w_s as np.gradient takes it over all states: one-sided at the
            # ends, centred inside, with two states of the previous block
            stack = np.concatenate((stack[-2:], block[:good]))
            if count == 1 and good:
                rates[0] = self._dissipation(stack[1:2], stack[:1], self.ds)[0]
            rates[max(count - 1, 1):end - 1] = self._dissipation(stack[2:], stack[:-2],
                                                                 2.0 * self.ds)
            count = end
            if good < k:
                status = "blew-up"
                events["cap_at_s"] = count * self.ds
                break
        # fewer than 3 states have no centred difference: their rates are 0
        if count >= 3:
            rates[count - 1] = self._dissipation(stack[-1:], stack[-2:-1], self.ds)[0]
        else:
            rates[:count] = 0.0
        return RescaledRun(
            ds=self.ds, s_values=s_vals[:count], energies=energies[:count],
            sup_dev=sup_dev[:count], rates=rates[:count], final=stack[-1].copy(),
            status=status, events=events,
        )


def _linearized_tridiagonal(y: np.ndarray, params: ProblemParams,
                            geometry: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dl, d, du) of Lap - (y/2) d/dy - 1/(p-1) + p kappa^(p-1), the flow
    linearized about the constant profile, with the stepper's stencils."""
    dl, d, du = _rescaled_banded(y, params, 1.0, geometry)
    gain = params.p * kappa(params.p) ** (params.p - 1.0)
    return -dl, (1.0 - d) + gain, -du


def linearized_matrix(y: np.ndarray, params: ProblemParams,
                      geometry: str = "interval") -> np.ndarray:
    """The linearized operator of `_linearized_tridiagonal` as a dense
    matrix, for dense eigensolvers (the tests' oracle for the stable mode)."""
    dl, d, du = _linearized_tridiagonal(np.asarray(y, dtype=float), params, geometry)
    return np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


# decay rate of the stable mode: the first linearized mode below the constant
STABLE_MODE_RATE = -1.0


def stable_mode_state(y: np.ndarray, params: ProblemParams, amp: float,
                      geometry: str = "interval") -> np.ndarray:
    """kappa plus amp times the discrete linearized eigenmode whose decay rate
    is closest to STABLE_MODE_RATE.

    Shift-invert inverse iteration in O(m) per step: L - STABLE_MODE_RATE I
    is factored once, then solved from a fixed generic start until the Rayleigh
    quotient mu and the max-normalized iterate v satisfy

        ||L v - mu v||_inf <= 1e-14 (||L||_inf + |mu|).

    The bound scales with ||L||_inf ~ 1/h^2 because that sets the residual
    floor of a backward-stable solve (about 1e-8 on a 40001-point ball mesh).
    A zero pivot, or no convergence within 100 iterations (a complex pair
    nearest that rate, as on very coarse meshes), raises NumericError. The
    mode is scaled to max |v| = 1 with v >= 0 at the point nearest y = 0.
    """
    y = np.asarray(y, dtype=float)
    dl, d, du = _linearized_tridiagonal(y, params, geometry)
    solve = _tridiagonal_solver(dl, d - STABLE_MODE_RATE, du)
    norm = np.abs(dl).max() + np.abs(d).max() + np.abs(du).max()   # >= ||L||_inf
    v = np.random.default_rng(0).standard_normal(y.size)
    for _ in range(100):
        x = solve(v)
        v = x / np.abs(x).max()
        Lv = d * v
        Lv[1:] += dl * v[:-1]
        Lv[:-1] += du * v[1:]
        mu = float(v @ Lv) / float(v @ v)
        if np.abs(Lv - mu * v).max() <= 1e-14 * (norm + abs(mu)):
            break
    else:
        raise NumericError(f"stable-mode iteration did not converge near rate "
                           f"{STABLE_MODE_RATE}",
                           payload={"target": STABLE_MODE_RATE, "mu": mu})
    if v[np.abs(y).argmin()] < 0.0:
        v = -v
    return kappa(params.p) + amp * v


@dataclass(frozen=True)
class DissipationReport:
    s_lo: float
    s_hi: float
    lhs: float            # int int |w_s|^2 rho dy ds
    rhs: float            # E(s_lo) - E(s_hi)
    rel_err: float
    holds: bool


# relative tolerance of the dissipation identity
DISSIPATION_TOL = 0.02


def dissipation_check(run: RescaledRun, s_a: float, s_b: float) -> DissipationReport:
    """Check int_{s_a}^{s_b} int |w_s|^2 rho dy ds = E(a) - E(b) within
    DISSIPATION_TOL, relative, from the run's rates.

    w_s from centered differences of the run's states, so the window is
    snapped inward by one step at each end."""
    s = run.s_values
    if s_b <= s_a:
        raise UsageError("need s_a < s_b")
    i_a = max(1, int(np.searchsorted(s, s_a)))
    i_b = min(s.size - 2, int(np.searchsorted(s, s_b)))
    if i_b - i_a < 8:
        raise UsageError("recorded states are too sparse in the requested window")
    lhs = float(np.trapezoid(run.rates[i_a:i_b + 1], dx=run.ds))
    rhs = float(run.energies[i_a] - run.energies[i_b])
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return DissipationReport(s_lo=float(s[i_a]), s_hi=float(s[i_b]),
                             lhs=lhs, rhs=rhs, rel_err=rel, holds=rel <= DISSIPATION_TOL)


# ---------------------------------------------------------------------------
# physical frame


@dataclass
class Snapshot:
    t: float
    max_u: float                 # max |u|
    u: np.ndarray


@dataclass
class BlowupRun:
    params: ProblemParams
    x: np.ndarray
    geometry: str
    status: str                  # 'blew-up' | 'global-existence'
    t_end: float
    times: np.ndarray
    sup_u: np.ndarray            # max |u| per step
    min_u: float                 # min u over the run
    max_u: float                 # max u over the run
    u_final: np.ndarray
    snapshots: list
    T_est: float | None
    fit: dict
    a_est: float | None
    meta: dict = dc_field(default_factory=dict)


def _crank_nicolson(u: np.ndarray, x: np.ndarray, dt: float, geometry: str,
                    n: int, ab: np.ndarray, out: np.ndarray,
                    den: np.ndarray | None) -> np.ndarray:
    """One Crank-Nicolson diffusion step: solves (I - dt/2 Lap) v =
    (I + dt/2 Lap) u with Dirichlet rows at the outer wall (and at x = -R on
    the interval). The left matrix is written into ab (3, m) in solve_banded's
    (1, 1) form and the right side into out (m,), which must not overlap u;
    every entry of both is set, so one pair serves a whole run, and the solve
    overwrites both. den is the ball's x[1:-1] 2h, None on the interval."""
    h = x[1] - x[0]
    r = 0.5 * dt / (h * h)
    mid = out[1:-1]
    up, lo = ab[0, 2:], ab[2, :-2]
    if geometry == "ball":
        # rows 1..m-2 couple with -(r -+ curv), curv = (dt/2)(n-1)/(2 x h).
        # curv waits in the upper slots and curv (u[i+1] - u[i-1]) in the
        # lower ones until the right side is built; then both bands are formed
        np.divide(0.5 * dt * (n - 1.0), den, out=up)
        np.subtract(u[2:], u[:-2], out=lo)
        np.multiply(up, lo, out=lo)
    # u + r ((u[2:] - 2 u) + u[:-2]), operation by operation
    np.multiply(2.0, u[1:-1], out=mid)
    np.subtract(u[2:], mid, out=mid)
    np.add(mid, u[:-2], out=mid)
    np.multiply(r, mid, out=mid)
    np.add(u[1:-1], mid, out=mid)
    ab[0, 0] = ab[2, -1] = 0.0                  # outside the matrix
    ab[1] = 1.0 - (-2.0 * r)
    if geometry == "ball":
        np.add(mid, lo, out=mid)
        out[0] = u[0] + r * (2.0 * n * (u[1] - u[0]))
        np.subtract(r, up, out=lo)
        np.add(r, up, out=up)
        np.negative(lo, out=lo)
        np.negative(up, out=up)
        ab[0, 1] = -(2.0 * n * r)              # origin row: n d^2/dr^2
        ab[1, 0] = 1.0 - (-2.0 * n * r)
    else:
        out[0] = 0.0
        up[:] = -r
        lo[:] = -r
        ab[0, 1], ab[1, 0] = 0.0, 1.0          # Dirichlet at x = -R
    out[-1] = 0.0
    ab[2, -2], ab[1, -1] = 0.0, 1.0            # Dirichlet at the outer wall
    return solve_banded((1, 1), ab, out)


def _reaction_exact(u: np.ndarray, dt: float, p: float, big: float,
                    out: np.ndarray) -> np.ndarray:
    """Exact flow of u' = |u|^(p-1) u; arguments driven past the pole are sent
    to +-big so the cap check fires on the next inspection. Written into out,
    which must not overlap u.

    Two passes run only where they can change a bit. The power |u|^(p-1)
    is skipped when p - 1 is 1 (x**1.0 is x). The base z = 1 - c, c >= 0, is
    clamped to 1e-300 only when some point is at or past the pole: for
    c <= 1 the rounded 1 - c is 0 or at least 2^-53, so the clamp moves no
    z > 0; it keeps the power off z <= 0 and nan, whose results are
    replaced."""
    np.abs(u, out=out)
    if p - 1.0 != 1.0:
        out **= p - 1.0
    np.multiply((p - 1.0) * dt, out, out=out)
    np.subtract(1.0, out, out=out)
    past = None
    if not out.min() > 0.0:                    # at or past the pole, or nan
        past = ~(out > 0.0)
        fixed = np.sign(u[past]) * big
        np.maximum(out, 1e-300, out=out)
    out **= -1.0 / (p - 1.0)
    np.multiply(u, out, out=out)
    if past is not None:
        out[past] = fixed
    return out


def _parabola_argmax(x: np.ndarray, u: np.ndarray) -> float:
    i = int(np.argmax(u))
    if i == 0 or i == u.size - 1:
        return float(x[i])
    denom = u[i - 1] - 2.0 * u[i] + u[i + 1]
    if denom == 0.0:
        return float(x[i])
    return float(x[i] + 0.5 * (x[1] - x[0]) * (u[i - 1] - u[i + 1]) / denom)


# the blow-up fit's bounded search: its absolute tolerance in
# log((T - t_end)/tail), and scipy's default cap on objective evaluations
FIT_XATOL = 1e-12
FMINBOUND_MAXITER = 500


def _fminbound(func, x1, x2):
    """scipy.optimize.minimize_scalar(func, bounds=(x1, x2), method="bounded",
    options={"xatol": FIT_XATOL}).x: Brent's (1973) bounded minimisation,
    golden-section steps with parabolic interpolation, ported from scipy
    1.17.1's _minimize_scalar_bounded operation for operation (its numpy
    scalar ops included), so the minimiser is bitwise scipy's. The search
    stops after FMINBOUND_MAXITER evaluations, scipy's default, and returns
    its best point, as scipy does. Bounds that are not finite, or a lower
    bound above the upper, raise UsageError (scipy's ValueError)."""
    if not (np.size(x1) == 1 and np.isfinite(x1) and np.size(x2) == 1 and np.isfinite(x2)):
        raise UsageError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise UsageError("The lower bound exceeds the upper bound.")
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + FIT_XATOL / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        if np.abs(e) > tol1:                   # try a parabolic fit
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1
        if golden:                             # golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + FIT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= FMINBOUND_MAXITER:
            break
    return xf


def fit_blowup_time(times: np.ndarray, sups: np.ndarray, p: float) -> dict:
    """Least-squares fit of log(max |u|) = log C - beta log(T - t) over the
    steps with max |u| within a factor 10 of the last (at least the last 8),
    with a bounded 1-D search over T past the end."""
    if times.size < 8:
        raise UsageError("not enough history to fit a blow-up time")
    mask = sups >= sups[-1] / 10.0
    if mask.sum() < 8:
        mask = np.zeros_like(mask)
        mask[-8:] = True
    tt, uu = times[mask], sups[mask]
    t_end = times[-1]
    tail = uu[-1] ** (1.0 - p) / (p - 1.0)   # pure-reaction remaining time

    def sse(T):
        X = np.log(T - tt)
        Y = np.log(uu)
        A = np.vstack([np.ones_like(X), X]).T
        coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
        r = Y - A @ coef
        return float(r @ r), coef

    def objective(xi):
        # near a huge cap T - t_end can fall below the resolution of t
        T = t_end + tail * math.exp(xi)
        return sse(T)[0] if T > t_end else math.inf

    # search log((T - t_end)/tail): the sse minimum is sharp on the tail
    # scale, which a linear bracket spanning [1e-3, 100] tails cannot resolve.
    # Brent's parabolic step through an inf objective subtracts inf from inf:
    # the nan fails its acceptance test and a golden-section step is taken
    with np.errstate(invalid="ignore"):
        xi = _fminbound(objective, math.log(1e-3), math.log(100.0))
    T_est = float(t_end + tail * math.exp(xi))
    if not T_est > t_end:
        raise NumericError(f"blow-up time is not resolved past t = {t_end}",
                           payload={"t": float(t_end)})
    err, coef = sse(T_est)
    return {"T_est": T_est, "exponent": float(-coef[1]), "logC": float(coef[0]),
            "sse": err, "points": int(mask.sum())}


def solve_physical(u0, params: ProblemParams, R: float = 2.0, m: int = 4001,
                   geometry: str = "interval", theta: float = 0.05,
                   u_cap: float = 1e8, t_max: float = 10.0,
                   diffusion: bool = True, fixed_dt: float | None = None) -> BlowupRun:
    """Run the physical problem until blow-up (max |u| >= u_cap), t_max, or a
    numeric failure, from the initial data u0(x) on the mesh x. theta <= 0.2
    keeps dt within the stability policy dt <= 0.2 (max|u|)^(1-p). Initial
    data must be finite and below u_cap."""
    if geometry not in ("interval", "ball"):
        raise UsageError(f"unknown geometry {geometry!r}")
    if not 0.0 < theta <= 0.2:
        raise UsageError(f"theta must lie in (0, 0.2], got {theta}")
    if R <= 0.0 or m < 9:
        raise UsageError("need R > 0 and a reasonable mesh")
    x = np.linspace(-R, R, m) if geometry == "interval" else np.linspace(0.0, R, m)
    h = float(x[1] - x[0])
    if h * h == 0.0:                           # the step divides by h^2
        raise UsageError(f"R = {R!r} on m = {m} points: the mesh step's square is 0")
    # the run's own copy: the step writes into its state buffers
    u = np.array(u0(x), dtype=float)
    if u.shape != x.shape:
        raise UsageError("initial data does not match the mesh")
    p, n = params.p, params.n
    big = 10.0 * u_cap
    if not math.isfinite(big):
        raise UsageError(f"u_cap must leave headroom in float range (10 u_cap "
                         f"finite), got {u_cap}")

    amax = float(np.abs(u).max())
    # the snapshot ladder runs from above the data up to the cap
    if not amax < u_cap:
        raise UsageError(f"initial data must be finite with max|u0| < u_cap = "
                         f"{u_cap:g}, got max|u0| = {amax:g}")
    sup0 = amax if amax > 0.0 else 1.0
    # levels 10^(k/2) from above the initial size up to the cap
    levels = (10.0 ** np.arange(math.floor(math.log10(sup0 * 4.0)) + 1.0,
                                math.log10(u_cap) - 0.25, 0.5)).tolist()
    next_level = 0

    # one step's buffers, refilled every step: the state ping-pongs between
    # u and spare, and the band array and the ball's denominators serve
    # every step
    spare = np.empty_like(u)
    ab = np.empty((3, m))
    den = x[1:-1] * 2.0 * h if geometry == "ball" else None

    times = [0.0]
    sups = [amax]
    snapshots = [Snapshot(t=0.0, max_u=amax, u=u.copy())]
    min_u = float(u.min())
    max_u = float(u.max())
    t = 0.0
    status = None
    while True:
        # finiteness first: an inf state must not reach the blow-up fit
        if not math.isfinite(amax):
            raise NumericError("state left float range", payload={"t": t})
        if amax >= u_cap:
            status = "blew-up"
            break
        if t >= t_max:
            status = "global-existence"
            break
        # the policy scale max|u|^(1-p) is +inf for zero data (a steady
        # state) and for data so small that it overflows: dt is t_max - t
        try:
            scale = amax ** (1.0 - p)
        except (ZeroDivisionError, OverflowError):
            scale = math.inf
        dt = fixed_dt if fixed_dt is not None else theta * scale
        dt = min(dt, 0.2 * scale, t_max - t)
        # a step too small to advance t would record a stalled clock
        if not math.isfinite(dt) or t + dt <= t:
            raise NumericError(f"step size underflow at t = {t}", payload={"t": t})
        # no finite check inside the step (solve_banded skips its own): a
        # nan or inf state reaches amax quietly and stops the run above
        with np.errstate(over="ignore", invalid="ignore"):
            u, spare = _reaction_exact(u, 0.5 * dt, p, big, out=spare), u
            if diffusion:
                u, spare = _crank_nicolson(u, x, dt, geometry, n, ab, spare, den), u
            u, spare = _reaction_exact(u, 0.5 * dt, p, big, out=spare), u
        t += dt
        lo_u, hi_u = float(u.min()), float(u.max())
        amax = max(abs(lo_u), abs(hi_u))
        times.append(t)
        sups.append(amax)
        min_u = min(min_u, lo_u)
        max_u = max(max_u, hi_u)
        while next_level < len(levels) and amax >= levels[next_level]:
            snapshots.append(Snapshot(t=t, max_u=amax, u=u.copy()))
            next_level += 1

    times = np.array(times)
    sups = np.array(sups)
    fit = {}
    T_est = None
    a_est = None
    if status == "blew-up":
        fit = fit_blowup_time(times, sups, p)
        T_est = fit["T_est"]
        a_est = _parabola_argmax(x, np.abs(snapshots[-1].u))
        snapshots.append(Snapshot(t=t, max_u=amax, u=u.copy()))
    return BlowupRun(params=params, x=x, geometry=geometry, status=status,
                     t_end=float(t), times=times, sup_u=sups, min_u=min_u, max_u=max_u,
                     u_final=u.copy(), snapshots=snapshots,
                     T_est=T_est, fit=fit, a_est=a_est,
                     meta={"theta": theta, "u_cap": u_cap, "t_max": t_max,
                           "diffusion": diffusion, "R": R, "m": m,
                           "fixed_dt": fixed_dt})


# ---------------------------------------------------------------------------
# convergence-to-kappa pipeline


@dataclass(frozen=True)
class WindowRow:
    t: float
    T_minus_t: float
    s: float
    sup_dev: float      # sup_{|y| <= K} |sign w - kappa|
    min_H: float        # min of H(sign w) = (w/(p-1) + y w_y / 2) sign on the window


@dataclass
class ConvergenceReport:
    params: ProblemParams
    K: float
    conv_tol: float
    T_est: float
    a_est: float
    rows: list
    decreasing: bool
    final_sup: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.params.n, "p": self.params.p, "K": self.K,
            "conv_tol": self.conv_tol, "T_est": self.T_est, "a_est": self.a_est,
            "rows": [{"t": r.t, "T_minus_t": r.T_minus_t, "s": r.s,
                      "sup_dev": r.sup_dev, "min_H": r.min_H} for r in self.rows],
            "decreasing": self.decreasing, "final_sup": self.final_sup,
            "passed": self.passed,
        }


# windows the convergence check needs, and the most it rescales
MIN_WINDOWS = 3
MAX_WINDOWS = 5


def convergence_pipeline(run: BlowupRun, K: float = 1.0,
                         conv_tol: float = 0.05) -> ConvergenceReport:
    """Rescale stored snapshots around (T_est, a_est) and check that
    sup_{|y|<=K} |sign w - kappa| decreases over >= MIN_WINDOWS times and
    ends below conv_tol, where sign is that of u at a_est in the last
    snapshot. H of sign w on the window is reported per row. The rows are
    the last MAX_WINDOWS snapshots that pass the window filters, oldest first;
    the snapshots are walked newest first, so no earlier one is rescaled."""
    if run.status != "blew-up":
        raise UsageError("the convergence pipeline needs a run that blew up")
    T, a = run.T_est, run.a_est
    p = run.params.p
    kap = kappa(p)
    # u -> -u maps solutions to solutions: negative data approach -kappa
    sign = -1.0 if np.interp(a, run.x, run.snapshots[-1].u) < 0.0 else 1.0
    h = float(run.x[1] - run.x[0])
    sup_start = run.sup_u[0]
    yg = np.linspace(-K, K, 201)
    rows = []
    for snap in reversed(run.snapshots):
        if len(rows) == MAX_WINDOWS:
            break
        Tt = T - snap.t
        if Tt <= 0.0:
            continue
        lam = math.sqrt(Tt)
        # the window |y| <= K must span mesh cells: lam >= 4h, and K lam >= 4h
        # when K < 1, or a window of a fraction of a cell passes vacuously
        if lam < 4.0 * h or K * lam < 4.0 * h:
            continue
        if a - 1.05 * K * lam < run.x[0] or a + 1.05 * K * lam > run.x[-1]:
            continue
        if snap.max_u < 100.0 * sup_start:     # not yet in the blow-up regime
            continue
        w, w_y, s, _ = rescale_to_similarity(snap.u, run.x, snap.t, T, a, yg,
                                             run.params)
        w, w_y = sign * w, sign * w_y
        Hw = w / (p - 1.0) + 0.5 * yg * w_y
        rows.append(WindowRow(t=snap.t, T_minus_t=float(Tt), s=s,
                              sup_dev=float(np.abs(w - kap).max()),
                              min_H=float(Hw.min())))
    rows.reverse()
    sups = [r.sup_dev for r in rows]
    decreasing = len(rows) >= MIN_WINDOWS and all(
        b < a for a, b in zip(sups[:-1], sups[1:]))
    final = sups[-1] if sups else math.inf
    return ConvergenceReport(params=run.params, K=K, conv_tol=conv_tol,
                             T_est=float(T), a_est=float(a), rows=rows,
                             decreasing=decreasing, final_sup=float(final),
                             passed=bool(decreasing and final < conv_tol))
