"""Time evolution in both frames.

Physical frame: u_t = u_xx + |u|^(p-1) u on an interval (Dirichlet) or a ball
(radial, Dirichlet at r = R), by Strang splitting with the reaction substep
solved exactly,

    u(dt) = u0 (1 - (p-1) dt |u0|^(p-1))^(-1/(p-1)),

and Crank-Nicolson diffusion. The step policy dt = theta (max|u|)^(1-p)
follows the blow-up so the run reaches any cap in O(log) steps. A step
allocates no mesh-sized array: the state alternates between two buffers, the
reaction and the right-hand side are written into them with out= ufuncs, and
one (3, m) band array is refilled from r = dt/(2 h^2) each step and handed
to solve_banded to overwrite. solve_banded skips its finite check; the loop
tests max|u| for finiteness before every step, so a nan or inf state ends
the run as a NumericError.

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
the stack and sup |w - kappa|. The run stops where a per-step check would:
at the first state that is non-finite, past the cap or of non-finite
energy, which is not recorded; the block's later steps are discarded. The
record grows one block at a time, so a long s_end that blows up early
allocates nothing for the steps not taken.

Both frames discretize the Laplacian with the same three-point stencil:
d^2/dx^2 on the interval, d^2/dr^2 + (n-1)/r d/dr with the smooth origin row
n d^2/dr^2 on the ball. The rescaled frame builds its matrix once from
`_laplacian_bands` and adds its drift and mass terms on top; the physical
frame's Crank-Nicolson halves (`_diffusion_banded`, `_diffusion_rhs`) are
refilled every step and write the stencil in place. The mesh density rho
(`gaussian_density`) and the dissipation rate (`dissipation_rates`) exist
once each.

Importing this module loads no scipy. scipy.linalg comes in with the first
banded solve (`solve_banded`, a forwarder) or the first tridiagonal
factorisation (`_tridiagonal_solver`, once per RescaledFlow or stable-mode
iteration, not per step); scipy.interpolate and scipy.optimize are imported
inside the two physical-frame functions that use them
(`rescale_to_similarity`, `fit_blowup_time`). So the rescaled frame loads
scipy.linalg only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

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
    from a cubic spline of u. Outside the sampled x-range w and w_y are nan."""
    if not T > t:
        raise UsageError(f"need T > t, got T = {T}, t = {t}")
    lam = math.sqrt(T - t)
    scale = (T - t) ** (1.0 / (params.p - 1.0))
    xt = a + lam * np.asarray(y_out)
    mask = (xt >= x[0]) & (xt <= x[-1])
    from scipy.interpolate import CubicSpline
    spl = CubicSpline(x, u)
    w = np.full(xt.shape, np.nan)
    w_y = np.full(xt.shape, np.nan)
    xm = xt[mask]
    w[mask] = scale * spl(xm)
    w_y[mask] = (scale * lam) * spl(xm, 1)
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


def solve_banded(l_and_u, ab, b, **kwargs):
    """scipy.linalg.solve_banded, imported on the first call.

    A module-level name rather than a local import so that perfbench's tracer
    can wrap the physical frame's banded solves and read (l_and_u, ab, b)
    from their positional arguments; it goes when runs record their own
    counters (ROADMAP item 8)."""
    from scipy.linalg import solve_banded as _solve_banded
    return _solve_banded(l_and_u, ab, b, **kwargs)


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


# states per bookkeeping block of RescaledFlow.run
_BLOCK = 256


@dataclass
class RescaledRun:
    params: ProblemParams
    y: np.ndarray
    ds: float
    geometry: str
    s_values: np.ndarray
    energies: np.ndarray
    sup_dev: np.ndarray          # sup |w - kappa| per recorded state
    states: np.ndarray           # (nrec, m)
    status: str                  # 'completed' | 'blew-up'
    events: dict = dc_field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


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
        self.params = params
        self.geometry = geometry
        self.cap = cap
        self.ds = ds
        self.y = np.linspace(-L, L, m) if geometry == "interval" else np.linspace(0.0, L, m)
        # the step matrix never changes: factor it once, solve every step
        self._solve = _tridiagonal_solver(*_rescaled_banded(self.y, params, ds, geometry))

    def step(self, w: np.ndarray) -> np.ndarray:
        p = self.params.p
        rhs = w + self.ds * np.abs(w) ** (p - 1.0) * w
        return self._solve(rhs)

    # numpy's overflow warnings on the way to a blow-up would only leak to
    # the caller; the run ends there as blew-up
    @np.errstate(over="ignore", invalid="ignore")
    def run(self, w0, s_end: float) -> RescaledRun:
        """Step from w0 to s_end, one step at a time, recording every state.
        The stop test, the energies and sup |w - kappa| are evaluated per
        block of up to _BLOCK states. The run ends as blew-up at the first
        state that is non-finite, past the cap or of non-finite energy,
        unrecorded, and the block's later steps are dropped. The record
        grows by blocks."""
        w = (np.asarray(w0(self.y), dtype=float) if callable(w0)
             else np.asarray(w0, dtype=float).copy())
        if w.shape != self.y.shape:
            raise UsageError("initial state does not match the mesh")
        if not math.isfinite(s_end):
            raise UsageError(f"s_end must be finite, got {s_end}")
        kap = kappa(self.params.p)
        nsteps = int(round(s_end / self.ds))
        e0 = energy(w, self.params, self.y, self.geometry).total
        if not math.isfinite(e0):
            raise NumericError("initial state has non-finite energy",
                               payload={"energy": e0})
        s_vals = [np.zeros(1)]
        energies = [np.array([e0])]
        sup_dev = [np.array([np.abs(w - kap).max()])]
        states = [w[None, :].copy()]
        status = "completed"
        events = {}
        done = 0
        while done < nsteps:
            k = min(_BLOCK, nsteps - done)
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
            s_vals.append(np.arange(done + 1, done + good + 1) * self.ds)
            energies.append(e[:good])
            sup_dev.append(np.abs(block[:good] - kap).max(axis=1))
            states.append(block[:good])
            if good < k:
                status = "blew-up"
                events["cap_at_s"] = (done + good + 1) * self.ds
                break
            done += k
        return RescaledRun(
            params=self.params, y=self.y, ds=self.ds, geometry=self.geometry,
            s_values=np.concatenate(s_vals), energies=np.concatenate(energies),
            sup_dev=np.concatenate(sup_dev),
            states=np.concatenate(states),
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


def stable_mode_state(y: np.ndarray, params: ProblemParams, amp: float,
                      geometry: str = "interval", target: float = -1.0) -> np.ndarray:
    """kappa plus amp times the discrete linearized eigenmode whose decay rate
    is closest to target (default -1, the first mode below the constant).

    Shift-invert inverse iteration in O(m) per step: L - target I is factored
    once, then solved from a fixed generic start until the Rayleigh quotient
    mu and the max-normalized iterate v satisfy

        ||L v - mu v||_inf <= 1e-14 (||L||_inf + |mu|).

    The bound scales with ||L||_inf ~ 1/h^2 because that sets the residual
    floor of a backward-stable solve (about 1e-8 on a 40001-point ball mesh).
    A zero pivot, or no convergence within 100 iterations (a complex pair
    nearest the target, as on very coarse meshes), raises NumericError. The
    mode is scaled to max |v| = 1 with v >= 0 at the point nearest y = 0.
    """
    y = np.asarray(y, dtype=float)
    dl, d, du = _linearized_tridiagonal(y, params, geometry)
    solve = _tridiagonal_solver(dl, d - target, du)
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
        raise NumericError(f"stable-mode iteration did not converge near rate {target}",
                           payload={"target": target, "mu": mu})
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


def dissipation_rates(run: RescaledRun) -> np.ndarray:
    """int |w_s|^2 rho dy at every recorded state, w_s by np.gradient over the
    records (centered inside, one-sided at the ends); zeros below 3 records."""
    if run.states.shape[0] < 3:
        return np.zeros(run.states.shape[0])
    dens = gaussian_density(run.y, run.geometry, run.params.n)
    ws = np.gradient(run.states, run.ds, axis=0)
    # squared and weighted in place: each state-sized temporary adds to the
    # run's peak memory
    ws *= ws
    ws *= dens
    return np.trapezoid(ws, run.y, axis=1)


def dissipation_check(run: RescaledRun, rates: np.ndarray, s_a: float,
                      s_b: float, tol: float = 0.02) -> DissipationReport:
    """Check int_{s_a}^{s_b} int |w_s|^2 rho dy ds = E(a) - E(b) within tol,
    with rates = dissipation_rates(run).

    w_s from centered differences of the recorded states, so the window is
    snapped inward by one recording step at each end."""
    s = run.s_values
    if s_b <= s_a:
        raise UsageError("need s_a < s_b")
    i_a = max(1, int(np.searchsorted(s, s_a)))
    i_b = min(s.size - 2, int(np.searchsorted(s, s_b)))
    if i_b - i_a < 8:
        raise UsageError("recorded states are too sparse in the requested window")
    lhs = float(np.trapezoid(rates[i_a:i_b + 1], dx=run.ds))
    rhs = float(run.energies[i_a] - run.energies[i_b])
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return DissipationReport(s_lo=float(s[i_a]), s_hi=float(s[i_b]),
                             lhs=lhs, rhs=rhs, rel_err=rel, holds=rel <= tol)


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


def _diffusion_banded(x: np.ndarray, dt: float, geometry: str, n: int,
                      out: np.ndarray | None = None,
                      den: np.ndarray | None = None) -> np.ndarray:
    """Crank-Nicolson left matrix (I - dt/2 Lap), Dirichlet outer wall, in
    solve_banded's (1, 1) form. Every entry of out (3, m) is set when it is
    given, so one array serves a whole run; den is the ball's x[1:-1] 2h."""
    h = x[1] - x[0]
    r = 0.5 * dt / (h * h)
    ab = np.empty((3, x.size)) if out is None else out
    ab[0, 0] = ab[2, -1] = 0.0                  # outside the matrix
    ab[1] = 1.0 - (-2.0 * r)
    if geometry == "ball":
        # rows 1..m-2 couple with -(r -+ (dt/2)(n-1)/(2 x h)); the curvature
        # term is built in the upper slots, then both bands are formed there
        up, lo = ab[0, 2:], ab[2, :-2]
        np.divide(0.5 * dt * (n - 1.0), x[1:-1] * 2.0 * h if den is None else den,
                  out=up)
        np.subtract(r, up, out=lo)
        np.add(r, up, out=up)
        np.negative(lo, out=lo)
        np.negative(up, out=up)
        ab[0, 1] = -(2.0 * n * r)              # origin row: n d^2/dr^2
        ab[1, 0] = 1.0 - (-2.0 * n * r)
    else:
        ab[0, 2:] = -r
        ab[2, :-2] = -r
        ab[0, 1], ab[1, 0] = 0.0, 1.0          # Dirichlet at x = -R
    ab[2, -2], ab[1, -1] = 0.0, 1.0            # Dirichlet at the outer wall
    return ab


def _diffusion_rhs(u: np.ndarray, x: np.ndarray, dt: float, geometry: str,
                   n: int, out: np.ndarray | None = None,
                   den: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """Crank-Nicolson right side (I + dt/2 Lap) u with zero Dirichlet rows,
    written into out (m,) when given, which must not overlap u. On the ball,
    den is x[1:-1] 4h and work an (m-2,) scratch array."""
    h = x[1] - x[0]
    r = 0.5 * dt / (h * h)
    rhs = np.empty_like(u) if out is None else out
    mid = rhs[1:-1]
    if geometry == "ball":
        curv = np.divide(dt * (n - 1.0), x[1:-1] * 4.0 * h if den is None else den,
                         out=work)
        np.subtract(u[2:], u[:-2], out=mid)
        np.multiply(curv, mid, out=curv)
    # u + r ((u[2:] - 2 u) + u[:-2]), operation by operation
    np.multiply(2.0, u[1:-1], out=mid)
    np.subtract(u[2:], mid, out=mid)
    np.add(mid, u[:-2], out=mid)
    np.multiply(r, mid, out=mid)
    np.add(u[1:-1], mid, out=mid)
    if geometry == "ball":
        np.add(mid, curv, out=mid)
        rhs[0] = u[0] + r * (2.0 * n * (u[1] - u[0]))
    else:
        rhs[0] = 0.0
    rhs[-1] = 0.0
    return rhs


def _reaction_exact(u: np.ndarray, dt: float, p: float, big: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Exact flow of u' = |u|^(p-1) u; arguments driven past the pole are sent
    to +-big so the cap check fires on the next inspection. Written into out
    when given, which must not overlap u.

    Two passes run only where they can change a bit. The power |u|^(p-1)
    is skipped when p - 1 is 1 (x**1.0 is x). The base z = 1 - c, c >= 0, is
    clamped to 1e-300 only when some point is at or past the pole: for
    c <= 1 the rounded 1 - c is 0 or at least 2^-53, so the clamp moves no
    z > 0; it keeps the power off z <= 0 and nan, whose results are
    replaced."""
    z = np.empty_like(u) if out is None else out
    np.abs(u, out=z)
    if p - 1.0 != 1.0:
        z **= p - 1.0
    np.multiply((p - 1.0) * dt, z, out=z)
    np.subtract(1.0, z, out=z)
    past = None
    if not z.min() > 0.0:                      # at or past the pole, or nan
        past = ~(z > 0.0)
        fixed = np.sign(u[past]) * big
        np.maximum(z, 1e-300, out=z)
    z **= -1.0 / (p - 1.0)
    np.multiply(u, z, out=z)
    if past is not None:
        z[past] = fixed
    return z


def _parabola_argmax(x: np.ndarray, u: np.ndarray) -> float:
    i = int(np.argmax(u))
    if i == 0 or i == u.size - 1:
        return float(x[i])
    denom = u[i - 1] - 2.0 * u[i] + u[i + 1]
    if denom == 0.0:
        return float(x[i])
    return float(x[i] + 0.5 * (x[1] - x[0]) * (u[i - 1] - u[i + 1]) / denom)


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
    # scale, which a linear bracket spanning [1e-3, 100] tails cannot resolve
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(objective, bounds=(math.log(1e-3), math.log(100.0)),
                          method="bounded", options={"xatol": 1e-12})
    T_est = float(t_end + tail * math.exp(res.x))
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
    numeric failure. theta <= 0.2 keeps dt within the stability policy
    dt <= 0.2 (max|u|)^(1-p)."""
    if geometry not in ("interval", "ball"):
        raise UsageError(f"unknown geometry {geometry!r}")
    if not 0.0 < theta <= 0.2:
        raise UsageError(f"theta must lie in (0, 0.2], got {theta}")
    if R <= 0.0 or m < 9:
        raise UsageError("need R > 0 and a reasonable mesh")
    x = np.linspace(-R, R, m) if geometry == "interval" else np.linspace(0.0, R, m)
    # the run's own copy: the step writes into its state buffers
    u = np.array(u0(x) if callable(u0) else u0, dtype=float)
    if u.shape != x.shape:
        raise UsageError("initial data does not match the mesh")
    p, n = params.p, params.n
    big = 10.0 * u_cap
    if not math.isfinite(big):
        raise UsageError(f"u_cap must leave headroom in float range (10 u_cap "
                         f"finite), got {u_cap}")

    amax = float(np.abs(u).max())
    sup0 = amax if amax > 0.0 else 1.0
    # levels 10^(k/2) from above the initial size up to the cap
    levels = (10.0 ** np.arange(math.floor(math.log10(sup0 * 4.0)) + 1.0,
                                math.log10(u_cap) - 0.25, 0.5)).tolist()
    next_level = 0

    # one step's buffers, refilled every step: the state ping-pongs between
    # u and spare, and the band and ball denominators serve every step
    spare = np.empty_like(u)
    ab = np.empty((3, m))
    band_den = rhs_den = work = None
    if geometry == "ball":
        h = x[1] - x[0]
        band_den, rhs_den = x[1:-1] * 2.0 * h, x[1:-1] * 4.0 * h
        work = np.empty(m - 2)

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
                rhs = _diffusion_rhs(u, x, dt, geometry, n, out=spare,
                                     den=rhs_den, work=work)
                _diffusion_banded(x, dt, geometry, n, out=ab, den=band_den)
                u, spare = solve_banded((1, 1), ab, rhs, overwrite_ab=True,
                                        overwrite_b=True, check_finite=False), u
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


def convergence_pipeline(run: BlowupRun, K: float = 1.0, conv_tol: float = 0.05,
                         min_snapshots: int = 3, max_rows: int = 5,
                         resolution_factor: float = 4.0) -> ConvergenceReport:
    """Rescale stored snapshots around (T_est, a_est) and check that
    sup_{|y|<=K} |sign w - kappa| decreases over >= min_snapshots times and
    ends below conv_tol, where sign is that of u at a_est in the last
    snapshot. H of sign w on the window is reported per row. The rows are
    the last max_rows snapshots that pass the window filters, oldest first;
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
        if len(rows) == max_rows:
            break
        Tt = T - snap.t
        if Tt <= 0.0:
            continue
        lam = math.sqrt(Tt)
        if lam < resolution_factor * h:        # window thinner than the mesh
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
    decreasing = len(rows) >= min_snapshots and all(
        b < a for a, b in zip(sups[:-1], sups[1:]))
    final = sups[-1] if sups else math.inf
    return ConvergenceReport(params=run.params, K=K, conv_tol=conv_tol,
                             T_est=float(T), a_est=float(a), rows=rows,
                             decreasing=decreasing, final_sup=float(final),
                             passed=bool(decreasing and final < conv_tol))
