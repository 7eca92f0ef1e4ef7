"""Rescaled and physical evolution: energy bookkeeping, the similarity
rescaling map, fixed points and linearized decay rates of the rescaled flow,
dissipation accounting, blow-up time fitting, and the convergence pipeline.
"""

import inspect
import json
import math
import tracemalloc
from collections import Counter
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.linalg import eig, solve_banded
from scipy.optimize import minimize_scalar
from scipy.optimize._optimize import _minimize_scalar_bounded

from blowlab import (
    NumericError,
    ProblemParams,
    SampledField,
    UsageError,
    convergence_pipeline,
    dissipation_check,
    energy,
    exact_energy_kappa,
    fit_blowup_time,
    kappa,
    rescale_to_similarity,
    solve_physical,
    RescaledFlow,
    evolution,
)
from blowlab.evolution import (
    MAX_WINDOWS,
    WINDOW_SKIPS,
    BlowupRun,
    Snapshot,
    _crank_nicolson,
    _laplacian_bands,
    _reaction_exact,
    _rescaled_banded,
    linearized_matrix,
    stable_mode_state,
    window_skip,
)
from blowlab.config import resolve_config
from blowlab.experiments import _cumulative_trapezoid, _initial_data, _physical_run
from blowlab.manifest import json_text
from blowlab.quadrature import tensor_grid

P2 = ProblemParams(n=1, p=2.0)
P33 = ProblemParams(n=3, p=3.0)


# ---------------------------------------------------------------------------
# energy


def test_energy_field_route_exact():
    grid = tensor_grid(1, 64)
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        w = SampledField.constant(grid, kappa(p))
        assert energy(w, params) == pytest.approx(exact_energy_kappa(params), rel=1e-12)
    assert exact_energy_kappa(P2) == pytest.approx(1.0 / 6.0, rel=1e-14)
    zero = SampledField.constant(grid, 0.0)
    assert energy(zero, P2) == 0.0


def test_energy_mesh_route():
    y = np.linspace(-8.0, 8.0, 801)
    assert abs(energy(np.ones_like(y), P2, y) - 1.0 / 6.0) < 1e-8
    yb = np.linspace(0.0, 8.0, 801)
    ev = energy(np.full_like(yb, kappa(3.0)), P33, yb, geometry="ball")
    assert abs(ev - exact_energy_kappa(P33)) < 1e-6


def test_energy_argument_errors():
    y = np.linspace(-8.0, 8.0, 101)
    with pytest.raises(UsageError):
        energy(np.ones_like(y), P2)                      # mesh values, no mesh
    with pytest.raises(UsageError):
        energy(np.ones_like(y), P2, y, geometry="torus")


# ---------------------------------------------------------------------------
# similarity rescaling


def test_rescale_exact_self_similar_solution():
    # u(x, t) = kappa (T-t)^(-1/(p-1)) rescales to w = kappa identically
    x = np.linspace(-2.0, 2.0, 401)
    T, t = 1.0, 0.75
    u = np.full_like(x, kappa(2.0) * (T - t) ** -1.0)
    y_out = np.linspace(-3.0, 3.0, 121)
    w, _, s = rescale_to_similarity(u, x, t, T, 0.0, y_out, P2)
    mask = np.isfinite(w)
    assert s == pytest.approx(-math.log(0.25), rel=1e-14)
    assert np.abs(w[mask] - kappa(2.0)).max() < 1e-10
    assert np.all(np.isnan(w[~mask]))


def test_rescale_linear_snapshot():
    # u = x, T - t = 4, a = 0, p = 2: lambda = 2 and w(y) = 4 u(2y) = 8 y
    x = np.linspace(-4.0, 4.0, 801)
    y_out = np.linspace(-3.0, 3.0, 61)
    w, w_y, s = rescale_to_similarity(x.copy(), x, 0.0, 4.0, 0.0, y_out, P2)
    mask = np.isfinite(w)
    assert np.array_equal(mask, np.abs(y_out) <= 2.0)
    assert np.abs(w[mask] - 8.0 * y_out[mask]).max() < 1e-10
    assert np.abs(w_y[mask] - 8.0).max() < 1e-10
    assert np.all(np.isnan(w[~mask])) and np.all(np.isnan(w_y[~mask]))
    assert s == pytest.approx(-math.log(4.0))


# T - t = 1/4 and a = 0: lambda = 1/2 and the window's points are y/2
# exactly, so y = 2 x[k] lands on the knot x[k]
_X = np.linspace(-2.0, 2.0, 401)


@pytest.mark.parametrize("y_out", [
    np.concatenate(([2.0 * _X[0]], np.linspace(2.0 * _X[0] - 0.2, 2.0 * _X[0] + 0.4, 31))),
    np.linspace(2.0 * _X[-1] - 0.4, 2.0 * _X[-1], 21),
    2.0 * np.linspace(_X[200] + 1e-3, _X[200] + 9e-3, 5),
    2.0 * np.linspace(_X[-2] + 1e-3, _X[-2] + 9e-3, 5),
    np.linspace(5.0, 6.0, 11),
], ids=["from-x0", "ends-at-x-end", "one-interval", "last-interval", "outside"])
def test_rescale_window_is_scipys_spline(y_out):
    # the coefficients are built on the window's knots only (at least 4):
    # w and w_y must still be bitwise those of the whole-mesh CubicSpline,
    # nan off the mesh; the snapshot is read-only, as a run's final state is
    u = np.random.default_rng(5).standard_normal(_X.size)
    u.flags.writeable = False
    w, w_y, _ = rescale_to_similarity(u, _X, 0.75, 1.0, 0.0, y_out, P2)
    mask = np.isfinite(w)
    spl = CubicSpline(_X, u)
    xt = 0.5 * y_out
    want = np.where(mask, 0.25 * spl(xt), np.nan)
    want_y = np.where(mask, (0.25 * 0.5) * spl(xt, 1), np.nan)
    assert np.array_equal(mask, (xt >= _X[0]) & (xt <= _X[-1]))
    assert np.array_equal(w, want, equal_nan=True)
    assert np.array_equal(w_y, want_y, equal_nan=True)
    assert np.array_equal(np.signbit(w[mask]), np.signbit(want[mask]))
    assert np.array_equal(np.signbit(w_y[mask]), np.signbit(want_y[mask]))


def test_rescale_needs_future_time():
    x = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(UsageError):
        rescale_to_similarity(np.ones_like(x), x, 1.0, 1.0, 0.0, x, P2)


# ---------------------------------------------------------------------------
# rescaled flow


def test_flow_constant_fixed_points():
    flow = RescaledFlow(P2, m=201, ds=1e-2)
    run = flow.run(np.ones(201), s_end=1.0)
    assert run.status == "completed"
    assert run.sup_dev.max() < 1e-10       # kappa is a discrete fixed point
    run = flow.run(np.zeros(201), s_end=1.0)
    assert np.abs(run.final).max() == 0.0 and not run.rates.any()
    assert np.abs(run.energies).max() == 0.0


def test_flow_step_wrapper():
    flow = RescaledFlow(P2, m=201, ds=1e-2)
    fresh = RescaledFlow(P2, m=201, ds=1e-2)     # builds its matrix anew
    w0 = 1.0 + 0.01 * np.exp(-flow.y ** 2)
    assert np.array_equal(fresh.step(w0), flow.run(w0, s_end=0.01).final)


@pytest.mark.parametrize("geometry,params", [("interval", P2), ("ball", P33)])
def test_factored_step_matches_banded_solve(geometry, params):
    # the once-factored step against solve_banded on a freshly built matrix
    flow = RescaledFlow(params, m=201, ds=1e-2, geometry=geometry)
    w = 1.0 + 0.3 * np.exp(-flow.y ** 2)
    dl, d, du = _rescaled_banded(flow.y, params, flow.ds, geometry)
    ab = np.zeros((3, d.size))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    rhs = w + flow.ds * np.abs(w) ** (params.p - 1.0) * w
    assert np.array_equal(flow.step(w), solve_banded((1, 1), ab, rhs))


def test_flow_argument_errors():
    with pytest.raises(UsageError):
        RescaledFlow(P2, L=4.0)
    with pytest.raises(UsageError):
        RescaledFlow(P2, geometry="sphere")
    with pytest.raises(UsageError):
        RescaledFlow(P2, ds=0.0)
    for cap in (0.0, -1.0, math.nan):
        with pytest.raises(UsageError):
            RescaledFlow(P2, cap=cap)
    flow = RescaledFlow(P2, m=201)
    with pytest.raises(UsageError):
        flow.run(np.ones(7), s_end=1.0)


def test_flow_supercritical_constant_blows_up():
    # w0 = 2 kappa: pure growth dominates, the cap event must fire
    flow = RescaledFlow(P2, m=201, ds=1e-2, cap=1e4)
    run = flow.run(np.full(201, 2.0), s_end=50.0)
    assert run.status == "blew-up"
    assert "cap_at_s" in run.events


@pytest.mark.parametrize("s_end", [math.nan, math.inf, -math.inf])
def test_flow_refuses_a_nonfinite_end(s_end):
    with pytest.raises(UsageError):
        RescaledFlow(P2, m=201).run(np.ones(201), s_end=s_end)


@pytest.mark.parametrize("kwargs", [{"L": math.nan}, {"L": math.inf}, {"ds": math.nan},
                                    {"ds": math.inf}])
def test_flow_refuses_nonfinite_arguments(kwargs):
    with pytest.raises(UsageError):
        RescaledFlow(P2, m=201, **kwargs)


# ---------------------------------------------------------------------------
# per-block bookkeeping of the rescaled run


@np.errstate(over="ignore", invalid="ignore")
def _per_step_run(self, w0, s_end):
    """RescaledFlow.run as it was with the energy, sup_dev and stop test
    evaluated after every step, every state kept and the dissipation rates
    taken by np.gradient over all of them: the oracle of the blocked run."""
    w = (np.asarray(w0(self.y), dtype=float) if callable(w0)
         else np.asarray(w0, dtype=float).copy())
    if w.shape != self.y.shape:
        raise UsageError("initial state does not match the mesh")
    kap = kappa(self.params.p)
    nsteps = int(round(s_end / self.ds))
    e0 = energy(w, self.params, self.y, self.geometry)
    if not math.isfinite(e0):
        raise NumericError("initial state has non-finite energy",
                           payload={"energy": e0})
    s_vals = [0.0]
    energies = [e0]
    sup_dev = [float(np.abs(w - kap).max())]
    states = [w.copy()]
    status = "completed"
    events = {}
    for k in range(nsteps):
        w = self.step(w)
        e = (energy(w, self.params, self.y, self.geometry)
             if np.all(np.isfinite(w)) and np.abs(w).max() <= self.cap
             else math.nan)
        if not math.isfinite(e):
            status = "blew-up"
            events["cap_at_s"] = (k + 1) * self.ds
            break
        s_vals.append((k + 1) * self.ds)
        energies.append(e)
        sup_dev.append(float(np.abs(w - kap).max()))
        states.append(w.copy())
    states = np.array(states)
    rates = np.zeros(states.shape[0])
    if states.shape[0] >= 3:
        ws = np.gradient(states, self.ds, axis=0)
        ws *= ws
        ws *= evolution.gaussian_density(self.y, self.geometry, self.params.n)
        rates = np.trapezoid(ws, self.y, axis=1)
    return (np.array(s_vals), np.array(energies), np.array(sup_dev), rates,
            states[-1], status, events)


# one-valued: the cases below keep the ids they had while record_states chose
# between runs that kept every state and runs that kept none
RECORDED = pytest.mark.parametrize("record_states", [True])


def _assert_run_is_the_per_step_run(flow, w0, s_end):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = flow.run(w0, s_end)
        want = _per_step_run(flow, w0, s_end)
    got = (run.s_values, run.energies, run.sup_dev, run.rates, run.final)
    for name, g, w in zip(("s_values", "energies", "sup_dev", "rates", "final"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(g.view(np.int64), w.view(np.int64)), name
    assert run.status == want[5]
    assert run.events == want[6]
    for a, b in zip(run.events.values(), want[6].values()):
        assert type(a) is type(b)
    return run


# the block edges; 14-17 and 31 were the edges of a 15-state block, 23-26
# and 49 those of a 24-state block and 255-258 and 513 those of a 256-state
# block, and at any other block they are runs of many blocks that end
# inside one
_B = evolution._BLOCK


# at m = 201 the series' first room is _B 201 / 4 = 1206 steps: 1207 grows it
# once and 2500 twice
@RECORDED
@pytest.mark.parametrize("nsteps", sorted({0, 1, 2, 3, _B - 1, _B, _B + 1, _B + 2, 2 * _B + 1,
                                           14, 15, 16, 17, 31,
                                           23, 24, 25, 26, 49, 255, 256, 257, 258, 513,
                                           1207, 2500}))
@pytest.mark.parametrize("geometry,params", [("interval", P2), ("ball", P33)])
def test_blocked_run_is_the_per_step_run(geometry, params, nsteps, record_states):
    # below kappa the state decays toward 0, so every step is recorded
    flow = RescaledFlow(params, m=201, ds=1e-2, geometry=geometry)
    w0 = kappa(params.p) - 0.1 * np.exp(-flow.y ** 2 / 4.0)
    run = _assert_run_is_the_per_step_run(flow, w0, nsteps * flow.ds)
    assert run.status == "completed" and run.s_values.size == nsteps + 1


@RECORDED
def test_blocked_run_stops_at_a_cap_crossed_mid_block(record_states):
    # 2 kappa grows past the cap at step 702, inside the third block
    flow = RescaledFlow(P2, m=201, ds=1e-3, cap=1e4)
    run = _assert_run_is_the_per_step_run(flow, np.full(201, 2.0), 2.0)
    assert run.status == "blew-up"
    assert run.s_values.size - 1 == 701
    assert 0 < 701 % evolution._BLOCK < evolution._BLOCK - 1


@pytest.mark.parametrize("step", [1, 2, 3])
def test_blocked_run_stops_at_a_cap_crossed_in_its_first_steps(step):
    # the fewest states a run can end with, where the rates are zeros or
    # take their one-sided ends from the first block alone
    uncapped = RescaledFlow(P2, m=201, ds=1e-3)
    sups = [2.0]
    w = np.full(201, 2.0)
    for _ in range(step):
        w = uncapped.step(w)
        sups.append(float(np.abs(w).max()))
    flow = RescaledFlow(P2, m=201, ds=1e-3, cap=0.5 * (sups[-2] + sups[-1]))
    run = _assert_run_is_the_per_step_run(flow, np.full(201, 2.0), 2.0)
    assert run.status == "blew-up" and run.s_values.size == step


@RECORDED
@pytest.mark.parametrize("geometry,params", [("interval", P2), ("ball", P33)])
def test_blocked_run_stops_at_a_nonfinite_energy(geometry, params, record_states):
    # a cap beyond reach: the first state whose |w|^(p+1) overflows ends the
    # run while the state itself is finite
    flow = RescaledFlow(params, m=201, ds=1e-3, geometry=geometry, cap=1e300)
    w0 = kappa(params.p) + 10.0 * np.exp(-flow.y ** 2 / 4.0)
    run = _assert_run_is_the_per_step_run(flow, w0, 2.0)
    assert run.status == "blew-up"
    nrec = run.s_values.size
    assert 1 < nrec < 2000 and nrec % evolution._BLOCK != 0
    last = w0
    for _ in range(nrec):
        last = flow.step(last)
    assert np.isfinite(last).all() and np.abs(last).max() <= flow.cap
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(energy(last, params, flow.y, geometry))


def test_blocked_run_allocates_no_steps_it_does_not_take():
    # s_end asks for 10^7 steps (16 GB of states); the run blows up near
    # step 70 and must hold no more than its blocks
    flow = RescaledFlow(P2, m=201, ds=1e-3, cap=1e4)
    tracemalloc.start()
    try:
        run = flow.run(np.full(201, 2.0), s_end=1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.status == "blew-up" and run.s_values.size == 702
    assert peak < 16 * evolution._BLOCK * 201 * 8


@pytest.mark.parametrize("blocks", [8, 40])
def test_completed_run_memory_does_not_grow_with_its_steps(blocks):
    # the run keeps no states: runs of 8 and of 40 blocks both peak within
    # a few blocks' worth of states (40 blocks of states alone are 1.5 MB);
    # only the per-state series, 4 floats a step, grow with the run
    flow = RescaledFlow(P2, m=201, ds=1e-4)
    w0 = kappa(2.0) - 0.1 * np.exp(-flow.y ** 2 / 4.0)
    tracemalloc.start()
    try:
        run = flow.run(w0, s_end=blocks * evolution._BLOCK * flow.ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.status == "completed" and run.s_values.size == blocks * evolution._BLOCK + 1
    assert peak < 10 * evolution._BLOCK * 201 * 8


@pytest.mark.parametrize("m", [9, 16, 129, 130, 801])
@pytest.mark.parametrize("geometry,params", [("interval", P2), ("ball", P33)])
def test_stacked_energy_is_the_row_energy(geometry, params, m):
    flow = RescaledFlow(params, m=m, geometry=geometry)
    rng = np.random.default_rng(m)
    stack = kappa(params.p) + rng.standard_normal((7, m)) * np.exp(-flow.y ** 2 / 8.0)
    ev = energy(stack, params, flow.y, geometry)
    assert ev.shape == (7,) and ev.dtype == np.float64
    rows = [energy(row, params, flow.y, geometry) for row in stack]
    assert all(type(r) is float for r in rows)
    assert np.array_equal(ev, np.array(rows))
    # a stack of one and a Fortran-ordered stack reduce row by row as well
    one = energy(stack[2:3], params, flow.y, geometry)
    assert one.shape == (1,) and one[0] == energy(stack[2], params, flow.y, geometry)
    assert np.array_equal(energy(np.asfortranarray(stack), params, flow.y, geometry), ev)


def test_stacked_energy_shape_errors():
    y = np.linspace(-8.0, 8.0, 101)
    with pytest.raises(UsageError):
        energy(np.ones((3, 100)), P2, y)
    with pytest.raises(UsageError):
        energy(np.ones((2, 3, 101)), P2, y)


def test_linearized_matrix_decay_rates():
    flow = RescaledFlow(P2, m=801, ds=1e-3)
    mu = np.sort(np.linalg.eigvals(linearized_matrix(flow.y, P2)).real)[::-1]
    assert abs(mu[0] - 1.0) < 1e-9         # constant mode is exact on the mesh
    assert abs(mu[1] - 0.5) < 1e-5
    assert abs(mu[2]) < 1e-4
    assert abs(mu[3] + 0.5) < 1e-3


def test_stable_mode_decays_at_its_rate():
    flow = RescaledFlow(P2, m=801, ds=1e-3)
    w0 = stable_mode_state(flow.y, P2, 1e-3)
    run = flow.run(w0, s_end=2.0)
    assert run.status == "completed"
    ratio = run.sup_dev[-1] / run.sup_dev[0]
    assert 0.11 < ratio < 0.16             # e^{-2} = 0.135 for the mu = -1 mode


@pytest.mark.parametrize("geometry,n,p", [
    ("interval", 1, 2.0), ("interval", 1, 3.0), ("interval", 1, 5.0),
    ("ball", 1, 3.0), ("ball", 3, 3.0), ("ball", 4, 3.0), ("ball", 5, 2.0),
    ("ball", 10, 3.0)])
def test_stable_mode_matches_dense_eig(geometry, n, p):
    # dense eig of the assembled matrix is the oracle for the O(m) iteration;
    # n >= 4 on the ball has no symmetrizing diagonal similarity
    params = ProblemParams(n=n, p=p)
    y = np.linspace(-8.0, 8.0, 801) if geometry == "interval" else np.linspace(0.0, 8.0, 801)
    L = linearized_matrix(y, params, geometry)
    v = stable_mode_state(y, params, 1.0, geometry) - kappa(p)
    mu_all, vecs = eig(L)
    j = int(np.argmin(np.abs(mu_all.real + 1.0)))
    mu = float(v @ L @ v) / float(v @ v)
    assert abs(mu - mu_all[j].real) < 1e-8
    assert abs(np.abs(v).max() - 1.0) < 1e-15
    assert np.abs(L @ v - mu * v).max() < 1e-8
    ref = vecs[:, j].real
    ref /= np.abs(ref).max()
    if ref[np.abs(y).argmin()] < 0.0:
        ref = -ref
    assert np.abs(v - ref).max() < 1e-7


def test_stable_mode_without_a_real_nearest_mode_raises():
    # on a 9-point ball mesh in n = 10 the rates nearest -1 are a complex
    # pair, which real inverse iteration cannot converge to
    y = np.linspace(0.0, 8.0, 9)
    params = ProblemParams(n=10, p=3.0)
    rates = np.linalg.eigvals(linearized_matrix(y, params, "ball"))
    assert abs(rates[np.argmin(np.abs(rates + 1.0))].imag) > 0.1
    with pytest.raises(NumericError):
        stable_mode_state(y, params, 1.0, "ball")


def test_ball_geometry_stable_mode():
    flow = RescaledFlow(P33, m=401, ds=1e-3, geometry="ball")
    mu = np.sort(np.linalg.eigvals(linearized_matrix(flow.y, P33, "ball")).real)[::-1]
    assert abs(mu[0] - 1.0) < 1e-9
    assert abs(mu[1]) < 1e-3               # radial ladder mu = 1 - k
    assert abs(mu[2] + 1.0) < 5e-3
    w0 = stable_mode_state(flow.y, P33, 1e-3, geometry="ball")
    run = flow.run(w0, s_end=1.0)
    assert run.status == "completed"
    assert 0.3 < run.sup_dev[-1] / run.sup_dev[0] < 0.45
    assert np.all(np.diff(run.energies) <= 1e-12)


def test_energy_monotone_along_perturbed_run(perturbed_kappa_run):
    run = perturbed_kappa_run
    assert np.all(np.diff(run.energies) <= 1e-12)
    assert run.energies[0] > run.energies[-1]


def test_dissipation_identity(perturbed_kappa_run):
    run = perturbed_kappa_run
    rep = dissipation_check(run, 0.2, 1.8)
    assert rep.holds
    assert rep.rel_err < 0.02
    assert rep.lhs > 0.0 and rep.rhs > 0.0
    assert 0.19 <= rep.s_lo <= 0.21 and 1.79 <= rep.s_hi <= 1.81
    # both sides cover the one reported window [s_lo, s_hi]
    i_a, i_b = np.searchsorted(run.s_values, [rep.s_lo, rep.s_hi])
    assert rep.lhs == float(np.trapezoid(run.rates[i_a:i_b + 1], dx=run.ds))
    assert rep.rhs == float(run.energies[i_a] - run.energies[i_b])


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
       log_ds=st.floats(-150.0, 150.0), log_scale=st.floats(-140.0, 140.0))
def test_dissipation_sum_is_scipys_cumulative_trapezoid(size, seed, log_ds, log_scale):
    # the evolve-rescaled timeseries' running integral, bitwise scipy's,
    # which stays the reference here; the sums stay below float overflow
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-1.0, 1.0, size) * 10.0 ** (log_scale + rng.uniform(-5.0, 0.0, size))
    ds = float(rng.uniform(0.5, 1.0) * 10.0 ** log_ds)
    got = _cumulative_trapezoid(rates, ds)
    want = cumulative_trapezoid(rates, dx=ds, initial=0.0)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def test_tiny_gaussian_width_leaks_no_overflow_warning():
    # (x/width)^2 overflowed to inf with numpy's RuntimeWarning; the data is
    # exp(-inf) = 0 off the origin, exactly
    x = np.linspace(-4.0, 4.0, 9)
    u0 = _initial_data({"init": "gaussian", "amp": 3.0, "width": 1e-300, "R": 4.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = u0(x)
    assert got.tolist() == [0.0] * 4 + [3.0] + [0.0] * 4


def test_dissipation_rates_shape(perturbed_kappa_run):
    run = perturbed_kappa_run
    assert run.rates.shape == run.s_values.shape and np.all(run.rates >= 0.0)
    short = RescaledFlow(P2, m=201, ds=1e-2).run(np.ones(201), s_end=0.01)
    assert np.array_equal(short.rates, np.zeros(2))


def test_dissipation_argument_errors(perturbed_kappa_run):
    with pytest.raises(UsageError):
        dissipation_check(perturbed_kappa_run, 0.8, 0.2)
    with pytest.raises(UsageError):
        dissipation_check(perturbed_kappa_run, 1.0, 1.004)   # window too thin


# ---------------------------------------------------------------------------
# shared Laplacian stencil


def _apply_rows(lo, di, up, u):
    """Row-wise tridiagonal product; the first and last entries only carry
    the rows' own diagonal and inner neighbour."""
    out = di * u
    out[1:] += lo[1:] * u[:-1]
    out[:-1] += up[:-1] * u[1:]
    return out


@pytest.mark.parametrize("geometry,n", [("interval", 1), ("ball", 1), ("ball", 2),
                                        ("ball", 3), ("ball", 4)])
def test_laplacian_bands_quadratic_and_constant(geometry, n):
    # Lap |x|^2 = 2n, and the three-point stencils are exact on quadratics;
    # on the ball the origin row is the smooth limit n d^2/dr^2
    x = np.linspace(-2.0, 2.0, 41) if geometry == "interval" else np.linspace(0.0, 2.0, 41)
    c = 0.37
    lo, di, up = _laplacian_bands(x, c, geometry, n)
    first = 0 if geometry == "ball" else 1
    got = _apply_rows(lo, di, up, x * x)[first:-1]
    scale = c * 4.0 / (x[1] - x[0]) ** 2
    assert np.abs(got - 2.0 * n * c).max() <= 1e-13 * scale
    assert np.abs(_apply_rows(lo, di, up, np.ones_like(x))[first:-1]).max() <= 1e-13 * scale
    if geometry == "ball":
        assert lo[0] == 0.0 and up[0] == -di[0] == 2.0 * n * c / (x[1] - x[0]) ** 2


def _crank_nicolson_halves(monkeypatch, u, x, dt, geometry, n, ab, out):
    """(ab, b): copies of the band array and right side that _crank_nicolson
    hands to solve_banded, taken before the solve overwrites them."""
    seen = []

    def record(l_and_u, ab, b, **kwargs):
        seen.append((ab.copy(), b.copy()))
        return solve_banded(l_and_u, ab, b, **kwargs)

    monkeypatch.setattr(evolution, "solve_banded", record)
    den = x[1:-1] * 2.0 * (x[1] - x[0]) if geometry == "ball" else None
    _crank_nicolson(u, x, dt, geometry, n, ab, out, den)
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("geometry,n", [("interval", 1), ("ball", 3)])
def test_crank_nicolson_halves_sum_to_twice_identity(monkeypatch, geometry, n):
    # (I - dt/2 Lap) u + (I + dt/2 Lap) u = 2u on every row that is not a
    # Dirichlet wall; the ball's origin row is included
    x = np.linspace(-2.0, 2.0, 201) if geometry == "interval" else np.linspace(0.0, 2.0, 201)
    u = np.random.default_rng(5).standard_normal(x.size)
    dt = 3e-3
    ab, rhs = _crank_nicolson_halves(monkeypatch, u, x, dt, geometry, n,
                                     np.empty((3, x.size)), np.empty(x.size))
    left = ab[1] * u
    left[:-1] += ab[0, 1:] * u[1:]
    left[1:] += ab[2, :-1] * u[:-1]
    total = left + rhs
    first = 0 if geometry == "ball" else 1
    r = 0.5 * dt / (x[1] - x[0]) ** 2
    assert np.abs(total - 2.0 * u)[first:-1].max() <= 1e-13 * (1.0 + 4.0 * n * r)
    assert ab[1, -1] == 1.0 and ab[2, -2] == 0.0        # Dirichlet at the wall


# ---------------------------------------------------------------------------
# physical frame


def test_fit_blowup_time_exact_series():
    times = np.linspace(0.0, 0.9, 200)
    sups = (1.0 - times) ** -1.0
    fit = fit_blowup_time(times, sups, 2.0)
    assert abs(fit["T_est"] - 1.0) < 1e-12
    assert abs(fit["exponent"] - 1.0) < 1e-12
    assert fit["points"] >= 8
    with pytest.raises(UsageError):
        fit_blowup_time(times[:5], sups[:5], 2.0)
    # a remaining time far below the resolution of t cannot be fitted
    with pytest.raises(NumericError):
        fit_blowup_time(times, np.geomspace(1.0, 1e20, times.size), 2.0)


def test_fit_blowup_time_falls_back_to_the_last_8_steps():
    # t_k = 1 - 2^-k and max u = 2^k = 1/(1 - t_k): only k = 16..19 lie
    # within a factor 10 of the last, so the fit takes the last 8 steps
    k = np.arange(20.0)
    fit = fit_blowup_time(1.0 - 2.0 ** -k, 2.0 ** k, 2.0)
    assert fit["points"] == 8
    assert abs(fit["T_est"] - 1.0) < 1e-9
    assert abs(fit["exponent"] - 1.0) < 1e-6


def test_fminbound_cap_is_scipys_default():
    default = inspect.signature(_minimize_scalar_bounded).parameters["maxiter"].default
    assert default == evolution.FMINBOUND_MAXITER


def scipy_fminbound(f, a, b, maxiter=evolution.FMINBOUND_MAXITER):
    return minimize_scalar(f, bounds=(a, b), method="bounded",
                           options={"xatol": evolution.FIT_XATOL, "maxiter": maxiter}).x


def traced(f):
    """f, and the list of the points it is called at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


@st.composite
def bounded_objectives(draw):
    """(f, a, b): a random polynomial, a shifted, scaled sine or a sharp
    valley on a random interval, some with an inf region as the blow-up
    fit's objective has past its bracket's end."""
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(1e-6, 10.0))
    kind = draw(st.sampled_from(["poly", "sine", "valley"]))
    if kind == "poly":
        coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=7))
        f = lambda x: sum(c * x ** k for k, c in enumerate(coeffs))   # noqa: E731
    elif kind == "sine":
        scale, shift = draw(st.floats(0.1, 10.0)), draw(st.floats(-3.0, 3.0))
        f = lambda x: math.sin(scale * x + shift)   # noqa: E731
    else:
        c, width = draw(st.floats(a, b)), 10.0 ** draw(st.floats(-8.0, 1.0))
        f = lambda x: math.log1p(((x - c) / width) ** 2)   # noqa: E731
    if draw(st.booleans()):
        cut = draw(st.floats(a, b))
        g = f
        f = lambda x: math.inf if x < cut else g(x)   # noqa: E731
    return f, a, b


@settings(max_examples=500, deadline=None, derandomize=True)
@given(bounded_objectives())
def test_fminbound_port_is_scipys(case):
    # the same points evaluated in the same order, so the same minimiser
    f, a, b = case
    with np.errstate(invalid="ignore"):
        g, want = traced(f)
        x_want = scipy_fminbound(g, a, b)
        h, got = traced(f)
        x_got = evolution._fminbound(h, a, b)
    assert got == want and x_got == x_want


def test_fminbound_port_stops_at_its_cap_as_scipy(monkeypatch):
    # a tolerance of 1e-12 on a wide bracket needs more than 5 evaluations
    monkeypatch.setattr(evolution, "FMINBOUND_MAXITER", 5)
    f = lambda x: (x - 0.3) ** 2   # noqa: E731
    g, want = traced(f)
    x_want = scipy_fminbound(g, -4.0, 6.0, maxiter=5)
    h, got = traced(f)
    assert evolution._fminbound(h, -4.0, 6.0) == x_want and got == want
    assert len(got) == 5


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)],
                         ids=["reversed", "inf", "nan"])
def test_fminbound_port_refuses_bounds_as_scipy(a, b):
    with pytest.raises(ValueError):
        scipy_fminbound(lambda x: x * x, a, b)
    with pytest.raises(UsageError):
        evolution._fminbound(lambda x: x * x, a, b)


@pytest.mark.parametrize("geometry,params,amp", [
    ("interval", P2, 3.0), ("interval", ProblemParams(n=1, p=1.5), 3.0),
    ("ball", P33, 20.0),
], ids=["interval-p2", "interval-p1.5", "ball-n3-p3"])
def test_fit_blowup_time_search_is_scipys(monkeypatch, geometry, params, amp):
    # the fit's own objective, inf region included, at the blow-up runs'
    # histories: the port evaluates the points scipy does
    ported, calls = evolution._fminbound, []

    def both(func, x1, x2):
        g, want = traced(func)
        x_want = scipy_fminbound(g, x1, x2)
        h, got = traced(func)
        x_got = ported(h, x1, x2)
        assert got == want and x_got == x_want
        calls.append(len(got))
        return x_got

    monkeypatch.setattr(evolution, "_fminbound", both)
    run = solve_physical(lambda x: amp * np.cos(np.pi * x / 4.0), params, m=401,
                         geometry=geometry)
    assert run.status == "blew-up" and len(calls) == 1 and calls[0] > 8


def test_reaction_only_constant_has_known_blowup_time():
    # u' = u^2 from u = 1 blows up at exactly T = 1
    run = solve_physical(lambda x: np.ones_like(x), P2, R=1.0, m=101,
                         diffusion=False)
    assert run.status == "blew-up"
    assert abs(run.T_est - 1.0) < 1e-4
    assert abs(run.fit["exponent"] - 1.0) < 1e-3
    assert run.meta["diffusion"] is False


def test_small_data_global_existence():
    run = solve_physical(lambda x: 0.1 * np.cos(np.pi * x / 4.0), P2,
                         m=401, t_max=2.0)
    assert run.status == "global-existence"
    assert run.T_est is None and run.fit == {}
    assert run.sup_u[-1] < 0.05 * 1.0      # decayed well below the start
    assert run.t_end == pytest.approx(2.0)


@pytest.mark.parametrize("geometry,n", [("interval", 1), ("ball", 3)])
def test_zero_data_is_a_steady_state(geometry, n):
    # max|u|^(1-p) = 1/0: no step-size limit, so one step to t_max
    params = ProblemParams(n=n, p=3.0)
    run = solve_physical(np.zeros_like, params, m=101, geometry=geometry, t_max=2.0)
    assert run.status == "global-existence" and run.T_est is None
    assert run.times.tolist() == [0.0, 2.0]
    assert run.sup_u.tolist() == [0.0, 0.0] and not run.u_final.any()


def test_data_below_the_step_scale_range_runs_to_t_max():
    # (1e-200)^(1-p) overflows at p = 3; at p = 2 it is 1e200 and finite, and
    # both limit dt by t_max - t alone
    for p in (2.0, 3.0):
        run = solve_physical(lambda x: 1e-200 * np.cos(np.pi * x / 4.0),
                             ProblemParams(n=1, p=p), m=101, t_max=2.0)
        assert run.status == "global-existence"
        assert run.times.tolist() == [0.0, 2.0]
        assert 0.0 < run.sup_u[-1] < 1e-200


@pytest.mark.parametrize("geometry,n,u0", [
    ("interval", 1, lambda x: 3.0 * np.cos(np.pi * x / 4.0)),
    ("ball", 3, lambda x: 20.0 * np.exp(-x * x)),
    ("ball", 3, lambda x: 3.0 * np.exp(-x * x)),      # decays; min u < 0 late
], ids=["interval-blowup", "ball-blowup", "ball-decay"])
def test_solve_physical_is_odd(geometry, n, u0):
    # the equation maps u to -u, and every step of the solver is odd in u
    params = ProblemParams(n=n, p=2.0 if n == 1 else 3.0)
    kw = dict(m=401, geometry=geometry, u_cap=1e6, t_max=2.0)
    pos = solve_physical(u0, params, **kw)
    neg = solve_physical(lambda x: -u0(x), params, **kw)
    assert pos.status == neg.status
    assert np.array_equal(pos.times, neg.times)
    assert np.array_equal(pos.sup_u, neg.sup_u)
    assert pos.T_est == neg.T_est and pos.a_est == neg.a_est
    assert np.array_equal(neg.u_final, -pos.u_final)
    assert np.all(pos.sup_u > 0.0)


def test_solve_physical_argument_errors():
    ones = lambda x: np.ones_like(x)
    with pytest.raises(UsageError):
        solve_physical(ones, P2, theta=0.5)
    with pytest.raises(UsageError):
        solve_physical(ones, P2, theta=0.0)
    with pytest.raises(UsageError):
        solve_physical(ones, P2, R=-1.0)
    with pytest.raises(UsageError):
        solve_physical(ones, P2, geometry="plane")
    with pytest.raises(UsageError):
        solve_physical(lambda x: np.ones(7), P2, m=101)
    with pytest.raises(UsageError):                 # 10 u_cap overflows
        solve_physical(ones, P2, u_cap=1e308)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308, 1e8, -1e8],
                         ids=["nan", "inf", "-inf", "1e308", "at-cap", "-at-cap"])
def test_solve_physical_refuses_data_outside_the_cap(value):
    # the snapshot ladder starts at log10(4 max|u0|), which overflowed for
    # 1e308 and inf; data at the cap has no history to fit
    data = lambda x: np.where(np.abs(x) < 0.5, value, 1.0)
    with pytest.raises(UsageError, match="u_cap"):
        solve_physical(data, P2, m=101, u_cap=1e8)


# The physical step before it wrote into buffers: every substep allocated.
# These are its expressions verbatim, the reference for the in-place step.

def _allocating_reaction(u, dt, p, big):
    z = 1.0 - (p - 1.0) * dt * np.abs(u) ** (p - 1.0)
    return np.where(z > 0.0, u * np.maximum(z, 1e-300) ** (-1.0 / (p - 1.0)),
                    np.sign(u) * big)


def _allocating_banded(x, dt, geometry, n):
    lo, di, up = _laplacian_bands(x, 0.5 * dt, geometry, n)
    lo, di, up = -lo, 1.0 - di, -up
    if geometry == "interval":
        di[0], up[0] = 1.0, 0.0
    lo[-1], di[-1] = 0.0, 1.0
    ab = np.zeros((3, x.size))
    ab[0, 1:] = up[:-1]
    ab[1, :] = di
    ab[2, :-1] = lo[1:]
    return ab


def _allocating_rhs(u, x, dt, geometry, n):
    h = x[1] - x[0]
    r = 0.5 * dt / (h * h)
    rhs = u.copy()
    lap = np.zeros_like(u)
    lap[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
    if geometry == "ball":
        lap[0] = 2.0 * n * (u[1] - u[0])
        curv = dt * (n - 1.0) / (x[1:-1] * 4.0 * h)
        rhs[1:-1] = u[1:-1] + r * lap[1:-1] + curv * (u[2:] - u[:-2])
        rhs[0] = u[0] + r * lap[0]
    else:
        rhs[1:-1] = u[1:-1] + r * lap[1:-1]
        rhs[0] = 0.0
    rhs[-1] = 0.0
    return rhs


@pytest.mark.parametrize("geometry,params,u0,fixed_dt,diffusion", [
    ("interval", P2, lambda x: 3.0 * np.cos(np.pi * x / 4.0), 5e-3, True),
    ("ball", P33, lambda x: 5.0 * np.exp(-x * x), 5e-4, True),
    ("interval", P2, lambda x: 3.0 * np.cos(np.pi * x / 4.0), 5e-3, False),
], ids=["interval-p2", "ball-n3-p3", "no-diffusion"])
def test_physical_step_is_bitwise_the_allocating_step(geometry, params, u0,
                                                      fixed_dt, diffusion):
    m, u_cap = 201, 1e8
    t_max = 20 * fixed_dt
    run = solve_physical(u0, params, m=m, geometry=geometry, u_cap=u_cap,
                         t_max=t_max, diffusion=diffusion, fixed_dt=fixed_dt)
    x = run.x
    u = u0(x)
    p, n, big = params.p, params.n, 10.0 * u_cap
    t, amax = 0.0, float(np.abs(u).max())
    times, sups = [t], [amax]
    while t < t_max:
        dt = min(fixed_dt, 0.2 * amax ** (1.0 - p), t_max - t)
        u = _allocating_reaction(u, 0.5 * dt, p, big)
        if diffusion:
            u = solve_banded((1, 1), _allocating_banded(x, dt, geometry, n),
                             _allocating_rhs(u, x, dt, geometry, n))
        u = _allocating_reaction(u, 0.5 * dt, p, big)
        t += dt
        amax = float(np.abs(u).max())
        times.append(t)
        sups.append(amax)
    assert run.status == "global-existence" and len(times) >= 21
    assert sups[-1] > sups[0]                     # the reaction is at work
    assert np.array_equal(run.u_final, u)
    assert np.array_equal(run.times, times)
    assert np.array_equal(run.sup_u, sups)


@pytest.mark.parametrize("geometry,n", [("interval", 1), ("ball", 3)])
def test_step_builders_write_the_allocating_values(monkeypatch, geometry, n):
    # the Crank-Nicolson step and the reaction, each into dirty reused
    # buffers, against their allocating references; the reaction with points
    # at and past the pole
    x = np.linspace(-2.0, 2.0, 101) if geometry == "interval" else np.linspace(0.0, 2.0, 101)
    u = np.random.default_rng(2).standard_normal(x.size) * 3.0
    h, dt = x[1] - x[0], 2e-3
    den = x[1:-1] * 2.0 * h if geometry == "ball" else None
    dirty = lambda shape: np.full(shape, np.nan)
    want_ab = _allocating_banded(x, dt, geometry, n)
    want_rhs = _allocating_rhs(u, x, dt, geometry, n)
    want = solve_banded((1, 1), want_ab, want_rhs)
    got = _crank_nicolson(u, x, dt, geometry, n, dirty((3, x.size)), dirty(x.size), den)
    assert np.array_equal(got, want)
    # the halves it hands to the solve, sign bits included
    ab, rhs = _crank_nicolson_halves(monkeypatch, u, x, dt, geometry, n,
                                     dirty((3, x.size)), dirty(x.size))
    assert np.array_equal(ab, want_ab) and np.array_equal(np.signbit(ab), np.signbit(want_ab))
    assert np.array_equal(rhs, want_rhs)
    u[:3] = [0.0, 40.0, -40.0]                    # 1 - dt |u| <= 0 at +-40
    for p in (2.0, 3.0):
        want = _allocating_reaction(u, 0.05, p, 1e9)
        assert np.abs(want[1:3]).tolist() == [1e9, 1e9]
        got = _reaction_exact(u, 0.05, p, 1e9, out=dirty(x.size))
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(u=st.lists(st.floats(), min_size=1, max_size=40), dt=st.floats(1e-9, 10.0))
@example(u=[0.5, -0.0, math.nan, 40.0, -40.0, math.inf], dt=0.05)
@example(u=[0.5, -0.0, 3.0], dt=0.05)
def test_reaction_at_p2_is_the_power_form(u, dt):
    # at p = 2 the reaction takes z^(-1) by np.reciprocal: bitwise the power
    # form, at and past the pole (sent to +-big) and at nan too
    u = np.array(u)
    big = 1e9
    with np.errstate(all="ignore"):
        z = 1.0 - dt * np.abs(u)
        past = ~(z > 0.0)
        want = u * np.power(np.maximum(z, 1e-300), -1.0)
        want[past] = np.sign(u[past]) * big
        got = _reaction_exact(u, dt, 2.0, big, out=np.full(u.size, np.nan))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_blown_up_run_shares_one_read_only_final_state(cosine_blowup_run):
    run = cosine_blowup_run
    assert run.status == "blew-up"
    assert run.u_final is run.snapshots[-1].u
    with pytest.raises(ValueError, match="read-only"):
        run.u_final[0] = 0.0


def _run_or_error(u0, params, **kwargs):
    try:
        return solve_physical(u0, params, **kwargs)
    except NumericError as err:
        return err


@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from(["interval", "ball"]), n=st.integers(1, 4),
       p=st.floats(1.5, 5.0), amp=st.floats(0.01, 20.0), sign=st.sampled_from([1.0, -1.0]),
       init=st.sampled_from(["cosine", "constant", "gaussian"]), diffusion=st.booleans(),
       m=st.integers(9, 201), log_cap=st.floats(2.0, 6.0))
def test_physical_run_is_exactly_odd(geometry, n, p, amp, sign, init, diffusion, m,
                                     log_cap):
    # u -> -u maps solutions to solutions, and every operation of the step
    # is odd in floating point too (|u|^(p-1) u, the clamp to +-big, the
    # linear Crank-Nicolson halves and the banded solve, whose pivots do not
    # depend on u): the run from -u0 is the negated run from u0, exactly.
    # Equal as floats: a Dirichlet zero is +0.0 in both runs
    params = ProblemParams(n=n if geometry == "ball" else 1, p=p)
    cfg = {"init": init, "amp": sign * amp, "width": 0.5, "R": 2.0}
    u0 = _initial_data(cfg)
    kwargs = dict(m=m, geometry=geometry, u_cap=10.0 ** log_cap, diffusion=diffusion)
    pos = _run_or_error(u0, params, **kwargs)
    neg = _run_or_error(lambda x: -u0(x), params, **kwargs)
    if isinstance(pos, NumericError):
        assert isinstance(neg, NumericError)
        assert (str(neg), neg.payload) == (str(pos), pos.payload)
        return
    assert neg.status == pos.status and neg.t_end == pos.t_end
    assert np.array_equal(neg.u_final, -pos.u_final)
    assert np.array_equal(neg.times, pos.times) and np.array_equal(neg.sup_u, pos.sup_u)
    assert (neg.min_u, neg.max_u) == (-pos.max_u, -pos.min_u)
    assert (neg.T_est, neg.a_est, neg.fit) == (pos.T_est, pos.a_est, pos.fit)
    assert len(neg.snapshots) == len(pos.snapshots)
    for a, b in zip(neg.snapshots, pos.snapshots):
        assert (a.t, a.max_u) == (b.t, b.max_u) and np.array_equal(a.u, -b.u)


def test_blowup_fit_below_the_clock_resolution_leaks_no_warning():
    # at this cap the pure-reaction tail is ~4 ulp(t_end), so most of the
    # fit's bracket puts T at t_end, where the objective is inf; Brent's
    # parabolic step through it leaked numpy's invalid-value warning
    run = solve_physical(lambda x: 5.0 * np.cos(np.pi * x / 4.0), ProblemParams(n=1, p=4.75),
                         m=9, u_cap=10.0 ** 4.75, diffusion=False)
    assert run.status == "blew-up" and run.T_est > run.t_end


@pytest.mark.parametrize("geometry,n", [("interval", 1), ("ball", 3)])
def test_nonfinite_state_raises_numeric_error(inf_in_third_step, geometry, n):
    # solve_banded skips its finite check, so an inf reaching it must not
    # end in its ValueError: the loop's gate raises NumericError, and no
    # numpy warning escapes on the way
    params = ProblemParams(n=n, p=2.0 if n == 1 else 3.0)
    with pytest.raises(NumericError, match="float range"):
        solve_physical(lambda x: 3.0 * np.cos(np.pi * x / 4.0), params, m=401,
                       geometry=geometry)
    assert len(inf_in_third_step) == 6


def test_solve_physical_stalled_clock_raises():
    # past about 2e15 the step no longer advances t near T = 0.4; the run
    # must stop with a NumericError rather than fit a stalled clock
    with pytest.raises(NumericError, match="underflow"):
        solve_physical(lambda x: 3.0 * np.cos(np.pi * x / 4.0), P2, m=401,
                       u_cap=1e307)


def test_order_of_accuracy():
    # halving dt and dx together must shrink the error by the nominal
    # order 2, within a factor 1.5 of the ideal ratio 4
    def u0(x):
        return 0.05 * np.cos(np.pi * x / 2.0)

    ref = solve_physical(u0, P2, R=1.0, m=641, t_max=0.5, fixed_dt=2.5e-4)
    c1 = solve_physical(u0, P2, R=1.0, m=41, t_max=0.5, fixed_dt=4e-3)
    c2 = solve_physical(u0, P2, R=1.0, m=81, t_max=0.5, fixed_dt=2e-3)
    e1 = np.abs(c1.u_final - ref.u_final[::16]).max()
    e2 = np.abs(c2.u_final - ref.u_final[::8]).max()
    assert 8.0 / 3.0 <= e1 / e2 <= 6.0


def test_cosine_run_blows_up(cosine_blowup_run):
    run = cosine_blowup_run
    assert run.status == "blew-up"
    assert abs(run.fit["exponent"] - 1.0) < 0.05
    assert abs(run.a_est) < 0.01
    assert 0.1 < run.T_est < 1.0
    # positivity is preserved to splitting accuracy
    assert run.min_u >= -1e-10 * max(1.0, run.sup_u[0])
    assert np.all(np.diff([s.max_u for s in run.snapshots]) > 0.0)
    assert run.snapshots[0].t == 0.0
    assert run.snapshots[-1].t == pytest.approx(run.t_end)


def test_convergence_pipeline_on_cosine_run(cosine_blowup_run):
    rep = convergence_pipeline(cosine_blowup_run)
    assert rep.passed
    assert rep.decreasing
    assert len(rep.rows) >= 3
    assert rep.final_sup < 0.05
    assert all(r.min_H > 0.0 for r in rep.rows)
    assert all(b.s > a.s for a, b in zip(rep.rows[:-1], rep.rows[1:]))
    d = json.loads(json_text(rep))
    assert d["passed"] is True and len(d["rows"]) == len(rep.rows)


def test_convergence_pipeline_keeps_the_newest_windows(monkeypatch, cosine_blowup_run):
    # the pipeline walks the snapshots newest first and stops at MAX_WINDOWS:
    # its rows are the last MAX_WINDOWS of every usable window, oldest first
    monkeypatch.setattr(evolution, "MAX_WINDOWS", 10 ** 6)
    every = convergence_pipeline(cosine_blowup_run).rows
    assert len(every) >= 3
    for keep in (1, 2, len(every), len(every) + 1):
        monkeypatch.setattr(evolution, "MAX_WINDOWS", keep)
        assert convergence_pipeline(cosine_blowup_run).rows == every[-keep:]


def test_convergence_pipeline_interpolation_floor():
    # fabricated exactly self-similar snapshots: the only deviation left is
    # spline interpolation error, orders below the 0.05 verdict threshold
    x = np.linspace(-2.0, 2.0, 4001)
    T = 1.0
    snaps = [Snapshot(t=0.0, max_u=1.0, u=np.ones_like(x))]
    for Tt in (1e-2, 1e-3, 1e-4):
        snaps.append(Snapshot(t=T - Tt, max_u=1.0 / Tt, u=np.full_like(x, 1.0 / Tt)))
    run = BlowupRun(params=P2, x=x, geometry="interval", status="blew-up",
                    t_end=T - 1e-4, times=np.array([0.0, T - 1e-4]),
                    sup_u=np.array([1.0, 1e4]), min_u=1.0, max_u=1e4,
                    u_final=snaps[-1].u, snapshots=snaps,
                    T_est=T, fit={}, a_est=0.0)
    rep = convergence_pipeline(run)
    assert len(rep.rows) == 3
    for row in rep.rows:
        assert row.sup_dev < 1e-6
        assert row.min_H == pytest.approx(1.0, abs=1e-6)
    assert rep.final_sup < 1e-6


@pytest.mark.parametrize("sets, counts", [
    ({}, {None: 5, "under-resolved": 7, "before-regime": 2}),
    ({"p": "3"}, {"under-resolved": 12, "before-regime": 2}),
    ({"geometry": "ball", "n": "3", "amp": "20"},
     {None: 4, "under-resolved": 6, "before-regime": 4}),
    ({"K": "4"}, {None: 5, "under-resolved": 7, "window-off-domain": 1,
                  "before-regime": 1}),
], ids=["default", "p3", "ball-n3", "K4"])
def test_window_skip_gives_each_snapshot_one_reason(sets, counts):
    # theorem13's runs at m = 4001: p = 3 gets no window because its late
    # snapshots are under-resolved (lam < 4h), not because of the regime rule
    cfg = resolve_config("theorem13", {}, sets)
    assert cfg["m"] == 4001
    _, run = _physical_run(cfg)
    skips = Counter(window_skip(run, cfg["K"], snap) for snap in run.snapshots)
    assert skips == counts
    assert sum(skips.values()) == len(run.snapshots)
    assert set(skips) <= {None, *WINDOW_SKIPS}
    # the pipeline rescales the newest MAX_WINDOWS usable snapshots
    usable = [snap.t for snap in run.snapshots if window_skip(run, cfg["K"], snap) is None]
    assert [r.t for r in convergence_pipeline(run, K=cfg["K"]).rows] == usable[-MAX_WINDOWS:]


def test_window_skip_refuses_snapshots_at_or_past_T():
    # no solver run stores one (fit_blowup_time refuses T_est <= t_end), so
    # the snapshots are built by hand: t = T and t > T have no similarity time
    x = np.linspace(-2.0, 2.0, 4001)
    T = 1.0
    snaps = [Snapshot(t=0.0, max_u=1.0, u=np.ones_like(x))]
    for Tt in (1e-2, 1e-3, 0.0, -1e-3):
        snaps.append(Snapshot(t=T - Tt, max_u=1e4, u=np.full_like(x, 1e4)))
    run = BlowupRun(params=P2, x=x, geometry="interval", status="blew-up",
                    t_end=T + 1e-3, times=np.array([0.0, T + 1e-3]),
                    sup_u=np.array([1.0, 1e4]), min_u=1.0, max_u=1e4,
                    u_final=snaps[-1].u, snapshots=snaps,
                    T_est=T, fit={}, a_est=0.0)
    assert [window_skip(run, 1.0, snap) for snap in snaps] == [
        "before-regime", None, None, "past-T", "past-T"]
    assert [r.t for r in convergence_pipeline(run).rows] == [T - 1e-2, T - 1e-3]


def test_convergence_pipeline_rejects_global_runs():
    run = solve_physical(lambda x: 0.05 * np.cos(np.pi * x / 4.0), P2,
                         m=101, t_max=0.5)
    assert run.status == "global-existence"
    with pytest.raises(UsageError):
        convergence_pipeline(run)
