"""Rescaled and physical evolution: energy bookkeeping, the similarity
rescaling map, fixed points and linearized decay rates of the rescaled flow,
dissipation accounting, blow-up time fitting, and the convergence pipeline.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eig, solve_banded

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
)
from blowlab.evolution import (
    BlowupRun,
    Snapshot,
    _diffusion_banded,
    _diffusion_rhs,
    _laplacian_bands,
    _rescaled_banded,
    dissipation_rates,
    linearized_matrix,
    stable_mode_state,
)
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
        ev = energy(w, params)
        assert ev.total == pytest.approx(exact_energy_kappa(params), rel=1e-12)
        assert ev.dirichlet == 0.0
        assert ev.quadratic == pytest.approx(kappa(p) ** 2 / (2.0 * (p - 1.0)), rel=1e-12)
    assert exact_energy_kappa(P2) == pytest.approx(1.0 / 6.0, rel=1e-14)
    zero = SampledField.constant(grid, 0.0)
    assert energy(zero, P2).total == 0.0


def test_energy_mesh_route():
    y = np.linspace(-8.0, 8.0, 801)
    ev = energy(np.ones_like(y), P2, y)
    assert abs(ev.total - 1.0 / 6.0) < 1e-8
    yb = np.linspace(0.0, 8.0, 801)
    ev = energy(np.full_like(yb, kappa(3.0)), P33, yb, geometry="ball")
    assert abs(ev.total - exact_energy_kappa(P33)) < 1e-6
    assert ev.total == pytest.approx(ev.dirichlet + ev.quadratic - ev.potential)


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
    w, s, mask = rescale_to_similarity(u, x, t, T, 0.0, y_out, P2)
    assert s == pytest.approx(-math.log(0.25), rel=1e-14)
    assert np.abs(w[mask] - kappa(2.0)).max() < 1e-10
    assert np.all(np.isnan(w[~mask]))


def test_rescale_linear_snapshot():
    # u = x, T - t = 4, a = 0, p = 2: lambda = 2 and w(y) = 4 u(2y) = 8 y
    x = np.linspace(-4.0, 4.0, 801)
    y_out = np.linspace(-3.0, 3.0, 61)
    w, s, mask = rescale_to_similarity(x.copy(), x, 0.0, 4.0, 0.0, y_out, P2)
    assert np.array_equal(mask, np.abs(y_out) <= 2.0)
    assert np.abs(w[mask] - 8.0 * y_out[mask]).max() < 1e-10
    assert s == pytest.approx(-math.log(4.0))


def test_rescale_needs_future_time():
    x = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(UsageError):
        rescale_to_similarity(np.ones_like(x), x, 1.0, 1.0, 0.0, x, P2)


# ---------------------------------------------------------------------------
# rescaled flow


def test_flow_constant_fixed_points():
    flow = RescaledFlow(P2, m=201, ds=1e-2)
    run = flow.run(np.ones(201), s_end=1.0, record_states=False)
    assert run.status == "completed"
    assert run.sup_dev.max() < 1e-10       # kappa is a discrete fixed point
    run = flow.run(np.zeros(201), s_end=1.0)
    assert np.abs(run.states).max() == 0.0
    assert np.abs(run.energies).max() == 0.0


def test_flow_callable_init_and_step_wrapper():
    flow = RescaledFlow(P2, m=201, ds=1e-2)
    run_a = flow.run(lambda y: 1.0 + 0.01 * np.exp(-y * y), s_end=0.05)
    run_b = flow.run(1.0 + 0.01 * np.exp(-flow.y ** 2), s_end=0.05)
    assert np.array_equal(run_a.final, run_b.final)
    fresh = RescaledFlow(P2, m=201, ds=1e-2)     # builds its matrix anew
    assert np.array_equal(fresh.step(run_a.states[0]), run_a.states[1])


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
    flow = RescaledFlow(P2, m=201)
    with pytest.raises(UsageError):
        flow.run(np.ones(7), s_end=1.0)
    run = flow.run(np.ones(201), s_end=0.2, record_states=False)
    with pytest.raises(UsageError):
        run.final


def test_flow_supercritical_constant_blows_up():
    # w0 = 2 kappa: pure growth dominates, the cap event must fire
    flow = RescaledFlow(P2, m=201, ds=1e-2, cap=1e4)
    run = flow.run(np.full(201, 2.0), s_end=50.0, record_states=False)
    assert run.status == "blew-up"
    assert "cap_at_s" in run.events


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
    run = flow.run(w0, s_end=2.0, record_states=False)
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
    run = flow.run(w0, s_end=1.0, record_states=False)
    assert run.status == "completed"
    assert 0.3 < run.sup_dev[-1] / run.sup_dev[0] < 0.45
    assert np.all(np.diff(run.energies) <= 1e-12)


def test_energy_monotone_along_perturbed_run(perturbed_kappa_run):
    run = perturbed_kappa_run
    assert np.all(np.diff(run.energies) <= 1e-12)
    assert run.energies[0] > run.energies[-1]


def test_dissipation_identity(perturbed_kappa_run):
    run = perturbed_kappa_run
    rates = dissipation_rates(run)
    rep = dissipation_check(run, rates, 0.2, 1.8)
    assert rep.holds
    assert rep.rel_err < 0.02
    assert rep.lhs > 0.0 and rep.rhs > 0.0
    assert 0.19 <= rep.s_lo <= 0.21 and 1.79 <= rep.s_hi <= 1.81
    # both sides cover the one reported window [s_lo, s_hi]
    i_a, i_b = np.searchsorted(run.s_values, [rep.s_lo, rep.s_hi])
    assert rep.lhs == float(np.trapezoid(rates[i_a:i_b + 1], dx=run.ds))
    assert rep.rhs == float(run.energies[i_a] - run.energies[i_b])


def test_dissipation_rates_shape(perturbed_kappa_run):
    run = perturbed_kappa_run
    rates = dissipation_rates(run)
    assert rates.shape == run.s_values.shape and np.all(rates >= 0.0)
    short = RescaledFlow(P2, m=201, ds=1e-2).run(np.ones(201), s_end=0.01)
    assert np.array_equal(dissipation_rates(short), np.zeros(2))


def test_dissipation_argument_errors(perturbed_kappa_run):
    flow = RescaledFlow(P2, m=201, ds=1e-2)
    bare = flow.run(np.ones(201), s_end=1.0, record_states=False)
    with pytest.raises(UsageError):
        dissipation_check(bare, np.zeros(101), 0.2, 0.8)
    with pytest.raises(UsageError):
        dissipation_rates(bare)
    rates = dissipation_rates(perturbed_kappa_run)
    with pytest.raises(UsageError):
        dissipation_check(perturbed_kappa_run, rates, 0.8, 0.2)
    with pytest.raises(UsageError):
        dissipation_check(perturbed_kappa_run, rates, 1.0, 1.004)   # window too thin


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


@pytest.mark.parametrize("geometry,n", [("interval", 1), ("ball", 3)])
def test_crank_nicolson_halves_sum_to_twice_identity(geometry, n):
    # (I - dt/2 Lap) u + (I + dt/2 Lap) u = 2u on every row that is not a
    # Dirichlet wall; the ball's origin row is included
    x = np.linspace(-2.0, 2.0, 201) if geometry == "interval" else np.linspace(0.0, 2.0, 201)
    u = np.random.default_rng(5).standard_normal(x.size)
    dt = 3e-3
    ab = _diffusion_banded(x, dt, geometry, n)
    left = ab[1] * u
    left[:-1] += ab[0, 1:] * u[1:]
    left[1:] += ab[2, :-1] * u[:-1]
    total = left + _diffusion_rhs(u, x, dt, geometry, n)
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
        solve_physical(np.ones(7), P2, m=101)
    with pytest.raises(UsageError):                 # 10 u_cap overflows
        solve_physical(ones, P2, u_cap=1e308)


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
    d = rep.to_dict()
    assert d["passed"] is True and len(d["rows"]) == len(rep.rows)


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


def test_convergence_pipeline_rejects_global_runs():
    run = solve_physical(lambda x: 0.05 * np.cos(np.pi * x / 4.0), P2,
                         m=101, t_max=0.5)
    assert run.status == "global-existence"
    with pytest.raises(UsageError):
        convergence_pipeline(run)
