"""Shooting for radial steady profiles: series start, event classification,
equation residuals, the fixed-step cross-check, and bracketing scans.

In the probed ranges the constant w = kappa is the only bounded positive
profile, so bisection over the shooting parameter must re-find alpha = kappa.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

import blowlab.profiles as profiles

from blowlab import (
    DomainError,
    NumericError,
    ProblemParams,
    RadialProfile,
    UsageError,
    extended_profile,
    kappa,
    profile_field,
    profile_residual,
    scan_profiles,
    shoot,
)
from blowlab.profiles import (
    OUTCOMES,
    TAIL_TOL,
    Bracket,
    _rhs,
    _shot_start,
    accepts_bounded_positive,
    classify_lanes,
    rk4_shoot,
    series_start,
)
from blowlab.calculus import cutoff_field
from blowlab.quadrature import cutoff_radial, radial_grid, tensor_grid

P21 = ProblemParams(n=1, p=2.0)
P23 = ProblemParams(n=3, p=2.0)


def test_series_start_closed_form():
    # alpha=2, p=2, n=3: c = (2 - 4)/6 = -1/3, d = c*2*(1-2)/20 = 1/30
    r0, w0, w0r, c, d = series_start(2.0, P23)
    assert c == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert d == pytest.approx(1.0 / 30.0, rel=1e-14)
    assert 0.0 < r0 <= 1e-3
    assert w0 == pytest.approx(2.0 + c * r0**2 + d * r0**4, rel=1e-15)
    assert w0r == pytest.approx(2.0 * c * r0 + 4.0 * d * r0**3, rel=1e-15)
    # at alpha = kappa both coefficients vanish: the constant solution
    _, w0, w0r, c, d = series_start(kappa(2.0), P21)
    assert c == 0.0 and d == 0.0 and w0 == 1.0 and w0r == 0.0


@pytest.mark.parametrize("alpha, p", [(1e155, 2.0), (1e300, 2.0), (1.5, 1e300)],
                         ids=["c-overflows", "alpha-1e300", "pow-overflows"])
def test_series_start_out_of_float_range_is_refused(alpha, p):
    # alpha = 1e155 gave (0.0, nan, nan, -inf, inf), on which the lanes never
    # ended: the step size went nan and never failed the min-step test; and
    # alpha^(p-1) raised OverflowError at p = 1e300
    params = ProblemParams(n=1, p=p)
    for start in (series_start, lambda a, par: shoot(a, par),
                  lambda a, par: classify_lanes([0.5, a], par), rk4_shoot):
        with pytest.raises(DomainError, match="float range"):
            start(alpha, params)


def test_series_coefficients_recovered_from_trajectory():
    prof = shoot(2.0, P23)
    near = (prof.r > 0.0) & (prof.r <= 0.05)
    assert near.sum() > 20
    r2 = prof.r[near] ** 2
    vals = (prof.w[near] - 2.0) / r2
    d_fit, c_fit = np.polyfit(r2, vals, 1)
    assert abs(c_fit - (-1.0 / 3.0)) < 1e-4 * (1.0 / 3.0)
    assert abs(d_fit - 1.0 / 30.0) < 1e-2 * (1.0 / 30.0)


def test_shoot_at_kappa_is_constant():
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        prof = shoot(kappa(p), params)
        assert prof.outcome == "reached-Rmax-bounded"
        assert prof.events == {"zero_at": None, "cap_at": None}
        assert np.abs(prof.w - kappa(p)).max() < 1e-10
        assert profile_residual(prof) < 1e-10
        mn = prof.H_values().min()
        assert mn > 0.0 and mn == pytest.approx(kappa(p) / (p - 1.0), rel=1e-9)


def test_shoot_at_kappa_random_exponents():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = 1.0 + 10.0 ** rng.uniform(-0.5, 0.8)
        params = ProblemParams(n=int(rng.integers(1, 5)), p=p)
        prof = shoot(kappa(p), params, mesh_points=801)
        assert prof.outcome == "reached-Rmax-bounded"
        assert profile_residual(prof) < 1e-10


def test_hit_zero_classification():
    prof = shoot(0.5, P21)
    assert prof.outcome == "hit-zero"
    assert prof.events["zero_at"] == pytest.approx(4.367534390392469, rel=1e-6)
    assert prof.r_end == prof.events["zero_at"]
    assert abs(prof.w[-1]) < 1e-8
    # both sides of kappa leave the bounded set: the profile is isolated
    assert shoot(0.999, P21).outcome == "hit-zero"
    assert shoot(1.001, P21).outcome == "hit-zero"


def test_cap_classification():
    # alpha=0.2, n=3, p=2 rises to about 3.1 before turning; a cap at 2
    # fires while w is still positive and climbing
    prof = shoot(0.2, P23, cap=2.0)
    assert prof.outcome == "blew-up"
    assert prof.events["cap_at"] is not None
    assert prof.r_end == prof.events["cap_at"]
    assert prof.w[-1] == pytest.approx(2.0, abs=1e-6)
    assert prof.outcome in OUTCOMES


def test_profile_residual_flags_corruption():
    prof = shoot(kappa(2.0), P21)
    base = profile_residual(prof)
    bad = RadialProfile(
        params=prof.params, alpha=prof.alpha, r=prof.r,
        w=prof.w + 1e-3 * np.sin(50.0 * prof.r),
        w_r=prof.w_r + 1e-3 * np.cos(50.0 * prof.r),
        outcome=prof.outcome, r_end=prof.r_end)
    scale = float(np.abs(bad.w).max())
    assert profile_residual(bad) > 1e-3 * scale
    assert profile_residual(bad) > 100.0 * max(base, 1e-12)


def test_residual_needs_enough_points():
    prof = shoot(kappa(2.0), P21, mesh_points=5)
    with pytest.raises(UsageError):
        profile_residual(prof)


def test_rk4_agrees_with_adaptive():
    # compare on [r0, 5], inside the event-free range of this trajectory
    prof = shoot(0.2, P23, r_max=5.0, mesh_points=8001)
    spl = CubicHermiteSpline(prof.r, prof.w, prof.w_r)
    rs, ws, _ = rk4_shoot(0.2, P23, r_max=5.0, h=1e-3)
    assert np.abs(spl(rs) - ws).max() < 1e-6


def test_rk4_fourth_order_convergence():
    prof = shoot(0.2, P23, r_max=5.0, mesh_points=8001)
    spl = CubicHermiteSpline(prof.r, prof.w, prof.w_r)
    errs = []
    for h in (0.1, 0.05, 0.025):
        rs, ws, _ = rk4_shoot(0.2, P23, r_max=5.0, h=h)
        errs.append(np.abs(spl(rs) - ws).max())
    assert 10.0 < errs[0] / errs[1] < 24.0
    assert 10.0 < errs[1] / errs[2] < 24.0


def test_accepts_bounded_positive():
    assert accepts_bounded_positive(shoot(kappa(2.0), P21))
    assert not accepts_bounded_positive(shoot(0.5, P21))          # hit zero early
    assert not accepts_bounded_positive(shoot(0.2, P23, cap=2.0))  # capped


def test_trusted_radius():
    prof = shoot(kappa(2.0), P21)
    assert prof.trusted_radius() == pytest.approx(20.0)
    prof = shoot(0.5, P21)
    assert prof.trusted_radius() < prof.r_end
    assert prof.w[prof.r <= prof.trusted_radius()].min() > 0.0


def test_scan_rediscovers_kappa():
    res = scan_profiles(P21, 0.5, 1.5, count=5, mesh_points=401)
    assert res.outcomes == ["hit-zero", "hit-zero", "reached-Rmax-bounded",
                            "hit-zero", "hit-zero"]
    assert len(res.brackets) == 2
    left, right = res.brackets
    assert left.alpha_hi == 1.0 and left.outcome_hi == "reached-Rmax-bounded"
    assert right.alpha_lo == 1.0 and right.outcome_lo == "reached-Rmax-bounded"
    for b in res.brackets:
        assert b.width <= 1.1e-8
        assert abs(b.midpoint - kappa(2.0)) < 1e-8
    rows = res.rows()
    assert len(rows) == 5 and rows[2][1] == "reached-Rmax-bounded"


def test_scan_without_candidates():
    # away from the alpha = kappa mesh point every trajectory leaves the
    # positive bounded band; no accepted candidate and nothing to bracket
    params = ProblemParams(n=3, p=3.0)
    res = scan_profiles(params, 0.05, 3.0 * kappa(3.0), count=9, mesh_points=201)
    assert all(o == "hit-zero" for o in res.outcomes)
    assert res.brackets == []
    for a in res.alphas:
        assert not accepts_bounded_positive(shoot(float(a), params, mesh_points=201))


def test_scan_log_spacing_and_errors():
    res = scan_profiles(P21, 0.25, 4.0, count=3, spacing="log", mesh_points=201)
    assert res.alphas == pytest.approx([0.25, 1.0, 4.0])
    with pytest.raises(DomainError):
        scan_profiles(P21, -1.0, 1.0)
    with pytest.raises(DomainError):
        scan_profiles(P21, 1.0, 0.5)
    with pytest.raises(UsageError):
        scan_profiles(P21, 0.5, 1.5, count=1)
    with pytest.raises(UsageError):
        scan_profiles(P21, 0.5, 1.5, spacing="cubic")


def test_shoot_argument_errors():
    with pytest.raises(DomainError):
        shoot(0.0, P21)
    with pytest.raises(DomainError):
        shoot(-1.0, P21)
    with pytest.raises(DomainError):
        shoot(math.nan, P21)
    with pytest.raises(UsageError):
        shoot(1.0, P21, r_max=-1.0)
    with pytest.raises(UsageError):
        shoot(1.0, P21, r_max=1e-4)   # below the series start radius
    for r_max in (math.nan, math.inf):
        with pytest.raises(UsageError):
            shoot(0.5, P21, r_max=r_max)
    with pytest.raises(UsageError):
        shoot(1.0, P21, cap=0.0)
    with pytest.raises(DomainError):
        rk4_shoot(0.0, P21)


def test_extended_profile_power_tail():
    prof = shoot(kappa(2.0), P21)
    w_at, r_cut = extended_profile(prof)
    assert r_cut == pytest.approx(20.0)
    assert w_at(np.array([0.0]))[0][0] == pytest.approx(1.0, abs=1e-12)
    assert w_at(np.array([5.0]))[0][0] == pytest.approx(1.0, abs=1e-9)
    # beyond the cut: w_cut (r/r_cut)^(-2/(p-1))
    w, w_r = w_at(np.array([25.0]))
    assert w[0] == pytest.approx((25.0 / 20.0) ** -2.0, rel=1e-9)
    assert w_r[0] == pytest.approx(-2.0 / 20.0 * (25.0 / 20.0) ** -3.0, rel=1e-9)


@pytest.mark.parametrize("n, p", [(1, 2.0), (2, 2.0), (3, 3.0)])
def test_snapped_extension_is_the_spline_extension(n, p):
    # a shot snapped to kappa extends without a spline, bitwise as the
    # Hermite spline through its constant trajectory extends, on the spectrum
    # grids and the 1-D fd mesh
    prof = shoot(kappa(p), ProblemParams(n=n, p=p))
    assert prof.meta["snapped_to_constant"]
    spline = RadialProfile(params=prof.params, alpha=prof.alpha, r=prof.r, w=prof.w,
                           w_r=prof.w_r, outcome=prof.outcome, r_end=prof.r_end,
                           meta={k: v for k, v in prof.meta.items()
                                 if k != "snapped_to_constant"})
    grid = tensor_grid(n, 32) if n < 3 else radial_grid(n, 32)
    fd_mesh = np.abs(np.linspace(-12.0, 12.0, 2401))
    (w_at, r_cut), (spl_at, spl_cut) = extended_profile(prof), extended_profile(spline)
    assert r_cut == spl_cut
    for r in (fd_mesh, np.sqrt((grid.points ** 2).sum(axis=1)), np.array([0.0, 25.0])):
        for got, want in zip(w_at(r), spl_at(r)):
            assert got.tobytes() == want.tobytes()
    got, want = profile_field(prof, grid), profile_field(spline, grid)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.grad.tobytes() == want.grad.tobytes()


def test_extended_profile_needs_positive_range():
    r = np.linspace(1e-3, 1.0, 50)
    junk = RadialProfile(params=P21, alpha=1.0, r=r, w=-np.ones(50),
                         w_r=np.zeros(50), outcome="hit-zero", r_end=1.0)
    with pytest.raises(UsageError):
        extended_profile(junk)


@pytest.mark.parametrize("grid", [tensor_grid(1, 64), tensor_grid(2, 33),
                                  radial_grid(3, 32)],
                         ids=["tensor-n1", "tensor-n2-origin", "radial-n3"])
def test_radial_field_matches_the_per_caller_lifts(grid):
    # the lift cutoff_field and profile_field each carried before radial_field
    def lifted(f):
        if grid.kind == "radial":
            vals, slope = f(grid.r)
            return vals, slope.reshape(-1, 1)
        rr = np.sqrt((grid.points**2).sum(axis=1))
        vals, slope = f(rr)
        with np.errstate(invalid="ignore"):
            unit = np.where(rr[:, None] > 0.0,
                            grid.points / np.maximum(rr, 1e-300)[:, None], 0.0)
        return vals, slope[:, None] * unit

    prof = shoot(0.9, ProblemParams(n=grid.n, p=2.0))
    w_at, _ = extended_profile(prof)
    for field, (vals, grad) in (
            (profile_field(prof, grid), lifted(w_at)),
            (cutoff_field(grid, 3.0), lifted(lambda r: cutoff_radial(r, 3.0)))):
        assert np.array_equal(field.values, vals)
        assert np.array_equal(field.grad, grad)


def test_profile_field_on_radial_grid():
    prof = shoot(kappa(3.0), ProblemParams(n=3, p=3.0))
    grid = radial_grid(3, 32)
    f = profile_field(prof, grid)
    assert f.values.shape == (grid.npoints,)
    assert f.grad.shape == (grid.npoints, 1)
    inside = grid.r <= 20.0
    assert np.abs(f.values[inside] - kappa(3.0)).max() < 1e-9
    assert np.all(f.values > 0.0)


EVENT_OUTCOMES = ("hit-zero", "blew-up")


@st.composite
def shot_cases(draw):
    """(params, alpha, shoot keywords): alpha near kappa (the snap band
    included), below it, far above it, or anywhere below 3 kappa; r_max down
    to 0.05; the default cap, or one a little above kappa that shots rising
    from below kappa cross."""
    p = draw(st.sampled_from([1.5, 2.0, 3.0, 5.0]) | st.floats(1.2, 6.0))
    kap = kappa(p)
    where = draw(st.sampled_from(["near", "below", "far", "wide"]))
    if where == "near":
        alpha = kap * (1.0 + draw(st.floats(-1e-3, 1e-3)))
    elif where == "below":
        alpha = kap * draw(st.floats(0.05, 0.95))
    elif where == "far":
        alpha = kap * draw(st.floats(10.0, 1e3))
    else:
        alpha = kap * draw(st.floats(0.05, 3.0))
    kw = {"r_max": draw(st.sampled_from([20.0]) | st.floats(0.05, 6.0)),
          "cap": draw(st.just(1e6) | st.floats(1.05, 3.0).map(lambda f: f * kap))}
    return ProblemParams(n=draw(st.integers(1, 4)), p=p), alpha, kw


def scipy_solution(params, r0, w0, w0r, r_max, rtol, atol, cap):
    """solve_ivp's DOP853 shot with dense output, ended by the first terminal
    event: w crossing 0 downward or |w| crossing cap upward."""
    def ev_zero(r, z):
        return z[0]
    ev_zero.terminal = True
    ev_zero.direction = -1.0

    def ev_cap(r, z):
        return abs(z[0]) - cap
    ev_cap.terminal = True
    ev_cap.direction = 1.0

    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(_rhs(params, cap), (r0, r_max), (w0, w0r),
                         method="DOP853", rtol=rtol, atol=atol,
                         events=(ev_zero, ev_cap), dense_output=True)


def scipy_shoot(alpha, params, r_max=20.0, rtol=1e-10, atol=1e-12, cap=1e6,
                mesh_points=4001):
    """shoot() as it ran on scipy's solve_ivp, before it became one lane: the
    reference that shoot() and the lanes repeat bitwise. rk4_shoot stays the
    independent oracle."""
    r0, w0, w0r, c, d, snapped = _shot_start(alpha, params, r_max, cap)
    meta = {"r0": r0, "c": c, "d": d, "rtol": rtol, "atol": atol,
            "cap": cap, "r_max": r_max}
    if snapped:
        rr = np.linspace(r0, r_max, mesh_points)
        return RadialProfile(
            params=params, alpha=alpha, r=rr, w=np.full(mesh_points, alpha),
            w_r=np.zeros(mesh_points), outcome="reached-Rmax-bounded",
            r_end=float(r_max), events={"zero_at": None, "cap_at": None},
            meta=meta | {"c": 0.0, "d": 0.0, "snapped_to_constant": True},
        )

    sol = scipy_solution(params, r0, w0, w0r, r_max, rtol, atol, cap)
    if sol.status == -1:
        raise NumericError(f"integration failed at r = {sol.t[-1]:.6g}: {sol.message}")

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
        near = (np.abs(w[quarter] - kap).max() <= TAIL_TOL * max(1.0, kap)
                and np.abs(w_r[quarter]).max() <= TAIL_TOL)
        moved = float(np.abs(w - kap).max()) > 10.0 * TAIL_TOL * max(1.0, kap)
        outcome = "converged-to-kappa-like-tail" if (near and moved) else "reached-Rmax-bounded"

    return RadialProfile(
        params=params, alpha=alpha, r=rr, w=w, w_r=w_r, outcome=outcome,
        r_end=r_end,
        events={"zero_at": None if math.isinf(t_zero) else float(t_zero),
                "cap_at": None if math.isinf(t_cap) else float(t_cap)},
        meta=meta,
    )


def assert_same_shot(got, want):
    assert (got.outcome, got.r_end, got.events, got.meta) == \
        (want.outcome, want.r_end, want.events, want.meta)
    for name in ("r", "w", "w_r"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# Lanes against solve_ivp, measured before these bounds were fixed: over this
# strategy's cases, 480 random lanes in 40 batches of the same four kinds,
# and 200 lanes with 1e-12 <= |alpha/kappa - 1| <= 1e-6 (p in {1.5, 2, 2.7,
# 3, 5}, n = 1..4), every outcome and every r_end was bitwise equal: each
# lane repeats scipy's arithmetic operation for operation. So the band with
# |alpha/kappa - 1| < 1e-6, where a last-bit difference in a step would grow
# like e^{r^2/4} before the event, keeps the relative 1e-12 of the far band.
R_END_RTOL = 1e-12


def assert_lanes_match_reference(alphas, params, **kw):
    # shoot() is the scipy reference's shot bitwise, mesh included; a lane
    # gives None exactly when no event decides the reference's outcome, and
    # otherwise its outcome and r_end
    for alpha, got in zip(alphas, classify_lanes(alphas, params, **kw)):
        ref = scipy_shoot(alpha, params, mesh_points=401, **kw)
        assert_same_shot(shoot(alpha, params, mesh_points=401, **kw), ref)
        if ref.outcome not in EVENT_OUTCOMES:
            assert got is None, alpha
            continue
        assert got is not None and got[0] == ref.outcome, alpha
        assert got[1] == pytest.approx(ref.r_end, rel=R_END_RTOL, abs=0.0), alpha


@pytest.mark.parametrize("alpha, params, cap", [
    (0.5, P21, 1e6), (0.2, P23, 2.0), (0.99, P21, 1e6), (40.0, ProblemParams(n=2, p=1.5), 1e6)],
    ids=["hit-zero", "blew-up", "bounded", "far"])
def test_dense_output_on_any_mesh_is_scipys(alpha, params, cap):
    # a shot's mesh meets a step boundary only at its two ends; on a mesh
    # through every boundary and every step's midpoint as well, the lane's
    # steps give OdeSolution's values
    r0, w0, w0r, _, _ = series_start(alpha, params)
    result, steps = [None], []
    profiles._run_lanes(params, np.zeros(1, dtype=int), np.array([r0]),
                        np.array([[w0, w0r]]), 5.0, 1e-10, 1e-12, cap, [alpha], result, steps)
    sol = scipy_solution(params, r0, w0, w0r, 5.0, 1e-10, 1e-12, cap)
    r_end = result[0][1] if result[0] else 5.0
    assert r_end == sol.t[-1] and len(steps) == sol.t.size - 1 > 5
    ts = np.array([step[0] for step in steps] + [r_end])
    rr = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]), np.linspace(r0, r_end, 101)]))
    want = sol.sol(rr)
    for got, want_row in zip(profiles._on_mesh(params, cap, steps, r_end, rr), want):
        assert got.tobytes() == want_row.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@example((P21, 0.5, {"r_max": 20.0, "cap": 1.0}))     # blew-up
@example((P21, 0.99, {"r_max": 3.0, "cap": 1e6}))     # undecided: bounded
@example((P21, 1.0, {"r_max": 20.0, "cap": 1e6}))     # undecided: snap band
@given(shot_cases())
def test_lane_classifier_matches_classify_shot(case):
    # one lane and shoot() against the scipy reference's shot
    params, alpha, kw = case
    assert_lanes_match_reference([alpha], params, **kw)


@settings(max_examples=30, deadline=None, derandomize=True)
@example((P21, 0.5, {"r_max": 20.0, "cap": 1.0}))     # blew-up
@example((P21, 0.99, {"r_max": 3.0, "cap": 1e6}))     # undecided: bounded
@example((P21, 1.0, {"r_max": 20.0, "cap": 1e6}))     # undecided: snap band
@given(shot_cases())
def test_classifier_matches_shoot(case):
    # the scan classifies a grid alpha by its lane, or by shoot() where no
    # event decides the lane; either way it reads the scipy reference's
    # outcome and r_end
    params, alpha, kw = case
    res = scan_profiles(params, alpha, 2.0 * alpha, count=2, bisect_tol=math.inf,
                        mesh_points=401, **kw)
    assert all((b.alpha_lo, b.alpha_hi) == tuple(res.alphas) for b in res.brackets)
    for a, outcome, r_end in zip(res.alphas, res.outcomes, res.r_ends):
        ref = scipy_shoot(float(a), params, mesh_points=401, **kw)
        assert outcome == ref.outcome, a
        assert r_end == pytest.approx(ref.r_end, rel=R_END_RTOL, abs=0.0), a


@pytest.mark.parametrize("p, n, kw", [
    (2.0, 1, {}),
    (3.0, 3, {"cap": 2.0}),
    (5.0, 2, {"r_max": 4.0}),
    (1.5, 4, {"cap": 30.0}),
], ids=["p2-n1", "p3-n3-cap", "p5-n2-short", "p1.5-n4-cap"])
def test_lane_batch_matches_shoot(p, n, kw):
    # one batch mixing every kind of lane: snapped, near kappa (long), early
    # events, far above kappa, and lanes that may reach r_max; lanes leave
    # the batch at different iterations
    kap = kappa(p)
    rel = [1.0, 1.0 + 3e-9, 1.0 - 2e-7, 0.999, 1.001, 0.05, 0.3, 0.7,
           1.5, 2.5, 10.0, 300.0]
    alphas = [kap * f for f in rel]
    assert_lanes_match_reference(alphas, ProblemParams(n=n, p=p), **kw)


@pytest.mark.parametrize("alpha, params, cap", [
    (0.5, P21, 1e6), (0.2, P23, 2.0), (kappa(3.0) * 1.1, ProblemParams(n=3, p=3.0), 1e6),
    (40.0, ProblemParams(n=2, p=1.5), 1e6)])
def test_one_lane_step_is_scipys_dop853_step(alpha, params, cap):
    # the public stepper from the series start: first step size, the state
    # after the step and the next step size agree to a few ulp. scipy's
    # step() retries a rejected attempt with a smaller step; so do the lanes
    r0, w0, w0r, _, _ = series_start(alpha, params)
    solver = DOP853(_rhs(params, cap), r0, np.array([w0, w0r]), 20.0,
                    rtol=1e-10, atol=1e-12)
    drift, rhs = profiles._rhs_lanes(params, cap)
    t, y = np.array([r0]), np.array([[w0, w0r]])
    f = np.empty_like(y)
    rhs(drift(t), y, f)
    h_abs = profiles._initial_step(drift, rhs, t, y, f, 20.0, 1e-10, 1e-12)
    np.testing.assert_array_max_ulp(h_abs, [solver.h_abs], maxulp=4)

    rejected = np.zeros(1, dtype=bool)
    attempts = 0
    while True:
        attempts += 1
        t_new, y_new, _, ok, h_next = profiles._step(
            drift, rhs, t, y, f, h_abs, rejected, 20.0, 1e-10, 1e-12)
        if ok[0]:
            break
        h_abs, rejected = h_next, ~ok
        assert attempts < 20
    solver.step()
    assert solver.status == "running"
    np.testing.assert_array_max_ulp(t_new, [solver.t], maxulp=4)
    np.testing.assert_array_max_ulp(y_new[0], solver.y, maxulp=4)
    np.testing.assert_array_max_ulp(h_next, [solver.h_abs], maxulp=4)


def test_dop853_tableau_is_scipys():
    # blowlab._dop853 is data copied from scipy, bitwise
    tab = profiles._DOP853
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(tab, name) == getattr(dop853_coefficients, name)
    for name in ("C", "A", "B", "E3", "E5", "D"):
        ours, theirs = getattr(tab, name), getattr(dop853_coefficients, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def brentq_outcome(find, f, a, b, xtol, rtol, maxiter=100):
    """find's root, or the type of the exception it raises."""
    try:
        return find(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def port(f, a, b, xtol, rtol, maxiter=100):
    return profiles._brentq(f, a, b, xtol, rtol, maxiter)


EPS = float(np.finfo(float).eps)


@st.composite
def root_cases(draw):
    """(f, a, b, xtol): a random polynomial or a shifted, scaled sine on a
    random interval; where the ends have equal signs both must raise."""
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(1e-6, 10.0))
    xtol = 10.0 ** draw(st.floats(math.log10(4 * EPS), -8.0))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=7))
        f = lambda x: sum(c * x ** k for k, c in enumerate(coeffs))   # noqa: E731
    else:
        scale, shift = draw(st.floats(0.1, 10.0)), draw(st.floats(-3.0, 3.0))
        f = lambda x: math.sin(scale * x + shift)   # noqa: E731
    return f, a, b, xtol


@settings(max_examples=400, deadline=None, derandomize=True)
@given(root_cases())
def test_brentq_port_is_scipys(case):
    f, a, b, xtol = case
    want = brentq_outcome(brentq, f, a, b, xtol, 4 * EPS)
    got = brentq_outcome(port, f, a, b, xtol, 4 * EPS)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("f, a, b, maxiter, error", [
    (lambda x: 1.0 + x * x, -1.0, 1.0, 100, ValueError),         # equal signs
    (lambda x: 1e-200, 0.0, 1.0, 100, ValueError),                # f(a) f(b) underflows
    (lambda x: math.nan, 0.0, 1.0, 100, ValueError),
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 100, ValueError),
    (lambda x: math.nan if 0.45 < x < 0.55 else x ** 3 - 0.125, 0.0, 1.0, 100, ValueError),
    (lambda x: x ** 3 - 0.1, 0.0, 1.0, 2, RuntimeError),          # maxiter runs out
], ids=["equal-signs", "underflow", "nan-at-a", "nan-at-b", "nan-inside", "maxiter"])
def test_brentq_port_raises_as_scipy(f, a, b, maxiter, error):
    for find in (brentq, port):
        with pytest.raises(error):
            find(f, a, b, xtol=4 * EPS, rtol=4 * EPS, maxiter=maxiter)


@pytest.mark.parametrize("alphas, params, kw", [
    ([0.3, 0.9, 1.2, 5.0], P21, {}),
    ([0.5, 2.0], P21, {"cap": 1.0}),
    ([0.2, 0.6, 3.0], ProblemParams(n=3, p=3.0), {"cap": 2.0}),
], ids=["hit-zero", "blew-up", "n3-p3-cap"])
def test_brentq_port_on_lane_events_is_scipys(monkeypatch, alphas, params, kw):
    # every root the lanes locate, on their real event functions, is scipy's
    calls, ported = [], profiles._brentq

    def both(f, a, b, xtol, rtol, maxiter=100):
        got = ported(f, a, b, xtol, rtol, maxiter)
        assert got == brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        calls.append(got)
        return got

    monkeypatch.setattr(profiles, "_brentq", both)
    results = classify_lanes(alphas, params, **kw)
    assert len(calls) >= sum(r is not None for r in results) > 0


def test_lane_rhs_is_bitwise_rhs():
    # the lanes' right-hand side against _rhs, the one the dense output's
    # extra stages and the scipy reference evaluate
    rng = np.random.default_rng(3)
    size = 2000
    rs = 10.0 ** rng.uniform(-4.0, 1.3, size)
    ws = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
    wrs = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 4.0, size)
    for p, n in [(2.0, 1), (3.0, 3), (5.0, 3), (1.5, 1), (2.7, 4)]:
        params = ProblemParams(n=n, p=p)
        scalar = _rhs(params, 1e6)
        drift, rhs = profiles._rhs_lanes(params, 1e6)
        got = np.empty((size, 2))
        rhs(drift(rs), np.column_stack([ws, wrs]), got)
        want = np.array([scalar(r, (w, wr)) for r, w, wr in zip(rs, ws, wrs)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (p, n)


def test_lane_classifier_argument_errors():
    with pytest.raises(DomainError):
        classify_lanes([0.5, 0.0], P21)
    with pytest.raises(UsageError):
        classify_lanes([0.5], P21, r_max=1e-4)
    with pytest.raises(UsageError):
        classify_lanes([0.5], P21, cap=-1.0)
    with pytest.raises(UsageError):
        classify_lanes([0.5], P21, r_max=math.inf)
    assert classify_lanes([], P21) == []


def test_classifier_falls_back_only_without_an_event(monkeypatch):
    # the lanes never shoot: an alpha no event decides comes back None, for
    # the caller to shoot
    def no_shoot(*args, **kw):
        raise AssertionError("the lanes called shoot()")

    monkeypatch.setattr(profiles, "shoot", no_shoot)
    [(outcome, r_end)] = classify_lanes([0.5], P21, cap=1.0)
    assert outcome == "blew-up" and r_end < 20.0
    assert classify_lanes([0.5], P21)[0][0] == "hit-zero"
    assert classify_lanes([0.99, kappa(2.0)], P21, r_max=3.0) == [None, None]


@pytest.mark.parametrize("lo, hi, kw, n_shots", [
    (0.5, 1.5, {"count": 5}, 1),                # kappa on the grid: snapped
    (0.9, 1.1, {"count": 5, "r_max": 3.0}, 5),  # bounded up to a short r_max
    (0.2, 2.0, {"count": 7, "cap": 1.5}, 0),    # a blew-up/hit-zero bracket
    (0.5, 1.5, {"count": 9, "r_max": 5.0}, 21), # brackets with a bounded side
], ids=["snap", "short-rmax", "cap", "bounded-side"])
def test_scan_shoots_only_undecided_alphas(monkeypatch, lo, hi, kw, n_shots):
    classified, shot = [], []
    real_classify, real_shoot = profiles.classify_lanes, profiles.shoot

    def counting_classify(alphas, params, **lane_kw):
        assert "mesh_points" not in lane_kw       # the lanes build no mesh
        res = real_classify(alphas, params, **lane_kw)
        # None: an alpha that no event decided
        classified.extend((alpha, r and r[0]) for alpha, r in zip(alphas, res))
        return res

    def counting_shoot(alpha, params, **shoot_kw):
        assert shoot_kw["mesh_points"] == 201     # scan's **shoot_kw reaches it
        shot.append(alpha)
        return real_shoot(alpha, params, **shoot_kw)

    monkeypatch.setattr(profiles, "classify_lanes", counting_classify)
    monkeypatch.setattr(profiles, "shoot", counting_shoot)
    res = scan_profiles(P21, lo, hi, mesh_points=201, **kw)
    undecided = [a for a, o in classified if o not in EVENT_OUTCOMES]
    grid_shot = [a for a in res.alphas.tolist() if a in undecided]
    assert shot[:len(grid_shot)] == grid_shot
    assert set(shot) <= set(undecided) and len(set(shot)) == len(shot)
    assert len(set(a for a, _ in classified)) == len(classified)   # cached
    # the grid's outcomes are the lanes', or shoot()'s where a lane gave None
    assert [a for a, _ in classified[:len(res.alphas)]] == res.alphas.tolist()
    assert all(o_lane in (None, o) for o, (_, o_lane) in zip(res.outcomes, classified))
    assert len(classified) > len(res.alphas) or not res.brackets

    # shoot() runs for the alphas the sequential loop shot: the grid's
    # undecided ones and the undecided midpoints its bisection visits
    bisect_shot = shot[len(grid_shot):]
    shot_kw = {k: v for k, v in kw.items() if k != "count"}
    undecided_midpoints = []

    def classify_one(alpha):
        prof = real_shoot(alpha, P21, mesh_points=201, **shot_kw)
        if prof.outcome not in EVENT_OUTCOMES:
            undecided_midpoints.append(alpha)
        return prof.outcome, prof.r_end

    want = sequential_brackets(res.alphas, res.outcomes, classify_one, 1e-8)
    assert res.brackets == want
    assert sorted(bisect_shot) == sorted(undecided_midpoints)
    assert len(grid_shot) + len(bisect_shot) == n_shots


def _rhs_numpy_scalars(params, cap):
    # the right-hand side as it was before _rhs converted to Python floats;
    # with an ndarray z it computes on numpy float64 scalars
    p, n = params.p, params.n
    soft = 10.0 * cap  # keep powers finite on rejected trial steps past the cap

    def rhs(r, z):
        w, wr = z
        ww = min(abs(w), soft)
        return (wr, -((n - 1.0) / r - 0.5 * r) * wr + w / (p - 1.0) - ww ** (p - 1.0) * w)

    return rhs


@pytest.mark.parametrize("p, n", [(2.0, 1), (3.0, 3), (5.0, 3), (1.5, 1), (2.0, 4)])
def test_rhs_is_bitwise_the_numpy_scalar_rhs(p, n):
    params = ProblemParams(n=n, p=p)
    cap = 1e6
    new, old = _rhs(params, cap), _rhs_numpy_scalars(params, cap)
    rng = np.random.default_rng(int(10 * p) + n)
    size = 4000
    rs = 10.0 ** rng.uniform(-4.0, 1.3, size)
    # magnitudes from 1e-8 past the 10 cap clamp at 1e7, both signs
    ws = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
    wrs = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8.0, 4.0, size)
    for r, w, wr in zip(rs.tolist(), ws.tolist(), wrs.tolist()):
        want = np.array(old(r, np.array([w, wr])), dtype=float).view(np.int64)
        for z in (np.array([w, wr]), (w, wr)):
            got = np.array(new(r, z), dtype=float).view(np.int64)
            assert np.array_equal(got, want), (r, w, wr, z)


def sequential_brackets(alphas, outcomes, classify, bisect_tol):
    # scan_profiles' bisection before it ran in lanes, carried verbatim, plus
    # the stop once no midpoint lies strictly inside (lo, hi)
    brackets = []
    for a, b, oa, ob in zip(alphas[:-1], alphas[1:], outcomes[:-1], outcomes[1:]):
        if oa == ob:
            continue
        lo, hi, olo, ohi = float(a), float(b), oa, ob
        while hi - lo > bisect_tol * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            om = classify(mid)[0]
            if om == olo:
                lo = mid
            else:
                hi, ohi = mid, om
        brackets.append(Bracket(lo, hi, olo, ohi))
    return brackets


@pytest.mark.parametrize("seed", range(6))
def test_lane_bisection_is_the_sequential_loop(monkeypatch, seed):
    # a stub classifier with random separatrix points: the outcome of alpha
    # is a fixed label of the interval between consecutive points it lies in
    rng = np.random.default_rng(seed)
    lo, hi = 0.05 + rng.uniform(0.0, 1.0), 2.0 + rng.uniform(0.0, 30.0)
    cuts = np.sort(rng.uniform(lo, hi, int(rng.integers(3, 9))))
    # a cut on a grid point as well: the snap-band case of real scans
    count = int(rng.integers(5, 40))
    grid = np.linspace(lo, hi, count)
    cuts = np.sort(np.append(cuts, grid[int(rng.integers(1, count - 1))]))
    labels = [str(x) for x in rng.choice(list(OUTCOMES), cuts.size + 1)]

    def stub_one(alpha):
        return labels[int(np.searchsorted(cuts, alpha, side="right"))], 1.0

    batches = []

    def stub(alphas, params, **kw):
        batches.append(len(alphas))
        return [stub_one(a) for a in alphas]

    monkeypatch.setattr(profiles, "classify_lanes", stub)
    for bisect_tol in (0.25, 1e-3, 1e-8, 1e-13, 1e-20):
        batches.clear()
        res = scan_profiles(P21, lo, hi, count=count, bisect_tol=bisect_tol)
        want = sequential_brackets(res.alphas, res.outcomes, stub_one, bisect_tol)
        assert res.brackets == want
        assert len(res.brackets) == sum(a != b for a, b in
                                        zip(res.outcomes[:-1], res.outcomes[1:]))
        assert batches[0] == count
        assert all(b <= (2 ** profiles.BISECT_DEPTH - 1) * len(want) for b in batches[1:])
