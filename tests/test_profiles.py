"""Shooting for radial steady profiles: series start, event classification,
equation residuals, the fixed-step cross-check, and bracketing scans.

In the probed ranges the constant w = kappa is the only bounded positive
profile, so bisection over the shooting parameter must re-find alpha = kappa.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from blowlab import (
    DomainError,
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
    accepts_bounded_positive,
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
