"""Acceptance gate: one test per shipped guarantee, each echoing a single
[PASS]/[FAIL] line into the terminal summary.  Every tolerance here is a
contract; loosening one is an interface change, not a test fix.
"""

import json
import math
from time import perf_counter

import numpy as np
from scipy.interpolate import CubicSpline

import blowlab.cli as cli
from blowlab import (
    ProblemParams,
    RescaledFlow,
    SampledField,
    assemble,
    build_basis,
    compute_H,
    convergence_pipeline,
    critical_exponents,
    dissipation_check,
    dissipation_rates,
    energy,
    exact_energy_kappa,
    fd_eigenvalues_1d,
    kappa,
    linearized_apply,
    profile_field,
    profile_residual,
    scan_profiles,
    shoot,
    sign_change_check,
    solve_physical,
    spectrum,
    verify_ibp,
    verify_log_test_inequality,
    verify_poincare,
    verify_prop35_inequality,
)
from blowlab.calculus import (
    cutoff_field,
    make_log_test_eigenpair,
    random_bump_field,
    random_poly_field,
)
from blowlab.evolution import stable_mode_state
from blowlab.exponents import admissible_m_interval
from blowlab.profiles import accepts_bounded_positive, rk4_shoot, series_start
from blowlab.quadrature import tensor_grid

P2 = ProblemParams(n=1, p=2.0)
TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def test_criterion_1_constants(acceptance):
    # p - 1 spans [1e-2, 20]; below that kappa itself overflows the double
    # range even though the identity still holds in exact arithmetic
    rng = np.random.default_rng(101)
    worst = max(
        abs((p - 1.0) * kappa(p) ** (p - 1.0) - 1.0)
        for p in 1.0 + 10.0 ** rng.uniform(-2.0, 1.3, 100)
    )
    ex = critical_exponents(11)
    # direct-evaluation oracles, n = 11
    p_jl = 1.0 + 4.0 / (11.0 - 4.0 - 2.0 * math.sqrt(10.0))
    ok = worst < 1e-12 and ex.p_L == 7.0 and abs(ex.p_JL - p_jl) < 1e-3
    acceptance(1, ok,
               f"kappa identity worst {worst:.2e}, p_L(11) = {ex.p_L}, "
               f"p_JL(11) = {ex.p_JL:.6f}")


def test_criterion_2_weighted_calculus(acceptance):
    t0 = perf_counter()
    grid1 = tensor_grid(1, 64)
    y = grid1.points[:, 0]
    worst_mom = 0.0
    for k in range(0, 128):
        got = float(np.dot(grid1.weights, y**k))
        if k % 2:
            # zero target: scale by the same-order absolute moment
            worst_mom = max(worst_mom, abs(got) / float(
                np.dot(grid1.weights, np.abs(y) ** k)))
        else:
            want = 2.0 ** (k + 1) * math.gamma((k + 1) / 2.0)
            worst_mom = max(worst_mom, abs(got - want) / want)

    rng = np.random.default_rng(202)
    grid2 = tensor_grid(2)
    failures = 0
    worst_res = 0.0
    for i in range(200):
        grid = grid1 if i < 100 else grid2
        f = random_poly_field(grid, rng, max_deg=6)
        g = random_poly_field(grid, rng, max_deg=6)
        row = verify_ibp(f, g)
        failures += not row.holds
        worst_res = max(worst_res, row.residual / (1.0 + abs(row.rhs)))
    dt = perf_counter() - t0
    ok = worst_mom < 1e-10 and failures == 0 and dt < 10.0
    acceptance(2, ok,
               f"moment battery worst {worst_mom:.2e}, ibp worst scaled "
               f"residual {worst_res:.2e} over 200 pairs, {dt:.1f} s")


def test_criterion_3_spectrum_oracle(acceptance):
    t0 = perf_counter()
    basis = build_basis(1, 32, degree=64)
    worst_eig = worst_fd = 0.0
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        w = SampledField.constant(basis.grid, kappa(p))
        lam = spectrum(assemble(w, basis, params), 4).eigenvalues
        worst_eig = max(worst_eig, max(
            abs(l - t) for l, t in zip(lam, (-1.0, -0.5, 0.0, 0.5))))
        fd = fd_eigenvalues_1d(
            lambda yy, p=p: np.full_like(yy, kappa(p)), params, k=4)
        worst_fd = max(worst_fd, max(abs(a - b) for a, b in zip(fd, lam)))
    dt = perf_counter() - t0
    ok = worst_eig < 1e-6 and worst_fd < 1e-3 and dt < 10.0
    acceptance(3, ok,
               f"eigenvalue worst {worst_eig:.2e} vs (-1,-1/2,0,1/2), "
               f"fd cross-check worst {worst_fd:.2e}, {dt:.1f} s")


def test_criterion_4_constant_witnesses(acceptance):
    grid = tensor_grid(1, 64)
    worst_L = worst_H = 0.0
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        w = SampledField.constant(grid, kappa(p))
        # L applied to the constant: eigenvalue -1 in the Lv = -lambda v
        # convention, i.e. the image equals the input
        out = linearized_apply(w, SampledField.constant(grid, 1.0), params)
        worst_L = max(worst_L, float(np.max(np.abs(out - 1.0))))
        H = compute_H(w, p)
        worst_H = max(worst_H, abs(H.min - kappa(p) / (p - 1.0)),
                      abs(H.max - kappa(p) / (p - 1.0)))
        assert H.min > 0.0
    ok = worst_L < 1e-10 and worst_H < 1e-10
    acceptance(4, ok,
               f"constant eigenvalue deviation {worst_L:.2e}, "
               f"H(const) deviation {worst_H:.2e}")


def collect_suite_profiles(perturbed_kappa_run, cosine_blowup_run):
    """Every profile-like state the suite produces: the constant branches,
    accepted scan candidates, and the limit states of both evolutions."""
    grid = tensor_grid(1, 64)
    yq = grid.points[:, 0]
    found = []
    for p in (2.0, 3.0, 5.0):
        found.append((ProblemParams(n=1, p=p),
                      SampledField.constant(grid, kappa(p)), f"constant p={p}"))

    scan = scan_profiles(P2, 0.5, 1.5, count=5, bisect_tol=1e-8, r_max=20.0)
    for a in list(scan.alphas) + [b.midpoint for b in scan.brackets]:
        prof = shoot(float(a), P2, r_max=20.0)
        if accepts_bounded_positive(prof, r_max=20.0):
            found.append((P2, profile_field(prof, grid),
                          f"scan candidate alpha={prof.alpha:.8f}"))

    run = perturbed_kappa_run
    cs = CubicSpline(np.linspace(-8.0, 8.0, run.final.size), run.final)
    yc = np.clip(yq, -8.0, 8.0)
    grad = np.where(np.abs(yq) <= 8.0, cs(yc, 1), 0.0).reshape(-1, 1)
    found.append((P2, SampledField(grid=grid, values=cs(yc), grad=grad),
                  "rescaled-flow final state"))

    runb = cosine_blowup_run
    Tt = runb.T_est - runb.t_end
    cu = CubicSpline(runb.x, runb.u_final)
    xx = runb.a_est + yq * np.sqrt(Tt)
    found.append((P2, SampledField(grid=grid, values=Tt * cu(xx),
                                   grad=(Tt**1.5 * cu(xx, 1)).reshape(-1, 1)),
                  "blow-up limit state"))
    return found


def test_criterion_5_sign_change_consistency(acceptance, perturbed_kappa_run,
                                             cosine_blowup_run):
    basis = build_basis(1, 24, degree=64)
    reports = []
    for params, field, name in collect_suite_profiles(perturbed_kappa_run,
                                                      cosine_blowup_run):
        rep = sign_change_check(field, assemble(field, basis, params))
        reports.append((name, rep))
    bad = [name for name, rep in reports if not rep.consistent]
    changed = sum(rep.sign_change for _, rep in reports)
    ok = not bad
    acceptance(5, ok,
               f"{len(reports)} suite profiles checked, {changed} with H sign "
               f"change, counterexamples: {bad or 'none'}")


def test_criterion_6_integral_inequalities(acceptance):
    t0 = perf_counter()
    grid = tensor_grid(1, 64)
    rows = []

    # documented battery
    kap = SampledField.constant(grid, 1.0)              # kappa(2)
    Hf = SampledField.constant(grid, 1.0)               # H = kappa/(p-1)
    one = SampledField.constant(grid, 1.0)
    yf = SampledField(grid=grid, values=grid.points[:, 0],
                      grad=np.ones((grid.points.shape[0], 1)))
    rows.append(verify_log_test_inequality(kap, Hf, -1.0, one, P2))
    rows.append(verify_log_test_inequality(kap, Hf, -1.0, yf, P2))
    zero = SampledField.constant(grid, 0.0)
    rows.append(verify_log_test_inequality(zero, one, 1.0 / (P2.p - 1.0),
                                           yf, P2))
    eta4 = cutoff_field(grid, 4.0)
    rows.append(verify_prop35_inequality(kap, 2.0, eta4, P2))
    rows.append(verify_prop35_inequality(zero, 2.0, eta4, P2))
    rows.append(verify_prop35_inequality(
        SampledField.constant(grid, kappa(2.5)), 0.75, eta4,
        ProblemParams(n=1, p=2.5)))

    # 50 randomized (w, phi, eta) cases with H > 0 by construction
    rng = np.random.default_rng(606)
    m_lo, m_hi = admissible_m_interval(P2.p)
    for _ in range(50):
        pair = make_log_test_eigenpair(grid, rng, P2)
        phi = random_bump_field(grid, rng)
        rows.append(verify_log_test_inequality(pair.w, pair.f, pair.mu,
                                               phi, P2))
        m = rng.uniform(max(m_lo, 0.6) + 0.05, min(m_hi, 3.0))
        eta = cutoff_field(grid, rng.uniform(2.0, 5.0))
        rows.append(verify_prop35_inequality(pair.w, m, eta, P2))

    # Poincare on 100 random bumps, half of them two-dimensional
    grid2 = tensor_grid(2)
    rngp = np.random.default_rng(607)
    for i in range(100):
        rows.append(verify_poincare(
            random_bump_field(grid if i < 50 else grid2, rngp)))

    failures = [r.name for r in rows if not r.holds]
    dt = perf_counter() - t0
    ok = not failures and dt < 30.0
    acceptance(6, ok,
               f"{len(rows)} inequality rows (documented battery + 50 "
               f"randomized + 100 Poincare), failures: "
               f"{failures or 'none'}, {dt:.1f} s")


def test_criterion_7_shooting(acceptance):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        p = 1.0 + 10.0 ** rng.uniform(-0.5, 0.8)
        params = ProblemParams(n=int(rng.integers(1, 5)), p=p)
        worst = max(worst, profile_residual(shoot(kappa(p), params,
                                                  r_max=20.0)))

    # adaptive vs fixed step on a pre-event range
    params = ProblemParams(n=1, p=2.0)
    ada = shoot(0.5, params, r_max=5.0)
    rs, ws, _ = rk4_shoot(0.5, params, r_max=5.0, h=1e-4)
    gap = float(np.max(np.abs(ada.w - CubicSpline(rs, ws)(ada.r))))

    # series coefficient recovered from the trajectory, alpha=2, p=2, n=3
    params3 = ProblemParams(n=3, p=2.0)
    c_exact = (2.0 / (params3.p - 1.0) - 2.0**params3.p) / (2.0 * params3.n)
    assert series_start(2.0, params3)[3] == c_exact
    prof = shoot(2.0, params3, r_max=5.0)
    mask = prof.r <= 0.05
    coef = np.polyfit(prof.r[mask] ** 2, (prof.w[mask] - 2.0), 2)
    c_err = abs(coef[1] - c_exact) / abs(c_exact)

    ok = worst < 1e-10 and gap < 1e-6 and c_err < 1e-4
    acceptance(7, ok,
               f"worst residual {worst:.2e} over 50 random p, adaptive-vs-"
               f"fixed gap {gap:.2e}, series coefficient error {c_err:.2e}")


def test_criterion_8_blowup_oracle(acceptance):
    t0 = perf_counter()
    run = solve_physical(lambda x: np.ones_like(x), P2, R=1.0, m=101,
                         diffusion=False)
    dt = perf_counter() - t0
    T_err = abs(run.T_est - 1.0)
    e_err = abs(run.fit["exponent"] - 1.0)
    ok = run.status == "blew-up" and T_err < 1e-4 and e_err < 1e-3 and dt < 10.0
    acceptance(8, ok,
               f"diffusion-off T error {T_err:.2e} (oracle T = 1), "
               f"exponent error {e_err:.2e}, {dt:.1f} s")


def test_criterion_9_convergence_to_constant(acceptance, cosine_blowup_run):
    t0 = perf_counter()
    run = cosine_blowup_run
    rep = convergence_pipeline(run, K=1.0, conv_tol=0.05)
    dt = perf_counter() - t0
    sups = [row.sup_dev for row in rep.rows]
    ok = (run.status == "blew-up" and rep.decreasing and len(rep.rows) >= 3
          and rep.final_sup < 0.05 and rep.passed and dt < 120.0)
    acceptance(9, ok,
               f"blew up at T = {run.T_est:.4f}; sup|w-1| on |y|<=1 over "
               f"{len(sups)} snapshots {sups[0]:.3f} -> {rep.final_sup:.3f}, "
               f"monotone {rep.decreasing}")


def test_criterion_10_energy(acceptance, perturbed_kappa_run):
    grid = tensor_grid(1, 64)
    worst = float(abs(energy(SampledField.constant(grid, 0.0), P2).total))
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(n=1, p=p)
        got = energy(SampledField.constant(grid, kappa(p)), params).total
        want = (0.5 - 1.0 / (p + 1.0)) * kappa(p) ** (p + 1.0)
        assert exact_energy_kappa(params) == want
        worst = max(worst, abs(got - want) / want)

    runs = {"perturbed interval": perturbed_kappa_run}
    flow = RescaledFlow(ProblemParams(n=3, p=3.0), m=401, ds=1e-3,
                        geometry="ball")
    runs["ball stable-mode"] = flow.run(
        stable_mode_state(flow.y, ProblemParams(n=3, p=3.0), 1e-3,
                          geometry="ball"), s_end=1.0, record_states=False)
    jumps = {name: float(np.max(np.diff(r.energies)))
             for name, r in runs.items()}
    monotone = all(j <= 1e-12 for j in jumps.values())

    diss = dissipation_check(perturbed_kappa_run,
                             dissipation_rates(perturbed_kappa_run), 0.2, 1.8)
    ok = worst < 1e-10 and monotone and diss.rel_err < 0.02
    acceptance(10, ok,
               f"E(kappa) worst deviation {worst:.2e}, E nonincreasing on "
               f"{len(runs)} rescaled runs, dissipation identity off by "
               f"{100.0 * diss.rel_err:.2f}%")


def test_criterion_11_replay_determinism(acceptance, tmp_path, capsys):
    verdicts = []
    for kind, overrides in (
        ("exponents", ["--set", "random_p_count=20"]),
        ("scan", ["--set", "count=3", "--set", "bisect_tol=1e-6"]),
    ):
        src = tmp_path / kind
        assert cli.main([kind, "--out", str(src), "--quiet", "--seed", "9",
                         *overrides]) == 0
        dst = tmp_path / f"{kind}-replay"
        code = cli.main(["replay", str(src), "--out", str(dst), "--quiet"])
        report = json.loads((dst / "replay.json").read_text())
        verdicts.append(code == 0 and report["matches"]
                        and all(r["bitwise"] or r["numeric_ok"]
                                for r in report["files"]))
    capsys.readouterr()
    ok = all(verdicts)
    acceptance(11, ok,
               f"replay reproduced exponents and scan manifests "
               f"({len(verdicts)}/2 matched at printed precision)")
