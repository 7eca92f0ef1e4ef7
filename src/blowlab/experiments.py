"""Named experiment runners behind the CLI.

Each runner takes a resolved config and returns its artifacts by file name
and a list of pass/fail verdicts; it writes nothing. run_kind is the one
writer: it writes the artifacts of a runner that returned, so a run that
raises leaves none. The CLI wraps the result in a manifest; replay re-runs a
manifest's kind from its recorded config and compares the outputs file by
file.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .calculus import (
    CSV_HEADER,
    CheckRow,
    cutoff_field,
    growth_diagnostic,
    make_log_test_eigenpair,
    poly_field,
    radial_field,
    random_bump_field,
    random_gaussian_sum,
    random_poly_field,
    verify_ibp,
    verify_log_test_inequality,
    verify_poincare,
    verify_prop35_inequality,
)
from .errors import DomainError, UsageError
from .evolution import (
    MIN_WINDOWS,
    WINDOW_SKIPS,
    RescaledFlow,
    convergence_pipeline,
    dissipation_check,
    solve_physical,
    stable_mode_state,
    window_skip,
)
from .exponents import (
    ProblemParams,
    critical_exponents,
    kappa_identity_residual,
)
from .manifest import (
    Verdict,
    compare_outputs,
    load_manifest,
    manifest_config,
    write_csv,
    write_json,
)
from .profiles import (
    OUTCOMES,
    accepts_bounded_positive,
    bracket_splits,
    extended_profile,
    in_snap_band,
    profile_residual,
    scan_profiles,
    shoot,
)
from .quadrature import (
    TOTAL_MASS_1D,
    gaussian_moment_1d,
    gaussian_radial_moment,
    radial_grid,
    tensor_grid,
)
from .spectral import (
    build_basis,
    assemble,
    fd_eigenvalues_1d,
    first_eigenvalue_rayleigh,
    sign_change_check,
    spectrum,
    stability_classify,
)


@dataclass
class RunOutcome:
    """Artifacts by file name, and verdicts. An artifact is (header, rows) for
    a .csv name (manifest.write_csv), else a JSON value (write_json): the
    suffix rule by which replay parses them (manifest._parse_output)."""
    outputs: dict
    verdicts: list


# ---------------------------------------------------------------------------
# exponents


def run_exponents(cfg: dict) -> RunOutcome:
    params = ProblemParams(n=cfg["n"], p=cfg["p"])
    rng = np.random.default_rng(cfg["seed"])

    draws = 1.0 + 10.0 ** rng.uniform(-2.0, 1.3, cfg["random_p_count"])
    residuals = np.array([kappa_identity_residual(p) for p in draws])
    worst = float(residuals.max())

    n_hi = max(cfg["n_scan_hi"], cfg["n"])
    table = [critical_exponents(n) for n in range(1, n_hi + 1)]
    ordering_ok = all(exps.ordering_holds() for exps in table if exps.n >= 11)

    here = critical_exponents(params.n)
    summary = {
        "n": params.n, "p": params.p,
        "kappa": params.kappa,
        "kappa_identity_residual": kappa_identity_residual(params.p),
        "random_p": {"count": int(draws.size), "max_residual": worst},
        "exponents": {"p_S": here.p_S, "p_JL": here.p_JL, "p_L": here.p_L},
        "ordering_scan": {"n_lo": 11, "n_hi": n_hi, "all_hold": ordering_ok},
    }
    verdicts = [
        Verdict("kappa-identity", worst < 1e-12,
                f"max residual {worst:.3e} over {draws.size} random p"),
        Verdict("exponent-ordering", ordering_ok,
                f"p_S < p_JL < p_L for n = 11..{n_hi}"),
    ]
    return RunOutcome({"exponents_scan.csv": (("n", "p_S", "p_JL", "p_L"),
                                              [(e.n, e.p_S, e.p_JL, e.p_L) for e in table]),
                       "exponents.json": summary}, verdicts)


# ---------------------------------------------------------------------------
# identity battery


def _random_field_pair(grid, rng):
    """A pair of smooth fields with analytic derivatives for the ibp battery."""
    def one():
        if grid.n <= 2 and rng.random() < 0.5:
            return random_poly_field(grid, rng, max_deg=4)
        return random_gaussian_sum(rng, grid.n).field(grid)
    return one(), one()


def run_verify_identities(cfg: dict) -> RunOutcome:
    n, p, cases = cfg["n"], cfg["p"], cfg["cases"]
    params = ProblemParams(n=n, p=p)
    rng = np.random.default_rng(cfg["seed"])
    # the exact-identity rows need the random bumps resolved to ~1e-9, which
    # takes more nodes per axis than the spectral default in n = 2, 3; n = 3
    # passes at 34 for seeds 0-29 and fails some at 33
    grid = tensor_grid(n, cfg["degree"] or {1: 64, 2: 48, 3: 34}[n])
    rgrid = radial_grid(n)
    rows: list[CheckRow] = []

    # quadrature sanity: closed-form Gaussian moments
    for k in range(0, 9):
        got = float(np.dot(grid.weights, grid.points[:, 0] ** k))
        want = gaussian_moment_1d(k) * TOTAL_MASS_1D ** (n - 1)
        rows.append(CheckRow.identity(f"moment-y0^{k}", got, want, 1e-10))
    # even powers only: the radial rule integrates polynomials in r^2 exactly
    for k in range(0, 9, 2):
        got = float(np.dot(rgrid.weights, rgrid.r ** k))
        want = gaussian_radial_moment(n, k)
        rows.append(CheckRow.identity(f"radial-moment-r^{k}", got, want, 1e-10))

    # deterministic anchor for the integration-by-parts identity
    if n <= 2:
        coef = np.zeros((3,) * n)
        coef[(0,) * n] = 1.0
        coef[(2,) + (0,) * (n - 1)] = 0.5
        f0 = poly_field(grid, coef)
    else:
        f0 = random_gaussian_sum(np.random.default_rng(7), n).field(grid)
    rows.append(verify_ibp(f0, f0, name="ibp-anchor"))

    for i in range(cases):
        f, g = _random_field_pair(grid, rng)
        rows.append(verify_ibp(f, g, name=f"ibp-{i:03d}"))

    for i in range(cases):
        v = random_bump_field(grid, rng)
        rows.append(verify_poincare(v, name=f"poincare-{i:03d}"))

    eta = cutoff_field(grid, 3.0)
    for i in range(cases):
        pair = make_log_test_eigenpair(grid, rng, params)
        rows.append(verify_log_test_inequality(pair.w, pair.f, pair.mu, eta,
                                               params, name=f"logtest-{i:03d}"))
        rows.append(verify_prop35_inequality(pair.w, p, eta, params,
                                             name=f"moment-bound-{i:03d}"))

    # weighted-H^1 growth diagnostic on a fixed smooth field
    gs = random_gaussian_sum(np.random.default_rng(11), n)
    rows.append(replace(growth_diagnostic(gs.field, n, grid.degree),
                        name="h1-growth-smooth"))

    failures = [r.name for r in rows if not r.holds]
    summary = {
        "n": n, "p": p, "seed": cfg["seed"], "cases": cases,
        "total_checks": len(rows), "failures": failures,
        "worst_residual": max(r.residual for r in rows),
        "all_hold": not failures,
    }
    verdicts = [Verdict("all-identities-hold", not failures,
                        f"{len(rows)} checks, failures: {failures or 'none'}")]
    return RunOutcome({"identities.csv": (CSV_HEADER, [astuple(r) for r in rows]),
                       "identities.json": summary}, verdicts)


# ---------------------------------------------------------------------------
# spectrum


def _spectrum_profile(cfg: dict, params: ProblemParams):
    """The profile to linearize about, as one radial function r -> (w, w_r)."""
    kind = cfg["profile"]
    if kind != "shoot":
        const = params.kappa if kind == "kappa" else 0.0
        return lambda r: (np.full_like(r, const), np.zeros_like(r))
    alpha = cfg["alpha"] if cfg["alpha"] > 0.0 else params.kappa
    prof = shoot(alpha, params, r_max=cfg["r_max"])
    if prof.outcome in ("hit-zero", "blew-up"):
        # a shot an event ended is no profile to linearize about
        raise DomainError(f"the shot from alpha = {alpha!r} is not a profile: "
                          f"outcome {prof.outcome} at r_end = {prof.r_end!r}")
    return extended_profile(prof)[0]


def run_spectrum(cfg: dict) -> RunOutcome:
    params = ProblemParams(n=cfg["n"], p=cfg["p"])
    basis = build_basis(cfg["n"], cfg["N"], degree=cfg["degree"] or None,
                        kind=cfg["basis"])
    w_at = _spectrum_profile(cfg, params)
    op = assemble(radial_field(basis.grid, w_at), basis, params)
    rep = spectrum(op, cfg["k"])
    lam1_r = first_eigenvalue_rayleigh(op)
    ray_ok = abs(lam1_r - rep.lambda1) <= 1e-8 * (1.0 + abs(rep.lambda1))

    fd_block = None
    fd_ok = None
    if params.n == 1:
        kk = min(rep.eigenvalues.size, 6)       # k may exceed the basis size
        # the potential is even, so the line's modes alternate in parity; a
        # radial basis spans the even ones, every other eigenvalue
        step = 2 if basis.kind == "radial" else 1
        fd = fd_eigenvalues_1d(lambda y: w_at(np.abs(y))[0], params, k=step * kk)[::step]
        err = float(np.abs(fd[:kk] - rep.eigenvalues[:kk]).max())
        fd_ok = err < 1e-3
        fd_block = {"eigenvalues": [float(v) for v in fd], "max_abs_err": err}

    sign_rep = sign_change_check(op)
    stab_rep = stability_classify(op)

    summary = {
        **asdict(rep),
        "profile": cfg["profile"],
        "lambda1_rayleigh": lam1_r,
        "asym_residual": op.asym_residual,
        "gram_residual": basis.gram_residual(),
        "fd_check": fd_block,
        "sign_change": sign_rep,
        "stability": stab_rep,
    }
    verdicts = [
        Verdict("rayleigh-consistent", ray_ok,
                f"lambda1 {rep.lambda1:.9g} vs power iteration {lam1_r:.9g}"),
        Verdict("signchange-consistent", sign_rep.consistent,
                f"sign change {sign_rep.sign_change}, lambda1 {sign_rep.lambda1:.6g}"),
    ]
    if fd_ok is not None:
        verdicts.insert(1, Verdict("fd-crosscheck", fd_ok,
                                   f"max |spectral - fd| = {fd_block['max_abs_err']:.3e}"))
    return RunOutcome({"eigenvalues.csv": (("index", "eigenvalue"),
                                           [(i, float(v)) for i, v in enumerate(rep.eigenvalues)]),
                       "spectrum.json": summary}, verdicts)


# ---------------------------------------------------------------------------
# shooting


def run_shoot(cfg: dict) -> RunOutcome:
    params = ProblemParams(n=cfg["n"], p=cfg["p"])
    alpha = cfg["alpha"] if cfg["alpha"] > 0.0 else params.kappa
    prof = shoot(alpha, params, r_max=cfg["r_max"], rtol=cfg["rtol"],
                 atol=cfg["atol"], cap=cfg["cap"])
    res = profile_residual(prof)
    H = prof.H_values()
    accepted = accepts_bounded_positive(prof, r_max=cfg["r_max"])

    summary = {
        "n": params.n, "p": params.p, "alpha": alpha,
        "outcome": prof.outcome, "r_end": prof.r_end,
        "ode_residual_sup": res,
        "H_min": float(H.min()), "H_max": float(H.max()),
        "accepted_bounded_positive": accepted,
        "events": prof.events, "series": {"r0": prof.meta["r0"],
                                          "c": prof.meta["c"], "d": prof.meta["d"]},
    }
    verdicts = [Verdict("outcome-classified", prof.outcome in OUTCOMES, prof.outcome)]
    if in_snap_band(alpha, params.kappa):
        verdicts.append(Verdict("constant-profile-residual", res < 1e-10,
                                f"sup residual {res:.3e}"))
        verdicts.append(Verdict("H-positive", bool(H.min() > 0.0),
                                f"min H = {H.min():.6g}"))
    return RunOutcome({"profile.csv": (("r", "w", "w_r", "H"),
                                       np.column_stack((prof.r, prof.w, prof.w_r, H))),
                       "shoot.json": summary}, verdicts)


def run_scan(cfg: dict) -> RunOutcome:
    params = ProblemParams(n=cfg["n"], p=cfg["p"])
    result = scan_profiles(params, cfg["alpha_lo"], cfg["alpha_hi"],
                           count=cfg["count"], spacing=cfg["spacing"],
                           bisect_tol=cfg["bisect_tol"], r_max=cfg["r_max"])
    kap = params.kappa
    # every shot in the snap band is the constant kappa, so bisection below
    # its width closes one bracket onto each edge of the band instead of
    # onto kappa; the band between two such brackets covers kappa
    enters = any(in_snap_band(b.alpha_hi, kap) and not in_snap_band(b.alpha_lo, kap)
                 for b in result.brackets)
    leaves = any(in_snap_band(b.alpha_lo, kap) and not in_snap_band(b.alpha_hi, kap)
                 for b in result.brackets)
    covered = (enters and leaves) or any(b.alpha_lo <= kap <= b.alpha_hi
                                         for b in result.brackets)
    refined = not any(bracket_splits(b.alpha_lo, b.alpha_hi, cfg["bisect_tol"])
                      for b in result.brackets)
    summary = {
        "n": params.n, "p": params.p, "kappa": kap,
        "alpha_lo": cfg["alpha_lo"], "alpha_hi": cfg["alpha_hi"],
        "outcome_counts": Counter(result.outcomes),
        "brackets": result.brackets,
        "kappa_in_some_bracket": covered,
    }
    widest = max((b.width for b in result.brackets), default=0.0)
    verdicts = [Verdict("brackets-refined", refined,
                        f"{len(result.brackets)} brackets at tol {cfg['bisect_tol']:g}, "
                        f"widest {widest:.3g}")]
    if cfg["alpha_lo"] < kap < cfg["alpha_hi"]:
        verdicts.append(Verdict("kappa-bracketed", covered,
                                f"kappa = {kap:.9g}"))
    return RunOutcome({
        "scan.csv": (("alpha", "outcome", "r_end"),
                     list(zip(result.alphas.tolist(), result.outcomes, result.r_ends.tolist()))),
        "brackets.csv": (("alpha_lo", "alpha_hi", "outcome_lo", "outcome_hi", "width"),
                         [astuple(b) for b in result.brackets]),
        "scan.json": summary}, verdicts)


# ---------------------------------------------------------------------------
# rescaled evolution


def _rescaled_initial(cfg: dict, params: ProblemParams, y: np.ndarray) -> np.ndarray:
    kind, amp = cfg["init"], cfg["amp"]
    kap = params.kappa
    if kind == "kappa":
        return np.full(y.size, kap)
    if kind == "zero":
        return np.zeros(y.size)
    if kind == "perturbed-kappa":
        return kap + amp * np.exp(-y * y / 4.0)
    return stable_mode_state(y, params, amp, cfg["geometry"])


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """scipy.integrate.cumulative_trapezoid(y, dx=dx, initial=0.0) for 1-D y,
    in scipy's order of operations, without importing scipy.integrate."""
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def run_evolve_rescaled(cfg: dict) -> RunOutcome:
    params = ProblemParams(n=cfg["n"], p=cfg["p"])
    flow = RescaledFlow(params, L=cfg["L"], m=cfg["m"], ds=cfg["ds"],
                        geometry=cfg["geometry"], cap=cfg["cap"])
    w0 = _rescaled_initial(cfg, params, flow.y)
    run = flow.run(w0, cfg["s_end"])

    jumps = np.diff(run.energies)
    max_jump = float(jumps.max()) if jumps.size else 0.0
    scale = 1.0 + float(np.abs(run.energies).max())
    monotone = max_jump <= 1e-8 * scale

    diss = None
    if run.status == "completed" and run.s_values[-1] > 0.0:
        hi = cfg["diss_hi"] if cfg["diss_hi"] > 0.0 else float(run.s_values[-1])
        lo = cfg["diss_lo"]
        diss = dissipation_check(run, lo, hi)

    summary = {
        "n": params.n, "p": params.p, "init": cfg["init"], "amp": cfg["amp"],
        "geometry": cfg["geometry"], "ds": cfg["ds"], "m": cfg["m"], "L": cfg["L"],
        "status": run.status, "events": run.events,
        "s_end": float(run.s_values[-1]),
        "energy_first": float(run.energies[0]),
        "energy_last": float(run.energies[-1]),
        "max_energy_jump": max_jump,
        "sup_dev_first": float(run.sup_dev[0]),
        "sup_dev_last": float(run.sup_dev[-1]),
        "dissipation": diss,
    }
    verdicts = [
        Verdict("completed", run.status == "completed",
                f"status {run.status} at s = {summary['s_end']:.3g}"),
        Verdict("energy-monotone", monotone,
                f"max energy jump {max_jump:.3e}"),
    ]
    if diss is not None:
        verdicts.append(Verdict("dissipation-identity", diss.holds,
                                f"relative error {diss.rel_err:.3%} on "
                                f"[{diss.s_lo:.3g}, {diss.s_hi:.3g}]"))
    lhs_cum = _cumulative_trapezoid(run.rates, run.ds)
    rhs_cum = run.energies[0] - run.energies
    return RunOutcome({
        "timeseries.csv": (("s", "sup_dev", "E", "dissipation_lhs", "dissipation_rhs"),
                           np.column_stack((run.s_values, run.sup_dev, run.energies,
                                            lhs_cum, rhs_cum))),
        "evolve.json": summary}, verdicts)


# ---------------------------------------------------------------------------
# physical blow-up


def _initial_data(cfg: dict):
    kind, amp, width, R = cfg["init"], cfg["amp"], cfg["width"], cfg["R"]
    if kind == "cosine":
        return lambda x: amp * np.cos(math.pi * x / (2.0 * R))
    if kind == "constant":
        return lambda x: np.full_like(x, amp)

    def gaussian(x):
        # (x/width)^2 overflows for a tiny width; exp(-inf) = 0 is the exact limit
        with np.errstate(over="ignore"):
            return amp * np.exp(-(x / width) ** 2)
    return gaussian


def _physical_run(cfg: dict):
    params = ProblemParams(n=cfg["n"], p=cfg["p"])
    run = solve_physical(_initial_data(cfg), params, R=cfg["R"], m=cfg["m"],
                         geometry=cfg["geometry"], theta=cfg["theta"],
                         u_cap=cfg["u_cap"], t_max=cfg["t_max"],
                         diffusion=cfg["diffusion"])
    return params, run


def _blowup_files(run) -> dict:
    return {"suphistory.csv": (("t", "max_u"), np.column_stack((run.times, run.sup_u))),
            "final_state.csv": (("x", "u"), np.column_stack((run.x, run.u_final)))}


def _blowup_summary(params, run) -> dict:
    return {
        "n": params.n, "p": params.p, "geometry": run.geometry,
        "status": run.status, "t_end": run.t_end,
        "steps": int(run.times.size - 1), "min_u": run.min_u,
        "T_est": run.T_est, "a_est": run.a_est, "fit": run.fit,
        "snapshots": [{"t": s.t, "max_u": s.max_u} for s in run.snapshots],
        "meta": run.meta,
    }


def run_blowup(cfg: dict) -> RunOutcome:
    params, run = _physical_run(cfg)
    verdicts = []
    if cfg["expected_status"] != "any":
        verdicts.append(Verdict("status-expected",
                                run.status == cfg["expected_status"],
                                f"status {run.status}"))
    # the flow preserves the sign of the data: min u for positive data,
    # max u for negative data, each within 1e-8 |amp| of zero
    pos_tol = 1e-8 * abs(cfg["amp"])
    if cfg["amp"] >= 0.0:
        verdicts.append(Verdict("positivity", run.min_u >= -pos_tol,
                                f"min u = {run.min_u:.3e}"))
    else:
        verdicts.append(Verdict("positivity", run.max_u <= pos_tol,
                                f"max u = {run.max_u:.3e}"))
    if not cfg["diffusion"] and cfg["init"] == "constant" and run.status == "blew-up":
        p = params.p
        T_exact = cfg["amp"] ** (1.0 - p) / (p - 1.0)
        t_err = abs(run.T_est - T_exact) / T_exact
        e_err = abs(run.fit["exponent"] - 1.0 / (p - 1.0))
        verdicts.append(Verdict("oracle-blowup-time", t_err < 1e-4,
                                f"T_est {run.T_est:.10g} vs exact {T_exact:.10g}"))
        verdicts.append(Verdict("oracle-exponent", e_err < 1e-3,
                                f"fit {run.fit['exponent']:.6g} vs 1/(p-1) = "
                                f"{1.0 / (p - 1.0):.6g}"))
    return RunOutcome({**_blowup_files(run), "blowup.json": _blowup_summary(params, run)},
                      verdicts)


def run_theorem13(cfg: dict) -> RunOutcome:
    params, run = _physical_run(cfg)
    windows = {}
    verdicts = [Verdict("blew-up", run.status == "blew-up",
                        f"status {run.status}")]
    summary = _blowup_summary(params, run)
    if run.status == "blew-up":
        report = convergence_pipeline(run, K=cfg["K"], conv_tol=cfg["conv_tol"])
        windows["window.csv"] = (("t", "T_minus_t", "s", "sup_dev", "min_H"),
                                 [astuple(r) for r in report.rows])
        summary["convergence"] = report
        skips = Counter(window_skip(run, cfg["K"], snap) for snap in run.snapshots)
        tally = ", ".join(f"{skips[r]} {r or 'usable'}"
                          for r in (None,) + WINDOW_SKIPS if r is None or skips[r])
        verdicts += [
            Verdict("window-count", len(report.rows) >= MIN_WINDOWS,
                    f"{len(report.rows)} windows; {len(run.snapshots)} snapshots: {tally}"),
            Verdict("window-monotone", report.decreasing,
                    "sup |w - kappa| decreasing over the ladder"),
            Verdict("window-final", report.final_sup < cfg["conv_tol"],
                    f"final sup {report.final_sup:.4g} vs tol {cfg['conv_tol']:g}"),
        ]
    return RunOutcome({**_blowup_files(run), **windows, "report.json": summary}, verdicts)


# ---------------------------------------------------------------------------
# registry and replay


RUNNERS = {
    "exponents": run_exponents,
    "verify-identities": run_verify_identities,
    "spectrum": run_spectrum,
    "shoot": run_shoot,
    "scan": run_scan,
    "evolve-rescaled": run_evolve_rescaled,
    "blowup": run_blowup,
    "theorem13": run_theorem13,
}


def run_kind(kind: str, cfg: dict, out_dir) -> RunOutcome:
    if kind not in RUNNERS:
        raise UsageError(f"no runner for kind {kind!r}")
    outcome = RUNNERS[kind](cfg)
    # only once the runner has returned: a run that raises writes nothing
    for name, content in outcome.outputs.items():
        if name.endswith(".csv"):
            write_csv(Path(out_dir) / name, *content)
        else:
            write_json(Path(out_dir) / name, content)
    return outcome


def replay(manifest_path, out_dir) -> RunOutcome:
    """Re-run a recorded manifest and compare outputs against the originals;
    the report goes to replay.json beside the re-run's outputs, and its
    verdict after the run's."""
    manifest = load_manifest(manifest_path)
    kind, cfg = manifest_config(manifest)
    src_dir = Path(manifest_path)
    if not src_dir.is_dir():
        src_dir = src_dir.parent
    out_dir = Path(out_dir)
    if out_dir.resolve() == src_dir.resolve():
        # the re-run would overwrite the recorded artifacts, then match itself
        raise UsageError(f"replay output directory {out_dir} is the manifest's "
                         f"own directory; choose another --out")
    outcome = run_kind(kind, cfg, out_dir)
    names = [e["name"] for e in manifest["outputs"]]
    reports = compare_outputs(src_dir, out_dir, names)
    matches = all(r["bitwise"] or r["numeric_ok"] for r in reports)
    summary = {
        "replayed_kind": kind,
        "source": str(src_dir),
        "files": reports,
        "matches": matches,
    }
    write_json(out_dir / "replay.json", summary)
    verdicts = [Verdict("replay-matches", matches,
                        ", ".join(f"{r['name']}: "
                                  f"{'bitwise' if r['bitwise'] else 'numeric' if r['numeric_ok'] else 'DIFFERS'}"
                                  for r in reports))]
    return RunOutcome(outcome.outputs, outcome.verdicts + verdicts)
