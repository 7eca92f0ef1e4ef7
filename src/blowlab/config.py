"""Flat key = value run configuration with a typed per-kind schema.

A config file looks like

    # spectral run at the constant profile
    kind = spectrum
    n = 1
    p = 2.0
    N = 32

Unknown keys and malformed values are configuration errors (CLI exit 2).
Command-line overrides (--set key=value) win over file values, which win
over defaults. The resolved mapping round-trips losslessly through
config_text and parse_config_text, so a manifest's config_text is itself a
config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError

# The one SHA-256 of config_hash and manifest.sha256_file. hashlib is heavy to
# load (its _hashlib maps OpenSSL's libcrypto, ~3.5 MB), so take CPython's
# builtin module first, as random.py does for sha512; the digests are the same
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


@dataclass(frozen=True)
class Field:
    typ: object                 # int | float | bool | str, or tuple of choices
    default: object
    help: str = ""
    interval: str = ""          # accepted values, e.g. "(0, 0.2]"; "" = unchecked

    def __post_init__(self):
        if self.interval:
            lo, hi = self.interval[1:-1].split(",")
            object.__setattr__(self, "_bounds", (float(lo), float(hi)))

    def check(self, key: str, val) -> None:
        """Refuse a value outside the interval; nan is outside every one."""
        if not self.interval:
            return
        lo, hi = self._bounds
        above = lo < val if self.interval[0] == "(" else lo <= val
        below = val < hi if self.interval[-1] == ")" else val <= hi
        if not (above and below):
            raise ConfigurationError(f"{key} must be in {self.interval}, got {val}")

    def coerce(self, key: str, raw):
        if isinstance(self.typ, tuple):
            val = str(raw)
            if val not in self.typ:
                raise ConfigurationError(
                    f"{key}: expected one of {', '.join(self.typ)}, got {val!r}")
            return val
        if self.typ is bool:
            if isinstance(raw, bool):
                return raw
            val = str(raw).strip().lower()
            if val in ("true", "1", "yes", "on"):
                return True
            if val in ("false", "0", "no", "off"):
                return False
            raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")
        try:
            if self.typ is int:
                if isinstance(raw, float) and raw != int(raw):
                    raise ValueError
                return int(raw)
            if self.typ is float:
                return float(raw)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{key}: expected {self.typ.__name__}, got {raw!r}") from None
        return str(raw)


def _common():
    return {
        "n": Field(int, 1, "space dimension", "[1, inf)"),
        # ProblemParams refuses p = inf once the run starts
        "p": Field(float, 2.0, "nonlinearity exponent", "(1, inf]"),
        "seed": Field(int, 0, "seed for randomized batteries", "[0, inf)"),
    }


SCHEMAS: dict[str, dict[str, Field]] = {
    "exponents": {
        **_common(),
        # a randomized battery or a scan over an empty range passes vacuously
        "n_scan_hi": Field(int, 50, "check the exponent ordering for 11..n_scan_hi", "[11, inf)"),
        "random_p_count": Field(int, 100, "random p draws for the kappa identity", "[1, inf)"),
    },
    "verify-identities": {
        **_common(),
        "n": Field(int, 1, "space dimension; n <= 3 keeps tensor grids affordable", "[1, 3]"),
        "degree": Field(int, 0, "quadrature degree (0 = dimension default)"),
        "cases": Field(int, 50, "randomized cases per battery", "[1, inf)"),
    },
    "spectrum": {
        **_common(),
        "N": Field(int, 32, "basis size", "[1, inf)"),
        "k": Field(int, 8, "eigenvalues to report", "[1, inf)"),
        "degree": Field(int, 0, "quadrature degree (0 = auto)"),
        "basis": Field(("auto", "hermite", "radial"), "auto"),
        "profile": Field(("kappa", "zero", "shoot"), "kappa"),
        "alpha": Field(float, 0.0, "center value when profile = shoot (0 = kappa)", "[0, inf)"),
        "r_max": Field(float, 20.0, interval="(0, inf)"),
    },
    "shoot": {
        **_common(),
        "alpha": Field(float, 0.0, "center value; 0 means kappa", "[0, inf)"),
        "r_max": Field(float, 20.0, interval="(0, inf)"),
        # the lanes raise a smaller rtol to this floor, 100 eps, anyway
        "rtol": Field(float, 1e-10, interval=f"[{100 * math.ulp(1.0)!r}, inf)"),
        "atol": Field(float, 1e-12, interval="[0, inf)"),
        "cap": Field(float, 1e6, "blow-up cap for |w|", "(0, inf]"),
    },
    "scan": {
        **_common(),
        "alpha_lo": Field(float, 0.5, interval="(0, inf)"),
        "alpha_hi": Field(float, 1.5, interval="(0, inf)"),
        "count": Field(int, 33, interval="[2, inf)"),
        "spacing": Field(("linear", "log"), "linear"),
        "bisect_tol": Field(float, 1e-8, interval="(0, inf)"),
        "r_max": Field(float, 20.0, interval="(0, inf)"),
    },
    "evolve-rescaled": {
        **_common(),
        "L": Field(float, 8.0, "domain half-width", "[8, inf)"),
        "m": Field(int, 801, "mesh points", "[9, inf)"),
        "ds": Field(float, 1e-3, interval="(0, inf)"),
        "s_end": Field(float, 2.0, interval="(0, inf)"),
        "geometry": Field(("interval", "ball"), "interval"),
        "init": Field(("kappa", "zero", "perturbed-kappa", "stable-mode"), "perturbed-kappa"),
        # amplitudes may be zero or negative, not inf or nan
        "amp": Field(float, 0.1, "perturbation amplitude", "(-inf, inf)"),
        "cap": Field(float, 1e6, interval="(0, inf]"),
        "diss_lo": Field(float, 0.0, "dissipation window start", "[0, inf)"),
        "diss_hi": Field(float, 0.0, "dissipation window end (0 = s_end)", "[0, inf)"),
    },
    "blowup": {
        **_common(),
        "R": Field(float, 2.0, "domain half-width / ball radius", "(0, inf)"),
        "m": Field(int, 4001, "mesh points", "[9, inf)"),
        "geometry": Field(("interval", "ball"), "interval"),
        "theta": Field(float, 0.05, "dt = theta (max u)^(1-p)", "(0, 0.2]"),
        "u_cap": Field(float, 1e8, interval="(0, inf)"),
        "t_max": Field(float, 10.0, interval="(0, inf)"),
        "init": Field(("cosine", "constant", "gaussian"), "cosine"),
        "amp": Field(float, 3.0, "initial amplitude", "(-inf, inf)"),
        "width": Field(float, 1.0, "gaussian width", "(0, inf)"),
        "diffusion": Field(bool, True, "False = reaction-only oracle"),
        "expected_status": Field(("blew-up", "global-existence", "any"), "blew-up"),
    },
}

# theorem13 drives a blow-up run (that schema) and its windows need blew-up
SCHEMAS["theorem13"] = {
    **SCHEMAS["blowup"],
    "expected_status": Field(("blew-up",), "blew-up"),
    "K": Field(float, 1.0, "window half-width in y", "(0, inf)"),
    "conv_tol": Field(float, 0.05, "final sup |w - kappa| bound", "(0, inf)"),
}

KINDS = tuple(SCHEMAS)

# caps an evolve-rescaled run's work, (steps + 1) * m stepped state values;
# the run keeps O(_BLOCK m) of them, so this bounds time, not memory. It also
# caps the arrays of a tensor grid and a spectral basis
# (quadrature.require_within_budget), where it bounds memory
WORK_BUDGET = 2**25


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines; '#' comments; later keys win; a value in single
    quotes, as config_text writes text values, is read without them."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = stripped.partition("=")
        val = val.strip()
        if len(val) >= 2 and val[0] == val[-1] == "'":
            val = val[1:-1]
        out[key.strip()] = val
    return out


def resolve_config(kind: str, file_values: dict | None = None,
                   overrides: dict | None = None) -> dict:
    """Defaults <- file <- overrides, coerced and validated against the schema."""
    if kind not in SCHEMAS:
        raise ConfigurationError(f"unknown run kind {kind!r}; known: {', '.join(KINDS)}")
    schema = SCHEMAS[kind]
    cfg = {key: f.default for key, f in schema.items()}
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            if key == "kind":
                if str(raw) != kind:
                    raise ConfigurationError(
                        f"config file is for kind {raw!r}, not {kind!r}")
                continue
            if key not in schema:
                raise ConfigurationError(f"unknown config key {key!r} for kind {kind!r}")
            cfg[key] = schema[key].coerce(key, raw)
    _validate(kind, cfg)
    return cfg


def _validate(kind: str, cfg: dict) -> None:
    """Each key against its Field's interval, then the rules across keys."""
    for key, field in SCHEMAS[kind].items():
        field.check(key, cfg[key])
    if cfg.get("geometry") == "interval" and cfg["n"] != 1:
        raise ConfigurationError("interval geometry is one-dimensional; "
                                 "use geometry = ball for n > 1")
    if kind == "evolve-rescaled":
        steps = cfg["s_end"] / cfg["ds"]
        # a run of no steps would pass its verdicts on the initial state alone;
        # the default dissipation window, snapped one step inward at each end,
        # needs 10 (evolution.dissipation_check)
        if not (math.isfinite(steps) and round(steps) >= 10
                and (round(steps) + 1) * cfg["m"] <= WORK_BUDGET):
            raise ConfigurationError(
                f"s_end/ds = {steps:.3g} steps on m = {cfg['m']} points: need at least "
                f"10 steps and (steps + 1) * m within the work budget of {WORK_BUDGET} "
                f"state values; change s_end, ds or m")
    if kind == "scan" and not cfg["alpha_lo"] < cfg["alpha_hi"]:
        raise ConfigurationError("need 0 < alpha_lo < alpha_hi")


def load_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


def config_text(kind: str, cfg: dict) -> str:
    """Canonical serialization: kind first, then sorted keys, repr values."""
    lines = [f"kind = {kind}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {cfg[key]!r}" if isinstance(cfg[key], str)
                     else f"{key} = {cfg[key]}")
    return "\n".join(lines) + "\n"


def config_hash(kind: str, cfg: dict) -> str:
    return sha256(config_text(kind, cfg).encode()).hexdigest()
