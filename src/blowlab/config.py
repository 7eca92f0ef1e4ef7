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
config_text/parse.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError


@dataclass(frozen=True)
class Field:
    typ: object                 # int | float | bool | str, or tuple of choices
    default: object
    help: str = ""

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
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{key}: expected {self.typ.__name__}, got {raw!r}") from None
        return str(raw)


def _common():
    return {
        "n": Field(int, 1, "space dimension"),
        "p": Field(float, 2.0, "nonlinearity exponent, > 1"),
        "seed": Field(int, 0, "seed for randomized batteries"),
    }


SCHEMAS: dict[str, dict[str, Field]] = {
    "exponents": {
        **_common(),
        "n_scan_hi": Field(int, 50, "check the exponent ordering for 11..n_scan_hi"),
        "random_p_count": Field(int, 100, "random p draws for the kappa identity"),
    },
    "verify-identities": {
        **_common(),
        "degree": Field(int, 0, "quadrature degree (0 = dimension default)"),
        "cases": Field(int, 50, "randomized cases per battery"),
    },
    "spectrum": {
        **_common(),
        "N": Field(int, 32, "basis size"),
        "k": Field(int, 8, "eigenvalues to report"),
        "degree": Field(int, 0, "quadrature degree (0 = auto)"),
        "basis": Field(("auto", "hermite", "radial"), "auto"),
        "profile": Field(("kappa", "zero", "shoot"), "kappa"),
        "alpha": Field(float, 0.0, "center value when profile = shoot"),
        "r_max": Field(float, 20.0),
    },
    "shoot": {
        **_common(),
        "alpha": Field(float, 0.0, "center value; 0 means kappa"),
        "r_max": Field(float, 20.0),
        "rtol": Field(float, 1e-10),
        "atol": Field(float, 1e-12),
        "cap": Field(float, 1e6, "blow-up cap for |w|"),
    },
    "scan": {
        **_common(),
        "alpha_lo": Field(float, 0.5),
        "alpha_hi": Field(float, 1.5),
        "count": Field(int, 33),
        "spacing": Field(("linear", "log"), "linear"),
        "bisect_tol": Field(float, 1e-8),
        "r_max": Field(float, 20.0),
    },
    "evolve-rescaled": {
        **_common(),
        "L": Field(float, 8.0, "domain half-width (>= 8)"),
        "m": Field(int, 801, "mesh points"),
        "ds": Field(float, 1e-3),
        "s_end": Field(float, 2.0),
        "geometry": Field(("interval", "ball"), "interval"),
        "init": Field(("kappa", "zero", "perturbed-kappa", "stable-mode"), "perturbed-kappa"),
        "amp": Field(float, 0.1, "perturbation amplitude"),
        "cap": Field(float, 1e6),
        "diss_lo": Field(float, 0.0, "dissipation window start"),
        "diss_hi": Field(float, 0.0, "dissipation window end (0 = s_end)"),
    },
    "blowup": {
        **_common(),
        "R": Field(float, 2.0, "domain half-width / ball radius"),
        "m": Field(int, 4001, "mesh points"),
        "geometry": Field(("interval", "ball"), "interval"),
        "theta": Field(float, 0.05, "dt = theta (max u)^(1-p), <= 0.2"),
        "u_cap": Field(float, 1e8),
        "t_max": Field(float, 10.0),
        "init": Field(("cosine", "constant", "gaussian"), "cosine"),
        "amp": Field(float, 3.0, "initial amplitude"),
        "width": Field(float, 1.0, "gaussian width"),
        "diffusion": Field(bool, True, "False = reaction-only oracle"),
        "expected_status": Field(("blew-up", "global-existence", "any"), "blew-up"),
    },
    "replay": {},
}

# the convergence pipeline drives a blow-up run, so it shares that schema
SCHEMAS["theorem13"] = {
    **SCHEMAS["blowup"],
    "K": Field(float, 1.0, "window half-width in y"),
    "conv_tol": Field(float, 0.05, "final sup |w - kappa| bound"),
}

KINDS = tuple(SCHEMAS)

# an evolve-rescaled run keeps every state: (steps + 1) * m floats
MAX_RECORDED_VALUES = 2**25

# float keys that must be finite and > 0, per kind
_POSITIVE = {
    "evolve-rescaled": ("s_end", "ds"),
    "spectrum": ("r_max",),
    "shoot": ("r_max",),
    "scan": ("r_max", "bisect_tol"),
    "blowup": ("R", "width", "t_max", "u_cap"),
    "theorem13": ("R", "width", "t_max", "u_cap", "K", "conv_tol"),
}

# int keys with a lower bound, per kind; the exponent-ordering scan starts at n = 11
_AT_LEAST = {
    "exponents": (("random_p_count", 1), ("n_scan_hi", 11)),
    "verify-identities": (("cases", 1),),
}

# shooting's smallest relative tolerance, the lanes' floor (solve_ivp's)
_MIN_RTOL = 100 * math.ulp(1.0)


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines; '#' comments; later keys win."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = stripped.partition("=")
        out[key.strip()] = val.strip()
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
    if "p" in cfg and not cfg["p"] > 1.0:
        raise ConfigurationError(f"p must be > 1, got {cfg['p']}")
    if "n" in cfg and cfg["n"] < 1:
        raise ConfigurationError(f"n must be >= 1, got {cfg['n']}")
    for key in _POSITIVE.get(kind, ()):
        if not 0.0 < cfg[key] < math.inf:
            raise ConfigurationError(f"{key} must be finite and > 0, got {cfg[key]}")
    if kind == "blowup" or kind == "theorem13":
        if not 0.0 < cfg["theta"] <= 0.2:
            raise ConfigurationError(f"theta must be in (0, 0.2], got {cfg['theta']}")
    if cfg.get("geometry") == "interval" and cfg["n"] != 1:
        raise ConfigurationError("interval geometry is one-dimensional; "
                                 "use geometry = ball for n > 1")
    if kind == "evolve-rescaled":
        if not 8.0 <= cfg["L"] < math.inf:
            raise ConfigurationError(f"L must be finite and >= 8, got {cfg['L']}")
        steps = cfg["s_end"] / cfg["ds"]
        if not (math.isfinite(steps)
                and (round(steps) + 1) * cfg["m"] <= MAX_RECORDED_VALUES):
            raise ConfigurationError(
                f"s_end/ds = {steps:.3g} steps on m = {cfg['m']} points would record "
                f"more than {MAX_RECORDED_VALUES} values; raise ds or lower s_end or m")
    if kind == "scan" and not 0.0 < cfg["alpha_lo"] < cfg["alpha_hi"]:
        raise ConfigurationError("need 0 < alpha_lo < alpha_hi")
    # amplitudes may be zero or negative, not inf or nan
    if "amp" in cfg and not math.isfinite(cfg["amp"]):
        raise ConfigurationError(f"amp must be finite, got {cfg['amp']}")
    # 0 means kappa; a shot needs a finite alpha
    if "alpha" in cfg and not 0.0 <= cfg["alpha"] < math.inf:
        raise ConfigurationError(f"alpha must be finite and >= 0 (0 = kappa), "
                                 f"got {cfg['alpha']}")
    if kind == "spectrum" and cfg["k"] < 1:
        raise ConfigurationError(f"k must be >= 1, got {cfg['k']}")
    if kind == "shoot":
        # the lanes raise a smaller rtol to this floor anyway
        if not _MIN_RTOL <= cfg["rtol"] < math.inf:
            raise ConfigurationError(
                f"rtol must be finite and >= 100 eps = {_MIN_RTOL:.3g}, got {cfg['rtol']}")
        if not 0.0 <= cfg["atol"] < math.inf:
            raise ConfigurationError(f"atol must be finite and >= 0, got {cfg['atol']}")
    # a randomized battery or a scan over an empty range passes vacuously
    for key, lo in _AT_LEAST.get(kind, ()):
        if cfg[key] < lo:
            raise ConfigurationError(f"{key} must be >= {lo}, got {cfg[key]}")


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


def parse_config_roundtrip(kind: str, text: str) -> dict:
    """Parse canonical text back into a resolved config (used by replay)."""
    raw = parse_config_text(text)
    cleaned = {}
    for key, val in raw.items():
        if key == "kind":
            cleaned[key] = val
            continue
        if val.startswith("'") and val.endswith("'"):
            val = val[1:-1]
        cleaned[key] = val
    return resolve_config(kind, cleaned)


def config_hash(kind: str, cfg: dict) -> str:
    return hashlib.sha256(config_text(kind, cfg).encode()).hexdigest()
