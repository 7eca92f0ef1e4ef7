"""Problem parameters and the exponent landscape for u_t = Lap(u) + |u|^(p-1) u.

The constant-in-space blow-up profile is kappa = (p-1)^(-1/(p-1)); it solves
kappa^p = kappa/(p-1) and generates the exact solution
u(t) = kappa (T-t)^(-1/(p-1)). Three critical exponents organize the radial
profile theory in dimension n:

    p_S  = (n+2)/(n-2)                            Sobolev,      n >= 3
    p_JL = 1 + 4 (n-4+2 sqrt(n-1)) / ((n-2)(n-10))  Joseph-Lundgren, n >= 11
    p_L  = 1 + 6/(n-10)                           Lepin,        n >= 11

with the convention +inf below the stated dimension. For every n >= 11 the
strict ordering p_S < p_JL < p_L holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class ProblemParams:
    """Dimension n >= 1 and nonlinearity exponent p > 1."""

    n: int
    p: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"dimension n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.p, (int, float)) and math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(f"exponent p must be finite and > 1, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def kappa(self) -> float:
        return kappa(self.p)


def kappa(p: float) -> float:
    """Constant profile kappa = (1/(p-1))^(1/(p-1)).

    Evaluated as exp(log(...)/(p-1)) so the identity
    kappa^(p-1) = 1/(p-1) survives p near 1 and large p at close to
    machine accuracy. Below p ~ 1.00699 kappa exceeds the largest float:
    DomainError.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"kappa requires p > 1, got {p!r}")
    try:
        return math.exp(-math.log(p - 1.0) / (p - 1.0))
    except OverflowError:
        raise DomainError(f"kappa leaves float range at p = {p!r}") from None


def kappa_identity_residual(p: float) -> float:
    """|(p-1) kappa^(p-1) - 1|, the defining identity's floating residual."""
    k = kappa(p)
    return abs((p - 1.0) * k ** (p - 1.0) - 1.0)


@dataclass(frozen=True)
class CriticalExponents:
    """The (p_S, p_JL, p_L) triple for a fixed dimension; +inf where absent."""

    n: int
    p_S: float
    p_JL: float
    p_L: float

    def ordering_holds(self) -> bool:
        """Strict p_S < p_JL < p_L; only meaningful when all are finite."""
        return self.p_S < self.p_JL < self.p_L


def critical_exponents(n: int) -> CriticalExponents:
    """Compute the exponent triple for dimension n."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"dimension n must be an integer >= 1, got {n!r}")
    p_s = math.inf if n <= 2 else (n + 2.0) / (n - 2.0)
    if n <= 10:
        p_jl = math.inf
        p_l = math.inf
    else:
        p_jl = 1.0 + 4.0 * (n - 4.0 + 2.0 * math.sqrt(n - 1.0)) / ((n - 2.0) * (n - 10.0))
        p_l = 1.0 + 6.0 / (n - 10.0)
    return CriticalExponents(n=n, p_S=p_s, p_JL=p_jl, p_L=p_l)


def m_condition(p: float, m: float) -> bool:
    """Admissibility of the moment exponent m: m > 1/2 and m^2 < p(2m - 1).

    The pair m = p is always admissible for p > 1 since
    p^2 - p(2p-1) = p(1-p) < 0.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"m_condition requires p > 1, got {p!r}")
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m!r}")
    return m > 0.5 and m * m - p * (2.0 * m - 1.0) < 0.0


def admissible_m_interval(p: float) -> tuple[float, float]:
    """Open interval (m-, m+) of admissible m: roots of m^2 - 2pm + p = 0."""
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"admissible_m_interval requires p > 1, got {p!r}")
    disc = math.sqrt(p * p - p)
    return (p - disc, p + disc)
