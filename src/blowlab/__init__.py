"""Numerical laboratory for self-similar blow-up in u_t = Lap u + |u|^(p-1) u.

Rescaled similarity variables, Gaussian-weighted integral identities, the
linearized spectral problem about blow-up profiles, radial profile shooting,
energy monotonicity for the rescaled flow, and a blow-up/convergence pipeline
in the physical frame.
"""

from .calculus import (
    CheckRow,
    SampledField,
    compute_H,
    linearized_apply,
    ou_apply,
    verify_ibp,
    verify_log_test_inequality,
    verify_poincare,
    verify_prop35_inequality,
    weighted_inner,
)
from .errors import ConfigurationError, DomainError, NumericError, UsageError
from .evolution import (
    BlowupRun,
    RescaledFlow,
    convergence_pipeline,
    dissipation_check,
    energy,
    exact_energy_kappa,
    fit_blowup_time,
    rescale_to_similarity,
    solve_physical,
)
from .exponents import (
    CriticalExponents,
    ProblemParams,
    admissible_m_interval,
    critical_exponents,
    kappa,
    kappa_identity_residual,
    m_condition,
)
from .manifest import TOOL_VERSION
from .profiles import (
    RadialProfile,
    accepts_bounded_positive,
    extended_profile,
    profile_residual,
    scan_profiles,
    shoot,
)
from .quadrature import (
    RadialGrid,
    TensorGrid,
    gaussian_moment_1d,
    gaussian_radial_moment,
    radial_grid,
    tensor_grid,
)
from .spectral import (
    SpectrumReport,
    assemble,
    build_basis,
    fd_eigenvalues_1d,
    first_eigenvalue_rayleigh,
    sign_change_check,
    spectrum,
    stability_classify,
)

__version__ = TOOL_VERSION

__all__ = [
    "BlowupRun", "CheckRow", "ConfigurationError", "CriticalExponents",
    "DomainError", "NumericError", "ProblemParams", "RadialGrid",
    "RadialProfile", "RescaledFlow", "SampledField", "SpectrumReport",
    "TensorGrid", "UsageError", "accepts_bounded_positive",
    "admissible_m_interval", "assemble", "build_basis", "compute_H",
    "convergence_pipeline", "critical_exponents", "dissipation_check",
    "energy", "exact_energy_kappa", "extended_profile",
    "fd_eigenvalues_1d", "first_eigenvalue_rayleigh", "fit_blowup_time",
    "gaussian_moment_1d", "gaussian_radial_moment", "kappa",
    "kappa_identity_residual", "linearized_apply", "m_condition", "ou_apply",
    "profile_residual", "radial_grid", "rescale_to_similarity",
    "scan_profiles", "shoot", "sign_change_check", "solve_physical",
    "spectrum", "stability_classify", "tensor_grid",
    "verify_ibp", "verify_log_test_inequality", "verify_poincare",
    "verify_prop35_inequality", "weighted_inner",
]
