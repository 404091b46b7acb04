"""Numerical certificates and sharpness search for Schoenberg-type
inequalities between the zeros and critical points of complex polynomials."""

from .certs import (
    Certificate,
    check_all,
    endpoint_checks,
    esf_bounds,
    opnorm_constant,
    quartic_bounds,
    schoenberg_constant,
    schoenberg_order_p,
    sv_product_check,
)
from .densela import (
    ConvergenceError,
    UnderflowError,
    critical_points_spectral,
    differentiator,
    eigenvalues,
    lp_norm,
    schatten_norm,
    singular_values,
)
from .harness import AuditReport, AuditSpec, emit_report, run_audit, sample_config, sweep_p
from .polyzero import (
    CriticalSet,
    RootFindingError,
    ZeroConfig,
    center,
    centroid,
    critical_points_direct,
)
from .sharpness import (
    SharpnessResult,
    extremal_high,
    extremal_low,
    maximize_ratio,
    opnorm_lower_bound,
    ratio,
)
from .symfun import critical_esf_identity_error

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "AuditSpec",
    "Certificate",
    "ConvergenceError",
    "CriticalSet",
    "RootFindingError",
    "SharpnessResult",
    "UnderflowError",
    "ZeroConfig",
    "center",
    "centroid",
    "check_all",
    "critical_esf_identity_error",
    "critical_points_direct",
    "critical_points_spectral",
    "differentiator",
    "eigenvalues",
    "emit_report",
    "endpoint_checks",
    "esf_bounds",
    "extremal_high",
    "extremal_low",
    "lp_norm",
    "maximize_ratio",
    "opnorm_constant",
    "opnorm_lower_bound",
    "quartic_bounds",
    "ratio",
    "run_audit",
    "sample_config",
    "schatten_norm",
    "schoenberg_constant",
    "schoenberg_order_p",
    "singular_values",
    "sv_product_check",
    "sweep_p",
]
