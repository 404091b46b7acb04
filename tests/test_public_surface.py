import pytest

import schoenberg
from schoenberg import certs, densela, symfun

PUBLIC = (
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
)

# a second prefix-product rule with its own tolerances, and a projector that
# no production path read; sv_product_check is the one prefix-product verdict.
# Public twins that only tests read: esf of esf_table, weyl_check and
# pereira_bound of the weyl and pereira columns of the columnar evaluator
REMOVED = (
    "MAJORIZATION_REL_TOL",
    "RANK_REL_TOL",
    "centering_projector",
    "esf",
    "pereira_bound",
    "prefix_products_hold",
    "weak_log_majorization",
    "weyl_check",
)


def test_all_is_pinned_and_resolves():
    assert PUBLIC == tuple(sorted(set(PUBLIC)))
    assert tuple(schoenberg.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(schoenberg, name)


@pytest.mark.parametrize(
    "module", [schoenberg, symfun, densela, certs], ids=lambda m: m.__name__
)
def test_removed_names_are_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []
