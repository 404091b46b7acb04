"""Every inequality between zeros and critical points as a numeric certificate.

A certificate records both sides of one evaluated inequality together with
slack, ratio and a pass flag under an explicit tolerance policy:

    holds  <=>  lhs <= rhs + max(ABS_TOL, REL_TOL * max(|lhs|, |rhs|))

Equality statements (the Schatten-2 identity) demand both directions.  All
inequalities here concern a degree-n polynomial with zeros z_j and critical
points w_k; "centered" means sum z_j = 0.

The batch evaluator computes, once per configuration and up front, one
eigendecomposition of the differentiator matrix and one singular value
decomposition each of it and of its absolute-zeros counterpart; every
certificate family reads off those three spectra, so a full audit costs
three decompositions per configuration.  The tolerance pair is applied
once, where each verdict is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import densela, symfun
from .polyzero import ZeroConfig, critical_points_direct

ABS_TOL = 1e-12
REL_TOL = 1e-9
_TOLS = (ABS_TOL, REL_TOL)


@dataclass(frozen=True)
class Certificate:
    """One evaluated inequality: name, sides, slack, ratio and verdict.

    ``p`` is None for parameter-free statements; ``ratio`` is None when the
    right-hand side is not positive (degenerate cases such as n = 2).
    """

    name: str
    n: int
    p: float | None
    lhs: float
    rhs: float
    slack: float
    ratio: float | None
    holds: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "p": self.p,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "ratio": self.ratio,
            "holds": self.holds,
        }

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        return Certificate(
            name=str(data["name"]),
            n=int(data["n"]),
            p=None if data["p"] is None else float(data["p"]),
            lhs=float(data["lhs"]),
            rhs=float(data["rhs"]),
            slack=float(data["slack"]),
            ratio=None if data["ratio"] is None else float(data["ratio"]),
            holds=bool(data["holds"]),
        )


def _certify(
    name: str,
    n: int,
    p: float | None,
    lhs: float,
    rhs: float,
    tols: tuple[float, float],
    equality: bool = False,
) -> Certificate:
    lhs = float(lhs)
    rhs = float(rhs)
    abs_tol, rel_tol = tols
    tol = max(abs_tol, rel_tol * max(abs(lhs), abs(rhs)))
    if equality:
        holds = abs(lhs - rhs) <= tol
    else:
        holds = lhs <= rhs + tol
    return Certificate(
        name=name,
        n=n,
        p=p,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        ratio=(lhs / rhs) if rhs > 0 else None,
        holds=holds,
    )


def _require_centered(cfg: ZeroConfig, what: str) -> None:
    if not cfg.centered:
        raise ValueError(f"{what} requires a centered configuration (sum z_j = 0)")


def _check_order(p: float) -> float:
    p = float(p)
    if p < 1:
        raise ValueError(f"order must satisfy p >= 1, got {p}")
    return p


def schoenberg_constant(n: int, p: float) -> float:
    """C(n, p): (n-2)/n for p >= 2 and ((n-2)/n)^(p/2) for 1 <= p <= 2.

    The two branches agree at p = 2, where the bound is the classical
    quadratic Schoenberg inequality.  The 1 < p < 2 branch is the claimed
    interpolated constant, not a proven bound: it is refuted for n >= 5 by
    a centered real quintuple whose ratio is 1.00168280036673 at p = 1.75
    (pinned in tests/test_certs.py::TestIntermediateOrderCounterexample).
    PAPER.md gives only the abstract, so it does not settle whether the
    paper states this constant or another one.
    """
    _check_order(p)
    base = (n - 2) / n
    return base if p >= 2 else base ** (p / 2.0)


def opnorm_constant(n: int, p: float) -> float:
    """c(n, p) = ((n-2)/n)^min(1/p, 1/2), the claimed operator-norm bound for
    the differentiator map from the centered l^p space into the Schatten
    p-class.

    For 1 < p < 2 this is the claimed interpolated constant, refuted for
    n >= 5: the Schatten norm of the pinned witness in
    tests/test_certs.py::TestIntermediateOrderCounterexample exceeds it at
    p = 1.75, and opnorm searches exceed it at (5, 1.5) and (8, 1.5).  The
    proven bound on all of l^p is ((n-1)/n)^(1/p), by Riesz-Thorin between
    p = 1 and p = 2.  PAPER.md does not settle which constant the paper
    states.
    """
    _check_order(p)
    return float(((n - 2) / n) ** min(1.0 / p, 0.5))


class _Spectra(NamedTuple):
    """What the batch evaluator reads for one configuration: the zeros, the
    differentiator and its three spectra, all computed once, eagerly."""

    n: int
    z: np.ndarray
    matrix: np.ndarray
    eigen_moduli: np.ndarray
    sigma: np.ndarray
    sigma_abs: np.ndarray  # of the differentiator built from |z_j|


def _spectra(cfg: ZeroConfig) -> _Spectra:
    z = cfg.as_array()
    matrix = densela.differentiator(cfg)
    cfg_abs = ZeroConfig(tuple(np.abs(z).astype(complex)))
    return _Spectra(
        n=cfg.n,
        z=z,
        matrix=matrix,
        eigen_moduli=np.abs(densela.eigenvalues(matrix)),
        sigma=densela.singular_values(matrix),
        sigma_abs=densela.singular_values(densela.differentiator(cfg_abs)),
    )


def schoenberg_order_p(
    cfg: ZeroConfig, p: float, constant_scale: float = 1.0
) -> Certificate:
    """Order-p Schoenberg certificate: sum |w_k|^p <= C(n,p) sum |z_j|^p.

    Requires the centroid condition.  ``constant_scale`` multiplies C(n, p)
    and exists purely as a fault-injection hook for audit self-tests; leave
    it at 1.0 for the actual inequality.
    """
    p = _check_order(p)
    _require_centered(cfg, "the order-p Schoenberg certificate")
    w_moduli = _spectral_critical_moduli(cfg)
    return _schoenberg(cfg.n, cfg.as_array(), w_moduli, p, constant_scale, _TOLS)


def _spectral_critical_moduli(cfg: ZeroConfig) -> np.ndarray:
    return np.abs(densela.critical_points_spectral(cfg).as_array())


def _schoenberg(
    n: int,
    z: np.ndarray,
    w_moduli: np.ndarray,
    p: float,
    constant_scale: float,
    tols: tuple[float, float],
) -> Certificate:
    lhs = densela.lp_norm(w_moduli, p) ** p
    rhs = constant_scale * schoenberg_constant(n, p) * densela.lp_norm(z, p) ** p
    return _certify("schoenberg", n, p, lhs, rhs, tols)


def quartic_bounds(cfg: ZeroConfig) -> tuple[Certificate, Certificate, Certificate]:
    """The two quartic bounds and their dominance, for centered zeros.

    dBS:  sum|w|^4 <= ((n-4)/n) sum|z|^4 + (2/n^2) (sum|z|^2)^2
    KT:   sum|w|^4 <= ((n-4)/n) sum|z|^4 + (1/n^2) (sum|z|^2)^2
                                         + (1/n^2) |sum z^2|^2
    dominance: the KT right side never exceeds the dBS right side, because
    |sum z^2| <= sum |z|^2.  The signed factor (n-4)/n is kept as written
    for n < 4.
    """
    _require_centered(cfg, "the quartic certificates")
    return _quartic(cfg.n, cfg.as_array(), _spectral_critical_moduli(cfg), _TOLS)


def _quartic(
    n: int, z: np.ndarray, w_moduli: np.ndarray, tols: tuple[float, float]
) -> tuple[Certificate, Certificate, Certificate]:
    lhs = float((w_moduli**4).sum())
    pow4 = densela.lp_norm(z, 4) ** 4
    pow2 = densela.lp_norm(z, 2) ** 2
    sum_sq = abs((z**2).sum()) ** 2
    rhs_dbs = (n - 4) / n * pow4 + 2.0 / n**2 * pow2**2
    rhs_kt = (n - 4) / n * pow4 + (pow2**2 + sum_sq) / n**2
    return (
        _certify("quartic_dbs", n, None, lhs, rhs_dbs, tols),
        _certify("quartic_kt", n, None, lhs, rhs_kt, tols),
        _certify("quartic_dominance", n, None, rhs_kt, rhs_dbs, tols),
    )


def pereira_bound(cfg: ZeroConfig, p: float) -> Certificate:
    """Pereira's certificate: sum |w_k|^p <= ((n-1)/n) sum |z_j|^p.

    Holds with no centroid condition.  Centered configurations use the
    spectral route to the critical points; others fall back to direct
    root-finding.
    """
    p = _check_order(p)
    if cfg.centered:
        w_moduli = _spectral_critical_moduli(cfg)
    else:
        w_moduli = np.abs(critical_points_direct(cfg).as_array())
    return _pereira(cfg.n, cfg.as_array(), w_moduli, p, _TOLS)


def _pereira(
    n: int, z: np.ndarray, w_moduli: np.ndarray, p: float, tols: tuple[float, float]
) -> Certificate:
    lhs = densela.lp_norm(w_moduli, p) ** p
    rhs = (n - 1) / n * densela.lp_norm(z, p) ** p
    return _certify("pereira", n, p, lhs, rhs, tols)


def weyl_check(m: np.ndarray, p: float) -> Certificate:
    """Weyl majorization certificate: sum |lambda_i|^p <= sum sigma_i^p."""
    p = _check_order(p)
    lam = densela.eigenvalues(m)
    sig = densela.singular_values(m)
    return _weyl(np.abs(lam), sig, p, _TOLS)


def _weyl(
    lam_moduli: np.ndarray, sigma: np.ndarray, p: float, tols: tuple[float, float]
) -> Certificate:
    lhs = densela.lp_norm(lam_moduli, p) ** p
    rhs = densela.lp_norm(sigma, p) ** p
    return _certify("weyl", lam_moduli.size, p, lhs, rhs, tols)


def endpoint_checks(
    cfg: ZeroConfig,
) -> tuple[Certificate, Certificate, Certificate]:
    """The three endpoint certificates for A = Q diag(z) Q, centered z.

    S-infinity: ||A|| <= max |z_j|            (contraction by the projector)
    S2 identity: ||A||_S2^2 = ((n-2)/n) ||z||_2^2   (both directions)
    S1:          ||A||_S1 <= sqrt((n-2)/n) ||z||_1
    """
    _require_centered(cfg, "the endpoint certificates")
    return _endpoint(_spectra(cfg), _TOLS)


def _endpoint(
    sp: _Spectra, tols: tuple[float, float]
) -> tuple[Certificate, Certificate, Certificate]:
    n = sp.n
    sinf = _certify(
        "endpoint_sinf",
        n,
        None,
        float(sp.sigma[0]) if n else 0.0,
        densela.lp_norm(sp.z, np.inf),
        tols,
    )
    s2 = _certify(
        "endpoint_s2",
        n,
        None,
        densela.schatten_norm(sp.matrix, 2) ** 2,
        (n - 2) / n * densela.lp_norm(sp.z, 2) ** 2,
        tols,
        equality=True,
    )
    s1 = _certify(
        "endpoint_s1",
        n,
        None,
        float(sp.sigma.sum()),
        np.sqrt((n - 2) / n) * densela.lp_norm(sp.z, 1),
        tols,
    )
    return s1, s2, sinf


def esf_bounds(cfg: ZeroConfig) -> list[Certificate]:
    """Per-k certificates e_k(sigma_1..sigma_{n-1}) <= ((n-k)/n) e_k(|z|).

    The sigma are the singular values of the differentiator matrix, top n-1
    of them (the smallest is structurally zero).  No centroid condition.
    """
    return _esf(_spectra(cfg), _TOLS)


def _esf(sp: _Spectra, tols: tuple[float, float]) -> list[Certificate]:
    n = sp.n
    sigma = sp.sigma[: n - 1]
    moduli = np.abs(sp.z)
    out = []
    for k in range(1, n):
        lhs = symfun.esf(sigma, k)
        rhs = (n - k) / n * symfun.esf(moduli, k)
        out.append(_certify(f"esf_k{k}", n, None, lhs, rhs, tols))
    return out


def sv_product_check(x: np.ndarray, d) -> list[Certificate]:
    """Prefix-product certificates for sigma(X* D X) against sigma(X* |D| X).

    One certificate per k = 1..n comparing the k-fold products of the two
    singular value sequences, judged with the weak log-majorization slack
    (zeros short-circuit in log space).
    """
    x = np.asarray(x, dtype=complex)
    d = np.asarray(d, dtype=complex).ravel()
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"X must be square, got shape {x.shape}")
    n = x.shape[0]
    if d.size != n:
        raise ValueError(f"diagonal length {d.size} does not match order {n}")
    xh = x.conj().T
    sig_d = densela.singular_values(xh @ np.diag(d) @ x)
    sig_abs = densela.singular_values(xh @ np.diag(np.abs(d).astype(complex)) @ x)
    return _sv_product(sig_d, sig_abs)


def _sv_product(sig_d: np.ndarray, sig_abs: np.ndarray) -> list[Certificate]:
    n = sig_d.size
    holds = symfun.prefix_products_hold(sig_d, sig_abs)
    floor_abs = symfun.RANK_REL_TOL * (sig_abs[0] if n else 0.0)
    out = []
    for k in range(1, n + 1):
        lhs = float(np.prod(sig_d[:k]))
        rhs = float(np.prod(sig_abs[:k]))
        # once the prefix of the right side crosses the rank floor it is the
        # shadow of an exact zero and the quotient is meaningless
        rhs_is_noise = bool(np.any(sig_abs[:k] <= floor_abs))
        out.append(
            Certificate(
                name=f"sv_product_k{k}",
                n=n,
                p=None,
                lhs=lhs,
                rhs=rhs,
                slack=rhs - lhs,
                ratio=(lhs / rhs) if rhs > 0 and not rhs_is_noise else None,
                holds=bool(holds[k - 1]),
            )
        )
    return out


def check_all(
    cfg: ZeroConfig,
    p_list,
    constant_scale: float = 1.0,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> list[Certificate]:
    """Evaluate every certificate that applies to one centered configuration.

    Order-parametrized families (Schoenberg, Pereira, Weyl on the
    differentiator matrix) run once per entry of ``p_list``; the
    parameter-free ones (quartic pair and dominance, the three endpoint
    checks, the per-k elementary symmetric bounds, and the singular value
    product lemma instantiated at X = Q, D = diag(z)) run once.  Every
    verdict but the singular value product's, which has its own log-space
    slack, is judged under ``abs_tol`` and ``rel_tol``.  Results come back
    sorted by (name, p) so reports are deterministic.
    """
    _require_centered(cfg, "check_all")
    orders = sorted({float(p) for p in p_list})
    if not orders:
        raise ValueError("p_list must not be empty")
    for p in orders:
        _check_order(p)
    sp = _spectra(cfg)
    tols = (abs_tol, rel_tol)
    w_moduli = sp.eigen_moduli[:-1]  # less the structural zero
    certs = [*_endpoint(sp, tols), *_esf(sp, tols)]
    certs.extend(_quartic(sp.n, sp.z, w_moduli, tols))
    for p in orders:
        certs.append(_schoenberg(sp.n, sp.z, w_moduli, p, constant_scale, tols))
        certs.append(_pereira(sp.n, sp.z, w_moduli, p, tols))
        certs.append(_weyl(sp.eigen_moduli, sp.sigma, p, tols))
    # the product lemma at X = Q reuses sigma(A) and sigma over |z|
    certs.extend(_sv_product(sp.sigma, sp.sigma_abs))
    return sorted(certs, key=lambda c: (c.name, c.p if c.p is not None else -1.0))
