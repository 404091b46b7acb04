"""Every inequality between zeros and critical points as a numeric certificate.

A certificate records both sides of one evaluated inequality together with
slack, ratio and a pass flag under an explicit tolerance policy:

    holds  <=>  lhs <= rhs + max(ABS_TOL, REL_TOL * max(|lhs|, |rhs|))

Equality statements (the Schatten-2 identity) demand both directions.  All
inequalities here concern a degree-n polynomial with zeros z_j and critical
points w_k; "centered" means sum z_j = 0.

Every family is one formula over stacked arrays, with a leading batch axis
of configurations: power sums, one column per order, of |z|, of the
eigenvalue moduli and of the singular values of Q diag(z) Q, elementary
symmetric functions, and prefix products.  The eigenvalue moduli come from
one helper, one batched eigendecomposition and one sort, which the
evaluator, the single-family functions and the ratio search in
``sharpness`` all read.  The columnar evaluator behind check_all and the
audit certifies a (B, n) stack of configurations with that helper and one
batched singular value decomposition (of the differentiators of z and of
|z|), and judges every verdict at once under the tolerance pair.  The
single-family functions feed the same formulas with only the spectra their
family reads.  A side that overflows to a non-finite value is an
OverflowError, never a verdict.
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

# the one statement judged in both directions
_EQUALITIES = frozenset({"endpoint_s2"})
_NOT_FINITE = "a certificate side overflowed to a non-finite value"


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


def _require_centered(cfg: ZeroConfig, what: str) -> None:
    if not cfg.centered:
        raise ValueError(f"{what} requires a centered configuration (sum z_j = 0)")


def _check_order(p: float) -> float:
    p = float(p)
    if not 1 <= p < np.inf:
        raise ValueError(f"order must be finite and satisfy p >= 1, got {p}")
    return p


def _check_tolerances(abs_tol: float, rel_tol: float) -> tuple[float, float]:
    tols = (float(abs_tol), float(rel_tol))
    if not all(np.isfinite(t) and t >= 0 for t in tols):
        raise ValueError(f"tolerances must be finite and nonnegative, got {tols}")
    return tols


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


# --- the per-family formulas, over a leading batch axis ---------------------

_Label = tuple[str, float | None]


class _Block(NamedTuple):
    """Both sides of one family's columns: labels (k,), lhs and rhs (B, k)."""

    labels: list[_Label]
    lhs: np.ndarray
    rhs: np.ndarray


def _arithmetic():
    # overflow and inf - inf leave non-finite sides, which become an
    # OverflowError where certificates are made
    return np.errstate(over="ignore", invalid="ignore")


def _power_sums(mods: np.ndarray, orders) -> np.ndarray:
    """densela.lp_norm(mods, p) ** p along the last axis, one column per
    order: (..., P).  Each column is computed on its own, so a sum does not
    depend on which other orders are asked with it.  As in lp_norm, the peak
    is factored out so that large p does not underflow, and p = 1 and p = 2
    are a plain sum and a root of squares; numpy's vectorised power can
    differ from lp_norm's scalar one in the last bit.
    """
    top = mods.max(axis=-1)
    scaled = mods / np.where(top > 0, top, 1.0)[..., None]  # a zero row stays zero
    columns = []
    for p in orders:
        if p == 1:
            norm = mods.sum(axis=-1)
        elif p == 2:
            norm = np.sqrt((mods**2).sum(axis=-1))
        else:
            norm = top * (scaled**p).sum(axis=-1) ** (1.0 / p)
        columns.append(norm**p)
    return np.stack(columns, axis=-1)


def _critical_moduli(z: np.ndarray) -> np.ndarray:
    """Eigenvalue moduli of Q diag(z) Q for each row of the zeros z,
    nonincreasing, so the structural zero comes last: (..., n)."""
    lam = densela._eigvals(densela._differentiator(z))
    # negating twice keeps the array contiguous, so every transcendental on
    # the moduli takes the same vector path for a stack as for a batch of one
    return -np.sort(-np.abs(lam), axis=-1)


def _schoenberg(n, orders, w_sums, z_sums, constant_scale) -> _Block:
    """sum |w_k|^p <= C(n, p) sum |z_j|^p, one column per order."""
    constants = np.array([schoenberg_constant(n, p) for p in orders])
    return _Block(
        [("schoenberg", p) for p in orders],
        w_sums,
        constant_scale * constants * z_sums,
    )


def _pereira(n, orders, w_sums, z_sums) -> _Block:
    """sum |w_k|^p <= ((n-1)/n) sum |z_j|^p, one column per order."""
    return _Block([("pereira", p) for p in orders], w_sums, (n - 1) / n * z_sums)


def _weyl(orders, lam_sums, sigma_sums) -> _Block:
    """sum |lambda_i|^p <= sum sigma_i^p, one column per order."""
    return _Block([("weyl", p) for p in orders], lam_sums, sigma_sums)


def _quartic(n, z, w_mod) -> _Block:
    """The dBS and KT quartic bounds and the dominance of KT by dBS."""
    lhs = (w_mod**4).sum(axis=-1)
    pow4, pow2 = np.moveaxis(_power_sums(np.abs(z), (4.0, 2.0)), -1, 0)
    sum_sq = np.abs((z**2).sum(axis=-1)) ** 2
    rhs_dbs = (n - 4) / n * pow4 + 2.0 / n**2 * pow2**2
    rhs_kt = (n - 4) / n * pow4 + (pow2**2 + sum_sq) / n**2
    return _Block(
        [("quartic_dbs", None), ("quartic_kt", None), ("quartic_dominance", None)],
        np.stack((lhs, lhs, rhs_kt), axis=-1),
        np.stack((rhs_dbs, rhs_kt, rhs_dbs), axis=-1),
    )


def _endpoint(n, sigma, z_mod) -> _Block:
    """S1, S2 (an equality) and S-infinity bounds on A = Q diag(z) Q."""
    pow1, pow2 = np.moveaxis(_power_sums(z_mod, (1.0, 2.0)), -1, 0)
    return _Block(
        [("endpoint_s1", None), ("endpoint_s2", None), ("endpoint_sinf", None)],
        np.stack((sigma.sum(axis=-1), (sigma**2).sum(axis=-1), sigma[..., 0]), axis=-1),
        np.stack(
            (np.sqrt((n - 2) / n) * pow1, (n - 2) / n * pow2, z_mod.max(axis=-1)),
            axis=-1,
        ),
    )


def _esf(n, sigma, z_mod) -> _Block:
    """e_k(sigma_1..sigma_{n-1}) <= ((n-k)/n) e_k(|z|) for k = 1 .. n-1."""
    # the structurally zero sigma_n is replaced by an exact zero, which leaves
    # every e_k of the other n - 1 values unchanged
    top = np.concatenate((sigma[..., :-1], np.zeros_like(sigma[..., :1])), axis=-1)
    table = symfun.esf_table(np.stack((top, z_mod)))[..., 1:n]
    k = np.arange(1, n)
    return _Block([(f"esf_k{j}", None) for j in k], table[0], (n - k) / n * table[1])


def _sv_product(sig_d, sig_abs) -> tuple[_Block, np.ndarray, np.ndarray]:
    """Prefix products of sigma(X* D X) against sigma(X* |D| X).

    Besides the block, returns the prefix verdicts of
    symfun.prefix_products_hold and the ratios, missing (NaN) once the right
    prefix has crossed the rank floor: its product is then the shadow of an
    exact zero and the quotient is meaningless.
    """
    block = _Block(
        [(f"sv_product_k{k}", None) for k in range(1, sig_d.shape[-1] + 1)],
        np.cumprod(sig_d, axis=-1),
        np.cumprod(sig_abs, axis=-1),
    )
    ratio = _ratio(block.lhs, block.rhs)
    ratio[symfun.rank_floor_crossed(sig_abs)] = np.nan
    return block, symfun.prefix_products_hold(sig_d, sig_abs), ratio


def _judge(labels: list[_Label], lhs, rhs, tols) -> np.ndarray:
    """The tolerance rule on every column at once; _EQUALITIES both ways."""
    abs_tol, rel_tol = tols
    tol = np.maximum(abs_tol, rel_tol * np.maximum(np.abs(lhs), np.abs(rhs)))
    holds = lhs <= rhs + tol
    both = [i for i, (name, _) in enumerate(labels) if name in _EQUALITIES]
    if both:
        holds[..., both] = np.abs(lhs[..., both] - rhs[..., both]) <= tol[..., both]
    return holds


def _ratio(lhs, rhs) -> np.ndarray:
    """lhs / rhs, NaN (missing) where rhs is not positive."""
    return np.divide(lhs, rhs, out=np.full(lhs.shape, np.nan), where=rhs > 0)


def _certificates(n, labels, lhs, rhs, ratio, holds) -> list[Certificate]:
    """One row of judged columns as Certificate objects."""
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise OverflowError(_NOT_FINITE)
    return [
        Certificate(
            name=name,
            n=n,
            p=p,
            lhs=l,
            rhs=r,
            slack=r - l,
            ratio=None if q != q else q,  # NaN marks a missing ratio
            holds=h,
        )
        for (name, p), l, r, q, h in zip(
            labels, lhs.tolist(), rhs.tolist(), ratio.tolist(), holds.tolist()
        )
    ]


def _single(n: int, block: _Block) -> list[Certificate]:
    """The certificates of one configuration's family under the default
    tolerances."""
    holds = _judge(block.labels, block.lhs, block.rhs, _TOLS)
    ratio = _ratio(block.lhs, block.rhs)
    return _certificates(
        n, block.labels, block.lhs[0], block.rhs[0], ratio[0], holds[0]
    )


# --- the columnar evaluator --------------------------------------------------


class _Batch(NamedTuple):
    """Certified columns of a stack of configurations of one order n.

    The K labels come in check_all's (name, p) order; lhs, rhs, ratio (NaN
    where missing) and holds are (B, K).  ``finite`` marks the rows whose
    sides are all finite; the others are an OverflowError.
    """

    labels: list[_Label]
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    holds: np.ndarray
    finite: np.ndarray


def _certify_batch(z: np.ndarray, orders, constant_scale: float, tols) -> _Batch:
    """Every certificate of check_all for each row of the (B, n) centered
    zeros ``z``, at the sorted ``orders``.

    One batched eigendecomposition of the differentiators of z and one
    batched SVD of those and of the differentiators of |z|; a LAPACK failure
    anywhere in the stack raises ConvergenceError for the whole stack.
    """
    n = z.shape[-1]
    with _arithmetic():
        z_mod = np.abs(z)
        lam_mod = _critical_moduli(z)
        w_mod = lam_mod[..., :-1]  # less the structural zero
        sigma, sigma_abs = densela._svdvals(densela._differentiator(np.stack((z, z_mod))))
        w_sums = _power_sums(w_mod, orders)
        z_sums, lam_sums, sigma_sums = _power_sums(
            np.stack((z_mod, lam_mod, sigma)), orders
        )
        sv_block, sv_holds, sv_ratio = _sv_product(sigma, sigma_abs)
        blocks = [
            _endpoint(n, sigma, z_mod),
            _esf(n, sigma, z_mod),
            _quartic(n, z, w_mod),
            _schoenberg(n, orders, w_sums, z_sums, constant_scale),
            _pereira(n, orders, w_sums, z_sums),
            _weyl(orders, lam_sums, sigma_sums),
            sv_block,
        ]
        labels = [label for block in blocks for label in block.labels]
        lhs = np.concatenate([block.lhs for block in blocks], axis=-1)
        rhs = np.concatenate([block.rhs for block in blocks], axis=-1)
        holds = _judge(labels, lhs, rhs, tols)
        ratio = _ratio(lhs, rhs)
        # the product lemma has its own log-space slack and rank floor
        holds[:, -n:] = sv_holds
        ratio[:, -n:] = sv_ratio
        finite = np.isfinite(lhs).all(axis=-1) & np.isfinite(rhs).all(axis=-1)
    order = sorted(range(len(labels)), key=lambda i: _sort_key(labels[i]))
    return _Batch(
        [labels[i] for i in order],
        lhs[:, order],
        rhs[:, order],
        ratio[:, order],
        holds[:, order],
        finite,
    )


def _sort_key(label: _Label) -> tuple[str, float]:
    name, p = label
    return name, -1.0 if p is None else p


# --- the public certificates --------------------------------------------------


def schoenberg_order_p(
    cfg: ZeroConfig, p: float, constant_scale: float = 1.0
) -> Certificate:
    """Order-p Schoenberg certificate: sum |w_k|^p <= C(n,p) sum |z_j|^p.

    Requires the centroid condition.  ``constant_scale`` multiplies C(n, p)
    and exists purely as a fault-injection hook for audit self-tests; leave
    it at 1.0 for the actual inequality.
    """
    return _schoenberg_orders(cfg, [p], constant_scale)[0]


def _schoenberg_orders(
    cfg: ZeroConfig, orders, constant_scale: float = 1.0
) -> list[Certificate]:
    """schoenberg_order_p at each of ``orders``, in the order given, from one
    eigendecomposition."""
    orders = [_check_order(p) for p in orders]
    _require_centered(cfg, "the order-p Schoenberg certificate")
    z = cfg.as_array()[None]
    with _arithmetic():
        block = _schoenberg(
            cfg.n,
            orders,
            _power_sums(_critical_moduli(z)[..., :-1], orders),
            _power_sums(np.abs(z), orders),
            constant_scale,
        )
        return _single(cfg.n, block)


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
    z = cfg.as_array()[None]
    with _arithmetic():
        block = _quartic(cfg.n, z, _critical_moduli(z)[..., :-1])
        dbs, kt, dominance = _single(cfg.n, block)
    return dbs, kt, dominance


def pereira_bound(cfg: ZeroConfig, p: float) -> Certificate:
    """Pereira's certificate: sum |w_k|^p <= ((n-1)/n) sum |z_j|^p.

    Holds with no centroid condition.  Centered configurations use the
    spectral route to the critical points; others fall back to direct
    root-finding.
    """
    p = _check_order(p)
    z = cfg.as_array()[None]
    if cfg.centered:
        w_mod = _critical_moduli(z)[..., :-1]
    else:
        w_mod = np.abs(critical_points_direct(cfg).as_array())[None]
    with _arithmetic():
        block = _pereira(
            cfg.n, [p], _power_sums(w_mod, [p]), _power_sums(np.abs(z), [p])
        )
        return _single(cfg.n, block)[0]


def weyl_check(m: np.ndarray, p: float) -> Certificate:
    """Weyl majorization certificate: sum |lambda_i|^p <= sum sigma_i^p."""
    p = _check_order(p)
    lam_mod = np.abs(densela.eigenvalues(m))
    sigma = densela.singular_values(m)
    with _arithmetic():
        block = _weyl(
            [p], _power_sums(lam_mod[None], [p]), _power_sums(sigma[None], [p])
        )
        return _single(lam_mod.size, block)[0]


def endpoint_checks(
    cfg: ZeroConfig,
) -> tuple[Certificate, Certificate, Certificate]:
    """The three endpoint certificates for A = Q diag(z) Q, centered z.

    S-infinity: ||A|| <= max |z_j|            (contraction by the projector)
    S2 identity: ||A||_S2^2 = ((n-2)/n) ||z||_2^2   (both directions)
    S1:          ||A||_S1 <= sqrt((n-2)/n) ||z||_1
    """
    _require_centered(cfg, "the endpoint certificates")
    sigma = densela.singular_values(densela.differentiator(cfg))
    with _arithmetic():
        block = _endpoint(cfg.n, sigma[None], np.abs(cfg.as_array())[None])
        s1, s2, sinf = _single(cfg.n, block)
    return s1, s2, sinf


def esf_bounds(cfg: ZeroConfig) -> list[Certificate]:
    """Per-k certificates e_k(sigma_1..sigma_{n-1}) <= ((n-k)/n) e_k(|z|).

    The sigma are the singular values of the differentiator matrix, top n-1
    of them (the smallest is structurally zero).  No centroid condition.
    """
    sigma = densela.singular_values(densela.differentiator(cfg))
    with _arithmetic():
        return _single(cfg.n, _esf(cfg.n, sigma[None], np.abs(cfg.as_array())[None]))


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
    with _arithmetic():
        block, holds, ratio = _sv_product(sig_d[None], sig_abs[None])
        return _certificates(
            n, block.labels, block.lhs[0], block.rhs[0], ratio[0], holds[0]
        )


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
    sorted by (name, p) so reports are deterministic.  A side that is not
    finite raises OverflowError.  This is the columnar evaluator on a batch
    of one.
    """
    _require_centered(cfg, "check_all")
    orders = sorted({_check_order(p) for p in p_list})
    if not orders:
        raise ValueError("p_list must not be empty")
    tols = _check_tolerances(abs_tol, rel_tol)
    batch = _certify_batch(cfg.as_array()[None], orders, constant_scale, tols)
    return _certificates(
        cfg.n, batch.labels, batch.lhs[0], batch.rhs[0], batch.ratio[0], batch.holds[0]
    )
