"""Every inequality between zeros and critical points as a numeric certificate.

A certificate records both sides of one evaluated inequality together with
slack, ratio and a pass flag, judged by one rule:

    holds  <=>  lhs <= rhs + rel_tol * max(|lhs|, |rhs|)

Equality statements (the Schatten-2 identity) demand both directions.
Every family is homogeneous in the zeros, so the rule has no absolute
floor.  Instead the rounding shadow of an exact zero becomes one where it
arises: a critical modulus or singular value at or below abs_tol *
sigma_1(Q diag(|z|) Q), and a finite quartic side at or below abs_tol times
the size of its terms.  Every spectrum is that of the compression of
diag(z) or diag(|z|) to the mean-zero subspace (densela), with n-1
eigenvalues and singular values and no structural zero; the sigma_n of
Q diag(z) Q, which only the singular value product lemma reads, is an
exact zero.  All inequalities here concern a degree-n polynomial with zeros
z_j and critical points w_k; "centered" means sum z_j = 0.

Every family is one formula over stacked arrays, with a leading batch axis
of configurations: power sums, one column per order, of |z|, of the
eigenvalue moduli and of the singular values of Q diag(z) Q, elementary
symmetric functions, and prefix products.  The columnar evaluator behind
the audit certifies a (B, n) stack of configurations with one batched
eigendecomposition and one batched singular value decomposition (of the
compressions of z and of |z|), and judges every column once, in one
pass.  Every certificate of one configuration built from its zeros is that
evaluator on a batch of one: check_all takes all of its columns, each
single-family function, harness.sweep_p and harness.re_evaluate_violation
select their own, and sharpness.ratio reads that of schoenberg_order_p.
Only weyl_check and sv_product_check, whose matrices come from outside the
program, build their spectra themselves.  Every judged row becomes
certificates or an error by one rule, _error.  The one fault-injection hook
is run_audit(sabotage=True), which halves the Schoenberg constant.

A power sum is a direct sum of powers, one order at a time.  A side that
overflows to a non-finite value is an OverflowError, and so is every side
of a row whose compression does, which is zeroed before LAPACK reads it.  A
right side that underflows below the smallest normal float where it is not
an exact zero is an UnderflowError: a power sum of the moduli of nonzero
zeros, an e_k(|z|) of at least k nonzero moduli, or a prefix product of
singular values above the shadow threshold.  Neither is ever a verdict.  The
evaluator marks each of these per column, so a function raises only for the
columns it returns, and OverflowError before UnderflowError.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import densela, symfun
from .densela import UnderflowError
from .polyzero import ZeroConfig

# the shadow threshold and the slack of every verdict
ABS_TOL = 1e-12
REL_TOL = 1e-9
_TOLS = (ABS_TOL, REL_TOL)

# the one statement judged in both directions
_EQUALITIES = frozenset({"endpoint_s2"})
_NOT_FINITE = "a certificate side overflowed to a non-finite value"
_UNDERFLOWED = "a right side underflowed below the smallest normal float"
_TINY = np.finfo(float).tiny


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
        """The wire schema: every field by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        """The certificate of a dict such as to_dict writes, or json.load
        reads back.  A missing or unknown key is a ValueError, and so is a
        value of the wrong type: name must be text, n an integer, holds a
        bool, lhs, rhs and slack real numbers, and p and ratio real numbers
        or None."""
        if not isinstance(data, dict):
            raise ValueError(f"a certificate must be a mapping, got {data!r}")
        names = [f.name for f in fields(Certificate)]
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"missing certificate keys: {missing}")
        unknown = [key for key in data if key not in names]
        if unknown:
            raise ValueError(f"unknown certificate keys: {unknown}")
        if not isinstance(data["name"], str):
            raise ValueError(f"name must be text, got {data['name']!r}")
        if not isinstance(data["holds"], bool):
            raise ValueError(f"holds must be a bool, got {data['holds']!r}")
        sides = {key: densela._real(data[key], key) for key in ("lhs", "rhs", "slack")}
        for key in ("p", "ratio"):
            sides[key] = None if data[key] is None else densela._real(data[key], key)
        return Certificate(
            name=data["name"], n=densela._integer(data["n"], "n"), holds=data["holds"], **sides
        )


def _require_centered(cfg: ZeroConfig, what: str) -> None:
    if not cfg.centered:
        raise ValueError(f"{what} requires a centered configuration (sum z_j = 0)")


def _check_tolerances(abs_tol: float, rel_tol: float) -> tuple[float, float]:
    tols = (densela._real(abs_tol, "abs_tol"), densela._real(rel_tol, "rel_tol"))
    if not all(np.isfinite(t) and t >= 0 for t in tols):
        raise ValueError(f"tolerances must be finite and nonnegative, got {tols}")
    return tols


def _check_constant_args(n: int, p: float) -> tuple[int, float]:
    """The n and p of a closed-form constant: an integer n >= 2 and a
    finite order p >= 1, else ValueError."""
    n = densela._integer(n, "n")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return n, densela._check_order(p)


def schoenberg_constant(n: int, p: float) -> float:
    """C(n, p): (n-2)/n for p >= 2 and ((n-2)/n)^(p/2) for 1 <= p <= 2.

    The two branches agree at p = 2, where the bound is the classical
    quadratic Schoenberg inequality.  The 1 < p < 2 branch is the claimed
    interpolated constant, not a proven bound: it is refuted for every
    n >= 4, on an interval p0(n) < p < 2 with p0(4) ~ 1.760.  At n = 4,
    (z - 1)(z + 1/3)^3 has the ratio 1.0009149692779185 at p = 1.9 (pinned
    in tests/test_sharpness.py::TestOrderFourWitness); at n = 5 a centered
    real quintuple has the ratio 1.00168280036673 at p = 1.75 (pinned in
    tests/test_certs.py::TestIntermediateOrderCounterexample).  PAPER.md
    gives only the abstract, so it does not settle whether the paper states
    this constant or another one.  n must be an integer n >= 2 (C(2, p) is
    0) and p a finite order p >= 1, else ValueError.
    """
    n, p = _check_constant_args(n, p)
    base = (n - 2) / n
    return base if p >= 2 else base ** (p / 2.0)


def opnorm_constant(n: int, p: float) -> float:
    """c(n, p) = ((n-2)/n)^min(1/p, 1/2), the claimed operator-norm bound for
    the differentiator map from the centered l^p space into the Schatten
    p-class.

    For 1 < p < 2 this is the claimed interpolated constant, refuted where
    schoenberg_constant is, for n >= 4 and p0(n) < p < 2: sum sigma^p >=
    sum |w|^p (Weyl), so the Schatten norm of each Schoenberg witness
    exceeds it, and opnorm searches exceed it at (5, 1.5) and (8, 1.5).  The
    proven bound on all of l^p is ((n-1)/n)^(1/p), by Riesz-Thorin between
    p = 1 and p = 2.  PAPER.md does not settle which constant the paper
    states.  n and p are checked as in schoenberg_constant.
    """
    n, p = _check_constant_args(n, p)
    return float(((n - 2) / n) ** min(1.0 / p, 0.5))


# --- the per-family formulas, over a leading batch axis ---------------------

_Label = tuple[str, float | None]
_QUARTIC = (("quartic_dbs", None), ("quartic_kt", None), ("quartic_dominance", None))
_ENDPOINT = (("endpoint_s1", None), ("endpoint_s2", None), ("endpoint_sinf", None))


class _Block(NamedTuple):
    """Columns not yet judged: labels (k,); lhs, rhs and ``underflow``
    (..., k).  ``underflow`` marks a right side that fell below the smallest
    normal float where it is not an exact zero."""

    labels: list[_Label]
    lhs: np.ndarray
    rhs: np.ndarray
    underflow: np.ndarray


class _Columns(NamedTuple):
    """Judged columns: K labels; lhs, rhs, ratio (NaN where missing), holds
    and underflow (as in _Block), each (B, K), or (K,) for one row."""

    labels: tuple[_Label, ...]
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    holds: np.ndarray
    underflow: np.ndarray

    @property
    def finite(self) -> np.ndarray:
        """Per row, whether every side is finite (else an OverflowError)."""
        return np.isfinite(self.lhs).all(axis=-1) & np.isfinite(self.rhs).all(axis=-1)

    def row(self, i: int) -> "_Columns":
        return _Columns(self.labels, *(column[i] for column in self[1:]))

    def take(self, cols) -> "_Columns":
        """The columns ``cols``, in that order."""
        labels = tuple(self.labels[col] for col in cols)
        return _Columns(labels, *(column[..., cols] for column in self[1:]))


def _concat(parts) -> _Block:
    """The columns of the _Blocks ``parts``, side by side."""
    return _Block(
        tuple(label for part in parts for label in part.labels),
        *(np.concatenate(arrays, axis=-1) for arrays in list(zip(*parts))[1:]),
    )


def _arithmetic():
    # overflow and inf - inf leave non-finite sides, which become an
    # OverflowError where certificates are made
    return np.errstate(over="ignore", invalid="ignore")


def _power_sums(mods: np.ndarray, orders) -> np.ndarray:
    """sum(mods ** p) along the last axis, one column per order: (..., P).

    A direct sum of the powers, with no scaling.  Scaling by the peak would
    buy no range: the result is the power sum itself, which is at least its
    largest term, so it is out of range however it is computed, and it
    underflows only when every term does (_certify_batch marks that).  Each
    column is computed on its own, so a sum does not depend on which other
    orders are asked with it; each power is reduced straight into its
    column, with the bits of ``.sum(axis=-1)``.
    """
    sums = np.empty(mods.shape[:-1] + (len(orders),))
    for col, p in enumerate(orders):
        np.add.reduce(mods**p, axis=-1, out=sums[..., col])
    return sums


def _descending_moduli(lam: np.ndarray) -> np.ndarray:
    """|lam| sorted nonincreasing along the last axis."""
    # negating twice keeps the array contiguous, so every transcendental on
    # the moduli takes the same vector path for a stack as for a batch of one
    return -np.sort(-np.abs(lam), axis=-1)


def _schoenberg(n, orders, w_sums, z_sums, z_low, scale) -> _Block:
    """sum |w_k|^p <= scale * C(n, p) sum |z_j|^p, one column per order."""
    constants = scale * np.array([schoenberg_constant(n, p) for p in orders])
    return _Block([("schoenberg", p) for p in orders], w_sums, constants * z_sums, z_low)


def _pereira(n, orders, w_sums, z_sums, z_low) -> _Block:
    """sum |w_k|^p <= ((n-1)/n) sum |z_j|^p, one column per order."""
    return _Block([("pereira", p) for p in orders], w_sums, (n - 1) / n * z_sums, z_low)


def _weyl(orders, lam_sums, sigma_sums) -> _Block:
    """sum |lambda_i|^p <= sum sigma_i^p, one column per order."""
    labels = [("weyl", p) for p in orders]
    return _Block(labels, lam_sums, sigma_sums, np.zeros_like(sigma_sums, dtype=bool))


def _quartic(n, z, w_mod, pow2, pow4, low, abs_tol) -> _Block:
    """The dBS bound, the dominance of KT by dBS and the KT bound, in name
    order, from the power sums ``pow2`` and ``pow4`` of |z|; ``low`` marks
    the rows where either underflowed.  A finite side at or below
    ``abs_tol`` times the finite size of its terms is a shadow (the right
    sides cancel for n < 4) and becomes an exact zero; an overflowed side
    stays as it is."""
    lhs = (w_mod**4).sum(axis=-1)
    sum_sq = np.abs((z**2).sum(axis=-1)) ** 2
    rhs_dbs = (n - 4) / n * pow4 + 2.0 / n**2 * pow2**2
    rhs_kt = (n - 4) / n * pow4 + (pow2**2 + sum_sq) / n**2
    sides = np.stack((lhs, rhs_kt, lhs, rhs_dbs, rhs_dbs, rhs_kt), axis=-1)
    terms = (abs(n - 4) / n * pow4 + 2.0 / n**2 * pow2**2)[..., None]
    sides[(np.abs(sides) <= abs_tol * terms) & np.isfinite(terms)] = 0.0
    return _Block(sorted(_QUARTIC), sides[..., :3], sides[..., 3:], np.stack((low,) * 3, axis=-1))


def _endpoint(n, sigma, z_mod, pow1, pow2, low1, low2) -> _Block:
    """S1, S2 (an equality) and S-infinity bounds on A = Q diag(z) Q, from
    the power sums ``pow1`` and ``pow2`` of |z|, which ``low1`` and
    ``low2`` mark where they underflowed."""
    return _Block(
        list(_ENDPOINT),
        np.stack((sigma.sum(axis=-1), (sigma**2).sum(axis=-1), sigma[..., 0]), axis=-1),
        np.stack(
            (np.sqrt((n - 2) / n) * pow1, (n - 2) / n * pow2, z_mod.max(axis=-1)),
            axis=-1,
        ),
        np.stack((low1, low2, np.zeros_like(low1)), axis=-1),
    )


def _esf(n, sigma, z_mod) -> _Block:
    """e_k(sigma_1..sigma_{n-1}) <= ((n-k)/n) e_k(|z|) for k = 1 .. n-1,
    from the n-1 singular values ``sigma``.  An e_k(|z|) below the smallest
    normal float is an underflow when at least k of the |z| are nonzero.
    """
    lhs = symfun.esf_table(sigma)[..., 1:]
    rhs = symfun.esf_table(z_mod)[..., 1:n]
    k = np.arange(1, n)
    low = (rhs < _TINY) & (k <= np.count_nonzero(z_mod, axis=-1)[..., None])
    return _Block([(f"esf_k{j}", None) for j in k], lhs, (n - k) / n * rhs, low)


def _sv_product(sig_d, sig_abs) -> _Block:
    """Prefix products of sigma(X* D X) against sigma(X* |D| X), nonincreasing
    singular values whose shadows the caller has snapped to exact zeros.  A
    right prefix below the smallest normal float is an underflow unless one
    of its factors is an exact zero."""
    rhs = np.cumprod(sig_abs, axis=-1)
    labels = [(f"sv_product_k{k}", None) for k in range(1, sig_d.shape[-1] + 1)]
    return _Block(labels, np.cumprod(sig_d, axis=-1), rhs, (rhs < _TINY) & (sig_abs > 0))


def _judged(block: _Block, tols) -> _Columns:
    """The one verdict rule on every column of ``block`` at once,
    _EQUALITIES both ways, and the ratios, NaN (missing) where the right
    side is not positive."""
    labels, lhs, rhs, underflow = block
    tol = tols[1] * np.maximum(np.abs(lhs), np.abs(rhs))
    holds = lhs <= rhs + tol
    both = [i for i, (name, _) in enumerate(labels) if name in _EQUALITIES]
    if both:
        holds[..., both] = np.abs(lhs[..., both] - rhs[..., both]) <= tol[..., both]
    ratio = np.divide(lhs, rhs, out=np.full(lhs.shape, np.nan), where=rhs > 0)
    return _Columns(tuple(labels), lhs, rhs, ratio, holds, underflow)


def _error(row: _Columns) -> ArithmeticError | None:
    """The error that replaces the certificates of one judged row, or None
    when they stand: OverflowError where a side is not finite, else
    UnderflowError where ``underflow`` marks a right side."""
    if not row.finite:
        return OverflowError(_NOT_FINITE)
    if row.underflow.any():
        return UnderflowError(_UNDERFLOWED)
    return None


def _certificates(n, row: _Columns) -> list[Certificate]:
    """One judged row as Certificate objects, or the error of _error."""
    error = _error(row)
    if error is not None:
        raise error
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
            row.labels, row.lhs.tolist(), row.rhs.tolist(), row.ratio.tolist(), row.holds.tolist()
        )
    ]


# --- the columnar evaluator --------------------------------------------------


# the orders of the |z| power sums that the endpoint and quartic families read
_FIXED_ORDERS = (1.0, 2.0, 4.0)


def _certify_batch(z: np.ndarray, orders, scale: float, tols) -> _Columns:
    """Every certificate of check_all for each row of the (B, n) zeros
    ``z``, at the sorted ``orders``, which may be empty, in the order the
    families are built: by family name, and within a family by order or by
    k.  For n <= 9 that is check_all's (name, p) order; from n = 10 the
    labels esf_k10 and sv_product_k10 follow k = 9 here but sort before
    k = 2 there.  ``scale`` multiplies every Schoenberg constant:
    run_audit(sabotage=True) passes 0.5, the one fault-injection hook.

    The compressions of z and of |z| are built once, as one stack: one
    batched eigendecomposition of its z half and one batched SVD of both.
    The shadows in both spectra become exact zeros, and every family reads
    those snapped spectra.  The power sums of |z| are taken at the orders,
    and at 1, 2 and 4 for the endpoint and quartic families; each is
    reduced on its own, so an order in both has the same bits in both.  A
    column is marked as underflowed where a power sum of |z| that it reads
    (at its order; at 2 and 4 for the quartic family; at 1 for S1 and 2 for
    S2), its e_k(|z|) or its singular value prefix product underflows.
    Every column is judged in one pass under ``tols``.  A row whose
    compression overflows, in either half, is zeroed before LAPACK and its
    left sides made infinite: an OverflowError of that row alone (_error).
    A LAPACK failure raises ConvergenceError for the whole stack.
    """
    n = z.shape[-1]
    with _arithmetic():
        z_mod = np.abs(z)
        d = densela._compression(np.stack((z, z_mod)))
        over = ~np.isfinite(d).all(axis=(0, 2, 3))
        d[:, over] = 0.0
        w_mod = _descending_moduli(densela._eigvals(d[0]))
        sv = densela._svdvals(d)
        shadow = tols[0] * sv[1, :, :1]
        w_mod[w_mod <= shadow] = 0.0
        sv[sv <= shadow] = 0.0
        sigma, sigma_abs = sv
        z_sums = _power_sums(z_mod, orders)
        fixed = _power_sums(z_mod, _FIXED_ORDERS)
        w_sums, sigma_sums = _power_sums(np.stack((w_mod, sigma)), orders)
        # a power sum of |z| below the smallest normal float, in a row that
        # is not all zero
        nonzero = (z_mod > 0).any(axis=-1, keepdims=True)
        z_low = (z_sums < _TINY) & nonzero
        pow1, pow2, pow4 = fixed.T
        low1, low2, low4 = ((fixed < _TINY) & nonzero).T
        # Q diag(z) Q has rank n-1, so its sigma_n, and that of Q diag(|z|) Q,
        # is an exact zero
        sv_full = np.concatenate((sv, np.zeros(sv.shape[:-1] + (1,))), axis=-1)
        blocks = [
            _endpoint(n, sigma, z_mod, pow1, pow2, low1, low2),
            _esf(n, sigma, z_mod),
            _pereira(n, orders, w_sums, z_sums, z_low),
            _quartic(n, z, w_mod, pow2, pow4, low2 | low4, tols[0]),
            _schoenberg(n, orders, w_sums, z_sums, z_low, scale),
            _sv_product(*sv_full),
            _weyl(orders, w_sums, sigma_sums),
        ]
        block = _concat(blocks)
        block.lhs[over] = np.inf
        return _judged(block, tols)


def _sort_key(label: _Label) -> tuple[str, float]:
    name, p = label
    return name, -1.0 if p is None else p


def _select(cfg: ZeroConfig, orders, labels=None, tols=_TOLS) -> list[Certificate]:
    """The certificates ``labels`` of one configuration, in the order given,
    from the columnar evaluator on a batch of one at the sorted ``orders``;
    all of its columns, sorted into (name, p) order, when ``labels`` is
    None.

    Only the selected columns can raise: OverflowError where a side is not
    finite, then UnderflowError where a right side underflowed.  A label
    the batch does not have is a KeyError.
    """
    row = _certify_batch(cfg.as_array()[None], orders, 1.0, tols).row(0)
    if labels is None:
        labels = sorted(row.labels, key=_sort_key)
    index = {label: col for col, label in enumerate(row.labels)}
    return _certificates(cfg.n, row.take([index[label] for label in labels]))


# --- the public certificates --------------------------------------------------


def schoenberg_order_p(cfg: ZeroConfig, p: float) -> Certificate:
    """Order-p Schoenberg certificate: sum |w_k|^p <= C(n,p) sum |z_j|^p.

    Requires the centroid condition.  Audits inject faults through
    run_audit(sabotage=True), which halves C(n, p) in the batch evaluator;
    this certificate always states the inequality itself.
    """
    p = densela._check_order(p)
    _require_centered(cfg, "the order-p Schoenberg certificate")
    return _select(cfg, [p], [("schoenberg", p)])[0]


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
    dbs, kt, dominance = _select(cfg, [], _QUARTIC)
    return dbs, kt, dominance


def pereira_bound(cfg: ZeroConfig, p: float) -> Certificate:
    """Pereira's certificate: sum |w_k|^p <= ((n-1)/n) sum |z_j|^p.

    Holds with no centroid condition.  The critical points are the spectrum
    of the compression of diag(z) to the mean-zero subspace, for centered
    and uncentered zeros alike (Pereira, J. Math. Anal. Appl. 285, 2003),
    so this takes them by the one path every certificate reads and never
    expands the polynomial.
    """
    p = densela._check_order(p)
    return _select(cfg, [p], [("pereira", p)])[0]


def weyl_check(m: np.ndarray, p: float) -> Certificate:
    """Weyl majorization certificate: sum |lambda_i|^p <= sum sigma_i^p."""
    p = densela._check_order(p)
    m = densela._check_square(m)
    lam_mod = _descending_moduli(densela._eigvals(m))
    sigma = densela._svdvals(m)
    with _arithmetic():
        row = _judged(_weyl([p], _power_sums(lam_mod, [p]), _power_sums(sigma, [p])), _TOLS)
        return _certificates(lam_mod.size, row)[0]


def endpoint_checks(
    cfg: ZeroConfig,
) -> tuple[Certificate, Certificate, Certificate]:
    """The three endpoint certificates for A = Q diag(z) Q, centered z.

    S-infinity: ||A|| <= max |z_j|            (contraction by the projector)
    S2 identity: ||A||_S2^2 = ((n-2)/n) ||z||_2^2   (both directions)
    S1:          ||A||_S1 <= sqrt((n-2)/n) ||z||_1
    """
    _require_centered(cfg, "the endpoint certificates")
    s1, s2, sinf = _select(cfg, [], _ENDPOINT)
    return s1, s2, sinf


def esf_bounds(cfg: ZeroConfig) -> list[Certificate]:
    """Per-k certificates e_k(sigma_1..sigma_{n-1}) <= ((n-k)/n) e_k(|z|).

    The sigma are the n-1 nonzero singular values of the differentiator
    matrix, those of its compression.  No centroid condition.  An
    e_k(|z|) that underflows while at least k of the |z| are nonzero raises
    UnderflowError.
    """
    return _select(cfg, [], [(f"esf_k{k}", None) for k in range(1, cfg.n)])


def sv_product_check(x: np.ndarray, d) -> list[Certificate]:
    """Prefix-product certificates for sigma(X* D X) against sigma(X* |D| X).

    One certificate per k = 1..n comparing the k-fold products of the two
    singular value sequences, judged by the one rule with shadows at or below
    ABS_TOL * sigma_1(X* |D| X): past the rank of X* |D| X both prefixes
    are exact zeros with no ratio.  A right prefix that underflows where no
    factor is zero raises UnderflowError.  X must be square and X and D
    finite (ValueError); a product X* D X or X* |D| X that overflows raises
    OverflowError.  This is the package's one prefix-product verdict.
    """
    x = densela._check_square(x)
    d = np.asarray(d, dtype=complex).ravel()
    n = x.shape[0]
    if d.size != n:
        raise ValueError(f"diagonal length {d.size} does not match order {n}")
    if not np.isfinite(d).all():
        raise ValueError("D must be finite")
    xh = x.conj().T
    with _arithmetic():
        sv = densela._svdvals(
            densela._require_finite(np.stack((xh @ np.diag(d) @ x, xh @ np.diag(np.abs(d)) @ x)))
        )
        sv[sv <= ABS_TOL * sv[1, :1]] = 0.0
        return _certificates(n, _judged(_sv_product(*sv), _TOLS))


def check_all(
    cfg: ZeroConfig,
    p_list,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> list[Certificate]:
    """Evaluate every certificate that applies to one centered configuration.

    Order-parametrized families (Schoenberg, Pereira, Weyl on the
    differentiator matrix) run once per entry of ``p_list``; the
    parameter-free ones (quartic pair and dominance, the three endpoint
    checks, the per-k elementary symmetric bounds, and the singular value
    product lemma instantiated at X = Q, D = diag(z)) run once.  Every
    verdict is lhs <= rhs + rel_tol * max(|lhs|, |rhs|); ``abs_tol`` is not
    a floor of that slack but the shadow threshold of the module docstring.
    Results come back sorted by (name, p), not in the evaluator's build
    order, which differs from n = 10 on (esf_k10 sorts before esf_k2).  A
    side that is not finite raises OverflowError.  A power sum of |z| that
    underflows, at an order of ``p_list`` or at 1, 2 or 4, raises
    UnderflowError, as does an e_k(|z|) or a singular value prefix product
    that underflows where it is not an exact zero.  This is every column of
    the columnar evaluator on a batch of one, the one path of every
    single-configuration certificate but weyl_check and sv_product_check.
    """
    _require_centered(cfg, "check_all")
    orders = sorted({densela._check_order(p) for p in p_list})
    if not orders:
        raise ValueError("p_list must not be empty")
    return _select(cfg, orders, tols=_check_tolerances(abs_tol, rel_tol))
