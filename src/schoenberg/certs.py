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
compressions of z and of |z|).  Each family writes its columns into its
own slice of one (B, K) table of left sides, right sides and underflow
marks; where each slice lies, its labels and the constants it multiplies
by depend only on n, the orders and the Schoenberg scale, and are built
once per such key and cached read-only (_layout).  The table is judged
once, in one pass.  Every certificate of one configuration built from its
zeros is that evaluator on a batch of one: check_all takes all of its
columns, each single-family function, harness.sweep_p and
harness.re_evaluate_violation select their own, and sharpness.ratio reads
that of schoenberg_order_p.  The weyl and pereira columns have no other
path.  Only sv_product_check, whose matrices come from outside the
program, builds its spectra itself, and judges its own small table by the
same rule (_judged).  Every judged row becomes certificates or an error by
one rule, _error.  The one fault-injection hook is
run_audit(sabotage=True), which halves the Schoenberg constant.

A power sum is a direct sum of powers; each column has the bits of that
order summed alone (_power_sums).  A side that
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

import functools
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
_EQUALITY = ("endpoint_s2", None)
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


# --- the columnar evaluator --------------------------------------------------

_Label = tuple[str, float | None]
_QUARTIC = (("quartic_dbs", None), ("quartic_kt", None), ("quartic_dominance", None))
_ENDPOINT = (("endpoint_s1", None), ("endpoint_s2", None), ("endpoint_sinf", None))


class _Columns(NamedTuple):
    """Judged columns: K labels; lhs, rhs, ratio (NaN where missing), holds
    and underflow, each (B, K), or (K,) for one row.  ``underflow`` marks a
    right side that fell below the smallest normal float where it is not an
    exact zero."""

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


def _arithmetic():
    # overflow and inf - inf leave non-finite sides, which become an
    # OverflowError where certificates are made
    return np.errstate(over="ignore", invalid="ignore")


def _frozen(values) -> np.ndarray:
    """``values`` as a float array that raises ValueError when written."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


class _OrderSet(NamedTuple):
    """Orders prepared for _power_sums: the exponents as a read-only (P, 1)
    array, and the index of p = 2 among them, or None."""

    exponents: np.ndarray
    square: int | None


def _order_set(orders) -> _OrderSet:
    """The orders, in the order given, prepared for _power_sums."""
    orders = [float(p) for p in orders]
    square = orders.index(2.0) if 2.0 in orders else None
    return _OrderSet(_frozen(orders).reshape(-1, 1), square)


def _power_sums(mods: np.ndarray, orders) -> np.ndarray:
    """sum(mods ** p) along the last axis, one column per order: (..., P).

    ``orders`` is an _OrderSet, or a sequence of orders that is prepared
    here; callers that sum at the same orders again prepare them once.  A
    direct sum of the powers, with no scaling.  Scaling by the peak would
    buy no range: the result is the power sum itself, which is at least its
    largest term, so it is out of range however it is computed, and it
    underflows only when every term does (_certify_batch marks that).

    Every order is raised in one broadcast power and reduced in one pass,
    with the bits of ``(mods ** p).sum(axis=-1)`` for each p alone, so a sum
    does not depend on which other orders are asked with it.  The square
    column is the exception that keeps this true: ``mods ** 2.0`` takes
    numpy's scalar fast path, np.square, which is correctly rounded, while
    the broadcast power is not and differs from it in the last bit of some
    squares; so the p = 2 column is taken as ``mods * mods``.  At every
    other order tried, the default grid, 1.9 and 3.7, the two agree bit for
    bit (tests/test_certs.py::TestPowerSums).
    """
    if not isinstance(orders, _OrderSet):
        orders = _order_set(orders)
    powers = mods[..., None, :] ** orders.exponents
    if orders.square is not None:
        np.multiply(mods, mods, out=powers[..., orders.square, :])
    return np.add.reduce(powers, axis=-1)


def _descending_moduli(lam: np.ndarray) -> np.ndarray:
    """|lam| sorted nonincreasing along the last axis, as a new contiguous
    array.

    Negating twice keeps the result contiguous, so every power taken of the
    moduli runs the same vector loop for a stack as for a batch of one, and
    _power_sums gives a row the same bits in both.
    """
    return -np.sort(-np.abs(lam), axis=-1)


class _Layout(NamedTuple):
    """What the columns of _certify_batch are at one (n, orders, scale),
    built once by _layout: the labels in build order, each family's slice
    of them, and every constant a family multiplies by, in read-only
    arrays."""

    labels: tuple[_Label, ...]
    endpoint: slice
    esf: slice
    pereira: slice
    quartic: slice
    schoenberg: slice
    sv_product: slice
    weyl: slice
    # the critical moduli and singular values are summed at the orders, |z|
    # at the orders followed by those of 1, 2 and 4 not among them
    orders: _OrderSet
    z_orders: _OrderSet
    fixed: tuple[int, int, int]  # the columns of 1, 2 and 4 in z_orders
    # sqrt((n-2)/n) and (n-2)/n, the S1 and S2 factors
    endpoint_factors: tuple[float, float]
    # scale * C(n, p) per order
    constants: np.ndarray
    # k and (n-k)/n for k = 1 .. n-1
    esf_k: np.ndarray
    esf_factors: np.ndarray
    # the column of endpoint_s2, judged in both directions
    equality: int


# the orders of the |z| power sums that the endpoint and quartic families read
_FIXED_ORDERS = (1.0, 2.0, 4.0)


@functools.lru_cache(maxsize=128)
def _layout(n: int, orders: tuple, scale: float) -> _Layout:
    """The _Layout of n zeros at the sorted ``orders``, with every
    Schoenberg constant multiplied by ``scale``."""
    families = [
        ("endpoint", list(_ENDPOINT)),
        ("esf", [(f"esf_k{k}", None) for k in range(1, n)]),
        ("pereira", [("pereira", p) for p in orders]),
        ("quartic", sorted(_QUARTIC)),
        ("schoenberg", [("schoenberg", p) for p in orders]),
        ("sv_product", [(f"sv_product_k{k}", None) for k in range(1, n + 1)]),
        ("weyl", [("weyl", p) for p in orders]),
    ]
    labels, slices = [], {}
    for family, part in families:
        slices[family] = slice(len(labels), len(labels) + len(part))
        labels += part
    z_orders = list(orders) + [p for p in _FIXED_ORDERS if p not in orders]
    k = np.arange(1, n)
    k.flags.writeable = False
    return _Layout(
        labels=tuple(labels),
        **slices,
        orders=_order_set(orders),
        z_orders=_order_set(z_orders),
        fixed=tuple(z_orders.index(p) for p in _FIXED_ORDERS),
        endpoint_factors=(float(np.sqrt((n - 2) / n)), (n - 2) / n),
        constants=_frozen(scale * np.array([schoenberg_constant(n, p) for p in orders])),
        esf_k=k,
        esf_factors=_frozen((n - k) / n),
        equality=labels.index(_EQUALITY),
    )


def _judged(labels, lhs, rhs, underflow, tols, equality=None) -> _Columns:
    """The one verdict rule on every column of the table ``lhs``, ``rhs``
    at once, the column ``equality`` both ways, and the ratios, NaN
    (missing) where the right side is not positive."""
    tol = np.maximum(np.abs(lhs), np.abs(rhs))
    tol *= tols[1]
    holds = lhs <= rhs + tol
    if equality is not None:
        gap = np.abs(lhs[..., equality] - rhs[..., equality])
        holds[..., equality] = gap <= tol[..., equality]
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


def _certify_batch(z: np.ndarray, orders, scale: float, tols) -> _Columns:
    """Every certificate of check_all for each row of the (B, n) zeros
    ``z``, at the sorted ``orders``, which may be empty, in the order the
    families are built: by family name, and within a family by order or by
    k.  For n <= 9 that is check_all's (name, p) order; from n = 10 the
    labels esf_k10 and sv_product_k10 follow k = 9 here but sort before
    k = 2 there.  ``scale`` multiplies every Schoenberg constant:
    run_audit(sabotage=True) passes 0.5, the one fault-injection hook.

    The columns are one (B, K) table of left sides, right sides and
    underflow marks, allocated once; each family writes its own slice of
    it, at the place the cached _Layout of (n, orders, scale) gives, with
    the constants the layout holds.  The compressions of z and of |z| are
    built once, as one stack: one batched eigendecomposition of its z half
    and one batched SVD of both.  The shadows in both spectra become exact
    zeros, and every family reads those snapped spectra.  The power sums of
    |z| are taken once, at the orders and at those of 1, 2 and 4 that the
    endpoint and quartic families read; those of the critical moduli and of
    the singular values at the orders, as one stack.  The elementary
    symmetric functions of the singular values and of |z| come from one
    stacked recurrence of n steps.  The singular values enter after their
    exact zero sigma_n: taken first, it adds 0 to every e_j, each then 1
    or 0, and changes no bit, where taken last it would add 0 * inf = NaN
    after an e_k that overflowed.  |z| enters in descending order, as
    esf_table sorts it.

    A column is marked as underflowed where a power sum of |z| that it
    reads (at its order; at 2 and 4 for the quartic family; at 1 for S1 and
    2 for S2), its e_k(|z|) or its singular value prefix product
    underflows.  Every column is judged in one pass under ``tols``.  A row
    whose compression overflows, in either half, is zeroed before LAPACK
    and its left sides made infinite: an OverflowError of that row alone
    (_error).  A LAPACK failure raises ConvergenceError for the whole
    stack.
    """
    batch, n = z.shape
    lay = _layout(n, tuple(orders), scale)
    width = len(lay.labels)
    with _arithmetic():
        z_mod = np.abs(z)
        stack = np.empty((2, batch, n), dtype=complex)
        stack[0], stack[1] = z, z_mod
        d = densela._compression(stack)
        over = ~np.isfinite(d).all(axis=(0, 2, 3))
        if over.any():
            d[:, over] = 0.0
        spectra = np.empty((2, batch, n - 1))  # critical moduli, singular values
        spectra[0] = _descending_moduli(densela._eigvals(d[0]))
        sv = densela._svdvals(d)
        shadow = tols[0] * sv[1, :, :1]
        sv[sv <= shadow] = 0.0
        spectra[1] = sv[0]
        w_mod, sigma = spectra[0], spectra[1]
        w_mod[w_mod <= shadow] = 0.0

        sides = np.empty((2, batch, width))
        lhs, rhs = sides[0], sides[1]
        underflow = np.zeros((batch, width), dtype=bool)

        # power sums, and a power sum of |z| below the smallest normal
        # float in a row that is not all zero
        grid = len(orders)
        spectra_sums = _power_sums(spectra, lay.orders)
        z_sums = _power_sums(z_mod, lay.z_orders)
        nonzero = (z_mod > 0).sum(axis=-1)[:, None]
        z_low = (z_sums < _TINY) & (nonzero > 0)
        pow1, pow2, pow4 = (z_sums[:, col] for col in lay.fixed)
        low1, low2, low4 = (z_low[:, col] for col in lay.fixed)

        # S1, S2 (an equality) and S-infinity on A = Q diag(z) Q
        col = lay.endpoint.start
        np.add.reduce(sigma, axis=-1, out=lhs[:, col])
        np.add.reduce(sigma * sigma, axis=-1, out=lhs[:, col + 1])
        lhs[:, col + 2] = sigma[:, 0]
        np.multiply(lay.endpoint_factors[0], pow1, out=rhs[:, col])
        np.multiply(lay.endpoint_factors[1], pow2, out=rhs[:, col + 1])
        np.maximum.reduce(z_mod, axis=-1, out=rhs[:, col + 2])
        underflow[:, col] = low1
        underflow[:, col + 1] = low2

        # e_k(sigma_1..sigma_{n-1}) <= ((n-k)/n) e_k(|z|), k = 1 .. n-1; an
        # e_k(|z|) below the smallest normal float is an underflow when at
        # least k of the |z| are nonzero
        ordered = np.empty((2, batch, n))
        ordered[0, :, 0] = 0.0
        ordered[0, :, 1:] = sigma
        ordered[1] = _descending_moduli(z_mod)
        e = symfun._esf_recurrence(ordered)[..., 1:n]
        cols = lay.esf
        lhs[:, cols] = e[0]
        np.multiply(lay.esf_factors, e[1], out=rhs[:, cols])
        underflow[:, cols] = (e[1] < _TINY) & (lay.esf_k <= nonzero)

        # sum |w_k|^p <= ((n-1)/n) sum |z_j|^p, one column per order
        cols = lay.pereira
        lhs[:, cols] = spectra_sums[0]
        np.multiply((n - 1) / n, z_sums[:, :grid], out=rhs[:, cols])
        underflow[:, cols] = z_low[:, :grid]

        # the dBS bound, the dominance of KT by dBS and the KT bound, in
        # name order: a finite side at or below abs_tol times the finite
        # size of its terms is a shadow (the right sides cancel for n < 4)
        # and becomes an exact zero; an overflowed side stays as it is
        cols = lay.quartic
        col = cols.start
        square2 = pow2 * pow2
        head = (n - 4) / n * pow4
        tail = 2.0 / n**2 * square2
        modulus = np.abs((z**2).sum(axis=-1))
        lhs4 = np.add.reduce(w_mod**4, axis=-1)
        rhs_dbs = head + tail
        rhs_kt = head + (square2 + modulus * modulus) / n**2
        lhs[:, col], rhs[:, col] = lhs4, rhs_dbs
        lhs[:, col + 1], rhs[:, col + 1] = rhs_kt, rhs_dbs
        lhs[:, col + 2], rhs[:, col + 2] = lhs4, rhs_kt
        terms = (abs(n - 4) / n * pow4 + tail)[:, None]
        quartic = sides[:, :, cols]
        quartic[(np.abs(quartic) <= tols[0] * terms) & np.isfinite(terms)] = 0.0
        underflow[:, cols] = (low2 | low4)[:, None]

        # sum |w_k|^p <= scale * C(n, p) sum |z_j|^p, one column per order
        cols = lay.schoenberg
        lhs[:, cols] = spectra_sums[0]
        np.multiply(lay.constants, z_sums[:, :grid], out=rhs[:, cols])
        underflow[:, cols] = z_low[:, :grid]

        # prefix products of the singular values of Q diag(z) Q against
        # those of Q diag(|z|) Q, whose sigma_n is an exact zero (rank n-1);
        # a right prefix below the smallest normal float is an underflow
        # unless one of its factors is an exact zero
        cols = lay.sv_product
        sv_full = np.concatenate((sv, np.zeros((2, batch, 1))), axis=-1)
        np.cumprod(sv_full, axis=-1, out=sides[:, :, cols])
        underflow[:, cols] = (rhs[:, cols] < _TINY) & (sv_full[1] > 0)

        # sum |lambda_i|^p <= sum sigma_i^p, one column per order
        sides[:, :, lay.weyl] = spectra_sums

        if over.any():
            lhs[over] = np.inf
        return _judged(lay.labels, lhs, rhs, underflow, tols, lay.equality)


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
        lhs, rhs = np.cumprod(sv, axis=-1)
        labels = [(f"sv_product_k{k}", None) for k in range(1, n + 1)]
        underflow = (rhs < _TINY) & (sv[1] > 0)  # unless a factor is an exact zero
        return _certificates(n, _judged(labels, lhs, rhs, underflow, _TOLS))


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
    single-configuration certificate but sv_product_check, whose matrices
    come from outside the program.
    """
    _require_centered(cfg, "check_all")
    orders = sorted({densela._check_order(p) for p in p_list})
    if not orders:
        raise ValueError("p_list must not be empty")
    return _select(cfg, orders, tols=_check_tolerances(abs_tol, rel_tol))
