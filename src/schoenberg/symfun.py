"""Elementary symmetric functions and weak log-majorization checks."""

from __future__ import annotations

import numpy as np

from . import polyzero

MAJORIZATION_REL_TOL = 1e-9

# entries this far below a sequence's leading value are the floating-point
# shadow of an exact zero (rank-deficient inputs) and short-circuit as such
RANK_REL_TOL = 1e-12


def esf(values, k: int):
    """The k-th elementary symmetric function e_k of the given values.

    Read off esf_table; e_0 = 1.  Returns a float for real input, complex
    otherwise.
    """
    arr = np.asarray(values)
    if not (0 <= k <= arr.size):
        raise ValueError(f"k must lie in [0, {arr.size}], got {k}")
    e = esf_table(arr.ravel())[k]
    return complex(e) if np.iscomplexobj(e) else float(e)


def esf_table(values) -> np.ndarray:
    """Every e_0 .. e_m of each row of values, along the last axis.

    Computed by the incremental product recurrence (building the
    coefficients of prod (1 + v_j t) one factor at a time), over entries
    sorted by descending modulus to bound intermediate growth.  A row of m
    values gives m + 1 entries; the dtype is float for real input and
    complex otherwise.
    """
    arr = np.asarray(values)
    order = np.argsort(-np.abs(arr), axis=-1, kind="stable")
    ordered = np.take_along_axis(arr, order, axis=-1)
    m = arr.shape[-1]
    e = np.zeros(arr.shape[:-1] + (m + 1,), dtype=np.result_type(arr, float))
    e[..., 0] = 1.0
    for i in range(m):
        # the right side is evaluated before the in-place add, so every e_j
        # is updated from the previous step's e_(j-1)
        e[..., 1:] += ordered[..., i, None] * e[..., :-1]
    return e


def prefix_products_hold(a, b) -> np.ndarray:
    """Per-prefix verdicts prod a[:k] <= prod b[:k] for k = 1 .. len(a).

    Rows run along the last axis; leading axes are a batch.  Products are
    compared in log space with relative slack MAJORIZATION_REL_TOL.  Entries
    at or below RANK_REL_TOL of their row's leading value count as the exact
    zeros they shadow (rank-deficient inputs whose trailing singular values
    are pure rounding noise): a prefix of a holding one is 0 and holds
    against anything; otherwise a prefix of b holding one is 0 and fails.
    Inputs are not validated; see weak_log_majorization.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    zero_a = rank_floor_crossed(a)
    zero_b = rank_floor_crossed(b)
    with np.errstate(divide="ignore"):  # zeros are settled by the masks
        logs_hold = np.cumsum(np.log(a), axis=-1) <= np.cumsum(
            np.log(b), axis=-1
        ) + np.log1p(MAJORIZATION_REL_TOL)
    return zero_a | (~zero_b & logs_hold)


def rank_floor_crossed(seq) -> np.ndarray:
    """Per prefix along the last axis: whether it holds an entry at or below
    RANK_REL_TOL of the row's leading value (the shadow of an exact zero)."""
    seq = np.asarray(seq, dtype=float)
    return np.logical_or.accumulate(seq <= RANK_REL_TOL * seq[..., :1], axis=-1)


def weak_log_majorization(a, b) -> bool:
    """Whether every prefix product of a is bounded by the same prefix of b.

    Both sequences must be nonincreasing and nonnegative, of equal length;
    the verdict is that of prefix_products_hold on every prefix.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("sequences must be 1-d and of equal length")
    for name, seq in (("a", a), ("b", b)):
        if np.any(seq < 0) or not np.all(np.isfinite(seq)):
            raise ValueError(f"sequence {name} must be nonnegative and finite")
        if np.any(np.diff(seq) > 0):
            raise ValueError(f"sequence {name} must be nonincreasing")
    return bool(prefix_products_hold(a, b).all())


def critical_esf_identity_error(moduli) -> float:
    """Worst relative defect in e_k(critical points) = ((n-k)/n) e_k(moduli).

    For a polynomial with nonnegative real roots the identity is exact, so
    any residual measures the root-finding path: the polynomial is expanded
    from the moduli, its derivative solved by the Aberth iteration, and the
    elementary symmetric functions of those computed critical points compared
    against the closed form, for every k = 1 .. n-1.  Errors are relative to
    max(1, e_k(moduli)).
    """
    arr = np.asarray(moduli, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two nonnegative moduli")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("moduli must be nonnegative and finite")
    n = arr.size
    cfg = polyzero.ZeroConfig(tuple(complex(v) for v in arr))
    xi = polyzero.roots(polyzero.derivative(polyzero.from_roots(cfg)))
    k = np.arange(1, n)
    target = (n - k) / n * esf_table(arr)[1:n]
    observed = esf_table(xi)[1:n]
    return float((np.abs(observed - target) / np.maximum(1.0, np.abs(target))).max())
