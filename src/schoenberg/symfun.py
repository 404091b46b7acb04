"""Elementary symmetric functions and the critical-point esf identity.

``esf`` and ``esf_table`` evaluate e_k by the product recurrence;
``critical_esf_identity_error`` checks e_k(critical points) =
((n-k)/n) e_k(moduli) for nonnegative real roots, which measures the
secular root-finding path of ``polyzero``.
"""

from __future__ import annotations

import numpy as np

from . import densela, polyzero

_TINY = np.finfo(float).tiny


def esf(values, k: int):
    """The k-th elementary symmetric function e_k of the given values.

    Read off esf_table; e_0 = 1.  Returns a float for real input, complex
    otherwise.  k must be an integer and the values finite (ValueError); an
    e_k of finite values that overflows raises OverflowError.  Where at
    least k values are nonzero and e_k of their moduli falls below the
    smallest normal float, e_k is not an exact zero but an underflow, and
    raises UnderflowError; e_k itself may still cancel to zero, as e_1 of
    1 and -1 does.
    """
    k = densela._integer(k, "k")
    arr = np.asarray(values).ravel()
    if not (0 <= k <= arr.size):
        raise ValueError(f"k must lie in [0, {arr.size}], got {k}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    # only the e_j with j <= k feed e_k, so an overflow above it is harmless
    with np.errstate(over="ignore", invalid="ignore"):
        e = esf_table(arr)[k]
        # |e_k| <= e_k(|v|), so only a small e_k can hide an underflow
        if abs(e) < _TINY and k <= np.count_nonzero(arr) and esf_table(np.abs(arr))[k] < _TINY:
            raise densela.UnderflowError(f"e_{k} underflowed below the smallest normal float")
    e = densela._require_finite(e, f"e_{k}")
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


def critical_esf_identity_error(moduli) -> float:
    """Worst relative defect in e_k(critical points) = ((n-k)/n) e_k(moduli).

    For a polynomial with nonnegative real roots the identity is exact, so
    any residual measures the root-finding path: the critical points of the
    moduli are solved from the moduli themselves by the secular Aberth
    iteration of ``polyzero.critical_points_direct``, and the elementary
    symmetric functions of those computed critical points compared against
    the closed form, for every k = 1 .. n-1.  The moduli are first scaled
    by the power of two that brings the largest into [1/2, 1), which is
    exact, and each error is taken relative to max(1, (n-k)/n e_k) of the
    scaled moduli; the identity is homogeneous, so the result does not
    depend on the scale of the input, and no e_k overflows.
    """
    arr = np.asarray(moduli, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two nonnegative moduli")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("moduli must be nonnegative and finite")
    n = arr.size
    arr = np.ldexp(arr, -np.frexp(arr.max())[1])
    cfg = polyzero.ZeroConfig(tuple(complex(v) for v in arr))
    xi = polyzero.critical_points_direct(cfg).as_array()
    k = np.arange(1, n)
    target = (n - k) / n * esf_table(arr)[1:n]
    observed = esf_table(xi)[1:n]
    return float((np.abs(observed - target) / np.maximum(1.0, np.abs(target))).max())
