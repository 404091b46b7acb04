"""Elementary symmetric functions and the critical-point esf identity.

Every e_k comes from one product recurrence, ``_esf_recurrence``: the
certificate evaluator runs it once on a stack of its two spectra, and
``esf_table`` runs it on values it sorts by descending modulus.
``critical_esf_identity_error`` checks e_k(critical points) =
((n-k)/n) e_k(moduli) for nonnegative real roots through ``esf_table``,
which measures the secular root-finding path of ``polyzero``.
"""

from __future__ import annotations

import numpy as np

from . import polyzero


def esf_table(values) -> np.ndarray:
    """Every e_0 .. e_m of each row of values, along the last axis.

    The product recurrence of _esf_recurrence over the entries sorted by
    descending modulus, which bounds intermediate growth.  A row of m
    values gives m + 1 entries; the dtype is float for real input and
    complex otherwise.
    """
    arr = np.asarray(values)
    order = np.argsort(-np.abs(arr), axis=-1, kind="stable")
    return _esf_recurrence(np.take_along_axis(arr, order, axis=-1))


def _esf_recurrence(ordered: np.ndarray) -> np.ndarray:
    """e_0 .. e_m of each row of ``ordered`` along the last axis, by the
    incremental product recurrence: the coefficients of prod (1 + v_j t)
    built one factor at a time, in the order the entries are given.  An
    exact zero taken first changes no bit: every e_j is then 1 or 0, so it
    adds 0 to each."""
    m = ordered.shape[-1]
    e = np.zeros(ordered.shape[:-1] + (m + 1,), dtype=np.result_type(ordered, float))
    e[..., 0] = 1.0
    low, high = e[..., :-1], e[..., 1:]
    values = ordered[..., None]
    for i in range(m):
        # the right side is evaluated before the in-place add, so every e_j
        # is updated from the previous step's e_(j-1)
        high += values[..., i, :] * low
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
