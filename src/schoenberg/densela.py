"""Dense complex linear algebra for the differentiator matrix.

The map z -> Q diag(z) Q, with Q the rank-(n-1) projector onto the
mean-zero subspace, carries the critical points of prod (z - z_j) in its
spectrum.  Its compression to that subspace, the (n-1) x (n-1) matrix
H diag(z) H* for an orthonormal basis H of it, has exactly the n-1
critical points as its eigenvalues and the nonzero singular values of
Q diag(z) Q as its own, with no structural zero (Pereira, J. Math. Anal.
Appl. 285, 2003); it is valid for uncentered zeros too.  Every spectrum
that the certificates, the searches and the critical points read is taken
from the compression; the public ``differentiator`` builds Q diag(z) Q
itself.  The certificates read the private LAPACK wrappers ``_eigvals``
and ``_svdvals`` of the compression (of the given matrices, for
sv_product_check) and take their power sums with ``certs._power_sums``;
the public eigenvalues, singular values, Schatten norms and vector l^p
norms are for callers outside the certificates.  The private
constructions and LAPACK wrappers also take stacks of matrices along
leading axes, which the columnar evaluator in ``certs`` uses.

Eigenvalues come from LAPACK (Hessenberg reduction followed by shifted QR),
singular values from LAPACK's divide-and-conquer SVD; each is the one
numerical path for its quantity.  LAPACK rescales inputs of extreme
magnitude itself, so nothing is prescaled here.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .polyzero import CriticalSet, ZeroConfig


class ConvergenceError(ArithmeticError):
    """A matrix decomposition failed to converge."""


class UnderflowError(ArithmeticError):
    """A quantity that is not an exact zero fell below the smallest normal
    float, so whatever reads it would be vacuous: a right side of a
    certificate (a power sum of the moduli of nonzero zeros, an e_k(|z|) of
    at least k nonzero moduli, or a prefix product of singular values above
    the shadow threshold)."""


def differentiator(cfg: ZeroConfig) -> np.ndarray:
    """The matrix Q diag(z) Q, evaluated entrywise.

    Multiplying out gives A_ij = delta_ij z_i - (z_i + z_j)/n + (sum z)/n^2,
    which is cheaper and rounds less than two matrix products.  Centering of
    the zeros is not required to build the matrix.  Zeros that are finite
    but so large that an entry overflows raise OverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _require_finite(_differentiator(cfg.as_array()))


def _differentiator(z: np.ndarray) -> np.ndarray:
    """Q diag(z) Q for each row of z along the last axis: (..., n, n)."""
    n = z.shape[-1]
    return _diagonal_plus_rank_two(z, n, z.sum(axis=-1) / n**2)


def _compression(z: np.ndarray) -> np.ndarray:
    """The compression of diag(z) to the mean-zero subspace for each row of
    z along the last axis: (..., n-1, n-1).

    It is the leading (n-1) x (n-1) block of P diag(z) P, where P is the
    Householder reflector that maps the unit mean vector 1/sqrt(n) to -e_n,
    so the first n-1 rows of P are an orthonormal basis of the mean-zero
    subspace.  Multiplying out with r = n + sqrt(n) gives
    delta_ij z_i - (z_i + z_j)/r + (sum_{k<n} z_k)/r^2 + z_n/n for i, j < n.
    The sign is the usual Householder choice, which keeps the coefficient
    1 - 2/r of z_i on the diagonal in (0, 1); the reflector to +e_n has
    r = n - sqrt(n), and its diagonal entries cancel at n = 2 and 3.
    """
    n = z.shape[-1]
    head = z[..., :-1]
    r = n + math.sqrt(n)
    return _diagonal_plus_rank_two(head, r, head.sum(axis=-1) / r**2 + z[..., -1] / n)


def _diagonal_plus_rank_two(d: np.ndarray, r: float, s: np.ndarray) -> np.ndarray:
    """delta_ij d_i - (d_i + d_j)/r + s for each row of d along the last
    axis, with s one number per row: (..., m, m)."""
    m = d.shape[-1]
    a = np.zeros(d.shape + (m,), dtype=complex)
    a.reshape(d.shape[:-1] + (m * m,))[..., :: m + 1] = d  # the diagonal
    a -= (d[..., :, None] + d[..., None, :]) / r
    a += s[..., None, None]
    return a


def _require_finite(m: np.ndarray, what: str = "a matrix entry") -> np.ndarray:
    """``m``, a matrix built from finite inputs or the spectrum of a finite
    matrix; OverflowError when an entry is not finite, which is how it shows
    that it overflowed (LAPACK gives the eigenvalues of
    np.full((2, 2), 1e308) as [inf, 1.4e276]).  LAPACK's SVD takes such a
    matrix without raising (NaN, and OpenBLAS prints to standard output);
    certs._certify_batch masks each overflowed row of a stack instead."""
    if not np.isfinite(m).all():
        raise OverflowError(f"{what} overflowed to a non-finite value")
    return m


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real) & np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _sort_spectrum(values: np.ndarray) -> np.ndarray:
    """Nonincreasing modulus, ties by principal argument then original index."""
    order = np.lexsort((np.arange(values.size), np.angle(values), -np.abs(values)))
    return values[order]


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All n eigenvalues, sorted by nonincreasing modulus.

    Ties in modulus break by principal argument (ascending), then by input
    index, so reports are reproducible.  A finite matrix whose spectrum
    overflows raises OverflowError.
    """
    return _sort_spectrum(_require_finite(_eigvals(_check_square(m)), "an eigenvalue"))


def singular_values(m: np.ndarray) -> np.ndarray:
    """All n singular values, nonincreasing.  A finite matrix whose spectrum
    overflows raises OverflowError."""
    return _require_finite(_svdvals(_check_square(m)), "a singular value")


def _eigvals(m: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of each matrix over the last two axes, unsorted."""
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise _lapack_error("eigenvalue", m, exc) from exc


def _svdvals(m: np.ndarray) -> np.ndarray:
    """LAPACK singular values of each matrix over the last two axes,
    nonincreasing."""
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise _lapack_error("singular value", m, exc) from exc


def _lapack_error(what: str, m: np.ndarray, exc: Exception) -> ArithmeticError:
    """A failed decomposition of ``m``: OverflowError when an entry is not
    finite, which np.linalg.eigvals refuses, and ConvergenceError
    otherwise."""
    if not np.isfinite(m).all():
        return OverflowError(f"a matrix entry is not finite, so the {what} iteration failed")
    return ConvergenceError(f"{what} iteration failed: {exc}")


def lp_norm(v, p: float) -> float:
    """The l^p norm of a complex vector; p = inf gives the max modulus, and
    any other order must pass _check_order (ValueError).

    Every finite order takes the one scaled formula, the peak times the
    p-th root of the sum of (|v| / peak)^p.  The entries must be finite
    (ValueError), as the matrix entries of ``schatten_norm`` must be; a
    modulus or a norm of finite entries that overflows raises OverflowError.
    """
    if p != math.inf:
        p = _check_order(p)
    v = np.asarray(v, dtype=complex)
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    mods = _require_finite(np.abs(v), "a modulus")
    if mods.size == 0:
        return 0.0
    top = mods.max()
    if p == math.inf:
        return float(top)
    if top == 0.0:
        return 0.0
    # factor out the peak so large p does not underflow intermediate powers
    with np.errstate(over="ignore"):
        norm = top * ((mods / top) ** p).sum() ** (1.0 / p)
    return float(_require_finite(norm, "the l^p norm"))


def schatten_norm(m: np.ndarray, p: float) -> float:
    """The Schatten p-norm: the l^p norm of the singular values, at every
    order; lp_norm checks the order, and a norm that overflows raises
    OverflowError."""
    return lp_norm(singular_values(m), p)


def _real(value, what: str) -> float:
    """``value`` as a float: a Python or numpy real number.  Anything else,
    text or a bool included, is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """``value`` as a plain int: a Python or numpy integer.  Anything else,
    a bool or an integral float included, is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_order(p: float) -> float:
    """An order as a float: a finite real number p >= 1, else ValueError.
    The one order rule of the certificates, the audit specs, the searches
    and (for finite orders) lp_norm."""
    p = _real(p, "an order")
    if not 1 <= p < math.inf:
        raise ValueError(f"order must be finite and satisfy p >= 1, got {p}")
    return p


def critical_points_spectral(cfg: ZeroConfig) -> CriticalSet:
    """Critical points as the n-1 eigenvalues of the compression of diag(z)
    to the mean-zero subspace, sorted by nonincreasing modulus as
    ``eigenvalues`` sorts them.  Zeros that are finite but so large that the
    compression overflows raise OverflowError, as in ``differentiator``."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = _require_finite(_compression(cfg.as_array()))
    return CriticalSet(tuple(_sort_spectrum(_eigvals(d))))
