"""Dense complex linear algebra for the differentiator matrix.

The map z -> Q diag(z) Q, with Q the rank-(n-1) projector onto the
mean-zero subspace, carries the critical points of prod (z - z_j) in its
spectrum alongside one structural zero eigenvalue.  This module builds that
matrix and provides the spectral quantities the certificates consume:
eigenvalues, singular values, Schatten norms and vector l^p norms.  The
private construction and LAPACK wrappers also take stacks of matrices along
leading axes, which the columnar evaluator in ``certs`` uses.

Eigenvalues come from LAPACK (Hessenberg reduction followed by shifted QR),
singular values from LAPACK's divide-and-conquer SVD; each is the one
numerical path for its quantity.  LAPACK rescales inputs of extreme
magnitude itself, so nothing is prescaled here.
"""

from __future__ import annotations

import numpy as np

from .polyzero import CriticalSet, ZeroConfig


class ConvergenceError(ArithmeticError):
    """A matrix decomposition failed to converge."""


def centering_projector(n: int) -> np.ndarray:
    """The centering projector with entries delta_ij - 1/n.

    An orthogonal projection of rank n-1: it annihilates the all-ones vector
    and fixes its complement.
    """
    if n <= 1:
        raise ValueError(f"projector order must be at least 2, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def differentiator(cfg: ZeroConfig) -> np.ndarray:
    """The matrix Q diag(z) Q, evaluated entrywise.

    Multiplying out gives A_ij = delta_ij z_i - (z_i + z_j)/n + (sum z)/n^2,
    which is cheaper and rounds less than two matrix products.  Centering of
    the zeros is not required to build the matrix.
    """
    return _differentiator(cfg.as_array())


def _differentiator(z: np.ndarray) -> np.ndarray:
    """Q diag(z) Q for each row of z along the last axis: (..., n, n)."""
    n = z.shape[-1]
    a = np.zeros(z.shape + (n,), dtype=complex)
    a.reshape(z.shape[:-1] + (n * n,))[..., :: n + 1] = z  # the diagonal
    a -= (z[..., :, None] + z[..., None, :]) / n
    a += z.sum(axis=-1, keepdims=True)[..., None] / n**2
    return a


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
    index, so reports are reproducible.
    """
    return _sort_spectrum(_eigvals(_check_square(m)))


def singular_values(m: np.ndarray) -> np.ndarray:
    """All n singular values, nonincreasing."""
    return _svdvals(_check_square(m))


def _eigvals(m: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of each matrix over the last two axes, unsorted."""
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def _svdvals(m: np.ndarray) -> np.ndarray:
    """LAPACK singular values of each matrix over the last two axes,
    nonincreasing."""
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from exc


def lp_norm(v, p: float) -> float:
    """The l^p norm of a complex vector; p = inf gives the max modulus."""
    _check_order(p)
    mods = np.abs(np.asarray(v, dtype=complex))
    if mods.size == 0:
        return 0.0
    if np.isinf(p):
        return float(mods.max())
    if p == 1:
        return float(mods.sum())
    if p == 2:
        return float(np.sqrt((mods**2).sum()))
    top = mods.max()
    if top == 0.0:
        return 0.0
    # factor out the peak so large p does not underflow intermediate powers
    return float(top * ((mods / top) ** p).sum() ** (1.0 / p))


def schatten_norm(m: np.ndarray, p: float) -> float:
    """The Schatten p-norm: the l^p norm of the singular values.

    p = 2 reduces to the Frobenius norm and is computed directly from the
    entries, which is both faster and exact to a few ulps; every other order
    goes through the singular values.
    """
    _check_order(p)
    m = _check_square(m)
    if p == 2:
        return float(np.linalg.norm(m))
    return lp_norm(singular_values(m), p)


def _check_order(p: float) -> None:
    if not (p >= 1.0 or np.isinf(p)):
        raise ValueError(f"norm order must satisfy p >= 1, got {p}")


def critical_points_spectral(cfg: ZeroConfig) -> CriticalSet:
    """Critical points as the spectrum of Q diag(z) Q minus its structural zero.

    The dropped eigenvalue is the one of smallest modulus (the last in sort
    order).  When the polynomial itself has a vanishing critical point the
    choice is interchangeable with it, and every downstream quantity built
    from moduli is unaffected.
    """
    values = eigenvalues(_differentiator(cfg.as_array()))
    return CriticalSet(tuple(values[:-1]))
