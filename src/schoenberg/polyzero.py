"""Zero configurations and the direct route to their critical points.

The critical points of p(z) = prod (z - z_j) are the zeros of p'.  With the
exactly repeated zeros grouped as (zeta_j, m_j), r of them distinct,

    p'(w) / p(w) = sum_j m_j / (w - zeta_j),

so each zeta_j is a critical point of multiplicity m_j - 1, and the other
r - 1 critical points are the roots of this secular equation.
``critical_points_direct`` solves it straight from the zeros by the Aberth
iteration, as MPSolve does for secular equations (Aberth, Math. Comp. 27,
1973; Bini & Robol, J. Comput. Appl. Math. 272, 2014).  No coefficient of p
is formed, so clustered and multiple zeros lose nothing to an expansion, and
zeros whose coefficients would leave the double range, such as three of
modulus 2^350, are solved like any others.

No certificate reads this route.  Every certificate takes its critical
points from the eigenvalues of the (n-1) x (n-1) compression of diag(z)
to the mean-zero subspace in ``densela``, centered or not; this route is
kept deliberately independent of that one, as its cross-check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

TOL_CENTER = 1e-12

_EPS = float(np.finfo(float).eps)
# steps per call before the final gate decides; over 1,000 sampled
# configurations per order, calls take at most 11, 14, 14 and 16 steps at
# n = 3, 8, 16 and 32 (5.5, 7.3, 8.1 and 8.8 on average)
_MAX_STEPS = 100


class RootFindingError(ArithmeticError):
    """The secular Aberth iteration did not meet its backward-error gate.

    Carries the final iterate and its worst scaled residual so a caller can
    inspect (or accept) the partial result.
    """

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


@dataclass(frozen=True)
class ZeroConfig:
    """A multiset of n >= 2 complex zeros, optionally certified as centered.

    ``centered`` asserts |sum z_j| <= TOL_CENTER * max |z_j|, a bound
    relative to the zeros' own scale, floored at n times the smallest
    subnormal float; the constructor enforces it.
    """

    zeros: tuple[complex, ...]
    centered: bool = False

    def __post_init__(self):
        zeros = tuple(complex(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        if len(zeros) < 2:
            raise ValueError(f"need at least 2 zeros, got {len(zeros)}")
        arr = np.asarray(zeros)
        if not np.all(np.isfinite(arr.real) & np.isfinite(arr.imag)):
            raise ValueError("zeros must be finite")
        if self.centered and not _is_centered(arr):
            bound = float(_center_bound(arr))
            raise ValueError(
                f"centered flag set but |sum z_j| = {abs(arr.sum()):.3e} "
                f"exceeds {bound:.3e}"
            )

    @property
    def n(self) -> int:
        return len(self.zeros)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.zeros, dtype=complex)


@dataclass(frozen=True)
class CriticalSet:
    """The n-1 critical points (zeros of p') of a degree-n polynomial."""

    points: tuple[complex, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(w) for w in self.points))

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)


def critical_points_direct(cfg: ZeroConfig) -> CriticalSet:
    """The n-1 critical points of prod (z - z_j), solved from the zeros.

    The zeros are grouped by exact equality into (zeta_j, m_j), in the order
    in which each value first appears.  Each zeta_j is returned m_j - 1
    times, exactly; with r >= 2 distinct zeros the other r - 1 points are
    the roots of sum_j m_j / (w - zeta_j) = 0, and a single distinct zero
    gives its n - 1 copies alone.

    The secular equation is solved for the zeros scaled by a power of two
    that brings their largest part into [1/2, 1), so the scaling is exact
    up to underflow.  An iterate starts next to each distinct zero but the
    last, a quarter of its distance to the nearest other zero away, in the
    direction 0.4 + 2 pi j / (r - 1) radians for the j-th.
    With S_1 = sum m/(w - zeta), S_2 = sum m/(w - zeta)^2 and T_1 =
    sum 1/(w - zeta), the Newton correction for the degree r - 1 polynomial
    whose roots are sought is S_1 / (S_1 T_1 - S_2); the Aberth step
    subtracts the repulsion sum 1/(w - w_l) of the other iterates from T_1.
    Each row of reciprocals is scaled by its largest modulus, the inverse
    distance to the nearest zero or other iterate, so that no S_2 overflows
    where the step is representable, as on (1e200, 1e-10, -1e-10).

    Each point stops on its own: once it meets the backward-error gate

        |S_1(w)| <= 4 r eps (sum m |w - zeta|^-1 + |w| sum m |w - zeta|^-2)

    it takes one more step and then stays where it is.  The final iterate
    must meet the same bound at 16 r eps, and be finite, or
    RootFindingError carries it and its worst ratio of |S_1| to the bracket.

    Every sum runs over the zeros in their listed order, so the rounding of
    the result depends on that order, as the rounding of any sum does.  The
    crosscheck benchmark measures this route's own spread by solving the
    zeros again in two other orders; sorting them first would make that
    spread exactly zero and hide the rounding it stands for.
    """
    counts = Counter(cfg.zeros)
    zeta = np.array(list(counts), dtype=complex)
    m = np.array(list(counts.values()))
    repeated = tuple(np.repeat(zeta, m - 1))
    r = zeta.size
    if r == 1:
        return CriticalSet(repeated)
    e = int(np.frexp(np.maximum(np.abs(zeta.real), np.abs(zeta.imag)).max())[1])
    zeta = _ldexp(zeta, -e)
    # the discs about the zeros that the starts reach are disjoint, so no two
    # starts coincide and none sits on a zero
    gaps = np.abs(np.subtract.outer(zeta, zeta))
    gaps.reshape(-1)[:: r + 1] = np.inf
    k = r - 1
    spin = np.exp(1j * (2.0 * np.pi / k * np.arange(k) + 0.4))
    start = zeta[:k] + 0.25 * gaps[:k].min(axis=1) * spin
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # an overflow or a pole leaves a NaN, which fails the gate below
        w, worst = _secular_roots(zeta, m.astype(float), start)
    w = _ldexp(w, e)
    if not worst <= 16 * r * _EPS:
        raise RootFindingError(
            f"secular iteration missed its gate: backward error {worst:.3e} "
            f"(> 16 r eps = {16 * r * _EPS:.3e})",
            best=w,
            residual=worst,
        )
    return CriticalSet(tuple(w) + repeated)


def _secular_roots(zeta: np.ndarray, m: np.ndarray, w: np.ndarray):
    """The Aberth iteration for the roots of sum_j m_j / (w - zeta_j) from
    the distinct starts ``w``: the final iterate and its worst backward
    error, |S_1| over the gate's bracket."""
    r, k = zeta.size, w.size
    # one row per iterate w: the scaled reciprocals of w - zeta_j, of
    # w - w_l and, last, the squares of the first r; the weight columns
    # sum them to S_1, T_1 minus the repulsion, and S_2
    points = np.empty(r + k, dtype=complex)
    points[:r] = zeta
    recip = np.empty((k, 2 * r + k), dtype=complex)
    pairs, squares, to_zeros = recip[:, : r + k], recip[:, r + k :], recip[:, :r]
    weights = np.zeros((2 * r + k, 3))
    weights[:r, 0] = weights[r + k :, 2] = m
    weights[:r, 1] = 1.0
    weights[r : r + k, 1] = -1.0
    own = r + np.arange(k) * (r + k + 1)  # flat index of each w_l - w_l

    def evaluate(w):
        """The iterate, moved off any pole, its Aberth steps and its
        backward errors."""
        while True:
            points[r:] = w
            diff = np.subtract.outer(w, points)
            diff.reshape(-1)[own] = np.inf
            dist = np.abs(diff)
            nearest = dist.min(axis=1)
            if nearest.all():
                break
            # an iterate sits exactly on a zero or on another iterate, a pole
            # of the sums: move it a quarter of the way to its nearest other
            # point, each iterate in its own direction
            dist[dist == 0] = np.inf
            away = 0.25 * dist.min(axis=1) * np.exp(1j * np.arange(1, k + 1))
            w = w + np.where(nearest == 0, away, 0)
        np.divide(nearest[:, None], diff, out=pairs)
        np.multiply(to_zeros, to_zeros, out=squares)
        s1, u, s2 = (recip @ weights).T
        g1, _, g2 = (np.abs(recip) @ weights).T
        residual = np.abs(s1) / (g1 + np.abs(w) * g2 / nearest)
        return w, nearest * s1 / (s1 * u - s2), residual

    gate = 4 * r * _EPS
    active = np.ones(k, dtype=bool)
    for _ in range(_MAX_STEPS):
        w, step, residual = evaluate(w)
        w = np.where(active, w - step, w)
        active &= residual > gate  # a point that met the gate took its last step
        if not active.any():
            break
    w, _, residual = evaluate(w)
    return w, float(residual.max())


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z * 2**e for complex z, exact unless it underflows."""
    return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)


def centroid(cfg: ZeroConfig) -> complex:
    """Mean of the zeros, (1/n) sum z_j."""
    return complex(cfg.as_array().sum() / cfg.n)


def center(cfg: ZeroConfig) -> ZeroConfig:
    """Shift every zero by -centroid so the result is certifiably centered.

    The one-row case of ``center_rows``; the result carries centered=True
    and passes the ZeroConfig invariant.
    """
    return ZeroConfig(tuple(center_rows(cfg.as_array())), centered=True)


def center_rows(z: np.ndarray) -> np.ndarray:
    """Each row of the (..., n) zeros ``z`` shifted by minus its centroid.

    Two passes of z - mean: the second absorbs the rounding of the first,
    and a pass whose mean is exactly zero leaves its row unchanged.  Raises
    ValueError unless every row then meets the ZeroConfig centered bound
    |sum z_j| <= TOL_CENTER * max |z_j|, floored at n times the smallest
    subnormal float.
    """
    n = z.shape[-1]
    for _ in range(2):
        z = z - z.sum(axis=-1, keepdims=True) / n
    if not np.all(_is_centered(z)):
        raise ValueError("a row is not centered to TOL_CENTER; are its zeros finite?")
    return z


def _is_centered(z: np.ndarray) -> np.ndarray:
    """Per row of (..., n) zeros: |sum z_j| <= _center_bound(z)."""
    return np.abs(z.sum(axis=-1)) <= _center_bound(z)


def _center_bound(z: np.ndarray) -> np.ndarray:
    """TOL_CENTER * max |z_j| per row, at least n times the smallest
    subnormal float: at subnormal scale a shift by the rounded mean can
    leave n/2 such units in each part of the sum, which no shift removes."""
    floor = z.shape[-1] * np.finfo(float).smallest_subnormal
    return np.maximum(TOL_CENTER * np.abs(z).max(axis=-1), floor)
