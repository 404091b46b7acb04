"""Polynomials given by their zeros: construction, differentiation, root-finding.

This is the "direct" route to critical points: expand p(z) = prod (z - z_j),
differentiate, and solve p'(w) = 0 with a simultaneous Aberth-Ehrlich
iteration (Aberth, Math. Comp. 27, 1973; Bini, Numer. Algorithms 13, 1996).
``roots`` rescales the polynomial from both sides of 1, so that its roots sit
near the unit circle, and starts the iteration on that circle.  The tables
that depend on the degree alone (rescale weights, exponents, starting
circle) are cached per degree, and the evaluation data of the rescaled
polynomial (ascending coefficients, derivative weights, magnitudes and a
buffer for the matrix of powers) is built once per call.  Each double
precision step evaluates p, p' and the rounding majorant for every iterate
from that matrix of powers; a short polish then re-evaluates p and p' by
Horner's rule in 80-bit arithmetic, and falls back to the double precision
iterate when the polished one misses the residual gate, which reads the
majorant from the same matrix.  Roots that miss the trace identity get one
restart from the starting circle turned by half a step.

No certificate reads this route.  Every certificate takes its critical
points from the eigenvalues of the (n-1) x (n-1) compression of diag(z)
to the mean-zero subspace in ``densela``, centered or not; this route is
kept deliberately independent of that one, as its cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, log2
from typing import NamedTuple

import numpy as np

TOL_CENTER = 1e-12
TOL_ROOT = 1e-13
MAX_ITERS = 200
# |sum x + b_1| / sum |x| for the roots x of x^m + b_1 x^(m-1) + ...: over
# 18,000 listings of sampled clustered n = 32 zeros its 99th percentile is
# 3.3e-6, and each of the 27 listings above 2e-5 had roots that a restart
# moved below 3e-6.  A root caught in the wrong cluster reads up to 0.65.
TOL_TRACE = 1e-4

_EPS = float(np.finfo(float).eps)
_POLISH_ITERS = 12


class RootFindingError(ArithmeticError):
    """Aberth iteration did not reach the residual gate.

    Carries the best iterate seen and its worst scaled residual so a caller
    can inspect (or accept) the partial result.
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
class Polynomial:
    """Monic polynomial stored as coefficients in descending powers."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if coeffs[0] != 1:
            raise ValueError(f"leading coefficient must be exactly 1, got {coeffs[0]}")
        arr = np.asarray(coeffs)
        if not np.all(np.isfinite(arr.real) & np.isfinite(arr.imag)):
            raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def __call__(self, z: complex) -> complex:
        value = 0j
        for c in self.coeffs:
            value = value * z + c
        return value


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


def from_roots(cfg: ZeroConfig) -> Polynomial:
    """Expand prod (z - z_j) by balanced pairwise products of linear factors.

    Pairing the factors tournament-style keeps intermediate coefficient
    growth (and hence rounding) lower than a left-to-right product when the
    roots are clustered.  Raises OverflowError when a coefficient leaves the
    double range, e.g. for three zeros of modulus 2^350.
    """
    linear = np.ones((cfg.n, 2), dtype=complex)
    linear[:, 1] = -cfg.as_array()
    factors = list(linear)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(factors) > 1:
            paired = [
                np.convolve(factors[i], factors[i + 1])
                for i in range(0, len(factors) - 1, 2)
            ]
            if len(factors) % 2:
                paired.append(factors[-1])
            factors = paired
    coeffs = factors[0]
    if not np.all(np.isfinite(coeffs)):
        raise OverflowError("a coefficient of prod (z - z_j) overflowed the double range")
    return Polynomial(tuple(coeffs))


def derivative(poly: Polynomial) -> Polynomial:
    """Monic form of p'/n; roots are those of p', degree drops by one."""
    n = poly.degree
    if n == 1:
        raise ValueError("derivative of a degree-1 polynomial is constant")
    coeffs = poly.as_array()[:-1] * (np.arange(n, 0, -1) / n)
    return Polynomial(tuple(coeffs))


def roots(poly: Polynomial) -> np.ndarray:
    """All roots of a monic polynomial, with multiplicity.

    The polynomial is first rescaled, z = s u, with s the geometric mean of
    a lower bound and an upper estimate of the largest root magnitude, so
    that the largest rescaled root lies within about sqrt(m) of the unit
    circle whether the roots are huge or tiny.  The rescale weights, the
    starting circle and the exponents depend only on the degree m and are
    cached per degree; everything phase 1 and the residual gate need to
    evaluate the rescaled polynomial (its ascending coefficients, the
    derivative weights, the magnitudes and the matrix of powers) is built
    once per call, in one ``_PowerEval``.  Then Aberth-Ehrlich simultaneous
    iteration in two phases, started on the unit circle:

    1. double precision, each step evaluating p, p' and the rounding
       majorant th(x) = sum |b_k| |x|^k for all iterates at once from one
       matrix of powers x^k, until every iterate is backward stable,
       |p(x)| <= 4 m eps th(x) (or, for cancellation-free inputs such as z^m,
       small against the coefficient scale);
    2. up to _POLISH_ITERS steps with p and p' evaluated by Horner's rule in
       80-bit arithmetic, which pushes simple roots to the conditioning
       floor and tightens symmetric functions of clustered ones.

    The result satisfies |p(x)| <= TOL_ROOT * max(scale, th(x)) on the
    rescaled polynomial, where scale is its largest coefficient magnitude
    and p is evaluated in 80-bit arithmetic.  The polished iterate is
    returned when it passes that gate, else the phase-1 iterate when it has
    the lower residual and passes; otherwise RootFindingError carries the
    lower-residual of the two.  The residual gate is blind to a root caught
    in the wrong cluster, so the result must also meet the trace identity
    sum x = -b_1 to TOL_TRACE relative to sum |x|; when it misses, both
    phases run once more from the starting circle turned by half the
    spacing of its points, and a second miss is a RootFindingError.
    Multiple roots come back as a cluster of radius roughly eps^(1/m); they
    are returned as found, without rounding.
    """
    c = poly.as_array()
    m = poly.degree
    if m == 1:
        return np.array([-c[1]])

    # The max of the binomially damped magnitudes (|a_k| / C(m,k))^(1/k) is a
    # lower bound for the largest root, the raw max an upper estimate; their
    # geometric mean keeps the rescaled roots near the unit circle.
    tables = _degree_tables(m)
    mags = np.abs(c[1:])
    s_hi = float(np.max(mags**tables.inverse, initial=0.0))
    s_lo = float(np.max((mags / tables.binomial) ** tables.inverse, initial=0.0))
    # s = 2^e * f with f in [2^-1/2, 2^1/2]: dividing by f^k and then by
    # 2^(e k) in the exponent never forms s^k, which can over- or underflow
    # where c_k / s^k does not.
    e, f = 0, 1.0
    if s_hi > 0:
        log_s = (log2(s_hi) + log2(s_lo)) / 2
        e = round(log_s)
        f = 2.0 ** (log_s - e)
    k = tables.exponents
    b = _ldexp(c / f**k, -e * k)
    scale = max(1.0, float(np.abs(b).max()))
    evaluate = _PowerEval(b, m)

    x, worst = _aberth(evaluate, scale, tables.start)
    trace_ok = _trace_ok(x, b)
    if worst <= TOL_ROOT and not trace_ok:
        # a root caught in the wrong cluster can still pass the residual
        # gate; start once more, each point midway between two of the first
        x, worst = _aberth(evaluate, scale, tables.start * np.exp(1j * np.pi / m))
        trace_ok = _trace_ok(x, b)
    if worst > TOL_ROOT or not trace_ok:
        raise RootFindingError(
            f"root iteration stalled at residual {worst:.3e} (> {TOL_ROOT})"
            if worst > TOL_ROOT
            else f"the roots miss the trace identity by more than {TOL_TRACE} relative",
            best=_ldexp(x * f, e),
            residual=worst,
        )
    return _ldexp(x * f, e)


def _aberth(evaluate: _PowerEval, scale: float, start: np.ndarray):
    """Both phases of the iteration from ``start`` on the rescaled
    polynomial: the iterate ``roots`` settles on and its worst gate residual."""
    m = start.size
    x = start
    best_x, best_rho = x, np.inf
    for _ in range(MAX_ITERS):
        p, dp, th = evaluate(x)
        ap = np.abs(p)
        rho = float((ap / np.maximum(scale, th)).max())
        if rho < best_rho:
            best_rho, best_x = rho, x
        backward_ok = ap <= 4 * m * _EPS * th
        # |p| ~ th means no cancellation is possible (e.g. a multiple root at
        # the origin); there an absolute test at the coefficient scale is the
        # correct notion of converged.
        flat_ok = (ap <= 64 * _EPS * scale) & (ap >= 0.25 * th)
        if (backward_ok | flat_ok).all():
            best_x = x
            break
        x = _aberth_step(x, p, dp)

    x = best_x
    for _ in range(_POLISH_ITERS):
        x_new = _aberth_step(x, *_horner_extended(evaluate.b, x))
        step = np.abs(x_new - x)
        x = x_new
        if (step <= 4 * _EPS * (1.0 + np.abs(x))).all():
            break

    # The polish can wander off a converged cluster; never lose the phase-1
    # iterate to it.
    worst = _residual(evaluate, x, scale)
    if worst > TOL_ROOT:
        fallback = _residual(evaluate, best_x, scale)
        if fallback < worst:
            x, worst = best_x, fallback
    return x, worst


def _trace_ok(x: np.ndarray, b: np.ndarray) -> bool:
    """Whether the roots ``x`` of the monic ``b`` meet sum x = -b_1 to
    TOL_TRACE relative to sum |x|."""
    return bool(abs(x.sum() + b[1]) <= TOL_TRACE * np.abs(x).sum())


class _DegreeTables(NamedTuple):
    """What ``roots`` needs of the degree m alone, read-only."""

    exponents: np.ndarray  # k = 0..m
    inverse: np.ndarray  # 1/k, k = 1..m
    binomial: np.ndarray  # C(m, k), k = 1..m
    start: np.ndarray  # the m starting points on the unit circle


@lru_cache(maxsize=64)
def _degree_tables(m: int) -> _DegreeTables:
    exponents = np.arange(m + 1)
    tables = _DegreeTables(
        exponents=exponents,
        inverse=1.0 / exponents[1:],
        binomial=np.array([comb(m, k) for k in range(1, m + 1)], dtype=float),
        start=np.exp(1j * (2.0 * np.pi * np.arange(m) / m + 0.4)),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z * 2**e for complex z, exact unless it underflows."""
    return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)


class _PowerEval:
    """p(x), p'(x) and the rounding majorant th(x) = sum |b_k||x|^k of the
    polynomial with descending coefficients ``b``, for ``size`` points x.

    The ascending coefficients, the derivative weights k b_k and the
    magnitudes |b_k| are made once, as is one (size, m+1) buffer of powers
    x^k; each evaluation refills the buffer by one cumulative product and
    turns each of p, p' and th into a matrix-vector product.
    """

    def __init__(self, b: np.ndarray, size: int):
        m = b.size - 1
        self.b = b
        # a view, not a copy: numpy multiplies by a reversed vector on
        # another path than by a contiguous one, with other last bits
        self.ascending = b[::-1]
        self.weighted = self.ascending[1:] * np.arange(1, m + 1)
        self.magnitudes = np.abs(self.ascending)
        self.powers = np.empty((size, m + 1), dtype=complex)
        self.powers[:, 0] = 1.0
        self.moduli = np.empty((size, m + 1))

    def __call__(self, x: np.ndarray):
        powers = self._powers(x)
        p = powers @ self.ascending
        dp = powers[:, :-1] @ self.weighted
        return p, dp, self._majorant(powers)

    def majorant(self, x: np.ndarray) -> np.ndarray:
        return self._majorant(self._powers(x))

    def _powers(self, x: np.ndarray) -> np.ndarray:
        powers = self.powers
        powers[:, 1:] = x[:, None]
        powers.cumprod(axis=1, out=powers)  # column 0 stays 1
        return powers

    def _majorant(self, powers: np.ndarray) -> np.ndarray:
        return np.abs(powers, out=self.moduli) @ self.magnitudes


def _horner_extended(b: np.ndarray, x: np.ndarray):
    """p(x) and p'(x) by Horner's rule in 80-bit precision, rounded to complex128."""
    bx = b.astype(np.complex256)
    xx = x.astype(np.complex256)
    p = np.full(x.shape, bx[0], dtype=np.complex256)
    dp = np.zeros(x.shape, dtype=np.complex256)
    for bk in bx[1:]:
        dp *= xx
        dp += p
        p *= xx
        p += bk
    return p.astype(complex), dp.astype(complex)


def _residual(evaluate: _PowerEval, x: np.ndarray, scale: float) -> float:
    """Worst gate residual |p(x)| / max(scale, th(x)), p in 80-bit precision."""
    p, _ = _horner_extended(evaluate.b, x)
    return float((np.abs(p) / np.maximum(scale, evaluate.majorant(x))).max())


def _aberth_step(x: np.ndarray, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    w = np.divide(p, dp, out=np.zeros(p.shape, dtype=complex), where=dp != 0)
    diff = np.subtract.outer(x, x)
    diff.reshape(-1)[:: x.size + 1] = np.inf  # the diagonal
    with np.errstate(divide="ignore", invalid="ignore"):
        repulsion = np.divide(1.0, diff, out=diff).sum(axis=1)
    denom = 1.0 - w * repulsion
    denom[np.abs(denom) < 1e-300] = 1.0
    return x - w / denom


def critical_points_direct(cfg: ZeroConfig) -> CriticalSet:
    """Critical points as the roots of p' where p = prod (z - z_j)."""
    return CriticalSet(tuple(roots(derivative(from_roots(cfg)))))


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
