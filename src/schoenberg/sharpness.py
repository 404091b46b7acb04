"""Extremal families and derivative-free search for near-equality configurations.

Two explicit families attain the claimed order-p constants: n/2 zeros at
each of +1/-1 (for p >= 2, n even) and n-2 zeros at the origin plus one at
each of +1/-1 (for 1 <= p <= 2).  For 1 < p < 2 the claimed constant is the
interpolated one, refuted for n >= 4 on p0(n) < p < 2, with p0(4) ~ 1.760
(witnesses pinned in tests/test_sharpness.py::TestOrderFourWitness and
tests/test_certs.py::TestIntermediateOrderCounterexample), so there the
second family attains it without being extremal; PAPER.md does not settle
which constant the paper states.  Both searches validate the order as
``certs`` does, and n, the budget and the seed as integers, and share one
routine, which parametrizes the centered subspace by the first n-1 zeros h
(the last is minus their sum, so the constraint is exact by construction)
and runs restarted Nelder-Mead on a simplex held as arrays.  The zeros and
their compression to the mean-zero subspace are both real-linear in the
2(n-1) coordinates, so each search builds one real matrix, the coordinate
map, whose columns are the zeros e_k - e_n and their compressions, and
reads both from one matrix product per evaluation: the first n-1 zeros are
h exactly, and the compression is that of the exactly centered
configuration, so nothing is recentered.  The loop keeps the vertices in
stable sorted order by inserting the one it replaces and hands each
family's up-front value to the simplex that starts there; every point it
evaluates, and so every result, is bit for bit that of a loop that
argsorts the simplex before every move.  One search maximizes the Schoenberg
certificate ratio, from the ``certs`` power sums of the eigenvalue moduli
of the compression, the critical moduli, and of |z|; ``ratio`` reads the
best configuration's value from the ``certs`` columnar evaluator on a
batch of one, as the audit does.  The other maximizes the Schatten-to-l^p
quotient of the differentiator map, from the ``certs`` power sums of the
singular values of the compression and of |z|.  Eigenvalues cross at
multiplicity changes, so the objective is continuous but not smooth; a
simplex method is the right tool.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import certs, densela
from .certs import opnorm_constant, schoenberg_constant
from .polyzero import ZeroConfig, center

_NM_REFLECT = 1.0
_NM_EXPAND = 2.0
_NM_CONTRACT = 0.5
_NM_SHRINK = 0.5
_NM_RESTART_DIAMETER = 1e-10
_NM_INIT_SCALE = 0.3


@dataclass(frozen=True)
class SharpnessResult:
    """Outcome of one ratio-maximization run."""

    n: int
    p: float
    best_config: ZeroConfig
    best_ratio: float
    evaluations: int
    restarts: int
    seed: int


def extremal_high(n: int) -> ZeroConfig:
    """n/2 zeros at +1 and at -1; the equality family for orders p >= 2."""
    n = densela._integer(n, "n")
    if n < 4 or n % 2 != 0:
        raise ValueError(f"the +-1 family needs an even n >= 4, got {n}")
    zeros = (1.0 + 0j,) * (n // 2) + (-1.0 + 0j,) * (n // 2)
    return ZeroConfig(zeros, centered=True)


def extremal_low(n: int) -> ZeroConfig:
    """n-2 zeros at the origin plus +-1; the equality family for 1 <= p <= 2."""
    n = densela._integer(n, "n")
    if n < 3:
        raise ValueError(f"the origin family needs n >= 3, got {n}")
    zeros = (0j,) * (n - 2) + (1.0 + 0j, -1.0 + 0j)
    return ZeroConfig(zeros, centered=True)


def ratio(cfg: ZeroConfig, p: float) -> float:
    """sum |w_k|^p divided by C(n,p) sum |z_j|^p, the order-p certificate's ratio.

    In [0, 1] wherever the claimed constant C(n, p) holds; for n >= 4 and
    p0(n) < p < 2, with p0(4) ~ 1.760, it is refuted and the ratio can
    exceed 1 (1.0009149692779185 for (z - 1)(z + 1/3)^3 at p = 1.9).
    This is the ratio of certs.schoenberg_order_p, the order-p column of
    the columnar evaluator on a batch of one.  Zeros so small that
    sum |z_j|^p underflows raise certs.UnderflowError.
    """
    if cfg.n == 2:
        raise ValueError("n = 2 is degenerate: the bound's right side vanishes")
    certs._require_centered(cfg, "ratio")
    value = certs.schoenberg_order_p(cfg, p).ratio
    if value is None:
        raise ValueError("all zeros vanish; the ratio is undefined")
    return value


def _zeros_from_coords(x: np.ndarray) -> np.ndarray:
    """Map 2(n-1) real coordinates to n centered zeros (last = -sum of rest)."""
    half = x.size // 2
    z = np.empty(half + 1, dtype=complex)
    head = z[:half]
    np.add(x[:half], 1j * x[half:], out=head)
    z[half] = -head.sum()
    return z


def _coords_from_zeros(z: np.ndarray) -> np.ndarray:
    head = z[:-1]
    return np.concatenate([head.real, head.imag])


def _nelder_mead(
    objective, x0: np.ndarray, budget: int, f0: float | None = None
) -> tuple[np.ndarray, float, int]:
    """Minimize with standard simplex moves until the evaluation budget is spent.

    Returns (best point, best value, objective calls); the move that crosses
    the budget finishes.  Collapses of the simplex below the restart diameter
    end the run early and the remaining budget flows back to the caller for
    another restart.  ``f0``, when given, is the objective's value at x0,
    which is then not evaluated again; it still counts as a call.

    Each move begins from the vertices in the order of a stable sort of
    their values, NaN last.  A move replaces only the worst vertex, so that
    order is restored by inserting it at its stable rank, after every
    vertex with a value no larger; a full stable sort runs after the
    initial simplex, after a shrink and whenever a NaN is among the others.
    The restart test takes the square root of the largest squared edge,
    which is the largest edge exactly, since sqrt is monotone and correctly
    rounded.  So every point evaluated and every result is bit for bit the
    one a stable argsort before each move gives.
    """
    dim = x0.size
    pts = np.vstack((x0, x0 + _NM_INIT_SCALE * np.eye(dim)))
    values = [objective(pts[0]) if f0 is None else f0]
    values += [objective(x) for x in pts[1:]]
    used = dim + 1
    resort = True
    while used < budget:
        if resort or values[-2] != values[-2]:
            order = np.argsort(values, kind="stable")
            pts = pts[order]
            values = [values[i] for i in order]
        else:
            rank = bisect_right(values, values[-1], 0, dim)
            if rank < dim:
                row = pts[-1].copy()
                pts[rank + 1 :] = pts[rank:-1]
                pts[rank] = row
                values.insert(rank, values.pop())
        resort = False
        d = pts[1:] - pts[0]
        if math.sqrt((d * d).sum(axis=1).max()) < _NM_RESTART_DIAMETER:
            break
        centroid = pts[:-1].sum(axis=0) / dim
        reflected = centroid + _NM_REFLECT * (centroid - pts[-1])
        fr = objective(reflected)
        used += 1
        if values[0] <= fr < values[-2]:
            pts[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + _NM_EXPAND * (reflected - centroid)
            fe = objective(expanded)
            used += 1
            if fe < fr:
                pts[-1], values[-1] = expanded, fe
            else:
                pts[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + _NM_CONTRACT * (pts[-1] - centroid)
        fc = objective(contracted)
        used += 1
        if fc < values[-1]:
            pts[-1], values[-1] = contracted, fc
            continue
        pts[1:] = pts[0] + _NM_SHRINK * (pts[1:] - pts[0])
        values[1:] = [objective(x) for x in pts[1:]]
        used += dim
        resort = True
    best = int(np.argmin(values))
    return pts[best], values[best], used


def _random_start(n: int, rng) -> np.ndarray:
    z = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    full = np.concatenate([z, [-z.sum()]])
    full = full / np.abs(full).max()  # scale-invariant objective; keep it O(1)
    return _coords_from_zeros(full)


def _coordinate_map(n: int) -> np.ndarray:
    """The real (n + (n-1)^2) x (n-1) matrix M whose column k is the zeros
    e_k - e_n stacked on the row-major compression of diag(e_k - e_n).

    The search coordinates x hold h in C^(n-1), real parts first, and mean
    the centered zeros z = (h, -sum h).  Both z and its compression are
    linear in h with real coefficients, so (M @ x.reshape(2, n-1).T) read
    as complex is z stacked on its compression.  The first n-1 zeros are
    h exactly: their rows of M are those of the identity, so each is one
    product with 1 plus products with 0.  The compression is that of the
    exactly centered z, with the rounding of the product alone and nothing
    left to recenter.  Its part of M is densela._compression of the basis
    rows, which are real, so the Householder formula is stated only there.
    The compressions read from M get no finiteness pass.
    """
    basis = np.eye(n - 1, n)
    basis[:, -1] = -1.0
    compressions = densela._compression(basis).real.reshape(n - 1, -1)
    return np.ascontiguousarray(np.hstack((basis, compressions)).T)


def _coordinate_objective(n: int, value):
    """The function to minimize over the search coordinates x: minus
    value(|z|, compression), with both read from one product with the
    coordinate map, built here once; 0 where the zeros all vanish or their
    largest modulus is not finite."""
    m = _coordinate_map(n)

    def objective(x: np.ndarray) -> float:
        mapped = (m @ x.reshape(2, n - 1).T).view(complex)[:, 0]
        mods = np.abs(mapped[:n])
        top = mods.max()
        if top == 0.0 or not math.isfinite(top):
            return 0.0
        return -value(mods, mapped[n:].reshape(n - 1, n - 1))

    return objective


def _search(n: int, p: float, budget: int, entropy, value_at, families=()):
    """Maximize value_at(n, p), a function of the moduli of n centered
    zeros and of their compression, by restarted Nelder-Mead until
    ``budget`` evaluations are spent.

    Each evaluation reads the zeros and the compression from one product
    with the coordinate map, which is built once per call
    (_coordinate_objective).  The extremal ``families`` are evaluated up
    front and seed the first restarts, the last first; each hands its value
    to the simplex as that of its first vertex, which is not evaluated
    again but counts against the budget.  The other restarts start at
    random points drawn from SeedSequence(entropy).  Returns (best
    coordinates, best value, evaluations, restarts), not counting the
    up-front evaluations.
    """
    objective = _coordinate_objective(n, value_at(n, p))
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    found = [
        (objective(x), x)
        for x in (_coords_from_zeros(family(n).as_array()) for family in families)
    ]
    starts = list(found)
    spent = 0
    while spent < budget:
        if starts:
            f0, x0 = starts.pop()
        else:
            f0, x0 = None, _random_start(n, rng)
        x, fx, used = _nelder_mead(objective, x0, budget - spent, f0)
        spent += used
        found.append((fx, x))
    best_value, best_x = min(found, key=lambda pair: pair[0])  # the first of ties
    return best_x, -best_value, spent, len(found) - len(families)


def _check_search(n, budget, seed) -> tuple[int, int, int]:
    """The n, budget and seed of a search as plain ints (densela._integer):
    n >= 3, a positive budget and a nonnegative seed, else ValueError."""
    n = densela._integer(n, "n")
    budget = densela._integer(budget, "budget")
    seed = densela._integer(seed, "seed")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if budget < 1:
        raise ValueError("budget must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return n, budget, seed


def _schoenberg_ratio(n: int, p: float):
    """The ratio of the order-p Schoenberg certificate as a function of the
    moduli of n centered zeros and their compression, 0 where the right
    side vanishes: the certs power sums of the n-1 critical moduli, the
    eigenvalue moduli of the compression, and of the zero moduli, at the
    one order, prepared here once for every evaluation.  ratio() snaps the
    shadows of the critical moduli to zero, so the two can differ in the
    last bits."""
    constant = schoenberg_constant(n, p)
    orders = certs._order_set([p])

    def value(mods: np.ndarray, compression: np.ndarray) -> float:
        denom = constant * certs._power_sums(mods, orders)[0]
        if denom == 0.0:
            return 0.0
        moduli = certs._descending_moduli(densela._eigvals(compression))
        return certs._power_sums(moduli, orders)[0] / denom

    return value


def _schatten_quotient(n: int, p: float):
    """||Q diag(z) Q||_Sp / ||z||_p as a function of the moduli of n
    centered zeros and their compression, 0 at z = 0: the p-th root of the
    certs power sums of the singular values of the compression over those
    of the zero moduli, at the one order, prepared here once."""
    orders = certs._order_set([p])

    def value(mods: np.ndarray, compression: np.ndarray) -> float:
        denom = certs._power_sums(mods, orders)[0]
        if denom == 0.0:
            return 0.0
        sigma = densela._svdvals(compression)
        return (certs._power_sums(sigma, orders)[0] / denom) ** (1.0 / p)

    return value


def maximize_ratio(n: int, p: float, budget: int, seed: int) -> SharpnessResult:
    """Search the centered configurations for the largest order-p ratio.

    Nelder-Mead over 2(n-1) real coordinates with random restarts until the
    evaluation budget is spent.  Deterministic in (n, p, budget, seed).  A
    best ratio beyond 1 + 1e-9 would contradict the order-p bound and is
    surfaced as-is for the caller to report, never clipped.
    """
    p = densela._check_order(p)
    n, budget, seed = _check_search(n, budget, seed)
    best_x, _, spent, restarts = _search(n, p, budget, (seed, n), _schoenberg_ratio)
    best_config = center(ZeroConfig(tuple(_zeros_from_coords(best_x))))
    return SharpnessResult(
        n=n,
        p=p,
        best_config=best_config,
        best_ratio=ratio(best_config, p),
        evaluations=spent,
        restarts=restarts,
        seed=seed,
    )


def opnorm_lower_bound(
    n: int, p: float, budget: int = 2000, seed: int = 0
) -> tuple[float, float]:
    """Largest observed ||T(z)||_Sp / ||z||_p against the closed-form bound.

    T is the differentiator map restricted to centered z.  The search seeds
    both extremal families (where the quotient attains the bound in the
    matching p-range) plus random restarts, and returns
    (estimate, c(n, p)) with c(n, p) = ((n-2)/n)^min(1/p, 1/2).  For
    1 < p < 2, c(n, p) is the claimed interpolated constant, refuted for
    n >= 4 on p0(n) < p < 2, so the estimate may exceed it; it never
    exceeds the proven ((n-1)/n)^(1/p), the norm of z -> Q diag(z) Q on
    all of l^p.
    """
    p = densela._check_order(p)
    n, budget, seed = _check_search(n, budget, seed)
    families = (extremal_low, extremal_high) if n % 2 == 0 else (extremal_low,)
    entropy = (seed, n, 1)
    _, estimate, _, _ = _search(n, p, budget, entropy, _schatten_quotient, families)
    return float(estimate), opnorm_constant(n, p)
