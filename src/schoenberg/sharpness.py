"""Extremal families and derivative-free search for near-equality configurations.

Two explicit families attain the claimed order-p constants: n/2 zeros at
each of +1/-1 (for p >= 2, n even) and n-2 zeros at the origin plus one at
each of +1/-1 (for 1 <= p <= 2).  For 1 < p < 2 the claimed constant is the
interpolated one, refuted for n >= 5 (witness pinned in
tests/test_certs.py::TestIntermediateOrderCounterexample), so there the
second family attains it without being extremal; PAPER.md does not settle
which constant the paper states.  Both searches share one routine, which
validates the arguments, parametrizes the centered subspace by the first n-1
zeros (the last is minus their sum, so the constraint is exact by
construction) and runs restarted Nelder-Mead on a simplex held as arrays.
One search maximizes the Schoenberg certificate ratio, evaluated by the
``certs`` formulas on a batch of one, as ``ratio`` and the audit evaluate
it; the other maximizes the Schatten-to-l^p quotient of the differentiator
map.  Eigenvalues cross at multiplicity changes, so the objective is
continuous but not smooth; a simplex method is the right tool.
"""

from __future__ import annotations

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
    if n < 4 or n % 2 != 0:
        raise ValueError(f"the +-1 family needs an even n >= 4, got {n}")
    zeros = (1.0 + 0j,) * (n // 2) + (-1.0 + 0j,) * (n // 2)
    return ZeroConfig(zeros, centered=True)


def extremal_low(n: int) -> ZeroConfig:
    """n-2 zeros at the origin plus +-1; the equality family for 1 <= p <= 2."""
    if n < 3:
        raise ValueError(f"the origin family needs n >= 3, got {n}")
    zeros = (0j,) * (n - 2) + (1.0 + 0j, -1.0 + 0j)
    return ZeroConfig(zeros, centered=True)


def ratio(cfg: ZeroConfig, p: float) -> float:
    """sum |w_k|^p divided by C(n,p) sum |z_j|^p, the order-p certificate's ratio.

    In [0, 1] wherever the claimed constant C(n, p) holds; for 1 < p < 2 and
    n >= 5 it is refuted and the ratio can exceed 1 (1.00168280036673 at
    p = 1.75 on the pinned witness).
    """
    if cfg.n == 2:
        raise ValueError("n = 2 is degenerate: the bound's right side vanishes")
    if not cfg.centered:
        raise ValueError("ratio requires a centered configuration")
    value = certs._schoenberg_orders(cfg, [p])[0].ratio
    if value is None:
        raise ValueError("all zeros vanish; the ratio is undefined")
    return value


def _zeros_from_coords(x: np.ndarray) -> np.ndarray:
    """Map 2(n-1) real coordinates to n centered zeros (last = -sum of rest)."""
    half = x.size // 2
    head = x[:half] + 1j * x[half:]
    return np.concatenate([head, [-head.sum()]])


def _coords_from_zeros(z: np.ndarray) -> np.ndarray:
    head = z[:-1]
    return np.concatenate([head.real, head.imag])


def _nelder_mead(objective, x0: np.ndarray, budget: int) -> tuple[np.ndarray, float, int]:
    """Minimize with standard simplex moves until the evaluation budget is spent.

    Returns (best point, best value, objective calls); the move that crosses
    the budget finishes.  Collapses of the simplex below the restart diameter
    end the run early and the remaining budget flows back to the caller for
    another restart.
    """
    dim = x0.size
    pts = np.vstack((x0, x0 + _NM_INIT_SCALE * np.eye(dim)))
    values = np.array([objective(x) for x in pts])
    used = dim + 1
    while used < budget:
        order = np.argsort(values, kind="stable")
        pts, values = pts[order], values[order]
        if np.linalg.norm(pts[1:] - pts[0], axis=1).max() < _NM_RESTART_DIAMETER:
            break
        centroid = pts[:-1].mean(axis=0)
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
    best = int(np.argmin(values))
    return pts[best], values[best], used


def _random_start(n: int, rng) -> np.ndarray:
    z = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    full = np.concatenate([z, [-z.sum()]])
    full = full / np.abs(full).max()  # scale-invariant objective; keep it O(1)
    return _coords_from_zeros(full)


def _search(n: int, p: float, budget: int, entropy, value_at, families=()):
    """Maximize value_at(n, p), a function of n centered zeros, by restarted
    Nelder-Mead until ``budget`` evaluations are spent.

    The extremal ``families`` are evaluated up front and seed the first
    restarts, the last first; the others start at random points drawn from
    SeedSequence(entropy).  Returns (best coordinates, best value,
    evaluations, restarts), not counting the up-front evaluations.
    """
    certs._check_order(p)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if budget < 1:
        raise ValueError("budget must be positive")
    value = value_at(n, p)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))

    def objective(x: np.ndarray) -> float:
        z = _zeros_from_coords(x)
        top = np.abs(z).max()
        if top == 0.0 or not np.isfinite(top):
            return 0.0
        return -value(z - z.sum() / z.size)

    starts = [_coords_from_zeros(family(n).as_array()) for family in families]
    found = [(objective(x), x) for x in starts]
    spent = 0
    while spent < budget:
        x0 = starts.pop() if starts else _random_start(n, rng)
        x, fx, used = _nelder_mead(objective, x0, budget - spent)
        spent += used
        found.append((fx, x))
    best_value, best_x = min(found, key=lambda pair: pair[0])  # the first of ties
    return best_x, -best_value, spent, len(found) - len(families)


def _schoenberg_ratio(n: int, p: float):
    """The ratio of the order-p Schoenberg certificate as a function of n
    centered zeros: the certs power sums on a batch of one, 0 where the
    right side vanishes."""
    constant = schoenberg_constant(n, p)

    def value(z: np.ndarray) -> float:
        z = z[None]
        denom = constant * certs._power_sums(np.abs(z), [p])[0, 0]
        if denom == 0.0:
            return 0.0
        return certs._power_sums(certs._critical_moduli(z)[:, :-1], [p])[0, 0] / denom

    return value


def _schatten_quotient(n: int, p: float):
    """||Q diag(z) Q||_Sp / ||z||_p as a function of n zeros, 0 at z = 0."""

    def value(z: np.ndarray) -> float:
        norm_z = densela.lp_norm(z, p)
        if norm_z == 0.0:
            return 0.0
        return densela.schatten_norm(densela._differentiator(z), p) / norm_z

    return value


def maximize_ratio(n: int, p: float, budget: int, seed: int) -> SharpnessResult:
    """Search the centered configurations for the largest order-p ratio.

    Nelder-Mead over 2(n-1) real coordinates with random restarts until the
    evaluation budget is spent.  Deterministic in (n, p, budget, seed).  A
    best ratio beyond 1 + 1e-9 would contradict the order-p bound and is
    surfaced as-is for the caller to report, never clipped.
    """
    p = float(p)
    best_x, _, spent, restarts = _search(n, p, budget, (int(seed), n), _schoenberg_ratio)
    best_config = center(ZeroConfig(tuple(_zeros_from_coords(best_x))))
    return SharpnessResult(
        n=n,
        p=p,
        best_config=best_config,
        best_ratio=ratio(best_config, p),
        evaluations=spent,
        restarts=restarts,
        seed=int(seed),
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
    n >= 5, so the estimate may exceed it; it never exceeds the proven
    ((n-1)/n)^(1/p), the norm of z -> Q diag(z) Q on all of l^p.
    """
    p = float(p)
    families = (extremal_low, extremal_high) if n % 2 == 0 else (extremal_low,)
    entropy = (int(seed), n, 1)
    _, estimate, _, _ = _search(n, p, budget, entropy, _schatten_quotient, families)
    return float(estimate), opnorm_constant(n, p)
