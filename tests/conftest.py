import ctypes
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from schoenberg import certs, densela


def matched_distance(a, b) -> float:
    """Largest pairwise distance under a minimum-cost perfect matching."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size, f"multiset sizes differ: {a.size} vs {b.size}"
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def mp_schoenberg_ratio(zeros, p: float) -> float:
    """Order-p Schoenberg ratio of the complex ``zeros`` recomputed at 60 digits.

    Independent of the float pipeline: the zeros are re-centered in mpmath,
    the monic polynomial is expanded from them, and the critical points are
    the roots of its derivative found by ``mp.polyroots``.  The ratio is
    sum |w_k|^p / (C(n, p) sum |z_j|^p) with the claimed constant
    C(n, p) = ((n-2)/n)^(min(p, 2)/2) also evaluated in mpmath.  The step
    and precision budget lets tightly clustered n = 8 inputs converge.
    """
    with mpmath.mp.workdps(60):
        z = [mpmath.mpc(v) for v in zeros]
        n = len(z)
        mean = mpmath.fsum(z) / n
        z = [v - mean for v in z]
        w = mp_critical_points(z)
        p = mpmath.mpf(p)
        constant = mpmath.mpf(n - 2) / n
        if p < 2:
            constant **= p / 2
        lhs = mpmath.fsum(abs(v) ** p for v in w)
        rhs = constant * mpmath.fsum(abs(v) ** p for v in z)
        return float(lhs / rhs)


def mp_critical_points(zeros, start=None) -> list:
    """The critical points of prod (z - z_j) at the working mpmath precision:
    the polynomial is expanded from the ``zeros`` and its derivative solved
    by ``mp.polyroots``.  ``start``, approximate critical points such as the
    spectral ones, only shortens the iteration: the result is the roots of
    p' either way, or ``mpmath.NoConvergence``."""
    z = [mpmath.mpc(v) for v in zeros]
    n = len(z)
    coeffs = [mpmath.mpc(1)]  # highest degree first
    for root in z:
        coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    deriv = [(n - k) * c for k, c in enumerate(coeffs[:-1])]
    init = None if start is None else [mpmath.mpc(w) for w in start]
    return mpmath.polyroots(deriv, maxsteps=200, extraprec=200, roots_init=init)


def c_output(capfd) -> tuple[str, str]:
    """What the process wrote to its stdout and stderr file descriptors,
    after flushing C stdio, which buffers OpenBLAS's messages when the
    streams are not a terminal."""
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes = [ctypes.c_void_p]
    fflush.restype = ctypes.c_int
    fflush(None)  # every C output stream
    captured = capfd.readouterr()
    return captured.out, captured.err


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_centered(rng, n: int, radius: float = 1.0) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    z = r * np.exp(1j * theta)
    return z - z.mean()


def reference_json(obj) -> str:
    """The recursive JSON renderer that the flat report writer replaced, kept
    as the writer's oracle: dicts, lists and tuples, bools, ints, floats with
    17 significant digits, None and strings (escaping only quotes and
    backslashes), one line."""
    out: list[str] = []
    _render(obj, out)
    return "".join(out) + "\n"


def _render(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(f'"{key}": ')
            _render(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _render(val, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format(float(obj), ".17g"))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def report_to_dict(report) -> dict:
    """An audit report as the nested dict the oracle renders, keys sorted."""
    per_cert = {}
    for key in sorted(report.per_certificate):
        stats = report.per_certificate[key]
        per_cert[key] = {
            "total": stats.total,
            "passed": stats.passed,
            "max_ratio": stats.max_ratio,
            "argmax_zeros": stats.argmax_zeros,
        }
    return {
        "spec": report.spec.to_dict(),
        "sabotage": report.sabotage,
        "total": report.total,
        "passed": report.passed,
        "per_certificate": per_cert,
        "violations": report.violations,
        "errors": report.errors,
    }


def reference_search(n, p, budget, entropy, value_at, families=()):
    """The restarted Nelder-Mead search that ``sharpness._search`` ran before
    its simplex was kept in order by insertion, kept as its oracle: a stable
    argsort of the vertices before every move, the restart diameter as the
    largest edge, each family start evaluated again as its first vertex and
    the generator made up front.  ``value_at`` is one of the frozen
    objectives below, read through reference_coordinate_objective.  Returns
    (best coordinates, best value, evaluations, restarts)."""
    objective = reference_coordinate_objective(n, value_at(n, p))
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    starts = [_coords_from_zeros(family(n).as_array()) for family in families]
    found = [(objective(x), x) for x in starts]
    spent = 0
    while spent < budget:
        x0 = starts.pop() if starts else _random_start(n, rng)
        x, fx, used = reference_nelder_mead(objective, x0, budget - spent)
        spent += used
        found.append((fx, x))
    best_value, best_x = min(found, key=lambda pair: pair[0])
    return best_x, -best_value, spent, len(found) - len(families)


def reference_coordinate_map(n):
    """The real (n + (n-1)^2) x (n-1) matrix whose column k stacks the zeros
    e_k - e_n on the row-major compression of diag(e_k - e_n), built one
    column at a time."""
    columns = []
    for k in range(n - 1):
        e = np.zeros(n)
        e[k], e[-1] = 1.0, -1.0
        columns.append(np.concatenate([e, densela._compression(e).real.ravel()]))
    return np.ascontiguousarray(np.column_stack(columns))


def mapped_coordinates(m, x):
    """The n zeros and the (n-1) x (n-1) compression that the coordinate
    map ``m`` gives at the search coordinates x."""
    n = x.size // 2 + 1
    mapped = (m @ x.reshape(2, n - 1).T).view(complex)[:, 0]
    return mapped[:n], mapped[n:].reshape(n - 1, n - 1)


def reference_coordinate_objective(n, value):
    """Minus value(|z|, compression) at the search coordinates, both read
    through reference_coordinate_map; 0 where every zero vanishes or the
    largest modulus is not finite."""
    m = reference_coordinate_map(n)

    def objective(x):
        z, compression = mapped_coordinates(m, x)
        mods = np.abs(z)
        top = mods.max()
        if top == 0.0 or not np.isfinite(top):
            return 0.0
        return -value(mods, compression)

    return objective


def reference_nelder_mead(objective, x0, budget):
    """The Nelder-Mead loop that sorted its simplex with a stable argsort
    before every move; returns (best point, best value, objective calls)."""
    dim = x0.size
    pts = np.vstack((x0, x0 + 0.3 * np.eye(dim)))
    values = np.array([objective(x) for x in pts])
    used = dim + 1
    while used < budget:
        order = np.argsort(values, kind="stable")
        pts, values = pts[order], values[order]
        d = pts[1:] - pts[0]
        if np.sqrt((d * d).sum(axis=1)).max() < 1e-10:
            break
        centroid = pts[:-1].sum(axis=0) / dim
        reflected = centroid + 1.0 * (centroid - pts[-1])
        fr = objective(reflected)
        used += 1
        if values[0] <= fr < values[-2]:
            pts[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + 2.0 * (reflected - centroid)
            fe = objective(expanded)
            used += 1
            if fe < fr:
                pts[-1], values[-1] = expanded, fe
            else:
                pts[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + 0.5 * (pts[-1] - centroid)
        fc = objective(contracted)
        used += 1
        if fc < values[-1]:
            pts[-1], values[-1] = contracted, fc
            continue
        pts[1:] = pts[0] + 0.5 * (pts[1:] - pts[0])
        values[1:] = [objective(x) for x in pts[1:]]
        used += dim
    best = int(np.argmin(values))
    return pts[best], values[best], used


def reference_zeros_from_coords(x):
    """2(n-1) real coordinates as n zeros summing to zero, by concatenation."""
    half = x.size // 2
    head = x[:half] + 1j * x[half:]
    return np.concatenate([head, [-head.sum()]])


def _coords_from_zeros(z):
    head = z[:-1]
    return np.concatenate([head.real, head.imag])


def _random_start(n, rng):
    z = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    full = np.concatenate([z, [-z.sum()]])
    full = full / np.abs(full).max()
    return _coords_from_zeros(full)


def _reference_power_sum(mods, p):
    return (mods**p).sum(axis=-1)


def reference_schoenberg_ratio(n, p):
    """The order-p Schoenberg ratio objective on the zero moduli and the
    compression, with each power sum taken by ``.sum(axis=-1)``, over the
    n-1 critical moduli: the eigenvalue moduli of the compression."""
    constant = certs.schoenberg_constant(n, p)

    def value(mods, compression):
        denom = constant * _reference_power_sum(mods, p)
        if denom == 0.0:
            return 0.0
        moduli = certs._descending_moduli(densela._eigvals(compression))
        return _reference_power_sum(moduli, p) / denom

    return value


def reference_schatten_quotient(n, p):
    """The Schatten-to-l^p quotient objective on the zero moduli and the
    compression, with each power sum taken by ``.sum(axis=-1)``, over the
    singular values of the compression."""

    def value(mods, compression):
        denom = _reference_power_sum(mods, p)
        if denom == 0.0:
            return 0.0
        sigma = densela._svdvals(compression)
        return (_reference_power_sum(sigma, p) / denom) ** (1.0 / p)

    return value


# --- the columnar evaluator before its one-table rewrite, kept as its oracle --
#
# reference_certify_batch is that evaluator verbatim: one _Block per family,
# joined by _concat, each power sum reduced one order at a time, and each
# spectrum's elementary symmetric functions by their own recurrence.  Only
# names are changed, and the unchanged closed forms are read from certs.

_Label = tuple[str, float | None]
_EQUALITIES = frozenset({"endpoint_s2"})
_TINY = np.finfo(float).tiny
_QUARTIC = certs._QUARTIC
_ENDPOINT = certs._ENDPOINT


def _arithmetic():
    return np.errstate(over="ignore", invalid="ignore")


def _reference_esf_table(values) -> np.ndarray:
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


def _descending_moduli(lam: np.ndarray) -> np.ndarray:
    """|lam| sorted nonincreasing along the last axis."""
    # negating twice keeps the array contiguous, so every transcendental on
    # the moduli takes the same vector path for a stack as for a batch of one
    return -np.sort(-np.abs(lam), axis=-1)


class _Block(NamedTuple):
    """Columns not yet judged: labels (k,); lhs, rhs and ``underflow``
    (..., k).  ``underflow`` marks a right side that fell below the smallest
    normal float where it is not an exact zero."""

    labels: list[_Label]
    lhs: np.ndarray
    rhs: np.ndarray
    underflow: np.ndarray


def _concat(parts) -> _Block:
    """The columns of the _Blocks ``parts``, side by side."""
    return _Block(
        tuple(label for part in parts for label in part.labels),
        *(np.concatenate(arrays, axis=-1) for arrays in list(zip(*parts))[1:]),
    )


def _reference_power_sums(mods: np.ndarray, orders) -> np.ndarray:
    """sum(mods ** p) along the last axis, one column per order: (..., P).

    A direct sum of the powers, with no scaling.  Scaling by the peak would
    buy no range: the result is the power sum itself, which is at least its
    largest term, so it is out of range however it is computed, and it
    underflows only when every term does (_certify_batch marks that).  Each
    column is computed on its own, so a sum does not depend on which other
    orders are asked with it; each power is reduced straight into its
    column, with the bits of ``.sum(axis=-1)``.
    """
    sums = np.empty(mods.shape[:-1] + (len(orders),))
    for col, p in enumerate(orders):
        np.add.reduce(mods**p, axis=-1, out=sums[..., col])
    return sums


def _schoenberg(n, orders, w_sums, z_sums, z_low, scale) -> _Block:
    """sum |w_k|^p <= scale * C(n, p) sum |z_j|^p, one column per order."""
    constants = scale * np.array([certs.schoenberg_constant(n, p) for p in orders])
    return _Block([("schoenberg", p) for p in orders], w_sums, constants * z_sums, z_low)


def _pereira(n, orders, w_sums, z_sums, z_low) -> _Block:
    """sum |w_k|^p <= ((n-1)/n) sum |z_j|^p, one column per order."""
    return _Block([("pereira", p) for p in orders], w_sums, (n - 1) / n * z_sums, z_low)


def _weyl(orders, lam_sums, sigma_sums) -> _Block:
    """sum |lambda_i|^p <= sum sigma_i^p, one column per order."""
    labels = [("weyl", p) for p in orders]
    return _Block(labels, lam_sums, sigma_sums, np.zeros_like(sigma_sums, dtype=bool))


def _quartic(n, z, w_mod, pow2, pow4, low, abs_tol) -> _Block:
    """The dBS bound, the dominance of KT by dBS and the KT bound, in name
    order, from the power sums ``pow2`` and ``pow4`` of |z|; ``low`` marks
    the rows where either underflowed.  A finite side at or below
    ``abs_tol`` times the finite size of its terms is a shadow (the right
    sides cancel for n < 4) and becomes an exact zero; an overflowed side
    stays as it is."""
    lhs = (w_mod**4).sum(axis=-1)
    sum_sq = np.abs((z**2).sum(axis=-1)) ** 2
    rhs_dbs = (n - 4) / n * pow4 + 2.0 / n**2 * pow2**2
    rhs_kt = (n - 4) / n * pow4 + (pow2**2 + sum_sq) / n**2
    sides = np.stack((lhs, rhs_kt, lhs, rhs_dbs, rhs_dbs, rhs_kt), axis=-1)
    terms = (abs(n - 4) / n * pow4 + 2.0 / n**2 * pow2**2)[..., None]
    sides[(np.abs(sides) <= abs_tol * terms) & np.isfinite(terms)] = 0.0
    return _Block(sorted(_QUARTIC), sides[..., :3], sides[..., 3:], np.stack((low,) * 3, axis=-1))


def _endpoint(n, sigma, z_mod, pow1, pow2, low1, low2) -> _Block:
    """S1, S2 (an equality) and S-infinity bounds on A = Q diag(z) Q, from
    the power sums ``pow1`` and ``pow2`` of |z|, which ``low1`` and
    ``low2`` mark where they underflowed."""
    return _Block(
        list(_ENDPOINT),
        np.stack((sigma.sum(axis=-1), (sigma**2).sum(axis=-1), sigma[..., 0]), axis=-1),
        np.stack(
            (np.sqrt((n - 2) / n) * pow1, (n - 2) / n * pow2, z_mod.max(axis=-1)),
            axis=-1,
        ),
        np.stack((low1, low2, np.zeros_like(low1)), axis=-1),
    )


def _esf(n, sigma, z_mod) -> _Block:
    """e_k(sigma_1..sigma_{n-1}) <= ((n-k)/n) e_k(|z|) for k = 1 .. n-1,
    from the n-1 singular values ``sigma``.  An e_k(|z|) below the smallest
    normal float is an underflow when at least k of the |z| are nonzero.
    """
    lhs = _reference_esf_table(sigma)[..., 1:]
    rhs = _reference_esf_table(z_mod)[..., 1:n]
    k = np.arange(1, n)
    low = (rhs < _TINY) & (k <= np.count_nonzero(z_mod, axis=-1)[..., None])
    return _Block([(f"esf_k{j}", None) for j in k], lhs, (n - k) / n * rhs, low)


def _sv_product(sig_d, sig_abs) -> _Block:
    """Prefix products of sigma(X* D X) against sigma(X* |D| X), nonincreasing
    singular values whose shadows the caller has snapped to exact zeros.  A
    right prefix below the smallest normal float is an underflow unless one
    of its factors is an exact zero."""
    rhs = np.cumprod(sig_abs, axis=-1)
    labels = [(f"sv_product_k{k}", None) for k in range(1, sig_d.shape[-1] + 1)]
    return _Block(labels, np.cumprod(sig_d, axis=-1), rhs, (rhs < _TINY) & (sig_abs > 0))


def _reference_judged(block: _Block, tols) -> certs._Columns:
    """The one verdict rule on every column of ``block`` at once,
    _EQUALITIES both ways, and the ratios, NaN (missing) where the right
    side is not positive."""
    labels, lhs, rhs, underflow = block
    tol = tols[1] * np.maximum(np.abs(lhs), np.abs(rhs))
    holds = lhs <= rhs + tol
    both = [i for i, (name, _) in enumerate(labels) if name in _EQUALITIES]
    if both:
        holds[..., both] = np.abs(lhs[..., both] - rhs[..., both]) <= tol[..., both]
    ratio = np.divide(lhs, rhs, out=np.full(lhs.shape, np.nan), where=rhs > 0)
    return certs._Columns(tuple(labels), lhs, rhs, ratio, holds, underflow)


# the orders of the |z| power sums that the endpoint and quartic families read
_FIXED_ORDERS = (1.0, 2.0, 4.0)


def reference_certify_batch(z: np.ndarray, orders, scale: float, tols) -> certs._Columns:
    """Every certificate of check_all for each row of the (B, n) zeros
    ``z``, at the sorted ``orders``, which may be empty, in the order the
    families are built: by family name, and within a family by order or by
    k.  For n <= 9 that is check_all's (name, p) order; from n = 10 the
    labels esf_k10 and sv_product_k10 follow k = 9 here but sort before
    k = 2 there.  ``scale`` multiplies every Schoenberg constant:
    run_audit(sabotage=True) passes 0.5, the one fault-injection hook.

    The compressions of z and of |z| are built once, as one stack: one
    batched eigendecomposition of its z half and one batched SVD of both.
    The shadows in both spectra become exact zeros, and every family reads
    those snapped spectra.  The power sums of |z| are taken at the orders,
    and at 1, 2 and 4 for the endpoint and quartic families; each is
    reduced on its own, so an order in both has the same bits in both.  A
    column is marked as underflowed where a power sum of |z| that it reads
    (at its order; at 2 and 4 for the quartic family; at 1 for S1 and 2 for
    S2), its e_k(|z|) or its singular value prefix product underflows.
    Every column is judged in one pass under ``tols``.  A row whose
    compression overflows, in either half, is zeroed before LAPACK and its
    left sides made infinite: an OverflowError of that row alone (_error).
    A LAPACK failure raises ConvergenceError for the whole stack.
    """
    n = z.shape[-1]
    with _arithmetic():
        z_mod = np.abs(z)
        d = densela._compression(np.stack((z, z_mod)))
        over = ~np.isfinite(d).all(axis=(0, 2, 3))
        d[:, over] = 0.0
        w_mod = _descending_moduli(densela._eigvals(d[0]))
        sv = densela._svdvals(d)
        shadow = tols[0] * sv[1, :, :1]
        w_mod[w_mod <= shadow] = 0.0
        sv[sv <= shadow] = 0.0
        sigma, sigma_abs = sv
        z_sums = _reference_power_sums(z_mod, orders)
        fixed = _reference_power_sums(z_mod, _FIXED_ORDERS)
        w_sums, sigma_sums = _reference_power_sums(np.stack((w_mod, sigma)), orders)
        # a power sum of |z| below the smallest normal float, in a row that
        # is not all zero
        nonzero = (z_mod > 0).any(axis=-1, keepdims=True)
        z_low = (z_sums < _TINY) & nonzero
        pow1, pow2, pow4 = fixed.T
        low1, low2, low4 = ((fixed < _TINY) & nonzero).T
        # Q diag(z) Q has rank n-1, so its sigma_n, and that of Q diag(|z|) Q,
        # is an exact zero
        sv_full = np.concatenate((sv, np.zeros(sv.shape[:-1] + (1,))), axis=-1)
        blocks = [
            _endpoint(n, sigma, z_mod, pow1, pow2, low1, low2),
            _esf(n, sigma, z_mod),
            _pereira(n, orders, w_sums, z_sums, z_low),
            _quartic(n, z, w_mod, pow2, pow4, low2 | low4, tols[0]),
            _schoenberg(n, orders, w_sums, z_sums, z_low, scale),
            _sv_product(*sv_full),
            _weyl(orders, w_sums, sigma_sums),
        ]
        block = _concat(blocks)
        block.lhs[over] = np.inf
        return _reference_judged(block, tols)
