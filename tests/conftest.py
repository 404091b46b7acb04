import ctypes

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
