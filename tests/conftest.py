import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment


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
        coeffs = [mpmath.mpc(1)]  # highest degree first
        for root in z:
            coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        deriv = [(n - k) * c for k, c in enumerate(coeffs[:-1])]
        w = mpmath.polyroots(deriv, maxsteps=200, extraprec=200)
        p = mpmath.mpf(p)
        constant = mpmath.mpf(n - 2) / n
        if p < 2:
            constant **= p / 2
        lhs = mpmath.fsum(abs(v) ** p for v in w)
        rhs = constant * mpmath.fsum(abs(v) ** p for v in z)
        return float(lhs / rhs)


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
