"""The columnar certificate evaluator against itself and a scalar oracle.

Stacks mix adversarial rows: n = 2, all-zero rows, double roots, nearly
collinear sets and power-of-two scalings.  Each row of a stack must equal the
batch of one bit for bit, the batch of one must agree with a scalar oracle
built from densela.lp_norm, symfun.esf and symfun.prefix_products_hold, the
audit report must not depend on the slice size, and each single-family
function must return exactly check_all's rows for its family, at every order
of the default grid.  A power sum must not depend on which other orders are
asked with it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schoenberg import densela, harness, symfun
from schoenberg.certs import (
    ABS_TOL,
    REL_TOL,
    _certify_batch,
    check_all,
    endpoint_checks,
    esf_bounds,
    pereira_bound,
    quartic_bounds,
    schoenberg_constant,
    schoenberg_order_p,
    weyl_check,
)
from schoenberg.harness import DEFAULT_P_GRID, AuditSpec, emit_report, run_audit
from schoenberg.polyzero import ZeroConfig

from conftest import random_centered

TOLS = (ABS_TOL, REL_TOL)
KINDS = ("random", "zero", "double", "collinear")


def adversarial_row(rng, n: int, kind: str, exponent: int) -> np.ndarray:
    if kind == "zero":
        z = np.zeros(n, dtype=complex)
    elif kind == "double":
        base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = base[rng.integers(0, max(1, n // 2), n)]  # every value repeated
    elif kind == "collinear":
        z = rng.standard_normal(n) * (1 + 1e-9j) + 1e-12j * rng.standard_normal(n)
    else:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = z - z.mean()
    return z * 2.0**exponent


@st.composite
def stacks(draw, max_exponent: int):
    n = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=rows, max_size=rows))
    exponents = draw(
        st.lists(st.integers(-max_exponent, max_exponent), min_size=rows, max_size=rows)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.array([adversarial_row(rng, n, k, e) for k, e in zip(kinds, exponents)])
    orders = sorted(draw(st.sets(st.sampled_from(DEFAULT_P_GRID), min_size=1, max_size=4)))
    return z, orders


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(stacks(max_exponent=700))
def test_rows_equal_batch_of_one(case):
    z, orders = case
    batch = _certify_batch(z, orders, 1.0, TOLS)
    for i in range(z.shape[0]):
        one = _certify_batch(z[i : i + 1], orders, 1.0, TOLS)
        assert one.labels == batch.labels
        for field in ("lhs", "rhs", "ratio", "holds", "finite"):
            np.testing.assert_array_equal(getattr(one, field)[0], getattr(batch, field)[i])


def scalar_oracle(z: np.ndarray, orders) -> dict:
    """(lhs, rhs, magnitude) per (name, p), one certificate at a time.

    The magnitude is the size of the terms a side is summed from, which
    bounds the rounding of the quartic right sides (they cancel for n < 4).
    """
    n = z.size
    a = densela.differentiator(ZeroConfig(tuple(z)))
    lam = np.abs(densela.eigenvalues(a))
    w = lam[:-1]
    sigma = densela.singular_values(a)
    sigma_abs = densela.singular_values(
        densela.differentiator(ZeroConfig(tuple(np.abs(z).astype(complex))))
    )
    z_mod = np.abs(z)

    def power(v, p):
        return densela.lp_norm(v, p) ** p

    rows = {
        ("endpoint_s1", None): (sigma.sum(), np.sqrt((n - 2) / n) * z_mod.sum(), 0.0),
        ("endpoint_s2", None): ((sigma**2).sum(), (n - 2) / n * power(z, 2), 0.0),
        ("endpoint_sinf", None): (sigma[0], z_mod.max(), 0.0),
    }
    for k in range(1, n):
        rows[(f"esf_k{k}", None)] = (
            symfun.esf(sigma[: n - 1], k),
            (n - k) / n * symfun.esf(z_mod, k),
            0.0,
        )
    pow4, pow2 = power(z, 4), power(z, 2)
    sum_sq = abs((z**2).sum()) ** 2
    lhs4 = float((w**4).sum())
    rhs_dbs = (n - 4) / n * pow4 + 2.0 / n**2 * pow2**2
    rhs_kt = (n - 4) / n * pow4 + (pow2**2 + sum_sq) / n**2
    mag = pow4 + pow2**2
    rows[("quartic_dbs", None)] = (lhs4, rhs_dbs, mag)
    rows[("quartic_kt", None)] = (lhs4, rhs_kt, mag)
    rows[("quartic_dominance", None)] = (rhs_kt, rhs_dbs, mag)
    for p in orders:
        rows[("schoenberg", p)] = (power(w, p), schoenberg_constant(n, p) * power(z, p), 0.0)
        rows[("pereira", p)] = (power(w, p), (n - 1) / n * power(z, p), 0.0)
        rows[("weyl", p)] = (power(lam, p), power(sigma, p), 0.0)
    for k in range(1, n + 1):
        rows[(f"sv_product_k{k}", None)] = (
            float(np.prod(sigma[:k])),
            float(np.prod(sigma_abs[:k])),
            0.0,
        )
    return rows, symfun.prefix_products_hold(sigma, sigma_abs)


def close(a: float, b: float, mag: float) -> bool:
    return abs(a - b) <= 1e-13 * max(abs(a), abs(b), mag)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(stacks(max_exponent=40))
def test_batch_of_one_matches_scalar_oracle(case):
    z, orders = case
    stacked = densela._differentiator(z)
    for i, row in enumerate(z):
        np.testing.assert_array_equal(
            stacked[i], densela.differentiator(ZeroConfig(tuple(row)))
        )
        batch = _certify_batch(row[None], orders, 1.0, TOLS)
        assert batch.finite[0]
        oracle, sv_holds = scalar_oracle(row, orders)
        assert sorted(oracle, key=lambda lab: (lab[0], -1.0 if lab[1] is None else lab[1])) == [
            (name, p) for name, p in batch.labels
        ]
        for col, (name, p) in enumerate(batch.labels):
            lhs, rhs, mag = oracle[(name, p)]
            got_lhs, got_rhs = batch.lhs[0, col], batch.rhs[0, col]
            assert close(got_lhs, lhs, mag), (name, p, got_lhs, lhs)
            assert close(got_rhs, rhs, mag), (name, p, got_rhs, rhs)
            if name.startswith("sv_product"):
                expected = bool(sv_holds[int(name[len("sv_product_k") :]) - 1])
            else:
                tol = max(ABS_TOL, REL_TOL * max(abs(lhs), abs(rhs)))
                gap = abs(lhs - rhs) if name == "endpoint_s2" else lhs - rhs
                if abs(gap - tol) <= 1e-13 * max(abs(lhs), abs(rhs), mag):
                    continue  # rounding of the sides decides; nothing to compare
                expected = gap <= tol
            assert bool(batch.holds[0, col]) == expected, (name, p)
            ratio = batch.ratio[0, col]
            if rhs > 0 and not np.isnan(ratio):
                # both sides' rounding, carried through the quotient
                bound = 3e-13 * max(abs(lhs), abs(rhs), mag) / rhs
                assert abs(ratio - lhs / rhs) <= bound, (name, p, ratio, lhs / rhs)


def test_audit_bytes_do_not_depend_on_slice_size(tmp_path, monkeypatch):
    """Slices of one sample, of 7 samples at n = 8 (sized by the 10-order
    grid) and of 4 samples at n = 40 (sized by n) write the bytes of the
    default slices."""
    spec = AuditSpec(n_values=(3, 5, 8, 40), samples_per_cell=3, seed=11)
    default = tmp_path / "default.json"
    report = run_audit(spec)
    emit_report(report, default)
    assert report.violations  # the 1 < p < 2 refutation shows at this seed
    assert not report.errors
    for entries in (1, 7 * 8 * len(DEFAULT_P_GRID), 4 * 40**2):
        monkeypatch.setattr(harness, "_SLICE_ENTRIES", entries)
        path = tmp_path / f"slice-{entries}.json"
        emit_report(run_audit(spec), path)
        assert path.read_bytes() == default.read_bytes()


def test_single_family_functions_equal_check_all_rows(rng):
    """One implementation per certificate: each single-family function
    returns exactly the rows check_all gives for its family."""
    grid = DEFAULT_P_GRID
    for n in (2, 3, 5, 8):
        for _ in range(5):
            cfg = ZeroConfig(tuple(random_centered(rng, n)), centered=True)
            rows = {(c.name, c.p): c for c in check_all(cfg, grid)}
            singles = [*endpoint_checks(cfg), *esf_bounds(cfg), *quartic_bounds(cfg)]
            for p in grid:
                singles += [
                    schoenberg_order_p(cfg, p),
                    pereira_bound(cfg, p),
                    weyl_check(densela.differentiator(cfg), p),
                ]
            for cert in singles:
                assert cert == rows[(cert.name, cert.p)]


def test_sweep_rows_equal_single_order_certificates():
    """A power sum is one number per (row, p): sweep_p over the default grid
    gives, bit for bit, the sides schoenberg_order_p gives one order at a
    time."""
    for n in (3, 5, 8):
        for seed in range(300):
            cfg = harness.sample_config(n, "disk", seed)
            for row in harness.sweep_p(cfg, DEFAULT_P_GRID):
                cert = schoenberg_order_p(cfg, row.p)
                assert (row.lhs, row.rhs) == (cert.lhs, cert.rhs)
