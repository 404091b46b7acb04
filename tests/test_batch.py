"""The columnar certificate evaluator against itself and a scalar oracle.

Stacks mix adversarial rows: n = 2, all-zero rows, double roots, nearly
collinear sets and power-of-two scalings.  Each row of a stack must equal the
batch of one bit for bit, the batch of one must agree with a scalar oracle
built from densela.lp_norm and symfun.esf that applies the verdict rule on
its own, the audit report must not depend on the slice size, and each
single-family function must return exactly check_all's rows for its family
(weyl_check on the public differentiator, to rounding), at every order of
the default grid, and raise exactly where the batch marks one of its
columns.  A power sum must not depend on which other orders are asked with
it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schoenberg import densela, harness, symfun
from schoenberg.certs import (
    ABS_TOL,
    REL_TOL,
    UnderflowError,
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
from schoenberg.polyzero import ZeroConfig, center_rows

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
    return center_rows(z) * 2.0**exponent


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
        for field in ("lhs", "rhs", "ratio", "holds", "finite", "underflow"):
            np.testing.assert_array_equal(getattr(one, field)[0], getattr(batch, field)[i])


QUARTIC = [("quartic_dbs", None), ("quartic_kt", None), ("quartic_dominance", None)]
ENDPOINT = [("endpoint_s1", None), ("endpoint_s2", None), ("endpoint_sinf", None)]


def family_calls(cfg: ZeroConfig, orders):
    """Each single-family function at each order, with the batch labels of
    the columns it returns, in its order."""
    n = cfg.n
    calls = [
        (lambda: quartic_bounds(cfg), QUARTIC),
        (lambda: endpoint_checks(cfg), ENDPOINT),
        (lambda: esf_bounds(cfg), [(f"esf_k{k}", None) for k in range(1, n)]),
    ]
    for p in orders:
        calls += [
            (lambda p=p: [schoenberg_order_p(cfg, p)], [("schoenberg", p)]),
            (lambda p=p: [pereira_bound(cfg, p)], [("pereira", p)]),
            (lambda p=p: [weyl_check(densela.differentiator(cfg), p)], [("weyl", p)]),
        ]
    return calls


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(stacks(max_exponent=700))
def test_single_family_errors_are_the_batch_marks_of_its_columns(case):
    """Each single-family function raises OverflowError where the batch
    has a non-finite side in one of its columns, else UnderflowError where
    the batch marks one of its columns as underflowed, and otherwise
    returns its columns of the batch row bit for bit (Weyl's to rounding,
    by assert_weyl_row)."""
    z, orders = case
    batch = _certify_batch(z, orders, 1.0, TOLS)
    index = {label: col for col, label in enumerate(batch.labels)}
    for i, row in enumerate(z):
        cfg = ZeroConfig(tuple(row), centered=True)
        for call, labels in family_calls(cfg, orders):
            cols = [index[label] for label in labels]
            sides = np.concatenate((batch.lhs[i, cols], batch.rhs[i, cols]))
            if not np.isfinite(sides).all():
                with pytest.raises(OverflowError):
                    call()
                continue
            if batch.underflow[i, cols].any():
                with pytest.raises(UnderflowError):
                    call()
                continue
            certs = call()
            assert [(c.name, c.p) for c in certs] == labels
            for cert, col in zip(certs, cols):
                if cert.name == "weyl":
                    sides = batch.lhs[i, col], batch.rhs[i, col], batch.holds[i, col]
                    assert_weyl_row(cert, *sides, cfg)
                    continue
                ratio = batch.ratio[i, col]
                assert cert.lhs == batch.lhs[i, col], (cert, col)
                assert cert.rhs == batch.rhs[i, col], (cert, col)
                assert cert.holds == batch.holds[i, col], (cert, col)
                assert cert.ratio == (None if np.isnan(ratio) else ratio), (cert, col)


def assert_weyl_row(cert, lhs, rhs, holds, cfg: ZeroConfig) -> None:
    """weyl_check(differentiator(cfg), p) against the batch's Weyl row at p:
    the same verdict, and sides equal to 1e-13 of the larger side or of
    sigma_1(Q diag(|z|) Q)^p, the scale of the shadow threshold.
    The check reads the raw spectra of the n x n matrix, with its rounded
    structural zero; the batch reads the snapped spectra of the
    compression, so the two agree to rounding, not bit for bit."""
    abs_cfg = ZeroConfig(tuple(np.abs(cfg.as_array()).astype(complex)))
    with np.errstate(over="ignore"):
        scale = densela.singular_values(densela.differentiator(abs_cfg))[0] ** cert.p
    for got, want in ((cert.lhs, lhs), (cert.rhs, rhs)):
        assert abs(got - want) <= 1e-13 * max(abs(got), abs(want), scale), (cert, lhs, rhs)
    assert cert.holds == holds, (cert, lhs, rhs)


def scalar_oracle(z: np.ndarray, orders) -> dict:
    """(lhs, rhs, magnitude) per (name, p), one certificate at a time.

    The spectra are the n-1 eigenvalues and singular values of the
    compressions of diag(z) and diag(|z|) to the mean-zero subspace; the
    sigma_n of Q diag(z) Q and of Q diag(|z|) Q, which only the k = n
    singular value products read, is an exact zero.  The shadows of exact
    zeros are snapped here on their own: a critical modulus or a singular
    value at or below ABS_TOL * sigma_1(Q diag(|z|) Q) is 0, and a quartic
    side at or below ABS_TOL times |n-4|/n sum |z|^4 + (2/n^2)
    (sum |z|^2)^2 is 0.  The magnitude is the size of the terms a side is
    summed from, which bounds the rounding of the quartic right sides (they
    cancel for n < 4).
    """
    n = z.size
    a = densela._compression(z)
    lam = np.abs(densela.eigenvalues(a))
    sigma = densela.singular_values(a)
    sigma_abs = densela.singular_values(densela._compression(np.abs(z).astype(complex)))
    z_mod = np.abs(z)

    def snapped(v):
        return np.where(v <= ABS_TOL * sigma_abs[0], 0.0, v)

    def power(v, p):
        return densela.lp_norm(v, p) ** p

    w, sig, sig_abs = snapped(lam), snapped(sigma), snapped(sigma_abs)
    rows = {
        ("endpoint_s1", None): (sig.sum(), np.sqrt((n - 2) / n) * z_mod.sum(), 0.0),
        ("endpoint_s2", None): ((sig**2).sum(), (n - 2) / n * power(z, 2), 0.0),
        ("endpoint_sinf", None): (sig[0], z_mod.max(), 0.0),
    }
    for k in range(1, n):
        rows[(f"esf_k{k}", None)] = (
            symfun.esf(sig, k),
            (n - k) / n * symfun.esf(z_mod, k),
            0.0,
        )
    pow4, pow2 = power(z, 4), power(z, 2)
    sum_sq = abs((z**2).sum()) ** 2
    terms = abs(n - 4) / n * pow4 + 2.0 / n**2 * pow2**2

    def quartic(side):
        return 0.0 if abs(side) <= ABS_TOL * terms else side

    lhs4 = quartic(float((w**4).sum()))
    rhs_dbs = quartic((n - 4) / n * pow4 + 2.0 / n**2 * pow2**2)
    rhs_kt = quartic((n - 4) / n * pow4 + (pow2**2 + sum_sq) / n**2)
    mag = pow4 + pow2**2
    rows[("quartic_dbs", None)] = (lhs4, rhs_dbs, mag)
    rows[("quartic_kt", None)] = (lhs4, rhs_kt, mag)
    rows[("quartic_dominance", None)] = (rhs_kt, rhs_dbs, mag)
    for p in orders:
        rows[("schoenberg", p)] = (power(w, p), schoenberg_constant(n, p) * power(z, p), 0.0)
        rows[("pereira", p)] = (power(w, p), (n - 1) / n * power(z, p), 0.0)
        rows[("weyl", p)] = (power(w, p), power(sig, p), 0.0)
    sig, sig_abs = np.append(sig, 0.0), np.append(sig_abs, 0.0)
    for k in range(1, n + 1):
        rows[(f"sv_product_k{k}", None)] = (
            float(np.prod(sig[:k])),
            float(np.prod(sig_abs[:k])),
            0.0,
        )
    return rows


def in_name_order(labels) -> list:
    """``labels`` sorted into check_all's (name, p) order."""
    return sorted(labels, key=lambda lab: (lab[0], -1.0 if lab[1] is None else lab[1]))


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
        oracle = scalar_oracle(row, orders)
        # the evaluator's columns come in the order it builds them, which
        # is not (name, p) order from n = 10 on; check_all sorts them into it
        assert in_name_order(batch.labels) == in_name_order(oracle)
        cfg = ZeroConfig(tuple(row), centered=True)
        assert [(c.name, c.p) for c in check_all(cfg, orders)] == in_name_order(oracle)
        for col, (name, p) in enumerate(batch.labels):
            lhs, rhs, mag = oracle[(name, p)]
            got_lhs, got_rhs = batch.lhs[0, col], batch.rhs[0, col]
            assert close(got_lhs, lhs, mag), (name, p, got_lhs, lhs)
            assert close(got_rhs, rhs, mag), (name, p, got_rhs, rhs)
            tol = REL_TOL * max(abs(lhs), abs(rhs))
            gap = abs(lhs - rhs) if name == "endpoint_s2" else lhs - rhs
            if abs(gap - tol) < 1e-13 * max(abs(lhs), abs(rhs), mag):
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
    returns exactly the rows check_all gives for its family, and
    weyl_check(differentiator(cfg), p) the Weyl rows to rounding."""
    grid = DEFAULT_P_GRID
    for n in (2, 3, 5, 8):
        for _ in range(5):
            cfg = ZeroConfig(tuple(random_centered(rng, n)), centered=True)
            rows = {(c.name, c.p): c for c in check_all(cfg, grid)}
            singles = [*endpoint_checks(cfg), *esf_bounds(cfg), *quartic_bounds(cfg)]
            for p in grid:
                singles += [schoenberg_order_p(cfg, p), pereira_bound(cfg, p)]
            for cert in singles:
                assert cert == rows[(cert.name, cert.p)]
            for p in grid:
                want = rows[("weyl", p)]
                cert = weyl_check(densela.differentiator(cfg), p)
                assert_weyl_row(cert, want.lhs, want.rhs, want.holds, cfg)


def test_sweep_rows_equal_single_order_certificates():
    """A power sum is one number per (row, p): sweep_p over the default grid
    gives, bit for bit, the Schoenberg sides of one stacked evaluation of
    the same configurations at that order alone."""
    for n in (3, 5, 8):
        cfgs = [harness.sample_config(n, "disk", seed) for seed in range(300)]
        sweeps = [harness.sweep_p(cfg, DEFAULT_P_GRID) for cfg in cfgs]
        rows = np.array([cfg.as_array() for cfg in cfgs])
        for i, p in enumerate(DEFAULT_P_GRID):
            batch = _certify_batch(rows, [p], 1.0, TOLS)
            col = batch.labels.index(("schoenberg", p))
            sides = list(zip(batch.lhs[:, col].tolist(), batch.rhs[:, col].tolist()))
            assert [(sweep[i].p, sweep[i].lhs, sweep[i].rhs) for sweep in sweeps] == [
                (p, *pair) for pair in sides
            ]


def test_sweep_keeps_repeated_orders():
    """sweep_p returns one row per grid entry, sorted by order, a repeated
    order included."""
    cfg = harness.sample_config(5, "disk", 0)
    rows = harness.sweep_p(cfg, [2.0, 1.0, 1.0])
    assert [row.p for row in rows] == [1.0, 1.0, 2.0]
    assert rows[0] == rows[1]
    assert rows[2] == harness.sweep_p(cfg, [2.0])[0]
