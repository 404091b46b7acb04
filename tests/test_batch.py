"""The columnar certificate evaluator against itself and a scalar oracle.

Stacks mix adversarial rows: n = 2, all-zero rows, double roots, nearly
collinear sets and power-of-two scalings.  Each row of a stack must equal the
batch of one bit for bit, the batch of one must agree with a scalar oracle
built from densela.lp_norm and symfun.esf_table that applies the verdict
rule on its own, the audit report must not depend on the slice size, and
each single-family function must return exactly check_all's rows for its
family, at every order of the default grid, and raise exactly where the
batch marks one of its columns.  The Weyl rows, which no single-family
function returns, must agree to rounding with the spectra of the public
n x n differentiator taken by np.linalg.  A power sum must not depend on
which other orders are asked with it.  The one-table evaluator must give,
bit for bit, the columns of the block-per-family evaluator it replaced
(conftest.reference_certify_batch), and its cached layouts must not leak
between audits of other keys.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schoenberg import certs, densela, harness, symfun
from schoenberg.certs import (
    ABS_TOL,
    REL_TOL,
    UnderflowError,
    _certify_batch,
    check_all,
    endpoint_checks,
    esf_bounds,
    quartic_bounds,
    schoenberg_constant,
    schoenberg_order_p,
)
from schoenberg.harness import DEFAULT_P_GRID, AuditSpec, dumps_report, emit_report, run_audit
from schoenberg.polyzero import ZeroConfig, center_rows

from conftest import random_centered, reference_certify_batch
from test_acceptance import PINNED_REPORTS

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


@st.composite
def reference_cases(draw):
    """A stack of stacks(max_exponent=700), its last row replaced half the
    time by one whose compression overflows (from n = 3 on), with an order
    set that holds 2.0 or leaves it out (possibly empty), a scale of 1.0 or
    0.5 and the default or a custom tolerance pair."""
    z, _ = draw(stacks(max_exponent=700))
    if draw(st.booleans()):
        z = z.copy()
        z[-1] = 0.0
        z[-1, :2] = 0.9e308, -0.9e308  # |z| sums to inf in the compression
    others = [p for p in DEFAULT_P_GRID if p != 2.0] + [1.9, 3.7]
    orders = draw(st.sets(st.sampled_from(others), max_size=4))
    if draw(st.booleans()):
        orders.add(2.0)
    scale = draw(st.sampled_from((1.0, 0.5)))
    tols = draw(st.sampled_from((TOLS, (1e-8, 1e-3))))
    return z, sorted(orders), scale, tols


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(reference_cases())
def test_equals_the_block_evaluator_bit_for_bit(case):
    z, orders, scale, tols = case
    got = _certify_batch(z, orders, scale, tols)
    want = reference_certify_batch(z, orders, scale, tols)
    assert got.labels == want.labels
    assert [type(p) for _, p in got.labels] == [type(p) for _, p in want.labels]
    for field in ("lhs", "rhs", "ratio", "holds", "underflow", "finite"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def test_overflow_rows_reach_the_reference():
    """The overflowed row of reference_cases is one from n = 3 on: the
    compression of its |z| is not finite, so the row alone is an
    OverflowError."""
    z = np.zeros((2, 4), dtype=complex)
    z[0] = 1.0, -1.0, 1j, -1j
    z[1, :2] = 0.9e308, -0.9e308
    batch = _certify_batch(z, [2.0], 1.0, TOLS)
    assert batch.finite.tolist() == [True, False]


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
        calls.append((lambda p=p: [schoenberg_order_p(cfg, p)], [("schoenberg", p)]))
    return calls


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(stacks(max_exponent=700))
def test_single_family_errors_are_the_batch_marks_of_its_columns(case):
    """Each single-family function raises OverflowError where the batch
    has a non-finite side in one of its columns, else UnderflowError where
    the batch marks one of its columns as underflowed, and otherwise
    returns its columns of the batch row bit for bit.  The Weyl columns
    overflow where the n x n route does, and otherwise agree with it to
    rounding (assert_weyl_row)."""
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
                ratio = batch.ratio[i, col]
                assert cert.lhs == batch.lhs[i, col], (cert, col)
                assert cert.rhs == batch.rhs[i, col], (cert, col)
                assert cert.holds == batch.holds[i, col], (cert, col)
                assert cert.ratio == (None if np.isnan(ratio) else ratio), (cert, col)
        for p in orders:
            col = index[("weyl", p)]
            sides = batch.lhs[i, col], batch.rhs[i, col], batch.holds[i, col]
            if np.isfinite(sides[:2]).all():
                assert_weyl_row(*sides, cfg, p)
            else:
                with pytest.raises(OverflowError):
                    raw_weyl_sides(cfg, p)


def raw_weyl_sides(cfg: ZeroConfig, p: float) -> tuple[float, float]:
    """sum |lambda_i|^p and sum sigma_i^p over the n eigenvalues and singular
    values of the n x n matrix densela.differentiator(cfg), from np.linalg;
    OverflowError where the matrix or a side is not finite."""
    a = densela.differentiator(cfg)
    lam = -np.sort(-np.abs(np.linalg.eigvals(a)))
    sigma = np.linalg.svd(a, compute_uv=False)
    with np.errstate(over="ignore"):
        lhs, rhs = float((lam**p).sum()), float((sigma**p).sum())
    if not np.isfinite([lhs, rhs]).all():
        raise OverflowError("a Weyl side overflowed")
    return lhs, rhs


def assert_weyl_row(lhs, rhs, holds, cfg: ZeroConfig, p: float) -> None:
    """The Weyl sides at p of the raw n x n spectra against the batch's
    Weyl row: the verdict of the one rule on them, and sides equal to 1e-13
    of the larger side or of sigma_1(Q diag(|z|) Q)^p, the scale of the
    shadow threshold.  The raw spectra keep the rounded structural zero of
    the n x n matrix; the batch reads the snapped spectra of the
    compression, so the two agree to rounding, not bit for bit."""
    raw = raw_weyl_sides(cfg, p)
    abs_cfg = ZeroConfig(tuple(np.abs(cfg.as_array()).astype(complex)))
    with np.errstate(over="ignore"):
        scale = np.linalg.svd(densela.differentiator(abs_cfg), compute_uv=False)[0] ** p
    for got, want in zip(raw, (lhs, rhs)):
        assert abs(got - want) <= 1e-13 * max(abs(got), abs(want), scale), (p, raw, lhs, rhs)
    assert (raw[0] <= raw[1] + REL_TOL * max(map(abs, raw))) == holds, (p, raw, lhs, rhs)


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
    e_sig, e_z = symfun.esf_table(sig), symfun.esf_table(z_mod)
    for k in range(1, n):
        rows[(f"esf_k{k}", None)] = (e_sig[k], (n - k) / n * e_z[k], 0.0)
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
    returns exactly the rows check_all gives for its family, and the raw
    n x n spectra give the Weyl rows to rounding."""
    grid = DEFAULT_P_GRID
    for n in (2, 3, 5, 8):
        for _ in range(5):
            cfg = ZeroConfig(tuple(random_centered(rng, n)), centered=True)
            rows = {(c.name, c.p): c for c in check_all(cfg, grid)}
            singles = [*endpoint_checks(cfg), *esf_bounds(cfg), *quartic_bounds(cfg)]
            for p in grid:
                singles.append(schoenberg_order_p(cfg, p))
            for cert in singles:
                assert cert == rows[(cert.name, cert.p)]
            for p in grid:
                want = rows[("weyl", p)]
                assert_weyl_row(want.lhs, want.rhs, want.holds, cfg, p)


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


# the specs of test_acceptance.PINNED_REPORTS, in its order
PINNED_SPECS = (
    AuditSpec(samples_per_cell=334, seed=2026),
    AuditSpec(samples_per_cell=334, seed=2026, tolerances=(0.0, 1e-9)),
    AuditSpec(n_values=(3, 5, 8, 11, 16), samples_per_cell=50, seed=6001),
    AuditSpec(n_values=(10, 12), samples_per_cell=30, seed=5, tolerances=(0.0, 1e-15)),
)


def assert_pinned(spec: AuditSpec, pin) -> None:
    text = dumps_report(run_audit(spec)).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == tuple(pin[1:]), pin[0]


def test_layout_cache_keeps_every_audit_its_pinned_bytes():
    """The cached layouts are keyed by everything they hold: audits that
    alternate sabotage (another scale), a second tolerance pair and a second
    grid, at the n of each pinned audit, leave every pinned audit its bytes,
    run before them and after them, from a cold cache and a warm one."""

    def others(spec: AuditSpec) -> None:
        small = dataclasses.replace(spec, samples_per_cell=1)
        run_audit(small, sabotage=True)
        run_audit(dataclasses.replace(small, tolerances=(1e-6, 1e-3)))
        run_audit(dataclasses.replace(small, p_grid=(1.5, 2.0, 5.0)))

    certs._layout.cache_clear()
    for spec, pin in zip(PINNED_SPECS, PINNED_REPORTS):
        assert_pinned(spec, pin)
        others(spec)
    for spec, pin in reversed(list(zip(PINNED_SPECS, PINNED_REPORTS))):
        others(spec)
        assert_pinned(spec, pin)
    assert certs._layout.cache_info().hits > 0


def test_cached_layout_arrays_are_read_only():
    layout = certs._layout(5, tuple(DEFAULT_P_GRID), 1.0)
    assert certs._layout(5, tuple(DEFAULT_P_GRID), 1.0) is layout
    arrays = [value for value in layout if isinstance(value, np.ndarray)]
    arrays += [order_set.exponents for order_set in (layout.orders, layout.z_orders)]
    assert len(arrays) == 5
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]
