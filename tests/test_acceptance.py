"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.

For 1 < p < 2 the repo encodes the claimed interpolated constants
C(n,p) = ((n-2)/n)^(p/2) and c(n,p) = ((n-2)/n)^(1/2).  They are refuted
for every n >= 4, on an interval p0(n) < p < 2 with p0(4) ~ 1.760 and
p0(5) ~ 1.442, while both endpoint orders p = 1 and p = 2 hold.  At n = 4,
(z - 1)(z + 1/3)^3 reaches the ratio 1.0009149692779185 at p = 1.9
(tests/test_sharpness.py::TestOrderFourWitness); at n = 5 the centered real
quintuple pinned in tests/test_certs.py::TestIntermediateOrderCounterexample
reaches 1.00168280036673 at p = 1.75; both are recomputed at 60 digits.
PAPER.md gives only the abstract, so it does not settle whether the paper
states this constant or another one.  The orders these criteria sample put
the refutation at n >= 5 alone: criterion 3's grid has no order in
(p0(4), 2), and criterion 9 probes n = 4 only at p >= 2, so
claimed_constant_refuted marks n >= 5 and 1 < p < 2.
Criteria 3 and 9 therefore assert the claimed constant wherever no witness
refutes it, and assert the refutation where one does: criterion 3 confirms
every intermediate-order violation of the audit at 60 digits, and
criterion 9 holds the operator-norm estimates at (5, 1.5) and (8, 1.5)
between the claimed constant and the proven ((n-1)/n)^(1/p).
"""

import dataclasses
import hashlib
import time
from collections import Counter

import numpy as np
import pytest

from schoenberg.certs import (
    ABS_TOL,
    REL_TOL,
    _certify_batch,
    check_all,
    endpoint_checks,
    esf_bounds,
    quartic_bounds,
    sv_product_check,
)
from schoenberg.densela import (
    critical_points_spectral,
    differentiator,
    lp_norm,
    schatten_norm,
)
from schoenberg.harness import (
    DEFAULT_P_GRID,
    AuditSpec,
    dumps_report,
    emit_report,
    run_audit,
    sample_config,
)
from schoenberg.polyzero import ZeroConfig, center, critical_points_direct
from schoenberg.sharpness import (
    extremal_high,
    extremal_low,
    maximize_ratio,
    opnorm_lower_bound,
    ratio,
)
from schoenberg.symfun import critical_esf_identity_error

from conftest import matched_distance, mp_schoenberg_ratio

LOW3 = ZeroConfig((0.0, 1.0, -1.0), centered=True)


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def claimed_constant_refuted(n: int, p: float) -> bool:
    """Where a witness refutes the claimed order-p constant: n >= 5, 1 < p < 2."""
    return n >= 5 and 1.0 < p < 2.0


@pytest.fixture(scope="module")
def big_audit():
    """10,020 centered samples (n in 3..8, all five distributions, 334 per
    cell) certified across the default order grid; shared by criteria 3, 5, 6."""
    spec = AuditSpec(samples_per_cell=334, seed=2026)
    return run_audit(spec)


def test_criterion_01_spectral_consistency():
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 13):
        for i in range(500):
            cfg = sample_config(n, "disk", 1000 * n + i)
            z = cfg.as_array()
            spectral = critical_points_spectral(cfg).as_array()
            direct = critical_points_direct(cfg).as_array()
            scale = max(1.0, float(np.abs(z).max()))
            worst = max(worst, matched_distance(spectral, direct) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    verdict(
        ok,
        "criterion 1 (spectral consistency)",
        f"worst matched distance {worst:.3e} (< 1e-8) over 5000 configs, "
        f"{elapsed:.1f}s (< 30s)",
    )
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_02_endpoint_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 33):
        for i in range(1000):
            cfg = sample_config(n, "gaussian", 100_000 + 1000 * n + i)
            z = cfg.as_array()
            lhs = schatten_norm(differentiator(cfg), 2) ** 2
            rhs = (n - 2) / n * lp_norm(z, 2) ** 2
            worst = max(worst, abs(lhs - rhs) / lp_norm(z, 2) ** 2)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    verdict(
        ok,
        "criterion 2 (Schatten-2 identity)",
        f"worst relative defect {worst:.3e} (<= 1e-12) over 30000 configs, "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_03_order_p_audit(big_audit):
    total = sum(
        stats.total
        for key, stats in big_audit.per_certificate.items()
        if key.startswith("schoenberg")
    )
    violations = [
        v for v in big_audit.violations if v["certificate"]["name"] == "schoenberg"
    ]
    unrefuted = Counter()
    confirmed = Counter()
    not_above = []
    disagree = []
    largest = 0.0
    for v in violations:
        n, p = v["n"], v["certificate"]["p"]
        if not claimed_constant_refuted(n, p):
            unrefuted[(n, p)] += 1
            continue
        stored = v["certificate"]["ratio"]
        exact = mp_schoenberg_ratio([complex(*pair) for pair in v["zeros"]], p)
        if exact <= 1 + REL_TOL:
            not_above.append((n, p, stored, exact))
        elif abs(exact - stored) > 1e-12 * exact:
            disagree.append((n, p, stored, exact))
        else:
            confirmed[(n, p)] += 1
            largest = max(largest, exact)
    ok = (
        total == 10_020 * len(DEFAULT_P_GRID)
        and not big_audit.errors
        and not unrefuted
        and not not_above
        and not disagree
    )
    verdict(
        ok,
        "criterion 3 (order-p audit)",
        f"{total} order-p certificates over 10020 configs x grid "
        f"{DEFAULT_P_GRID}; violations where the claimed constant stands "
        f"(n <= 4 or p outside (1, 2)): {dict(sorted(unrefuted.items())) or 0}; "
        f"confirmed at 60 digits by (n, p): {dict(sorted(confirmed.items())) or 0}, "
        f"largest ratio {largest:.15f}; unconfirmed: "
        f"{len(not_above) + len(disagree)}",
    )
    assert total == 10_020 * len(DEFAULT_P_GRID)
    assert not big_audit.errors
    # the claimed constant, wherever no witness refutes it
    assert not unrefuted, (
        f"violations where the claimed constant stands, by (n, p): "
        f"{dict(sorted(unrefuted.items()))}"
    )
    # the refutation, wherever it falls: each violation is genuine
    assert not not_above, (
        f"violations not above 1 + REL_TOL at 60 digits "
        f"(n, p, float ratio, 60-digit ratio): {not_above[:5]}"
    )
    assert not disagree, (
        f"float and 60-digit ratios differ by more than 1e-12 relative "
        f"(n, p, float ratio, 60-digit ratio): {disagree[:5]}"
    )


def test_criterion_03_sabotage_detection():
    # sample i has order 3 + i % 6; the samples of each order are certified
    # as one stack with the Schoenberg constant halved, as the slices of
    # run_audit(sabotage=True) are
    flagged = 0
    total = 10_000
    for n in range(3, 9):
        rows = np.array(
            [sample_config(n, "real", 7_000_000 + i).as_array() for i in range(n - 3, total, 6)]
        )
        batch = _certify_batch(rows, [2.0], 0.5, (ABS_TOL, REL_TOL))
        col = batch.labels.index(("schoenberg", 2.0))
        assert batch.finite.all() and not batch.underflow[:, col].any()
        flagged += int((~batch.holds[:, col]).sum())
    rate = flagged / total
    ok = rate >= 0.99
    verdict(
        ok,
        "criterion 3 (sabotage self-test)",
        f"halved constant flagged {flagged}/{total} = {100 * rate:.2f}% "
        "(>= 99%) of collinear samples at p = 2",
    )
    assert rate >= 0.99


def test_criterion_04_sharpness_reproduction():
    worst = 0.0
    for n in (4, 6, 8, 10, 12):
        for p in (2.0, 3.0, 4.0, 6.0, 10.0):
            worst = max(worst, abs(ratio(extremal_high(n), p) - 1.0))
    for n in range(3, 13):
        for p in (1.0, 1.5, 2.0):
            worst = max(worst, abs(ratio(extremal_low(n), p) - 1.0))
    ok = worst <= 1e-9
    verdict(
        ok,
        "criterion 4 (extremal families)",
        f"worst |ratio - 1| = {worst:.3e} (<= 1e-9) over both families",
    )
    assert worst <= 1e-9


def test_criterion_05_quartic_bounds(big_audit):
    stats = big_audit.per_certificate
    names = ("quartic_dbs", "quartic_kt", "quartic_dominance")
    all_hold = all(stats[name].passed == stats[name].total == 10_020 for name in names)
    dbs, kt, dom = quartic_bounds(LOW3)
    eq_dbs = abs(dbs.lhs - 2 / 9) <= 1e-10 and abs(dbs.rhs - 2 / 9) <= 1e-10
    eq_kt = abs(kt.rhs - 2 / 9) <= 1e-10
    ok = all_hold and eq_dbs and eq_kt
    verdict(
        ok,
        "criterion 5 (quartic bounds)",
        f"dBS/KT/dominance hold on all 10020 samples: {all_hold}; "
        f"equalities at (0,1,-1): lhs={dbs.lhs:.12f}, both rhs=2/9 within 1e-10",
    )
    assert all_hold
    assert eq_dbs and eq_kt


def test_criterion_06_order_one(big_audit):
    stats = big_audit.per_certificate["endpoint_s1"]
    s1, _, _ = endpoint_checks(LOW3)
    target = 2 / np.sqrt(3)
    eq = abs(s1.lhs - target) <= 1e-10 and abs(s1.rhs - target) <= 1e-10
    ok = stats.passed == stats.total == 10_020 and eq
    verdict(
        ok,
        "criterion 6 (order one)",
        f"S1 certificate held on {stats.passed}/{stats.total} samples; "
        f"equality at (0,1,-1): lhs={s1.lhs:.12f} = rhs={s1.rhs:.12f} = 2/sqrt(3)",
    )
    assert stats.passed == stats.total == 10_020
    assert eq


def test_criterion_07_esf_bounds_and_identity():
    rng = np.random.default_rng(4040)
    failures = 0
    for i in range(1000):
        n = 3 + i % 8  # n in 3..10
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n) + (0.4 - 0.2j)
        for cert in esf_bounds(ZeroConfig(tuple(z))):
            if not cert.holds:
                failures += 1
    worst_identity = 0.0
    for i in range(1000):
        n = 3 + i % 8
        worst_identity = max(
            worst_identity, critical_esf_identity_error(rng.uniform(0.0, 2.0, n))
        )
    ok = failures == 0 and worst_identity <= 1e-9
    verdict(
        ok,
        "criterion 7 (elementary symmetric bounds)",
        f"all per-k certificates held on 1000 uncentered configs "
        f"(failures={failures}); worst coefficient-identity error "
        f"{worst_identity:.3e} (<= 1e-9) on 1000 nonnegative inputs",
    )
    assert failures == 0
    assert worst_identity <= 1e-9


def test_criterion_08_sv_product_lemma():
    rng = np.random.default_rng(808)
    failures = 0
    for i in range(1000):
        n = 2 + i % 9  # n in 2..10
        x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for cert in sv_product_check(x, d):
            if not cert.holds:
                failures += 1
    ok = failures == 0
    verdict(
        ok,
        "criterion 8 (singular value product lemma)",
        f"every prefix-product certificate held over 1000 Gaussian trials "
        f"(failures={failures})",
    )
    assert failures == 0


def test_criterion_09_opnorm_tightness():
    rows = []
    for n in (4, 6, 8):
        for p in (2.0, 4.0, 10.0):
            rows.append((n, p) + opnorm_lower_bound(n, p, budget=1000, seed=0))
    for n in (3, 5, 8):
        for p in (1.0, 1.5, 2.0):
            rows.append((n, p) + opnorm_lower_bound(n, p, budget=1000, seed=0))
    worst_eq = 0.0
    drift = []
    below = []
    above = []
    excess = []
    for n, p, est, bound in rows:
        if not claimed_constant_refuted(n, p):
            rel = abs(est - bound) / bound
            worst_eq = max(worst_eq, rel)
            if rel > 1e-9:
                drift.append((n, p, f"{rel:.3e}"))
            continue
        # the seeded extremal_low family attains c(n, p) from below; Riesz-Thorin
        # between the S1 norm (n-1)/n and the S2 norm sqrt((n-1)/n) of
        # z -> Q diag(z) Q on all of l^p caps the estimate from above
        proven = ((n - 1) / n) ** (1.0 / p)
        excess.append((n, p, f"{est / bound - 1:+.2e}", f"{est:.6f} <= {proven:.6f}"))
        if est < bound * (1 - 1e-9):
            below.append((n, p, est, bound))
        if est > proven:
            above.append((n, p, est, proven))
    ok = not drift and not below and not above
    verdict(
        ok,
        "criterion 9 (operator-norm tightness)",
        f"worst |estimate - bound|/bound = {worst_eq:.3e} (<= 1e-9) where the "
        f"claimed constant stands; at 1 < p < 2 with n >= 5 the estimate "
        f"exceeds it, below the proven ((n-1)/n)^(1/p): {excess}",
    )
    assert not drift, f"estimate drifts from c(n, p) at (n, p, rel): {drift}"
    assert not below, f"estimate below c(n, p) at (n, p, est, c): {below}"
    assert not above, (
        f"estimate above the proven ((n-1)/n)^(1/p) at (n, p, est, cap): {above}"
    )


def test_criterion_10_optimizer_regression():
    results = []
    for n, p in ((4, 3.0), (3, 1.5)):
        start = time.perf_counter()
        res = maximize_ratio(n, p, budget=10_000, seed=7)
        elapsed = time.perf_counter() - start
        results.append((n, p, res.best_ratio, elapsed))
    ok = all(r >= 0.99 and t < 10.0 for _, _, r, t in results)
    verdict(
        ok,
        "criterion 10 (optimizer regression)",
        "; ".join(
            f"(n={n}, p={p}) best_ratio={r:.6f} (>= 0.99) in {t:.1f}s (< 10s)"
            for n, p, r, t in results
        ),
    )
    for _, _, r, t in results:
        assert r >= 0.99
        assert t < 10.0


def test_criterion_11_audit_determinism(tmp_path):
    spec = AuditSpec(
        n_values=(3, 4, 5),
        p_grid=(1.0, 2.0, 4.0),
        distributions=("disk", "real", "clustered"),
        samples_per_cell=10,
        seed=99,
    )
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        emit_report(run_audit(spec), path, format="json")
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    verdict(
        identical,
        "criterion 11 (determinism)",
        f"two audits of the same spec wrote byte-identical JSON: {identical} "
        f"({paths[0].stat().st_size} bytes)",
    )
    assert identical


# (length, SHA-256) of dumps_report for audit specs whose bytes are pinned
# across commits; a change that moves them restates the pin and says why.
# The last spec is the only one here with rows that violate in several
# families (weyl, quartic_dbs, quartic_kt and schoenberg), so it pins the
# order of the violations within a row
PINNED_REPORTS = [
    ("criterion 3 spec", 209_540,
     "b06caa65e9377b48fc8fb634cd2cd3a92a899bde054bf17a8cb9bcfe0ac08d8e"),
    ("no shadow threshold", 209_519,
     "6898c20501c2de34ce413cc8090b90161726cd9bc155a06798b52fc8015f3642"),
    ("n up to 16", 47_464,
     "ed9ed24cdb1979ac51a7d90d442f8245259ce50715d71c918541873511237859"),
    ("n = 10, 12 at rel_tol 1e-15", 142_613,
     "39b8e6e2f070b16ea0aaa6310675148238e3efc12fed13234c310365325dc476"),
]


def test_criterion_11_report_bytes_pinned(big_audit):
    reports = [
        big_audit,
        run_audit(dataclasses.replace(big_audit.spec, tolerances=(0.0, 1e-9))),
        run_audit(AuditSpec(n_values=(3, 5, 8, 11, 16), samples_per_cell=50, seed=6001)),
        run_audit(
            AuditSpec(n_values=(10, 12), samples_per_cell=30, seed=5, tolerances=(0.0, 1e-15))
        ),
    ]
    got = []
    for report in reports:
        text = dumps_report(report).encode()
        got.append((len(text), hashlib.sha256(text).hexdigest()))
    moved = [name for (name, *pin), now in zip(PINNED_REPORTS, got) if tuple(pin) != now]
    verdict(
        not moved,
        "criterion 11 (pinned report bytes)",
        f"{len(PINNED_REPORTS) - len(moved)}/{len(PINNED_REPORTS)} audit reports "
        f"match their pinned length and SHA-256; moved: {moved or 'none'}",
    )
    assert got == [tuple(pin) for _, *pin in PINNED_REPORTS]
