import dataclasses
import hashlib
import json
import math
import os
import re
import stat
import threading

import numpy as np
import pytest

from schoenberg import densela, harness
from schoenberg.certs import ABS_TOL, Certificate, check_all, schoenberg_order_p
from schoenberg.harness import (
    DISTRIBUTIONS,
    AuditReport,
    AuditSpec,
    _cell_generator,
    _certificate_key,
    _draw_rows,
    dumps_report,
    emit_report,
    format_float,
    re_evaluate_violation,
    run_audit,
    sample_config,
    sweep_p,
)
from schoenberg.polyzero import TOL_CENTER, ZeroConfig, center_rows, centroid
from schoenberg.sharpness import extremal_high, extremal_low

from conftest import c_output, reference_json, report_to_dict

SMALL_SPEC = AuditSpec(
    n_values=(3, 4, 5),
    p_grid=(1.0, 2.0, 4.0),
    distributions=("disk", "real"),
    samples_per_cell=6,
    seed=42,
)


class TestSampleConfig:
    def test_deterministic(self):
        a = sample_config(5, "disk", 123)
        b = sample_config(5, "disk", 123)
        assert a.zeros == b.zeros

    def test_seed_changes_sample(self):
        assert sample_config(5, "disk", 1).zeros != sample_config(5, "disk", 2).zeros

    def test_real_axis(self):
        cfg = sample_config(7, "real", 3)
        assert all(z.imag == 0 for z in cfg.zeros)

    def test_every_distribution_centered(self):
        for dist in DISTRIBUTIONS:
            for seed in (0, 1, 2):
                cfg = sample_config(6, dist, seed)
                scale = max(1.0, max(abs(z) for z in cfg.zeros))
                assert abs(centroid(cfg)) <= 1e-12 * scale
                assert cfg.centered

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            sample_config(4, "cauchy", 0)

    @pytest.mark.parametrize("n, seed", [(3.0, 0), (3, 1.5), (True, 0), (3, "1"), (3, False)])
    def test_rejects_arguments_that_are_not_integers(self, n, seed):
        # seed 1.5 once drew the configuration of seed 1
        with pytest.raises(ValueError, match="must be an integer"):
            sample_config(n, "disk", seed)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            sample_config(3, "disk", -1)

    def test_takes_numpy_integers(self):
        got = sample_config(np.int64(4), "disk", np.uint32(7))
        assert got.zeros == sample_config(4, "disk", 7).zeros


def cell(seed: int, n: int, dist: str, rows: int) -> np.ndarray:
    """The first ``rows`` centered configurations of audit cell (n, dist)."""
    return center_rows(_draw_rows(_cell_generator(seed, n, dist), n, dist, rows))


class TestCellSampler:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_sample_config_is_row_zero(self, dist):
        for n in (2, 3, 8, 17):
            for seed in (0, 1, 2**40 + 3):
                got = sample_config(n, dist, seed).as_array()
                np.testing.assert_array_equal(got, cell(seed, n, dist, 5)[0])

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_slices_equal_the_whole_cell(self, dist):
        n, rows = 7, 21
        whole = cell(4, n, dist, rows)
        for step in (1, 3, 7):
            rng = _cell_generator(4, n, dist)
            parts = [center_rows(_draw_rows(rng, n, dist, step)) for _ in range(rows // step)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_sub_audit_draws_the_rows_of_its_cell(self):
        full_spec = AuditSpec(
            n_values=(4, 6, 7),
            p_grid=(1.5, 1.75, 2.0),
            distributions=("disk", "real", "clustered"),
            samples_per_cell=30,
            seed=8,
        )
        full = run_audit(full_spec)
        seen = 0
        for n in full_spec.n_values:
            for dist in full_spec.distributions:
                spec = dataclasses.replace(full_spec, n_values=(n,), distributions=(dist,))
                sub = run_audit(spec)
                ours = [v for v in full.violations if (v["n"], v["distribution"]) == (n, dist)]
                assert sub.violations == ours
                assert sub.errors == [
                    e for e in full.errors if (e["n"], e["distribution"]) == (n, dist)
                ]
                seen += len(ours)
        assert seen == len(full.violations) > 0

    def test_rows_centered_real_and_blobs(self):
        for n in (2, 5, 16, 40):
            for dist in DISTRIBUTIONS:
                z = cell(9, n, dist, 50)
                bound = TOL_CENTER * np.abs(z).max(axis=1)
                assert np.all(np.abs(z.sum(axis=1)) <= bound)
            assert np.all(cell(9, n, "real", 50).imag == 0)
            u = _cell_generator(9, n, "clustered").standard_normal((50, 3, n))
            blobs = _draw_rows(_cell_generator(9, n, "clustered"), n, "clustered", 50)
            noise = (u[:, 0] + 1j * u[:, 1]) / np.sqrt(2.0)
            sign = np.where(u[:, 2] < 0, -1.0, 1.0)
            np.testing.assert_allclose(blobs - 0.1 * noise, sign, rtol=0, atol=1e-15)

    def test_one_generator_per_cell(self, monkeypatch):
        calls = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        spec = AuditSpec(n_values=(3, 5), p_grid=(2.0,), samples_per_cell=40, seed=1)
        run_audit(spec)
        assert 0 < len(calls) <= len(spec.n_values) * len(spec.distributions)


class TestAuditSpec:
    def test_defaults_valid(self):
        spec = AuditSpec()
        assert spec.samples_per_cell == 200
        assert len(spec.p_grid) == 10

    def test_round_trip(self):
        spec = AuditSpec(n_values=(3,), samples_per_cell=2)
        assert AuditSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_follows_the_field_declarations(self):
        data = SMALL_SPEC.to_dict()
        assert list(data) == [spec_field.name for spec_field in dataclasses.fields(AuditSpec)]
        assert data == {
            "n_values": [3, 4, 5],
            "p_grid": [1.0, 2.0, 4.0],
            "distributions": ["disk", "real"],
            "samples_per_cell": 6,
            "seed": 42,
            "tolerances": [ABS_TOL, 1e-9],
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            AuditSpec(n_values=())
        with pytest.raises(ValueError):
            AuditSpec(p_grid=(0.5,))
        with pytest.raises(ValueError):
            AuditSpec(distributions=("bogus",))
        with pytest.raises(ValueError):
            AuditSpec(samples_per_cell=0)

    def test_nan_order_rejected(self):
        # min() skips NaN, so this once passed and aborted the first sample
        with pytest.raises(ValueError):
            AuditSpec(p_grid=(float("nan"), 2.0))

    def test_infinite_order_rejected(self):
        # certified 0 <= 0 and wrote a bare inf that JSON readers reject
        with pytest.raises(ValueError):
            AuditSpec(p_grid=(float("inf"),))

    def test_repeated_order_rejected(self):
        # a repeated order would count configs, not configs x grid, per key
        with pytest.raises(ValueError):
            AuditSpec(p_grid=(2.0, 2.0))

    def test_repeated_order_n_rejected(self):
        # n_values=(3, 3) certified every row of n = 3 twice
        with pytest.raises(ValueError, match="n_values must be nonempty and without repeats"):
            AuditSpec(n_values=(3, 3))

    def test_repeated_distribution_rejected(self):
        with pytest.raises(ValueError, match="distributions must be nonempty and without repeats"):
            AuditSpec(distributions=("disk", "real", "disk"))

    def test_empty_distributions_rejected(self):
        # certified nothing and reported "0/0 certificates hold"
        with pytest.raises(ValueError, match="distributions must be nonempty"):
            AuditSpec(distributions=())

    def test_text_distributions_rejected(self):
        # was split into letters and rejected as "unknown distribution 'd'"
        with pytest.raises(ValueError, match="distributions must be a sequence"):
            AuditSpec(distributions="disk")

    def test_nan_absolute_tolerance_rejected(self):
        with pytest.raises(ValueError):
            AuditSpec(tolerances=(float("nan"), 1e-9))

    def test_nan_relative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            AuditSpec(tolerances=(1e-12, float("nan")))

    def test_infinite_tolerance_rejected(self):
        # would make every inequality hold
        with pytest.raises(ValueError):
            AuditSpec(tolerances=(1e-12, float("inf")))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            AuditSpec(tolerances=(-1e-12, 1e-9))

    def test_text_p_grid_rejected(self):
        # was (2.0,): a JSON spec with "p_grid": "2" audited p = 2
        with pytest.raises(ValueError, match="p_grid"):
            AuditSpec(p_grid="2")

    def test_text_order_rejected(self):
        with pytest.raises(ValueError, match="real number"):
            AuditSpec(p_grid=("1.5", 2.0))

    def test_bool_order_rejected(self):
        # True was taken as p = 1
        with pytest.raises(ValueError, match="real number"):
            AuditSpec(p_grid=(1.5, True))

    def test_text_tolerances_rejected(self):
        with pytest.raises(ValueError, match="real number"):
            AuditSpec(tolerances=("1e-12", "1e-9"))

    def test_numpy_orders_stored_as_plain_floats(self):
        spec = AuditSpec(p_grid=np.array([1.5, 2.0]), tolerances=(np.float32(0.0), 1e-9))
        assert spec == AuditSpec(p_grid=(1.5, 2.0), tolerances=(0.0, 1e-9))
        for value in (*spec.p_grid, *spec.tolerances):
            assert type(value) is float

    def test_fractional_n_rejected(self):
        # was truncated: n_values=(3.7,) audited n = 3
        with pytest.raises(ValueError, match="every n"):
            AuditSpec(n_values=(3.7,))

    def test_fractional_seed_rejected(self):
        # audited seed 1 while the report recorded "seed": 1.5
        with pytest.raises(ValueError, match="seed"):
            AuditSpec(seed=1.5)

    def test_float_samples_per_cell_rejected(self):
        # was accepted, and run_audit then raised TypeError
        with pytest.raises(ValueError, match="samples_per_cell"):
            AuditSpec(samples_per_cell=2.0)

    def test_negative_seed_rejected(self):
        # was accepted, and run_audit then raised from SeedSequence
        with pytest.raises(ValueError, match="seed"):
            AuditSpec(seed=-1)

    def test_numpy_integers_stored_as_plain_ints(self):
        spec = AuditSpec(
            n_values=np.array([3, 4]), samples_per_cell=np.int64(2), seed=np.uint32(7)
        )
        assert spec == AuditSpec(n_values=(3, 4), samples_per_cell=2, seed=7)
        for value in (*spec.n_values, spec.samples_per_cell, spec.seed):
            assert type(value) is int

    def test_unknown_key_rejected(self):
        # a typo once ran the default 200 samples per cell
        with pytest.raises(ValueError, match="sample_per_cell"):
            AuditSpec.from_dict({"sample_per_cell": 5})


class TestRunAudit:
    def test_small_audit_clean(self):
        report = run_audit(SMALL_SPEC)
        assert report.total > 0
        assert report.passed == report.total
        assert report.violations == []
        assert report.errors == []
        # families present at every n saw every sample; per-k rows only the
        # samples with n large enough (k <= n-1 for esf, k <= n for products)
        per_cell = 2 * 6
        assert report.per_certificate["schoenberg[p=2]"].total == 3 * per_cell
        assert report.per_certificate["esf_k3"].total == 2 * per_cell
        assert report.per_certificate["esf_k4"].total == 1 * per_cell
        assert report.per_certificate["sv_product_k5"].total == 1 * per_cell

    def test_sabotage_floods_violations(self):
        report = run_audit(SMALL_SPEC, sabotage=True)
        assert report.violations
        sab = [v for v in report.violations if v["certificate"]["name"] == "schoenberg"]
        assert sab, "sabotage must hit the schoenberg certificates"

    def test_violations_recheck(self):
        report = run_audit(SMALL_SPEC, sabotage=True)
        entry = next(
            v for v in report.violations if v["certificate"]["name"] == "schoenberg"
        )
        # honest re-evaluation holds again; the stored certificate failed
        cert = re_evaluate_violation(entry, SMALL_SPEC)
        assert cert.holds
        assert not entry["certificate"]["holds"]

    def test_recheck_rejects_an_n_that_is_not_the_number_of_zeros(self):
        # an entry of n = 3 whose n reads 7 was re-evaluated at n = 3
        report = run_audit(SMALL_SPEC, sabotage=True)
        entry = next(v for v in report.violations if v["n"] == 3)
        forged = {**entry, "certificate": {**entry["certificate"], "n": 7}}
        with pytest.raises(ValueError, match="n = 7, but the entry stores 3 zeros"):
            re_evaluate_violation(forged, SMALL_SPEC)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": 4}, "n = 4, but stores 3 zeros"),
            ({"n": 12, "distribution": "nonsense"}, "n = 12, but stores 3 zeros"),
            ({"distribution": "nonsense"}, "distribution 'nonsense', not one of"),
            ({"distribution": "gaussian"}, "distribution 'gaussian', not one of"),
        ],
        ids=["n", "n-and-distribution", "unknown-distribution", "distribution-not-in-spec"],
    )
    def test_recheck_rejects_an_entry_that_is_not_its_own(self, change, message):
        # the entry's own n and distribution were never read: an n = 3 entry
        # edited to n = 12 and a distribution no audit draws was re-evaluated
        report = run_audit(SMALL_SPEC, sabotage=True)
        entry = next(v for v in report.violations if v["n"] == 3)
        with pytest.raises(ValueError, match=message):
            re_evaluate_violation({**entry, **change}, SMALL_SPEC)

    def test_recheck_rejects_an_n_the_spec_does_not_sample(self):
        # the zeros and both n agree, but the spec never samples that n
        report = run_audit(SMALL_SPEC, sabotage=True)
        entry = next(v for v in report.violations if v["n"] == 3)
        spec = dataclasses.replace(SMALL_SPEC, n_values=(4, 5))
        with pytest.raises(ValueError, match=r"n = 3, not one of \(4, 5\)"):
            re_evaluate_violation(entry, spec)

    def test_deterministic_reports(self, tmp_path):
        r1 = run_audit(SMALL_SPEC)
        r2 = run_audit(SMALL_SPEC)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(r1, p1)
        emit_report(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_svd_failure_recorded_not_raised(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        spec = AuditSpec(
            n_values=(4,), p_grid=(2.0,), distributions=("disk",), samples_per_cell=1
        )
        report = run_audit(spec)
        assert len(report.errors) == 1
        assert report.errors[0]["error"].startswith("ConvergenceError")
        assert report.total == 0

    # the audit is one 30-row slice: 0 and 29 are its ends, 13 lies inside
    # its first half and 14 ends that half
    @pytest.mark.parametrize("sample", [0, 13, 14, 29])
    def test_one_svd_failure_leaves_the_other_samples(self, monkeypatch, sample):
        spec = AuditSpec(
            n_values=(5,),
            p_grid=(1.5, 1.75, 2.0),
            distributions=("disk", "real", "clustered"),
            samples_per_cell=10,
            seed=3,
        )
        clean = run_audit(spec)
        dist, index = spec.distributions[sample // 10], sample % 10
        chosen = ZeroConfig(tuple(cell(spec.seed, 5, dist, index + 1)[index]), centered=True)
        target = densela._compression(chosen.as_array())
        lost = {
            _certificate_key(c.name, c.p): c.holds
            for c in check_all(chosen, spec.p_grid)
        }
        real_svd = np.linalg.svd
        calls = []

        def svd(a, *args, **kwargs):
            calls.append(len(a))
            if any(np.array_equal(m, target) for m in np.reshape(a, (-1,) + target.shape)):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        report = run_audit(spec)
        # the slice is bisected down to the failing sample, not retried row
        # by row
        assert len(calls) <= 2 * math.ceil(math.log2(30)) + 1
        pairs = [[z.real, z.imag] for z in chosen.as_array()]
        assert len(report.errors) == 1
        assert report.errors[0]["zeros"] == pairs
        assert report.errors[0]["error"].startswith("ConvergenceError")
        # the other 29 are certified exactly as without the failure
        assert report.violations == [v for v in clean.violations if v["zeros"] != pairs]
        assert report.per_certificate.keys() == clean.per_certificate.keys()
        for key, stats in report.per_certificate.items():
            before = clean.per_certificate[key]
            assert stats.total == before.total - 1
            assert stats.passed == before.passed - lost[key]
            if before.argmax_zeros != pairs:
                assert (stats.max_ratio, stats.argmax_zeros) == (
                    before.max_ratio,
                    before.argmax_zeros,
                )

    def test_errors_carry_the_distribution_of_their_sample(self, monkeypatch):
        # each slice of SMALL_SPEC holds the disk rows, then the real rows,
        # whose power sums at order 4 underflow
        draw_rows = harness._draw_rows

        def tiny_real(rng, n, dist, rows):
            z = draw_rows(rng, n, dist, rows)
            return z * 2.0**-400 if dist == "real" else z

        monkeypatch.setattr(harness, "_draw_rows", tiny_real)
        report = run_audit(SMALL_SPEC)
        assert len(report.errors) == 3 * 6
        assert {e["distribution"] for e in report.errors} == {"real"}

    def test_an_n_whose_every_sample_is_an_error(self, monkeypatch):
        # every power sum of order 4 of the n = 3 rows underflows, so no
        # sample of n = 3 is certified and that n adds no key and no count
        without = run_audit(dataclasses.replace(SMALL_SPEC, n_values=(4, 5)))
        draw_rows = harness._draw_rows

        def tiny_three(rng, n, dist, rows):
            z = draw_rows(rng, n, dist, rows)
            return z * 2.0**-400 if n == 3 else z

        monkeypatch.setattr(harness, "_draw_rows", tiny_three)
        report = run_audit(SMALL_SPEC)
        assert len(report.errors) == 2 * 6
        assert {e["n"] for e in report.errors} == {3}
        assert report.per_certificate == without.per_certificate
        assert min(stats.total for stats in report.per_certificate.values()) > 0

    @pytest.mark.parametrize("exponent", [150, 400, 700])
    def test_overflow_recorded_per_sample(self, monkeypatch, exponent):
        draw_rows = harness._draw_rows

        def huge(rng, n, dist, rows):
            return draw_rows(rng, n, dist, rows) * 2.0**exponent

        monkeypatch.setattr(harness, "_draw_rows", huge)
        spec = AuditSpec(
            n_values=(6,), distributions=("disk",), samples_per_cell=1, seed=5
        )
        report = run_audit(spec)
        assert len(report.errors) == 1
        assert report.errors[0]["error"].startswith("OverflowError")
        assert report.violations == []
        assert report.total == 0

    def test_overflowed_absolute_half_recorded_per_sample(self, monkeypatch, capfd):
        # the zeros and their compression are finite, the compression of
        # |z| is not: only that sample is an error, and LAPACK never sees it
        a = 0.6e308
        draw_rows = harness._draw_rows

        def one_huge(rng, n, dist, rows):
            z = draw_rows(rng, n, dist, rows)
            z[0] = (a, -a, a * 1j, -a * 1j)
            return z

        monkeypatch.setattr(harness, "_draw_rows", one_huge)
        spec = AuditSpec(
            n_values=(4,), distributions=("disk",), samples_per_cell=5, seed=5
        )
        report = run_audit(spec)
        assert [e["error"].split(":")[0] for e in report.errors] == ["OverflowError"]
        assert report.errors[0]["zeros"][0] == [a, 0.0]
        assert {stats.total for stats in report.per_certificate.values()} == {4}
        assert c_output(capfd) == ("", "")

    def test_overflowed_row_keeps_one_stacked_evaluation(self, monkeypatch):
        # one row of a five-row slice overflows its |z| compression: the
        # slice still takes one eigendecomposition, and that row is the one
        # error
        a = 0.6e308
        huge = (a, -a, a * 1j, -a * 1j)
        draw_rows = harness._draw_rows
        eigvals = densela._eigvals
        calls = []

        def one_huge(rng, n, dist, rows):
            z = draw_rows(rng, n, dist, rows)
            z[2] = huge
            return z

        def counted(m):
            calls.append(len(m))
            return eigvals(m)

        monkeypatch.setattr(harness, "_draw_rows", one_huge)
        monkeypatch.setattr(densela, "_eigvals", counted)
        spec = AuditSpec(
            n_values=(4,), distributions=("disk",), samples_per_cell=5, seed=5
        )
        report = run_audit(spec)
        assert calls == [5]
        assert [e["zeros"] for e in report.errors] == [[[z.real, z.imag] for z in huge]]
        assert report.errors[0]["error"] == f"OverflowError: {harness.certs._NOT_FINITE}"
        assert {stats.total for stats in report.per_certificate.values()} == {4}

    def test_loose_tolerances_report_no_more_violations(self):
        spec = AuditSpec(
            n_values=(5, 6),
            p_grid=(1.5, 1.75, 2.0),
            distributions=("real", "clustered"),
            samples_per_cell=20,
            seed=7,
        )
        loose_spec = dataclasses.replace(spec, tolerances=(ABS_TOL, 1e-2))
        default = run_audit(spec)
        loose = run_audit(loose_spec)
        assert loose.total == default.total
        assert default.violations  # genuine 1 < p < 2 violations at n >= 5
        assert len(loose.violations) <= len(default.violations)
        for entry in loose.violations:
            assert re_evaluate_violation(entry, loose_spec) == Certificate.from_dict(
                entry["certificate"]
            )


    def test_zero_shadow_threshold_keeps_every_pass_count(self):
        # the compressions have no structural zero, and the sigma_n of
        # both differentiators is an exact zero whatever abs_tol, so no
        # sv_product_k{n} verdict compares the rounding of two exact zeros;
        # this is the criterion-3 audit, with its 391 violations
        spec = AuditSpec(samples_per_cell=334, seed=2026)
        default = run_audit(spec)
        bare = run_audit(dataclasses.replace(spec, tolerances=(0.0, spec.tolerances[1])))
        assert not default.errors and not bare.errors
        assert len(bare.violations) == len(default.violations) == 391
        assert {key: stats.passed for key, stats in bare.per_certificate.items()} == {
            key: stats.passed for key, stats in default.per_certificate.items()
        }


def test_first_maximum_wins_across_slices_and_n(monkeypatch):
    """With tied largest ratios, argmax_zeros is the first tied sample in
    sampling order: an n's later slices and later n do not replace it."""
    certify_batch = harness.certs._certify_batch
    seen = []  # (report keys, zeros) of each certified sample, in sampling order

    def tied(z, orders, scale, tols):
        batch = certify_batch(z, orders, scale, tols)
        index = np.arange(len(seen), len(seen) + len(z))
        keys = {_certificate_key(name, p) for name, p in batch.labels}
        seen.extend((keys, row) for row in z)
        # every fourth sample from the third on ties for the maximum
        ratio = np.where(index % 4 == 2, 2.0, 1.0)[:, None] * np.ones_like(batch.ratio)
        return batch._replace(ratio=ratio)

    monkeypatch.setattr(harness.certs, "_certify_batch", tied)
    # slices of 4, 2 and 1 samples at n = 3, 4 and 5
    monkeypatch.setattr(harness, "_SLICE_ENTRIES", 40)
    report = run_audit(SMALL_SPEC)
    assert len(seen) == 3 * 12
    for key, stats in report.per_certificate.items():
        first = next(z for i, (keys, z) in enumerate(seen) if i % 4 == 2 and key in keys)
        assert stats.max_ratio == 2.0
        assert stats.argmax_zeros == [[v.real, v.imag] for v in first], key


class TestSweep:
    def test_high_family_flat_at_one(self):
        rows = sweep_p(extremal_high(4), [2.0, 3.0, 4.0])
        assert [row.p for row in rows] == [2.0, 3.0, 4.0]
        for row in rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-9)

    def test_low_family_flat_at_one(self):
        rows = sweep_p(extremal_low(3), [1.0, 1.5, 2.0])
        for row in rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_flat_at_zero(self):
        rows = sweep_p(ZeroConfig((1.0, 1j, -1.0, -1j), centered=True), [2.0, 4.0])
        for row in rows:
            assert row.ratio == pytest.approx(0.0, abs=1e-6)

    def test_rows_sorted_by_p(self):
        rows = sweep_p(extremal_low(4), [3.0, 1.0, 2.0])
        assert [row.p for row in rows] == [1.0, 2.0, 3.0]

    def test_rows_are_the_order_p_certificates(self):
        cfg = sample_config(5, "disk", 0)
        assert sweep_p(cfg, [3.0, 1.5]) == [schoenberg_order_p(cfg, p) for p in (1.5, 3.0)]

    @pytest.mark.parametrize("grid", [[], ()])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must not be empty"):
            sweep_p(sample_config(5, "disk", 0), grid)

    @pytest.mark.parametrize("grid", [["2"], [True], [2.0, True], ["2", True]])
    def test_rejects_orders_that_are_not_real_numbers(self, grid):
        with pytest.raises(ValueError, match="real number"):
            sweep_p(sample_config(5, "disk", 0), grid)


class TestEmitReport:
    def test_json_round_trip_certificates(self, tmp_path):
        certs = [
            schoenberg_order_p(extremal_low(3), p) for p in (1.0, 2.0, 4.0)
        ]
        path = tmp_path / "certs.json"
        emit_report(certs, path, format="json")
        loaded = json.loads(path.read_text())
        again = [Certificate.from_dict(d) for d in loaded["certificates"]]
        assert again == certs

    def test_seventeen_digit_rendering(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert float(format_float(np.pi)) == np.pi
        assert format_float(2.0) == "2"

    def test_csv_shape(self, tmp_path):
        certs = [schoenberg_order_p(extremal_low(3), p) for p in (1.0, 2.0)]
        path = tmp_path / "certs.csv"
        emit_report(certs, path, format="csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(certs) + 1
        assert lines[0] == "name,n,p,lhs,rhs,slack,ratio,holds"

    def test_sabotaged_audit_csv_bytes_pinned(self, tmp_path):
        # one row per violation; n = 10 puts esf_k10 in the rows
        spec = AuditSpec(n_values=(3, 5, 10), samples_per_cell=6, seed=11)
        path = tmp_path / "audit.csv"
        emit_report(run_audit(spec, sabotage=True), path, format="csv")
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            59548,
            "da678f8f483fc9bb30131e21e7eec9f16b5ee6a62d43eca935276597c8bf0cc0",
        )

    def test_two_point_certificate_bytes_pinned(self, tmp_path):
        # the only pinned reports with null p and ratio fields and sides that
        # render as 0; at n = 2 the compression is 1 x 1, so no LAPACK
        # rounding can move them
        batch = check_all(ZeroConfig((1, -1), centered=True), [1, 2])
        text = dumps_report(batch).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (
            1558,
            "07e0609cfddd14007fab92a927a05d59a87bff17254fdb0d386dbcea237956cc",
        )
        path = tmp_path / "certs.csv"
        emit_report(batch, path, format="csv")
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            433,
            "3456c5dc30d0049a2d772f6666b9154c4a40c2e2a01492f6be62b7456f8ba041",
        )

    def test_audit_json_structure(self, tmp_path):
        report = run_audit(SMALL_SPEC)
        path = tmp_path / "audit.json"
        emit_report(report, path, format="json")
        data = json.loads(path.read_text())
        assert data["spec"]["seed"] == 42
        assert data["total"] == report.total
        assert data["passed"] == report.total
        assert "wall_time_s" not in data
        key = sorted(data["per_certificate"])[0]
        entry = data["per_certificate"][key]
        assert set(entry) == {"total", "passed", "max_ratio", "argmax_zeros"}

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "x.txt", format="xml")

    def test_unwritable_path_mentions_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_report([], "no/such/dir/report.json")


class TestReportRewrite:
    """emit_report rewrites an existing file in place: the bytes of a fresh
    write, the same inode and mode, symlinks followed, and no O_TRUNC."""

    @pytest.fixture(scope="class")
    def reports(self):
        # sabotaged, so that the CSV form has one row per violation too
        large = run_audit(SMALL_SPEC, sabotage=True)
        small = run_audit(
            dataclasses.replace(SMALL_SPEC, n_values=(3,), samples_per_cell=1), sabotage=True
        )
        return large, small

    @staticmethod
    def fresh_bytes(report, path, format):
        emit_report(report, path, format=format)
        return path.read_bytes()

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_smaller_report_leaves_exactly_its_bytes(self, reports, tmp_path, format):
        large, small = reports
        expected = self.fresh_bytes(small, tmp_path / "fresh", format)
        path = tmp_path / "report"
        emit_report(large, path, format=format)
        assert path.stat().st_size > len(expected)
        emit_report(small, path, format=format)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_rewrite_keeps_inode_and_mode(self, reports, tmp_path, format):
        large, small = reports
        path = tmp_path / "report"
        emit_report(large, path, format=format)
        path.chmod(0o640)
        before = path.stat()
        emit_report(small, path, format=format)
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_write_through_a_symlink_updates_its_target(self, reports, tmp_path, format):
        large, small = reports
        expected = self.fresh_bytes(small, tmp_path / "fresh", format)
        target, link = tmp_path / "target", tmp_path / "link"
        emit_report(large, target, format=format)
        link.symlink_to(target)
        emit_report(small, link, format=format)
        assert link.is_symlink()
        assert target.read_bytes() == expected

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_no_truncating_open(self, reports, tmp_path, monkeypatch, format):
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        path = tmp_path / "report"
        emit_report(reports[0], path, format=format)
        monkeypatch.setattr(os, "open", spy)
        emit_report(reports[1], path, format=format)
        assert flags
        assert not any(flag & os.O_TRUNC for flag in flags)

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_null_device_takes_the_report(self, reports, format):
        # ftruncate fails with EINVAL on a file that is not a regular file
        emit_report(reports[0], os.devnull, format=format)

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_fifo_reader_gets_the_report(self, reports, tmp_path, format):
        expected = self.fresh_bytes(reports[1], tmp_path / "fresh", format)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            emit_report(reports[1], fifo, format=format)
        finally:
            reader.join(timeout=10)
        assert received == [expected]

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_directory_is_an_error_naming_it(self, reports, tmp_path, format):
        with pytest.raises(OSError, match=re.escape(str(tmp_path))):
            emit_report(reports[1], tmp_path, format=format)


class TestFlatWriter:
    """The flat JSON writer against the recursive renderer it replaced
    (conftest.reference_json), byte for byte."""

    @staticmethod
    def assert_oracle_bytes(report: AuditReport) -> None:
        assert dumps_report(report) == reference_json(report_to_dict(report))

    def test_report_with_violations(self):
        spec = AuditSpec(
            n_values=(5, 6),
            p_grid=(1.5, 1.75, 2.0),
            distributions=("real", "clustered"),
            samples_per_cell=20,
            seed=7,
        )
        report = run_audit(spec)
        assert report.violations
        self.assert_oracle_bytes(report)

    def test_report_with_overflow_errors(self, monkeypatch):
        draw_rows = harness._draw_rows

        def huge_real(rng, n, dist, rows):
            z = draw_rows(rng, n, dist, rows)
            return z * 2.0**400 if dist == "real" else z

        monkeypatch.setattr(harness, "_draw_rows", huge_real)
        report = run_audit(SMALL_SPEC)
        assert len(report.errors) == 3 * 6
        assert all(e["error"].startswith("OverflowError") for e in report.errors)
        assert report.total > 0
        self.assert_oracle_bytes(report)

    def test_report_with_underflow_errors(self, monkeypatch):
        draw_rows = harness._draw_rows

        def tiny_real(rng, n, dist, rows):
            z = draw_rows(rng, n, dist, rows)
            return z * 2.0**-400 if dist == "real" else z  # |z|^4 underflows

        monkeypatch.setattr(harness, "_draw_rows", tiny_real)
        report = run_audit(SMALL_SPEC)
        assert len(report.errors) == 3 * 6
        assert all(
            e["error"] == "UnderflowError: " + harness.certs._UNDERFLOWED
            for e in report.errors
        )
        assert report.total > 0
        self.assert_oracle_bytes(report)

    def test_sabotage_flood(self):
        report = run_audit(SMALL_SPEC, sabotage=True)
        assert len(report.violations) > 20
        self.assert_oracle_bytes(report)

    def test_missing_max_ratio(self):
        report = run_audit(AuditSpec(n_values=(3,), samples_per_cell=4, seed=2))
        stats = report.per_certificate["sv_product_k3"]
        assert stats.max_ratio is None and stats.argmax_zeros is None
        self.assert_oracle_bytes(report)

    def test_certificate_batch(self):
        batch = check_all(sample_config(5, "gaussian", 4), harness.DEFAULT_P_GRID)
        expected = reference_json({"certificates": [c.to_dict() for c in batch]})
        assert dumps_report(batch) == expected

    def test_control_characters_round_trip(self, tmp_path):
        message = 'OverflowError: line one\nline two\tand a "quote" \\ \r\x01'
        report = AuditReport(spec=SMALL_SPEC, sabotage=False)
        report.errors.append(
            {"n": 3, "distribution": "disk", "zeros": [[1.0, 0.0]], "error": message}
        )
        path = tmp_path / "report.json"
        emit_report(report, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text)["errors"][0]["error"] == message
