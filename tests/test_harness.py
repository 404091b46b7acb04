import dataclasses
import json

import numpy as np
import pytest

from schoenberg import harness
from schoenberg.certs import ABS_TOL, Certificate, check_all, schoenberg_order_p
from schoenberg.densela import differentiator
from schoenberg.harness import (
    DISTRIBUTIONS,
    AuditSpec,
    _certificate_key,
    _sample_seed,
    emit_report,
    format_float,
    re_evaluate_violation,
    run_audit,
    sample_config,
    sweep_p,
)
from schoenberg.polyzero import ZeroConfig, centroid
from schoenberg.sharpness import extremal_high, extremal_low

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


class TestAuditSpec:
    def test_defaults_valid(self):
        spec = AuditSpec()
        assert spec.samples_per_cell == 200
        assert len(spec.p_grid) == 10

    def test_round_trip(self):
        spec = AuditSpec(n_values=(3,), samples_per_cell=2)
        assert AuditSpec.from_dict(spec.to_dict()) == spec

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

    def test_one_svd_failure_leaves_the_other_samples(self, monkeypatch):
        spec = AuditSpec(
            n_values=(5,),
            p_grid=(1.5, 1.75, 2.0),
            distributions=("disk", "real", "clustered"),
            samples_per_cell=10,
            seed=3,
        )
        clean = run_audit(spec)
        # the 14th sample in sampling order: the "real" cell, index 3
        chosen = sample_config(5, "real", _sample_seed(spec.seed, 1, 3))
        target = differentiator(chosen)
        lost = {
            _certificate_key(c.name, c.p): c.holds
            for c in check_all(chosen, spec.p_grid)
        }
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            if any(np.array_equal(m, target) for m in np.reshape(a, (-1,) + target.shape)):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        report = run_audit(spec)
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

    @pytest.mark.parametrize("exponent", [150, 400, 700])
    def test_overflow_recorded_per_sample(self, monkeypatch, exponent):
        def huge(n, dist, seed):
            z = sample_config(n, dist, seed).as_array()  # the unpatched sampler
            return ZeroConfig(tuple(z * 2.0**exponent), centered=True)

        monkeypatch.setattr(harness, "sample_config", huge)
        spec = AuditSpec(
            n_values=(6,), distributions=("disk",), samples_per_cell=1, seed=5
        )
        report = run_audit(spec)
        assert len(report.errors) == 1
        assert report.errors[0]["error"].startswith("OverflowError")
        assert report.violations == []
        assert report.total == 0

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
