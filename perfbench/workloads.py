"""The benchmark's workloads: the unit of work each one times, and its gates.

Every workload is a closed loop on one thread: the next unit starts when the
previous one has returned.  A unit calls only the public API of
``schoenberg``; the inputs it gets are derived from the benchmark seed and the
unit's index, so the same seed gives the same inputs.  The caller times
``unit`` alone; ``inspect`` and ``finish`` run outside the timed region and
check the outputs.

Workloads call the library through module attributes (``harness.run_audit``
rather than ``schoenberg.run_audit``), which is where the tracer installs
its wrappers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from schoenberg import certs, densela, harness, polyzero, sharpness
from schoenberg.harness import AuditSpec, re_evaluate_violation

UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def unit_seed(seed: int, index: int) -> int:
    """Library seed of unit ``index`` under benchmark seed ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


@dataclass
class Outcome:
    """Everything a run checked or counted, apart from its timings.

    ``counts`` holds exact per-layer counts keyed by metric name; ``notes``
    are lines printed above the result.
    """

    attempted: int = 0
    failed: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def gate(self, name: str, ok: bool) -> None:
        self.gates[name] = self.gates.get(name, True) and bool(ok)


class Audit:
    """``run_audit`` on the default spec shape, then ``emit_report`` to JSON.

    A unit is one audit of 6 orders n x 5 distributions x SAMPLES_PER_CELL
    configurations, each certified on the 10-order default p-grid.  The
    reference audit of the warm-up is larger, so that its exact counts
    include a few of the genuine 1 < p < 2 violations.
    """

    name = "audit"
    work_label = "configs"
    SAMPLES_PER_CELL = 2
    REFERENCE_SAMPLES_PER_CELL = 8
    REEVALUATED_VIOLATIONS = 8
    PROBE = (
        "s.harness.run_audit(s.AuditSpec(n_values=(3,), p_grid=(1.5,), "
        "distributions=('disk',), samples_per_cell=1))"
    )

    def __init__(self, seed: int, out_dir: Path, out: Outcome):
        self.seed = seed
        self.out = out
        self.paths = [out_dir / "audit-a.json", out_dir / "audit-b.json"]
        self.sampled: list[tuple[AuditSpec, dict]] = []

    def prepare(self, index: int, samples_per_cell: int = SAMPLES_PER_CELL) -> AuditSpec:
        return AuditSpec(samples_per_cell=samples_per_cell, seed=unit_seed(self.seed, index))

    @staticmethod
    def configs(spec: AuditSpec) -> int:
        return len(spec.n_values) * len(spec.distributions) * spec.samples_per_cell

    def unit(self, spec: AuditSpec):
        report = harness.run_audit(spec)
        harness.emit_report(report, self.paths[0], format="json")
        return report

    def work(self, spec: AuditSpec, report) -> int:
        return self.configs(spec)

    def inspect(self, spec: AuditSpec, report) -> None:
        self.out.attempted += self.configs(spec)
        self.out.failed += len(report.errors)
        self.out.gate("family totals equal configs x grid", self._totals_ok(spec, report))
        room = self.REEVALUATED_VIOLATIONS - len(self.sampled)
        if room > 0 and report.violations:
            step = max(1, len(report.violations) // room)
            self.sampled += [(spec, entry) for entry in report.violations[::step][:room]]

    def _totals_ok(self, spec: AuditSpec, report) -> bool:
        certified = self.configs(spec) - len(report.errors)
        per_family: dict[str, int] = {}
        ok = True
        for key, stats in report.per_certificate.items():
            ok &= 0 <= stats.passed <= stats.total
            if "[p=" in key:
                ok &= stats.total == certified
                family = key.split("[", 1)[0]
                per_family[family] = per_family.get(family, 0) + stats.total
            else:
                ok &= stats.total <= certified
        ok &= all(total == certified * len(spec.p_grid) for total in per_family.values())
        ok &= len(report.violations) == report.total - report.passed
        return bool(ok and per_family)

    def warm_up(self) -> None:
        """Audit the reference spec twice: the reports must be byte-identical,
        and the first gives this seed's exact counts."""
        spec = self.prepare(0, self.REFERENCE_SAMPLES_PER_CELL)
        reports = []
        for path in self.paths:
            report = harness.run_audit(spec)
            harness.emit_report(report, path, format="json")
            reports.append(report)
        first, second = (path.read_bytes() for path in self.paths)
        self.out.gate("repeated audit writes identical bytes", first == second)
        self.out.notes.append(
            f"reference audit report sha256 {hashlib.sha256(first).hexdigest()} "
            f"({len(first)} bytes)"
        )
        report = reports[0]
        self.inspect(spec, report)
        configs = self.configs(spec)
        self.out.counts["audit.certificates_per_config"] = report.total / max(
            configs - len(report.errors), 1
        )
        self.out.counts["audit.violations"] = len(report.violations)
        self.out.counts["audit.error_frac"] = len(report.errors) / configs
        self.out.counts["harness.emit_report.bytes"] = len(first) / configs

    def finish(self) -> None:
        """Re-run the sampled violations through ``re_evaluate_violation``.

        The stored zeros are re-centered on reload, which may move the last
        bits of each side, so sides are compared to 1e-9 relative while the
        verdict must match exactly.
        """
        for spec, entry in self.sampled:
            stored = certs.Certificate.from_dict(entry["certificate"])
            again = re_evaluate_violation(entry, spec)
            same = (again.name, again.p, again.holds) == (stored.name, stored.p, stored.holds)
            close = all(
                abs(a - b) <= 1e-9 * max(abs(a), abs(b))
                for a, b in ((again.lhs, stored.lhs), (again.rhs, stored.rhs))
            )
            self.out.gate("re_evaluate_violation reproduces violations", same and close)
        self.out.gate("re_evaluate_violation reproduces violations", bool(self.sampled))
        self.out.notes.append(f"{len(self.sampled)} stored violations re-evaluated")


class RatioSearch:
    """``maximize_ratio`` at (n=5, p=1.75) and (n=8, p=3), fixed budgets.

    (5, 1.75) is the known counterexample to the claimed constant: the best
    ratio over the run must exceed 1.  At (8, 3) the supremum 1 is attained
    by the +-1 family and the best over the run must reach 0.99.  A single
    call can stall in a local maximum (0.957 at (8, 3) on some seeds), which
    is counted, not hidden.
    """

    name = "ratio_search"
    work_label = "evaluations"
    CALLS = ((5, 1.75, 1000), (8, 3.0, 1000))
    PROBE = "s.sharpness.maximize_ratio(5, 1.75, budget=20, seed=0)"

    def __init__(self, seed: int, out_dir: Path, out: Outcome):
        self.seed = seed
        self.out = out
        self.best = {(n, p): 0.0 for n, p, _ in self.CALLS}
        self.calls = 0
        self.restarts = 0
        self.short_at_8_3 = 0

    def prepare(self, index: int) -> int:
        return unit_seed(self.seed, index)

    def unit(self, seed: int):
        return [sharpness.maximize_ratio(n, p, budget, seed) for n, p, budget in self.CALLS]

    def work(self, seed: int, results) -> int:
        return sum(r.evaluations for r in results)

    def inspect(self, seed: int, results) -> None:
        for r in results:
            self.out.attempted += 1
            self.calls += 1
            self.restarts += r.restarts
            self.best[(r.n, r.p)] = max(self.best[(r.n, r.p)], r.best_ratio)
            if (r.n, r.p) == (8, 3.0) and r.best_ratio < 0.99:
                self.short_at_8_3 += 1

    @staticmethod
    def _key(results):
        return [(r.best_ratio, r.best_config.zeros, r.evaluations, r.restarts) for r in results]

    def warm_up(self) -> None:
        seed = self.prepare(0)
        first, second = self.unit(seed), self.unit(seed)
        self.out.gate("search results repeat exactly", self._key(first) == self._key(second))
        self.inspect(seed, first)

    def finish(self) -> None:
        best_low, best_high = self.best[(5, 1.75)], self.best[(8, 3.0)]
        self.out.gate("maximize_ratio exceeds 1 at (5, 1.75)", best_low > 1.0 + 1e-9)
        self.out.gate("maximize_ratio reaches 0.99 at (8, 3)", best_high >= 0.99)
        self.out.notes.append(
            f"best ratio (5, 1.75) = {best_low!r}, (8, 3) = {best_high!r}; "
            f"{self.short_at_8_3} of {self.calls // 2} calls at (8, 3) stalled below 0.99"
        )
        self.out.counts["sharpness.restarts"] = self.restarts / max(self.calls, 1)
        self.out.counts["sharpness.maximize_ratio.below_099_frac"] = self.short_at_8_3 / max(
            self.calls // 2, 1
        )


class OpnormSearch:
    """``opnorm_lower_bound`` at (n=5, p=1.5) and (n=8, p=1.5), fixed budgets.

    Every estimate must reach its closed-form bound: the search starts from the
    extremal family that attains it.  At these budgets both searches spend
    the whole budget from the extremal starts, so at this commit the seed
    does not change what a unit computes.
    """

    name = "opnorm_search"
    work_label = "evaluations"
    CALLS = ((5, 1.5, 100), (8, 1.5, 100))
    PROBE = "s.sharpness.opnorm_lower_bound(5, 1.5, budget=20, seed=0)"

    def __init__(self, seed: int, out_dir: Path, out: Outcome):
        self.seed = seed
        self.out = out

    def prepare(self, index: int) -> int:
        return unit_seed(self.seed, index)

    def unit(self, seed: int):
        return [sharpness.opnorm_lower_bound(n, p, budget, seed) for n, p, budget in self.CALLS]

    def work(self, seed: int, results) -> int:
        # the public result has no evaluation count; the budget is what was
        # asked for, and a search overruns it by less than one simplex step
        return sum(budget for _, _, budget in self.CALLS)

    def inspect(self, seed: int, results) -> None:
        for estimate, bound in results:
            self.out.attempted += 1
            self.out.gate("opnorm estimate reaches its bound", estimate >= bound * (1.0 - 1e-9))

    def warm_up(self) -> None:
        seed = self.prepare(0)
        first, second = self.unit(seed), self.unit(seed)
        self.out.gate("search results repeat exactly", first == second)
        self.inspect(seed, first)

    def finish(self) -> None:
        pass


class Crosscheck:
    """``critical_points_direct`` (Aberth) against ``critical_points_spectral``.

    A unit is one configuration from every (n, distribution) cell, n in NS.
    The routes are compared through their power sums s_k = sum w^k,
    k = 1..n-1, which fix the multiset of critical points; the disagreement is
    max_k |s_k(direct) - s_k(spectral)| / sum |w_spectral|^k.

    Tolerance.  The spectral power sums are traces of powers of a matrix
    reduced by a backward-stable eigensolver, accurate to a few n*u.  The
    direct route expands prod (z - z_j) and accepts each root on its own
    residual gate, so inside a cluster of critical points (two blobs of 16
    zeros at n = 32) its roots, and hence its power sums, move by far more
    than rounding of the coefficients would explain: up to 7.5e-3 was
    measured on clustered n = 32 inputs.  That spread is the direct route's own
    conditioning on the input, and it is measured directly: the route is run
    again on the same zeros listed in two other orders, which changes only
    the rounding of the expansion.  A disagreement counts as a failure when it
    exceeds both FLOOR_ULPS * n * u and PERMUTATION_FACTOR times the larger
    of those two self-disagreements (the ratio measured at most 3.3 over 1,800
    inputs of the n = 8, 16 and 32 cells).
    """

    name = "crosscheck"
    work_label = "configs"
    NS = (3, 8, 16, 32)
    FLOOR_ULPS = 1024
    PERMUTATION_FACTOR = 32
    PROBE = (
        "c = s.harness.sample_config(8, 'disk', 0); "
        "s.polyzero.critical_points_direct(c); s.densela.critical_points_spectral(c)"
    )

    def __init__(self, seed: int, out_dir: Path, out: Outcome):
        self.seed = seed
        self.out = out
        self.max_disagreement = {n: 0.0 for n in self.NS}
        self.max_tolerance_use = 0.0
        self.configs = 0
        self.root_failures = 0

    def prepare(self, index: int):
        seed = unit_seed(self.seed, index)
        return [
            harness.sample_config(n, dist, seed)
            for n in self.NS
            for dist in harness.DISTRIBUTIONS
        ]

    def unit(self, cfgs):
        out = []
        for cfg in cfgs:
            try:
                direct = polyzero.critical_points_direct(cfg)
            except polyzero.RootFindingError as exc:
                direct = exc
            out.append((direct, densela.critical_points_spectral(cfg)))
        return out

    def work(self, cfgs, results) -> int:
        return len(cfgs)

    @staticmethod
    def disagreement(a: np.ndarray, b: np.ndarray, ref: np.ndarray) -> float:
        k = np.arange(1, ref.size + 1)
        scale = (np.abs(ref)[:, None] ** k).sum(axis=0)
        diff = np.abs((a[:, None] ** k).sum(axis=0) - (b[:, None] ** k).sum(axis=0))
        return float((diff / np.maximum(scale, np.finfo(float).tiny)).max())

    def _self_disagreement(self, cfg, direct: np.ndarray, spectral: np.ndarray) -> float:
        worst = 0.0
        for zeros in (cfg.zeros[::-1], cfg.zeros[1:] + cfg.zeros[:1]):
            try:
                again = polyzero.critical_points_direct(polyzero.ZeroConfig(zeros)).as_array()
            except polyzero.RootFindingError:
                continue
            worst = max(worst, self.disagreement(direct, again, spectral))
        return worst

    def inspect(self, cfgs, results) -> None:
        for cfg, (direct, spectral) in zip(cfgs, results):
            self.out.attempted += 1
            self.configs += 1
            if isinstance(direct, polyzero.RootFindingError):
                self.root_failures += 1
                self.out.failed += 1
                continue
            wd, ws = direct.as_array(), spectral.as_array()
            agree = wd.size == ws.size and np.all(np.isfinite(wd)) and np.all(np.isfinite(ws))
            if agree:
                d = self.disagreement(wd, ws, ws)
                self.max_disagreement[cfg.n] = max(self.max_disagreement[cfg.n], d)
                tol = self.FLOOR_ULPS * cfg.n * UNIT_ROUNDOFF
                if d > tol:
                    tol = max(tol, self.PERMUTATION_FACTOR * self._self_disagreement(cfg, wd, ws))
                self.max_tolerance_use = max(self.max_tolerance_use, d / tol)
                agree = d <= tol
            self.out.gate("direct and spectral routes agree within tolerance", agree)
            self.out.failed += not agree

    def warm_up(self) -> None:
        cfgs = self.prepare(0)
        self.inspect(cfgs, self.unit(cfgs))

    def finish(self) -> None:
        for n, d in self.max_disagreement.items():
            self.out.counts[f"crosscheck.max_disagreement.n{n}"] = d
        self.out.counts["crosscheck.max_tolerance_use"] = self.max_tolerance_use
        self.out.counts["crosscheck.fail_frac"] = self.out.failed / max(self.configs, 1)
        self.out.counts["polyzero.root_failures"] = self.root_failures / max(self.configs, 1)
        self.out.notes.append(
            "max power-sum disagreement "
            + ", ".join(f"n={n}: {d:.3e}" for n, d in self.max_disagreement.items())
            + f"; worst share of tolerance used {self.max_tolerance_use:.3f}"
        )


WORKLOADS = {w.name: w for w in (Audit, RatioSearch, OpnormSearch, Crosscheck)}
