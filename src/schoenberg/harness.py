"""Randomized audits: seeded configuration sampling, batch certificate runs,
p-sweeps and report files.

An audit samples each (n, distribution) cell from one random stream, keyed
by the audit seed, n and the distribution's name, and draws and centers the
cell's configurations as (rows, n) arrays.  The samples of each n are taken
in a fixed order (distribution, then sample index) and certified together as
stacked arrays by the columnar evaluator of ``certs``, in slices sized so
that their stacked arrays hold about _SLICE_ENTRIES entries.  A slice reads
the next rows of each cell it covers, and the per-key totals, pass counts,
largest ratios and violations are aggregated with array operations in
sampling order, so the report is the same for any slice size.

Reports are written with every float rendered to 17 significant digits, which
round-trips IEEE-754 doubles exactly, so identical audit specs produce
byte-identical JSON.  Wall time is tracked on the in-memory report but never
serialized for that reason.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from . import certs
from .polyzero import ZeroConfig, center, center_rows

DISTRIBUTIONS = ("disk", "gaussian", "real", "clustered", "roots_of_unity_perturbed")

DEFAULT_P_GRID = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0)
DEFAULT_N_VALUES = (3, 4, 5, 6, 7, 8)

# array entries per stacked evaluation.  A sample of order n occupies n * n
# entries of each differentiator stack and n * P of each power-sum stack
# over a grid of P orders, so a slice holds
# max(1, _SLICE_ENTRIES // (n * max(n, P))) samples: the evaluator's memory
# is bounded for any n, grid and samples_per_cell, and at n <= 16 on the
# default grid the per-call overhead is amortized over at least 256 samples
_SLICE_ENTRIES = 256 * 16**2


@dataclass(frozen=True)
class AuditSpec:
    """What to sample and which orders to certify."""

    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    distributions: tuple[str, ...] = DISTRIBUTIONS
    samples_per_cell: int = 200
    seed: int = 0
    tolerances: tuple[float, float] = (certs.ABS_TOL, certs.REL_TOL)

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        object.__setattr__(self, "distributions", tuple(self.distributions))
        if not self.n_values or min(self.n_values) < 2:
            raise ValueError("n_values must be nonempty with every n >= 2")
        if not self.p_grid or not all(np.isfinite(p) and p >= 1 for p in self.p_grid):
            raise ValueError("p_grid must be nonempty with every p finite and >= 1")
        if len(set(self.p_grid)) != len(self.p_grid):
            raise ValueError(f"p_grid repeats an order: {self.p_grid}")
        if len(self.tolerances) != 2:
            raise ValueError("tolerances must be an (abs_tol, rel_tol) pair")
        tolerances = certs._check_tolerances(*self.tolerances)
        object.__setattr__(self, "tolerances", tolerances)
        for dist in self.distributions:
            if dist not in DISTRIBUTIONS:
                raise ValueError(f"unknown distribution {dist!r}")
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be positive")

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "p_grid": list(self.p_grid),
            "distributions": list(self.distributions),
            "samples_per_cell": self.samples_per_cell,
            "seed": self.seed,
            "tolerances": list(self.tolerances),
        }

    @staticmethod
    def from_dict(data: dict) -> "AuditSpec":
        known = {}
        for key in (
            "n_values",
            "p_grid",
            "distributions",
            "samples_per_cell",
            "seed",
            "tolerances",
        ):
            if key in data:
                known[key] = data[key]
        if "tolerances" in known:
            known["tolerances"] = tuple(known["tolerances"])
        return AuditSpec(**known)


@dataclass
class CertStats:
    """Aggregate over one certificate key within an audit."""

    total: int = 0
    passed: int = 0
    max_ratio: float | None = None
    argmax_zeros: list[list[float]] | None = None


@dataclass
class AuditReport:
    """Everything a finished audit produced; re-checkable from stored zeros."""

    spec: AuditSpec
    sabotage: bool
    per_certificate: dict[str, CertStats] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0  # in-memory only, never serialized

    @property
    def total(self) -> int:
        return sum(s.total for s in self.per_certificate.values())

    @property
    def passed(self) -> int:
        return sum(s.passed for s in self.per_certificate.values())


def _zeros_to_pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in z]


def _pairs_to_config(pairs) -> ZeroConfig:
    return center(ZeroConfig(tuple(complex(re, im) for re, im in pairs)))


def sample_config(n: int, dist: str, seed: int) -> ZeroConfig:
    """Draw n zeros from a named distribution and center them.

    disk: uniform on the unit disk; gaussian: standard complex normal;
    real: standard normal on the real axis; clustered: two blobs at +-1 with
    spread 0.1, the blob of each zero being the sign of a standard normal;
    roots_of_unity_perturbed: the n-th roots of unity plus complex Gaussian
    noise of scale 0.05.

    The result is row 0 of the audit cell (n, dist) under ``seed``: the
    first row drawn from the stream SeedSequence(seed, spawn_key=(n,
    DISTRIBUTIONS.index(dist))) in the row layout of ``_draw_rows``, and
    centered by ``center_rows``.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    z = center_rows(_draw_rows(_cell_generator(seed, n, dist), n, dist, 1))
    return ZeroConfig(tuple(z[0]), centered=True)


def _cell_generator(seed: int, n: int, dist: str) -> np.random.Generator:
    """The one stream of cell (n, dist) under ``seed``.

    It is keyed by n and the distribution's name, not by their positions in
    a spec, so an audit of one n or one distribution draws exactly the rows
    of that cell in a larger audit.
    """
    key = (int(n), DISTRIBUTIONS.index(dist))
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def _draw_rows(rng: np.random.Generator, n: int, dist: str, rows: int) -> np.ndarray:
    """The next ``rows`` configurations of a cell stream as (rows, n), not
    yet centered.

    Each call draws one (rows, k, n) array u, so each row's k * n variates
    are contiguous in the stream and a cell drawn in slices equals the cell
    drawn whole.  disk: k = 2 uniforms, radius sqrt(u0) and angle 2 pi u1;
    gaussian and roots_of_unity_perturbed: k = 2 normals, the complex normal
    (u0 + i u1) / sqrt 2; real: k = 1 normal; clustered: k = 3 normals, the
    complex normal from u0 and u1 and the blob +-1 as the sign of u2.
    """
    if dist == "disk":
        u = rng.uniform(size=(rows, 2, n))
        return np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    if dist == "real":
        return rng.standard_normal((rows, 1, n))[:, 0].astype(complex)
    k = 3 if dist == "clustered" else 2
    u = rng.standard_normal((rows, k, n))
    noise = (u[:, 0] + 1j * u[:, 1]) / np.sqrt(2.0)
    if dist == "gaussian":
        return noise
    if dist == "clustered":
        return np.copysign(1.0, u[:, 2]) + 0.1 * noise
    # roots_of_unity_perturbed
    return np.exp(2j * np.pi * np.arange(n) / n) + 0.05 * noise


def _certificate_key(name: str, p: float | None) -> str:
    if p is None:
        return name
    return f"{name}[p={format_float(p)}]"


def run_audit(spec: AuditSpec, sabotage: bool = False) -> AuditReport:
    """Evaluate check_all over every sampled cell of the spec.

    ``sabotage`` halves the order-p Schoenberg constant, which must flood the
    report with violations; it exists so tests can prove the detection
    machinery works.  Per-sample numeric failures are recorded under
    ``errors`` and never abort the audit.  Deterministic in the spec.
    """
    report = AuditReport(spec=spec, sabotage=sabotage)
    orders = sorted(spec.p_grid)
    scale = 0.5 if sabotage else 1.0
    start = time.perf_counter()
    per_cell = spec.samples_per_cell
    cells = [DISTRIBUTIONS.index(dist) for dist in spec.distributions]
    for n in spec.n_values:
        rngs = [_cell_generator(spec.seed, n, dist) for dist in spec.distributions]
        rows = max(1, _SLICE_ENTRIES // (n * max(n, len(orders))))
        # sampling order is distribution-major, then sample index; a slice
        # takes the next rows of each cell it covers from that cell's stream
        for first in range(0, len(cells) * per_cell, rows):
            last = min(first + rows, len(cells) * per_cell)
            parts, dists = [], []
            for offset in range(first // per_cell, (last - 1) // per_cell + 1):
                count = min(last, (offset + 1) * per_cell) - max(first, offset * per_cell)
                parts.append(_draw_rows(rngs[offset], n, spec.distributions[offset], count))
                dists.append(np.full(count, cells[offset]))
            z = center_rows(np.concatenate(parts))
            _certify_slice(report, n, z, np.concatenate(dists), orders, scale)
    report.wall_time_s = time.perf_counter() - start
    return report


def _certify_slice(
    report: AuditReport, n: int, z: np.ndarray, dists: np.ndarray, orders, scale: float
) -> None:
    """Certify the (B, n) zeros ``z`` of one slice, whose distributions are
    ``DISTRIBUTIONS[dists]``, and fold them into the report.

    A LAPACK failure fails the whole stacked evaluation, so the slice is then
    certified one sample at a time and only the failing samples are errors.
    """
    try:
        batch = certs._certify_batch(z, orders, scale, report.spec.tolerances)
    except ArithmeticError as exc:
        if len(z) == 1:
            _record_error(report, n, dists[0], z[0], exc)
        else:
            for row in range(len(z)):
                one = slice(row, row + 1)
                _certify_slice(report, n, z[one], dists[one], orders, scale)
        return
    for row in np.flatnonzero(~batch.finite):
        _record_error(report, n, dists[row], z[row], OverflowError(certs._NOT_FINITE))
    rows = np.flatnonzero(batch.finite)
    if rows.size == 0:
        return
    ratio = np.where(np.isnan(batch.ratio[rows]), -np.inf, batch.ratio[rows])
    holds = batch.holds[rows]
    best_rows = ratio.argmax(axis=0)  # the first maximum wins
    best = ratio[best_rows, np.arange(len(batch.labels))].tolist()
    passed = holds.sum(axis=0).tolist()
    for col, (name, p) in enumerate(batch.labels):
        key = _certificate_key(name, p)
        stats = report.per_certificate.setdefault(key, CertStats())
        stats.total += rows.size
        stats.passed += passed[col]
        if best[col] > -np.inf and (stats.max_ratio is None or best[col] > stats.max_ratio):
            stats.max_ratio = best[col]
            stats.argmax_zeros = _zeros_to_pairs(z[rows[best_rows[col]]])
    for row in rows[~holds.all(axis=1)]:
        pairs = _zeros_to_pairs(z[row])
        for cert in certs._certificates(
            n, batch.labels, batch.lhs[row], batch.rhs[row], batch.ratio[row], batch.holds[row]
        ):
            if not cert.holds:
                report.violations.append(
                    {"certificate": cert.to_dict(), "n": n,
                     "distribution": DISTRIBUTIONS[dists[row]], "zeros": pairs}
                )


def _record_error(
    report: AuditReport, n: int, dist: int, z: np.ndarray, exc: ArithmeticError
) -> None:
    report.errors.append(
        {"n": n, "distribution": DISTRIBUTIONS[dist], "zeros": _zeros_to_pairs(z),
         "error": f"{type(exc).__name__}: {exc}"}
    )


def re_evaluate_violation(entry: dict, spec: AuditSpec) -> certs.Certificate:
    """Re-run the single certificate stored in a violation entry."""
    cfg = _pairs_to_config(entry["zeros"])
    stored = certs.Certificate.from_dict(entry["certificate"])
    p_list = [stored.p] if stored.p is not None else [2.0]
    abs_tol, rel_tol = spec.tolerances
    for cert in certs.check_all(cfg, p_list, abs_tol=abs_tol, rel_tol=rel_tol):
        if cert.name == stored.name and cert.p == stored.p:
            return cert
    raise KeyError(f"certificate {stored.name} not reproduced")


@dataclass(frozen=True)
class SweepRow:
    p: float
    lhs: float
    rhs: float
    ratio: float | None


def sweep_p(cfg: ZeroConfig, grid) -> list[SweepRow]:
    """The order-p Schoenberg certificate evaluated across a grid of orders."""
    return [
        SweepRow(p=cert.p, lhs=cert.lhs, rhs=cert.rhs, ratio=cert.ratio)
        for cert in certs._schoenberg_orders(cfg, sorted(float(p) for p in grid))
    ]


# --- report rendering ------------------------------------------------------

CSV_COLUMNS = ("name", "n", "p", "lhs", "rhs", "slack", "ratio", "holds")


def format_float(value: float) -> str:
    """IEEE-754 double rendered with 17 significant digits (exact round trip)."""
    return format(float(value), ".17g")


def _render_json(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(f'"{key}": ')
            _render_json(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _render_json(val, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def dumps_report(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    out: list[str] = []
    _render_json(obj, out)
    return "".join(out) + "\n"


def _report_to_dict(report: AuditReport) -> dict:
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


def _certificates_of(report) -> list[certs.Certificate]:
    if isinstance(report, AuditReport):
        return [
            certs.Certificate.from_dict(entry["certificate"])
            for entry in report.violations
        ]
    return list(report)


def emit_report(report, path, format: str = "json") -> None:
    """Write an audit report or a batch of certificates to disk.

    JSON embeds each certificate verbatim in its wire schema inside one
    top-level object.  CSV emits one certificate per row with the fixed
    column set; for an audit report the rows are its violations (an empty
    audit yields just the header).
    """
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    if format == "json":
        if isinstance(report, AuditReport):
            payload = _report_to_dict(report)
        else:
            payload = {"certificates": [c.to_dict() for c in report]}
        text = dumps_report(payload)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cert in _certificates_of(report):
            writer.writerow(
                [
                    cert.name,
                    cert.n,
                    "" if cert.p is None else format_float(cert.p),
                    format_float(cert.lhs),
                    format_float(cert.rhs),
                    format_float(cert.slack),
                    "" if cert.ratio is None else format_float(cert.ratio),
                    str(cert.holds).lower(),
                ]
            )
        text = buffer.getvalue()
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
