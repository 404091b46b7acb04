"""Randomized audits: seeded configuration sampling, batch certificate runs,
p-sweeps and report files.

An audit samples each (n, distribution) cell from one random stream, keyed
by the audit seed, n and the distribution's name, and draws and centers the
cell's configurations as (rows, n) arrays.  The samples of each n are taken
in a fixed order (distribution, then sample index) and certified together as
stacked arrays by the columnar evaluator of ``certs``, in slices sized so
that their stacked arrays hold about _SLICE_ENTRIES entries.  A slice reads
the next rows of each cell it covers.  Each slice's verdicts are added to
the report's keys straight away, one column per key: the number of
certified samples, the pass count, and the largest ratio with the first
sample in sampling order that attains it.  The (re, im) pairs of each
distinct argmax sample are built once, at the end of the audit.
Violations and errors are entries in sampling order, and the violations
of one sample come in the evaluator's column order.  So the report is the
same for any slice size, and a LAPACK failure is bisected to its sample.

Reports have a fixed schema and are written field by field by a flat
writer, every value by the one field rule stated in ``emit_report``, so
identical audit specs produce byte-identical JSON; a pairs list that several
entries share is rendered once.  Wall time is tracked on the in-memory
report but never serialized for that reason.

Report files (and the ``schoenberg sweep`` table) are written in place by
one writer, ``_write_text``: the file is opened without truncation, the
UTF-8 bytes are written over it and the file is then cut to their length.
The bytes are the same as those of a plain truncating write, and the inode,
the mode and any symlink are kept; a path that is not a regular file
(/dev/null, a pipe, a FIFO) gets the bytes and is not cut.  A regular file
is never truncated to zero, because on ext4 (``auto_da_alloc``) closing a
file that was truncated to zero and rewritten starts a writeback that the
next truncation waits for.  That matters when the same path is rewritten
while that writeback is still pending, as a loop that writes one report
after each small audit does: ``emit_report`` of a 20 KB audit report over
itself took 35-49 ms that way and 0.12-0.17 ms in place, rendering
included (medians of 100 back-to-back writes, ext4 root disk, 2-CPU VM).
A single write over a file whose writeback finished long ago gains little:
over files written 60 s earlier the medians were 0.20-0.23 ms the old way
and 0.14 ms in place, though one of each run's 10 or 20 old-way rewrites
still took 64-81 ms.  There is no fsync, and the write is not atomic: a
concurrent reader can see a torn file.
"""

from __future__ import annotations

import functools
import math
import os
import re
import stat
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import certs, densela
from .polyzero import ZeroConfig, center, center_rows

DISTRIBUTIONS = ("disk", "gaussian", "real", "clustered", "roots_of_unity_perturbed")

DEFAULT_P_GRID = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0)
DEFAULT_N_VALUES = (3, 4, 5, 6, 7, 8)

# array entries per stacked evaluation.  A sample of order n occupies fewer
# than n * n entries of each compression stack and n * P of each power-sum
# stack over a grid of P orders, so a slice holds
# max(1, _SLICE_ENTRIES // (n * max(n, P))) samples: the evaluator's memory
# is bounded for any n, grid and samples_per_cell, and at n <= 16 on the
# default grid the per-call overhead is amortized over at least 256 samples
_SLICE_ENTRIES = 256 * 16**2


@dataclass(frozen=True)
class AuditSpec:
    """What to sample and which orders to certify, under the (abs_tol,
    rel_tol) pair of certs.check_all: abs_tol is the shadow threshold, not a
    floor of the verdict slack rel_tol * max(|lhs|, |rhs|)."""

    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    distributions: tuple[str, ...] = DISTRIBUTIONS
    samples_per_cell: int = 200
    seed: int = 0
    tolerances: tuple[float, float] = (certs.ABS_TOL, certs.REL_TOL)

    def __post_init__(self):
        for name in ("n_values", "p_grid", "distributions", "tolerances"):
            value = getattr(self, name)
            # np.ndim reads text, a number, a set and a mapping as 0-d
            if np.ndim(value) != 1:
                raise ValueError(f"{name} must be a sequence, got {value!r}")
        n_values = tuple(densela._integer(n, "every n") for n in self.n_values)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(
            self, "samples_per_cell", densela._integer(self.samples_per_cell, "samples_per_cell")
        )
        object.__setattr__(self, "seed", densela._integer(self.seed, "seed"))
        object.__setattr__(self, "p_grid", tuple(densela._check_order(p) for p in self.p_grid))
        object.__setattr__(self, "distributions", tuple(self.distributions))
        for dist in self.distributions:
            if dist not in DISTRIBUTIONS:
                raise ValueError(f"unknown distribution {dist!r}")
        for name in ("n_values", "p_grid", "distributions"):
            values = getattr(self, name)
            # a repeat would certify the same rows twice under one key
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be nonempty and without repeats, got {values}")
        if min(self.n_values) < 2:
            raise ValueError(f"every n must be >= 2, got {self.n_values}")
        if len(self.tolerances) != 2:
            raise ValueError("tolerances must be an (abs_tol, rel_tol) pair")
        tolerances = certs._check_tolerances(*self.tolerances)
        object.__setattr__(self, "tolerances", tolerances)
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def to_dict(self) -> dict:
        """Every field by name, in declaration order, a tuple as a list."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}

    @staticmethod
    def from_dict(data: dict) -> "AuditSpec":
        """The spec of a dict such as to_dict writes; absent keys take their
        defaults and an unknown key is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"an audit spec must be a mapping, got {data!r}")
        names = {spec_field.name for spec_field in fields(AuditSpec)}
        unknown = [key for key in data if key not in names]
        if unknown:
            raise ValueError(f"unknown audit spec keys: {unknown}")
        return AuditSpec(**data)


@dataclass
class CertStats:
    """Aggregate over one certificate key within an audit: the certified
    samples that have the key, how many of them passed, the largest ratio
    (None if no sample had one) and the zeros of the first sample in
    sampling order that attains it.

    Keys whose largest ratio fell first on the same sample share one
    ``argmax_zeros`` list.
    """

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
    return np.stack((z.real, z.imag), axis=-1).tolist()


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
    centered by ``center_rows``.  n and the seed must be integers, n >= 2
    and the seed nonnegative (ValueError).
    """
    n, seed = densela._integer(n, "n"), densela._integer(seed, "seed")
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
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
    """Certify every sampled cell of the spec with the columnar evaluator
    behind check_all, slice by slice, and fold each slice into the report.

    ``sabotage`` halves the order-p Schoenberg constant in the evaluator,
    which must flood the report with violations; it is the one
    fault-injection hook, so tests and ``audit --sabotage`` can prove the
    detection machinery works.  Per-sample numeric failures are recorded under
    ``errors`` and never abort the audit.  Deterministic in the spec.
    """
    report = AuditReport(spec=spec, sabotage=bool(sabotage))
    orders = sorted(spec.p_grid)
    scale = 0.5 if sabotage else 1.0
    start = time.perf_counter()
    per_cell = spec.samples_per_cell
    samples = len(spec.distributions) * per_cell
    winners: dict[str, tuple[tuple[int, int], np.ndarray]] = {}
    for n in spec.n_values:
        rngs = [_cell_generator(spec.seed, n, dist) for dist in spec.distributions]
        rows = max(1, _SLICE_ENTRIES // (n * max(n, len(orders))))
        # sampling order is distribution-major, then sample index; a slice
        # takes the next rows of each cell it covers from that cell's stream
        for first in range(0, samples, rows):
            last = min(first + rows, samples)
            parts = []
            for offset in range(first // per_cell, (last - 1) // per_cell + 1):
                count = min(last, (offset + 1) * per_cell) - max(first, offset * per_cell)
                parts.append(_draw_rows(rngs[offset], n, spec.distributions[offset], count))
            z = center_rows(np.concatenate(parts))
            _certify_slice(report, winners, n, first, z, orders, scale)
    # keys whose first maximum fell on the same sample share its pairs
    pairs: dict[tuple[int, int], list[list[float]]] = {}
    for key, (sample, z) in winners.items():
        if sample not in pairs:
            pairs[sample] = _zeros_to_pairs(z)
        report.per_certificate[key].argmax_zeros = pairs[sample]
    report.wall_time_s = time.perf_counter() - start
    return report


@functools.lru_cache(maxsize=64)
def _keys(labels: tuple) -> tuple[str, ...]:
    """The report key of each batch label."""
    return tuple(_certificate_key(name, p) for name, p in labels)


def _certify_slice(
    report: AuditReport,
    winners: dict,
    n: int,
    first: int,
    z: np.ndarray,
    orders,
    scale: float,
) -> None:
    """Certify the (B, n) zeros ``z`` of one slice, whose first sample has
    index ``first`` in sampling order; add the verdicts to the report's
    keys, record in ``winners`` the keys whose largest ratio the slice
    raised, with its sample and zeros (an earlier sample keeps a tie), and
    record violations and errors in the report.

    The evaluator masks every other failure per row, but a LAPACK failure
    fails the whole stack, so the slice is then certified as two halves, in
    sampling order, down to the failing samples, the only errors.
    """
    try:
        batch = certs._certify_batch(z, orders, scale, report.spec.tolerances)
    except ArithmeticError as exc:
        if len(z) == 1:
            _record_error(report, n, first, z[0], exc)
        else:
            half = len(z) // 2
            _certify_slice(report, winners, n, first, z[:half], orders, scale)
            _certify_slice(report, winners, n, first + half, z[half:], orders, scale)
        return
    failed = ~batch.finite | batch.underflow.any(axis=1)
    for row in np.flatnonzero(failed):
        _record_error(report, n, first + row, z[row], certs._error(batch.row(row)))
    rows = np.flatnonzero(~failed)
    if rows.size == 0:
        return
    ratio = batch.ratio[rows]
    ratio[np.isnan(ratio)] = -np.inf
    passed = batch.holds[rows].sum(axis=0).tolist()
    best = ratio.max(axis=0).tolist()
    best_at = rows[ratio.argmax(axis=0)].tolist()  # the first maximum of the slice
    for col, key in enumerate(_keys(batch.labels)):
        stats = report.per_certificate.get(key)
        if stats is None:
            stats = report.per_certificate[key] = CertStats()
        stats.total += rows.size
        stats.passed += passed[col]
        if best[col] > -math.inf and (stats.max_ratio is None or best[col] > stats.max_ratio):
            stats.max_ratio = best[col]
            winners[key] = ((n, first + best_at[col]), z[best_at[col]])
    for row in rows[~batch.holds[rows].all(axis=1)]:
        dist = report.spec.distributions[(first + row) // report.spec.samples_per_cell]
        pairs = _zeros_to_pairs(z[row])
        judged = batch.row(row)
        for cert in certs._certificates(n, judged.take(np.flatnonzero(~judged.holds))):
            report.violations.append(
                {"certificate": cert.to_dict(), "n": n, "distribution": dist, "zeros": pairs}
            )


def _record_error(
    report: AuditReport, n: int, sample: int, z: np.ndarray, exc: ArithmeticError
) -> None:
    """Record ``exc`` for the sample with index ``sample`` in sampling order."""
    spec = report.spec
    report.errors.append(
        {"n": n, "distribution": spec.distributions[sample // spec.samples_per_cell],
         "zeros": _zeros_to_pairs(z), "error": f"{type(exc).__name__}: {exc}"}
    )


def re_evaluate_violation(entry: dict, spec: AuditSpec) -> certs.Certificate:
    """Re-run the single certificate stored in a violation entry; a name the
    evaluator does not make is a KeyError.  An entry whose n is not the
    number of stored zeros or not one of the spec's, whose distribution is
    not one of the spec's, or whose certificate's n is not the number of
    stored zeros is a ValueError."""
    cfg = _pairs_to_config(entry["zeros"])
    if entry["n"] != cfg.n:
        raise ValueError(f"the entry has n = {entry['n']}, but stores {cfg.n} zeros")
    if entry["n"] not in spec.n_values:
        raise ValueError(f"the entry has n = {entry['n']}, not one of {spec.n_values}")
    if entry["distribution"] not in spec.distributions:
        raise ValueError(
            f"the entry has distribution {entry['distribution']!r}, "
            f"not one of {spec.distributions}"
        )
    stored = certs.Certificate.from_dict(entry["certificate"])
    if stored.n != cfg.n:
        raise ValueError(f"the certificate has n = {stored.n}, but the entry stores {cfg.n} zeros")
    orders = [] if stored.p is None else [densela._check_order(stored.p)]
    label = (stored.name, stored.p)
    return certs._select(cfg, orders, [label], tols=spec.tolerances)[0]


def sweep_p(cfg: ZeroConfig, grid) -> list[certs.Certificate]:
    """The order-p Schoenberg certificates of ``cfg`` across a grid of
    orders, one per entry of the grid (a repeated order included), sorted by
    order.  An empty grid is a ValueError, as an empty p_list of check_all
    is."""
    grid = sorted(map(densela._check_order, grid))
    if not grid:
        raise ValueError("grid must not be empty")
    certs._require_centered(cfg, "the order-p Schoenberg certificate")
    labels = [("schoenberg", p) for p in grid]
    return certs._select(cfg, sorted(set(grid)), labels)


# --- report rendering ------------------------------------------------------

CSV_COLUMNS = tuple(cert_field.name for cert_field in fields(certs.Certificate))


def format_float(value: float) -> str:
    """IEEE-754 double rendered with 17 significant digits (exact round trip)."""
    return format(float(value), ".17g")


# RFC 8259 escapes: a quote, a backslash and every control character, with
# the short forms for newline and tab
_ESCAPES = {code: f"\\u{code:04x}" for code in range(0x20)}
_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n", ord("\t"): "\\t"})
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _json_str(text: str) -> str:
    """A JSON string literal of ``text``."""
    if _NEEDS_ESCAPE.search(text):
        text = text.translate(_ESCAPES)
    return f'"{text}"'


def _json_value(value) -> str:
    """One JSON value by the field rule of emit_report."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json_value, value)) + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return _json_str(value)
    return _csv_field(value)


def _json_object(mapping) -> str:
    """A JSON object of ``mapping``, its fields in their given order."""
    items = (f"{_json_str(key)}: {_json_value(value)}" for key, value in mapping.items())
    return "{" + ", ".join(items) + "}"


def _json_pairs(pairs) -> str:
    """A list of (re, im) pairs as nested JSON arrays; None is null.  The
    values of _json_value, rendered without its per-value dispatch, since
    the audit's zeros lists are most of a report."""
    if pairs is None:
        return "null"
    return "[" + ", ".join(f"[{re:.17g}, {im:.17g}]" for re, im in pairs) + "]"


def _audit_json(report: AuditReport) -> str:
    """The fixed schema of an audit report: spec, sabotage, totals, the
    per-key aggregates sorted by key, violations and errors."""
    rendered: dict[int, str] = {}

    def zeros(pairs) -> str:
        # a pairs list shared by several entries (the keys whose maximum fell
        # on one sample, the violations of one sample) is rendered once
        text = rendered.get(id(pairs))
        if text is None:
            text = rendered[id(pairs)] = _json_pairs(pairs)
        return text

    per_cert = ", ".join(
        f'{_json_str(key)}: {{"total": {stats.total}, "passed": {stats.passed}, '
        f'"max_ratio": {_json_value(stats.max_ratio)}, '
        f'"argmax_zeros": {zeros(stats.argmax_zeros)}}}'
        for key, stats in sorted(report.per_certificate.items())
    )
    violations = ", ".join(
        f'{{"certificate": {_json_object(entry["certificate"])}, "n": {entry["n"]}, '
        f'"distribution": {_json_str(entry["distribution"])}, '
        f'"zeros": {zeros(entry["zeros"])}}}'
        for entry in report.violations
    )
    errors = ", ".join(
        f'{{"n": {entry["n"]}, "distribution": {_json_str(entry["distribution"])}, '
        f'"zeros": {zeros(entry["zeros"])}, "error": {_json_str(entry["error"])}}}'
        for entry in report.errors
    )
    return (
        f'{{"spec": {_json_object(report.spec.to_dict())}, '
        f'"sabotage": {_json_value(report.sabotage)}, '
        f'"total": {report.total}, "passed": {report.passed}, '
        f'"per_certificate": {{{per_cert}}}, '
        f'"violations": [{violations}], "errors": [{errors}]}}\n'
    )


def dumps_report(report) -> str:
    """The JSON text of an audit report or of a batch of certificates, one
    line by the field rule of emit_report."""
    if isinstance(report, AuditReport):
        return _audit_json(report)
    items = ", ".join(_json_object(cert.to_dict()) for cert in report)
    return f'{{"certificates": [{items}]}}\n'


def emit_report(report, path, format: str = "json") -> None:
    """Write an audit report or a batch of certificates to disk.

    JSON embeds each certificate in its wire schema, Certificate.to_dict,
    inside one top-level object.  CSV emits a header line and then one
    certificate per row with the fixed column set CSV_COLUMNS, the fields of
    Certificate; for an audit report the rows are its violations (an empty
    audit yields just the header).

    One field rule renders every scalar of both formats, and of the
    ``schoenberg sweep`` table and the JSON lines of ``schoenberg
    sharpness`` and ``opnorm``: text as is, a bool as true or false, an int
    by str and a float by format_float, 17 significant digits, which
    round-trips IEEE-754 doubles exactly.  None is an empty CSV field and
    JSON null; JSON quotes and escapes text per RFC 8259, renders a list as
    an array, and writes the fields of an object in their given order.  No
    CSV field holds a comma, a quote or a newline, so none is quoted.

    The file gets the same bytes as a truncating write would give it, but a
    regular file is rewritten in place (see the module docstring).
    """
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    if format == "json":
        text = dumps_report(report)
    elif isinstance(report, AuditReport):
        text = _csv_text(CSV_COLUMNS, [entry["certificate"] for entry in report.violations])
    else:
        text = _csv_text(CSV_COLUMNS, [cert.to_dict() for cert in report])
    _write_text(path, text)


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):  # before int: bool is a subclass of int
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format_float(value)


def _csv_text(columns, rows) -> str:
    """The CSV text of emit_report: a header line of ``columns``, then one
    line per row, a certificate's wire dict, of its fields of those names."""
    lines = [",".join(columns)]
    lines += [",".join(_csv_field(row[col]) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the file at ``path`` in place: open it
    without O_TRUNC, write the bytes, then cut the file to their length, so
    a rewrite never truncates it to zero (see the module docstring).  Only
    a regular file is cut: ftruncate fails on /dev/null, a pipe, a tty or a
    FIFO, which a truncating open left as they were."""
    data = text.encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            handle.write(data)
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate(len(data))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
