"""Run one benchmark workload of the schoenberg package and print its metrics.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 10 --trace 0

Workloads: audit, ratio_search, opnorm_search, crosscheck (see
``workloads.py`` and README.md).  The program under test is imported from the
``src/`` directory next to this one, never from an installed copy; without it
the run exits nonzero and prints no result.

``--trace 0`` times the workload with no tracing and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced units, prints the
per-layer metrics (calls and self time per unit of work, exact counts, the
tracing overhead and a layer sweep over n) and writes every span to
``.bench_out/spans-<workload>.npz``.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
is 1 when a correctness gate failed.
"""

from __future__ import annotations

import os

# one thread for every BLAS/OpenMP pool; the pools size themselves when numpy
# loads, so this must run before any import of numpy
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
MIN_UNITS = 5  # timed units per run, however short --seconds is
KERNEL_NOMINAL_S = 0.010  # one reference second: the kernel takes exactly this
_kernel_rng = np.random.default_rng(0)
KERNEL_MATRIX = _kernel_rng.standard_normal((8, 8)) + 1j * _kernel_rng.standard_normal((8, 8))


class Unit(NamedTuple):
    work: int  # configurations or evaluations
    seconds: float
    ref: float  # reference kernel time over its nominal, around this unit
    traced: bool


END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# exact counts reported by the workloads; a workload that does not reach a
# layer reports 0 for it
COUNTS = (
    ("harness.emit_report.bytes", "B"),
    ("audit.certificates_per_config", "count"),
    ("audit.violations", "count"),
    ("audit.error_frac", "frac"),
    ("sharpness.restarts", "count"),
    ("sharpness.maximize_ratio.below_099_frac", "frac"),
    ("polyzero.root_failures", "frac"),
    ("crosscheck.fail_frac", "frac"),
    ("crosscheck.max_disagreement.n3", "rel"),
    ("crosscheck.max_disagreement.n8", "rel"),
    ("crosscheck.max_disagreement.n16", "rel"),
    ("crosscheck.max_disagreement.n32", "rel"),
    ("crosscheck.max_tolerance_use", "frac"),
)


def load_program() -> None:
    """Import schoenberg from SRC; exit nonzero when it is not there."""
    if not (SRC / "schoenberg" / "__init__.py").is_file():
        sys.exit(f"error: program source {SRC / 'schoenberg'} not found")
    sys.path.insert(0, str(SRC))
    import schoenberg

    if not Path(schoenberg.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: schoenberg was imported from {schoenberg.__file__}, not {SRC}")


def per_layer_metrics() -> list[tuple[str, str]]:
    from sweep import metric_names
    from tracer import LAYER_NAMES

    names = []
    for layer in LAYER_NAMES:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += COUNTS
    names += [("trace.overhead_frac", "frac"), ("trace.spans", "count")]
    names += [(name, "us") for name in metric_names()]
    return names


def measure_setup(probe: str) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing the package and making the
    workload's first small call: (median in reference seconds, raw median)."""
    code = f"import sys; sys.path.insert(0, sys.argv[1]); import schoenberg as s; {probe}"
    scaled, raw = [], []
    kernel_before = reference_kernel()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        elapsed = perf_counter() - start
        kernel_after = reference_kernel()
        raw.append(elapsed)
        scaled.append(elapsed / ((kernel_before + kernel_after) / 2 / KERNEL_NOMINAL_S))
        kernel_before = kernel_after
    return statistics.median(scaled), statistics.median(raw)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small LAPACK calls and interpreted
    arithmetic, the two kinds of work the package does.

    On a shared host the speed of one CPU drifts by 20-30% over seconds as
    other tenants load it (measured on a 2-CPU x86-64 virtual machine).
    Timing this kernel next to every unit tracks that drift, and dividing it
    out leaves the program's own speed.  The kernel uses numpy alone, so no
    change to the package can change its time.
    """
    start = perf_counter()
    acc = 0.0
    for _ in range(150):
        acc += float(np.abs(np.linalg.eigvals(KERNEL_MATRIX)).max())
        for j in range(60):
            acc += (j * 0.5) ** 0.5
    return perf_counter() - start


def measure(workload, seconds: float, tracer) -> list[Unit]:
    """Run units until their summed time reaches ``seconds``.

    With a tracer, every other unit runs traced.  Unit 0 belongs to the
    warm-up, so timing starts at 1.  The reference kernel runs between
    units; each unit is scaled by the mean of the kernel times on either
    side of it.
    """
    rows = []
    measured = 0.0
    index = 1
    kernel_before = reference_kernel()
    while measured < seconds or len(rows) < MIN_UNITS:
        inputs = workload.prepare(index)
        traced = tracer is not None and index % 2 == 0
        with tracer.active() if traced else nullcontext():
            start = perf_counter()
            result = workload.unit(inputs)
            elapsed = perf_counter() - start
        workload.inspect(inputs, result)
        kernel_after = reference_kernel()
        ref = (kernel_before + kernel_after) / 2 / KERNEL_NOMINAL_S
        rows.append(Unit(workload.work(inputs, result), elapsed, ref, traced))
        kernel_before = kernel_after
        measured += elapsed
        index += 1
    return rows


def median_rate(rows, traced: bool, reference: bool = True) -> float:
    """Median work per second over the units, in reference seconds by default."""
    return statistics.median(
        u.work / (u.seconds / u.ref if reference else u.seconds)
        for u in rows
        if u.traced == traced
    )


def layer_metrics(tracer, rows, outcome, seed: int) -> dict[str, float]:
    from sweep import run_sweep

    traced_work = sum(u.work for u in rows if u.traced)
    metrics = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = calls / traced_work
        metrics[f"{layer}.self_s"] = self_s / traced_work
    for name, _ in COUNTS:
        metrics[name] = float(outcome.counts.get(name, 0.0))
    metrics["trace.overhead_frac"] = median_rate(rows, False) / median_rate(rows, True) - 1.0
    metrics["trace.spans"] = tracer.span_count
    metrics.update(run_sweep(seed))
    return metrics


def environment_lines() -> list[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    pinned = ", ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas_text}",
        f"threads pinned: {pinned}; cpus visible: {os.cpu_count()}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from tracer import Tracer
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    outcome = Outcome()
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR, outcome)

    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(workload.PROBE)
    tracer = Tracer() if args.trace else None
    workload.warm_up()
    rows = measure(workload, args.seconds, tracer)
    workload.finish()

    if args.trace:
        metrics = layer_metrics(tracer, rows, outcome, args.seed)
        tracer.dump(OUT_DIR / f"spans-{args.workload}.npz")
        units = dict(per_layer_metrics())
    else:
        metrics = {
            "throughput_per_s": median_rate(rows, False),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    lines = environment_lines()
    lines.append(
        f"workload {args.workload}, seed {args.seed}: {len(rows)} units, "
        f"{sum(u.work for u in rows)} {workload.work_label}; untraced median "
        f"{median_rate(rows, False, reference=False):.6g} per wall second, reference "
        f"kernel at {statistics.median(u.ref for u in rows):.4f} of nominal"
    )
    if setup_raw_s is not None:
        lines.append(f"setup median {setup_raw_s:.6g} wall seconds")
    lines += outcome.notes
    lines += [f"gate {'PASS' if ok else 'FAIL'}: {name}" for name, ok in outcome.gates.items()]
    lines += [f"{name} = {value!r} {units[name]}" for name, value in metrics.items()]
    print("\n".join(lines))
    result = {
        "correct": all(outcome.gates.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
