"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json for one second, untraced and
traced, and checks that:

- each run exits 0 and ends with the result object and its four keys;
- every gate passes;
- the printed metric names and units are exactly those of BENCHMARK.json,
  end-to-end metrics untraced and per-layer metrics traced.

It then copies BENCHMARK.json and this directory alone into
``.bench_out/bare`` and checks that a run there, with no program source,
exits nonzero without printing a result.  Exits nonzero on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, command: list[str], workload: str, trace: int):
    args = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command + args, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} --trace {trace}"
    out = run(ROOT, spec["command"], workload, trace)
    if out.returncode != 0:
        output = (out.stdout + out.stderr).strip()[-1500:]
        return [f"{label}: exit code {out.returncode}:\n{output}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: a gate failed:\n{out.stdout}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted is {result.get('attempted')!r}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong_unit = sorted(k for k in set(expected) & set(printed) if expected[k] != printed[k])
        problems.append(
            f"{label}: metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, unit differs {wrong_unit}"
        )
    return problems


def check_bare(spec: dict) -> list[str]:
    """A directory holding only BENCHMARK.json and the benchmark must fail."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = run(bare, spec["command"], spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["bare directory: the run succeeded without the program source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{'FAIL' if found else 'ok'}: {workload['name']} --trace {trace}", flush=True)
            problems += found
    found = check_bare(spec)
    print(f"{'FAIL' if found else 'ok'}: bare directory exits nonzero", flush=True)
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
