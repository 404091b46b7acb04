"""Per-call cost of each layer across the problem size n.

One configuration per distribution at each n; every layer is called once on
each (after one untimed call), and the median is reported in microseconds.
The layers are those the audit and the cross-check stack up: sampling,
building the differentiator, its eigenvalues and singular values, the full
certificate batch, and the direct Aberth route.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from types import SimpleNamespace

from schoenberg import certs, densela, harness, polyzero

SWEEP_NS = (3, 8, 16, 32)

# metric stem -> call on one prepared input
LAYERS = {
    "harness.sample_config": lambda x: harness.sample_config(x.n, x.dist, x.seed),
    "densela.differentiator": lambda x: densela.differentiator(x.cfg),
    "densela.eigenvalues": lambda x: densela.eigenvalues(x.matrix),
    "densela.singular_values": lambda x: densela.singular_values(x.matrix),
    "certs.check_all": lambda x: certs.check_all(x.cfg, harness.DEFAULT_P_GRID),
    "polyzero.critical_points_direct": lambda x: polyzero.critical_points_direct(x.cfg),
}


def metric_names() -> list[str]:
    return [f"sweep.{layer}.us.n{n}" for layer in LAYERS for n in SWEEP_NS]


def run_sweep(seed: int) -> dict[str, float]:
    out = {}
    for n in SWEEP_NS:
        inputs = []
        for dist in harness.DISTRIBUTIONS:
            cfg = harness.sample_config(n, dist, seed)
            matrix = densela.differentiator(cfg)
            inputs.append(SimpleNamespace(n=n, dist=dist, seed=seed, cfg=cfg, matrix=matrix))
        for layer, call in LAYERS.items():
            call(inputs[0])
            times = []
            for x in inputs:
                start = perf_counter()
                call(x)
                times.append(perf_counter() - start)
            out[f"sweep.{layer}.us.n{n}"] = statistics.median(times) * 1e6
    return out
