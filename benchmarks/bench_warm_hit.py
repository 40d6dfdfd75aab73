"""Warm-hit gate: a cached experiment re-run costs at most 1 ms.

A result-cache hit still runs the front end: validation, protocol build,
recycling, lowering, job packaging, job hash and cache lookup, then the
envelope.  With frozen circuits and the shape memo every one of those is
a lookup, so a hit must cost ≤ 1 ms for every experiment kind of the
repository benchmark's ``cold_family`` set (monolithic SWAP test, COMPAS
with link noise, N-state, N-party and GHZ-64 fidelity).

Each kind runs once on a serial caching engine to fill the cache, then
``HITS`` more times; the gate asserts on the median hit, and the table
prints exactly that median.  The JSON lands at
``benchmarks/out/warm_hit.json``.
"""

import statistics
import time

import numpy as np
from conftest import emit, scaled

from repro.api import Experiment, NetworkSpec
from repro.engine import Engine
from repro.reporting import Table
from repro.utils.states import random_pure_state

#: The gate: median seconds per warm hit, for every kind.
HIT_CEILING_S = 1e-3

HITS = scaled(full=200, quick=60, smoke=30)


def cold_family(seed: int = 1) -> dict[str, Experiment]:
    """The ``cold_family`` experiments at their benchmark sizes."""
    rng = np.random.default_rng(seed)
    pair = [random_pure_state(2, rng) for _ in range(2)]
    states = [random_pure_state(1, rng) for _ in range(3)]
    seeds = [int(s) for s in rng.integers(2**31, size=5)]
    return {
        "swap_test.monolithic": Experiment.swap_test(pair, shots=10_000, seed=seeds[0]),
        "swap_test.compas": Experiment.swap_test(
            states,
            shots=1_000,
            seed=seeds[1],
            backend="compas",
            network=NetworkSpec(topology="line", link_depolarizing=0.01),
        ),
        "nstate_swap": Experiment.nstate_swap(states, shots=2_000, seed=seeds[2]),
        "nparty_hadamard": Experiment.nparty_hadamard(states, shots=200, seed=seeds[3]),
        "ghz_fidelity": Experiment.ghz_fidelity(64, p=0.002, shots=20_000, seed=seeds[4]),
    }


def warm_hit_times(engine: Engine, experiment: Experiment) -> list[float]:
    first = experiment.run(engine=engine)
    times = []
    for _ in range(HITS):
        start = time.perf_counter()
        result = experiment.run(engine=engine)
        times.append(time.perf_counter() - start)
        assert result.estimate == first.estimate
    return times


def test_warm_hit_gate():
    table = Table(
        f"Warm cache hits — serial caching engine, median of {HITS} hits per kind",
        ["experiment", "median_ms", "min_ms", "max_ms", "gate_ms", "ok"],
    )
    medians = {}
    start = time.perf_counter()
    with Engine(workers=1, executor="serial", cache=True) as engine:
        for name, experiment in cold_family().items():
            times = warm_hit_times(engine, experiment)
            medians[name] = statistics.median(times)
            table.add_row(
                experiment=name,
                median_ms=medians[name] * 1e3,
                min_ms=min(times) * 1e3,
                max_ms=max(times) * 1e3,
                gate_ms=HIT_CEILING_S * 1e3,
                ok=medians[name] <= HIT_CEILING_S,
            )
        emit(
            "warm_hit",
            table,
            wall_time=time.perf_counter() - start,
            engine=engine,
            meta={"hits": HITS, "gate_s": HIT_CEILING_S, "median_s": medians},
        )
    slow = {name: t for name, t in medians.items() if t > HIT_CEILING_S}
    assert not slow, f"warm hits above {HIT_CEILING_S * 1e3:.1f} ms: {slow}"
