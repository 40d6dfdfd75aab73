"""Engine scaling: vectorized kernel speedup, worker fan-out, result cache.

Demonstrates the headline properties of the execution engine on a
multi-shot SWAP-test job:

* **compiled + vectorized execution** — the same job runs through the
  per-shot reference interpreter (``backend="statevector-ref"``) and the
  compiled/vectorized batch kernel (the default ``statevector`` backend);
  the kernel must deliver **>= 5x** the reference throughput at equal shots
  (the acceptance bar of the compiled-core refactor; typically 20-40x).
* **scaling** — the same job partitioned into batches runs on 1 worker and
  on a prewarmed multi-worker process pool (warm workers, reduce-in-worker
  batch groups), producing *bit-identical* estimates; at >= 4 visible CPUs
  the pool must clear ``0.7 * N`` times the 1-worker throughput.
* **caching** — re-running an identical job is served from the result cache
  (hit counter increments, no new shots are executed) and is orders of
  magnitude faster than recomputation.
"""

import numpy as np
from conftest import cpu_count, emit, measured_cpu_share, scaled, stopwatch

from repro.core import build_monolithic_swap_test, swap_test_job
from repro.engine import Engine
from repro.reporting import Table
from repro.utils import random_density_matrix

#: Smoke runs at the quick size: at 1,500 shots the serial job took only
#: 14-27 ms on 2 vCPUs, so the 2-CPU direction bar below measured noise.
SHOTS = scaled(full=20_000, quick=6_000, smoke=6_000)
CPUS = cpu_count()
POOL_WORKERS = max(2, min(4, CPUS))

#: Acceptance bar: compiled/vectorized statevector throughput over the
#: per-shot reference interpreter at equal shots.
KERNEL_SPEEDUP_FLOOR = 5.0

#: Acceptance bar for pooled fan-out: with >= 4 real CPUs an N-worker
#: process pool (warm workers, reduce-in-worker batch groups) must reach
#: at least ``0.7 * N`` times the 1-worker kernel throughput.  Below 4
#: CPUs there is no hardware to scale onto, so the gate is skipped — the
#: persisted ``meta.cpus_visible`` records which regime produced the file.
POOL_EFFICIENCY_FLOOR = 0.7


def make_job(seed: int = 404, backend: str | None = None):
    rng = np.random.default_rng(77)
    build = build_monolithic_swap_test(3, 1, variant="b", basis="x")
    states = [random_density_matrix(1, rng=rng) for _ in range(3)]
    return swap_test_job(build, states, SHOTS, seed, batch_size=250, backend=backend)


def test_engine_scaling(once):
    table = Table(
        f"Engine scaling — {SHOTS}-shot SWAP-test job ({CPUS} CPU(s) visible)",
        ["configuration", "wall_time_s", "shots_per_s", "estimate", "note"],
    )
    cached_engine = Engine(workers=1, cache=True)

    def run():
        rows = {}
        with Engine(workers=1) as serial:
            with stopwatch() as ref_time:
                rows["reference"] = serial.run(make_job(backend="statevector-ref"))
            rows["reference_time"] = ref_time()
            with stopwatch() as serial_time:
                rows["serial"] = serial.run(make_job())
            rows["serial_time"] = serial_time()
        with Engine(workers=POOL_WORKERS, executor="process") as pool:
            # Pool start-up is a one-time cost, not per-job dispatch cost:
            # spawn the workers outside the stopwatch.
            pool.prewarm()
            with stopwatch() as pool_time:
                rows["pool"] = pool.run(make_job())
        rows["pool_time"] = pool_time()
        # After the pooled run, not before: spinning the probe just ahead
        # of it slowed the pooled job (x0.63 median against x0.78, 2 vCPUs).
        rows["cpu_share"] = measured_cpu_share()
        with stopwatch() as cold_time:
            rows["cold"] = cached_engine.run(make_job())
        rows["cold_time"] = cold_time()
        with stopwatch() as warm_time:
            rows["warm"] = cached_engine.run(make_job())
        rows["warm_time"] = warm_time()
        return rows

    rows = once(run)
    kernel_speedup = rows["reference_time"] / max(rows["serial_time"], 1e-9)
    pool_speedup = rows["serial_time"] / max(rows["pool_time"], 1e-9)
    cache_speedup = rows["cold_time"] / max(rows["warm_time"], 1e-9)

    def throughput(key):
        return f"{SHOTS / max(rows[key], 1e-9):,.0f}"

    table.add_row(
        configuration="per-shot reference (1 worker)",
        wall_time_s=rows["reference_time"],
        shots_per_s=throughput("reference_time"),
        estimate=f"{rows['reference'].parity_mean:.5f}",
        note="statevector-ref backend",
    )
    table.add_row(
        configuration="vectorized kernel (1 worker)",
        wall_time_s=rows["serial_time"],
        shots_per_s=throughput("serial_time"),
        estimate=f"{rows['serial'].parity_mean:.5f}",
        note=(
            f"compiled batch kernel, x{kernel_speedup:.1f} vs reference "
            f"(compile {rows['serial'].compile_time * 1e3:.1f}ms / "
            f"execute {rows['serial'].execute_time * 1e3:.1f}ms)"
        ),
    )
    table.add_row(
        configuration=f"{POOL_WORKERS} workers (process pool)",
        wall_time_s=rows["pool_time"],
        shots_per_s=throughput("pool_time"),
        estimate=f"{rows['pool'].parity_mean:.5f}",
        note=f"speedup x{pool_speedup:.2f} over 1-worker kernel "
        f"({rows['cpu_share']:.2f} CPUs measured)",
    )
    table.add_row(
        configuration="cache cold",
        wall_time_s=rows["cold_time"],
        shots_per_s=throughput("cold_time"),
        estimate=f"{rows['cold'].parity_mean:.5f}",
        note="computed + stored",
    )
    table.add_row(
        configuration="cache warm",
        wall_time_s=rows["warm_time"],
        shots_per_s=throughput("warm_time"),
        estimate=f"{rows['warm'].parity_mean:.5f}",
        note=f"served from cache, x{cache_speedup:.0f} faster",
    )
    emit(
        "engine_scaling",
        table,
        wall_time=sum(
            rows[k]
            for k in ("reference_time", "serial_time", "pool_time", "cold_time", "warm_time")
        ),
        engine=cached_engine,
        meta={
            # The speedup gates below assume this many CPUs were visible
            # when the file was produced; re-judge stale files accordingly.
            "cpus_visible": CPUS,
            "pool_workers": POOL_WORKERS,
            "pool_speedup": pool_speedup,
            # CPUs a two-process spin probe got right after the pooled
            # run: the speedup above can only be read against it.
            "cpu_share_measured": rows["cpu_share"],
            "pool_gate": (
                f">= {POOL_EFFICIENCY_FLOOR} * {POOL_WORKERS}x serial"
                if CPUS >= 4
                else "skipped (needs >= 4 CPUs)"
            ),
        },
    )

    # Compiled-core acceptance: the vectorized kernel clears the 5x bar.
    assert kernel_speedup >= KERNEL_SPEEDUP_FLOOR
    # Determinism: worker count never changes the bits.
    assert rows["pool"].parity_mean == rows["serial"].parity_mean
    assert rows["pool"].parity_stderr == rows["serial"].parity_stderr
    # Caching: the repeated job is a hit and skips recomputation.
    assert rows["warm"].from_cache and not rows["cold"].from_cache
    assert rows["warm"].parity_mean == rows["cold"].parity_mean
    assert cached_engine.cache.stats.hits == 1
    assert rows["warm_time"] < rows["cold_time"]
    # Scaling gates need real parallel hardware: a single visible CPU has
    # nothing to fan out onto, so the multi-worker bars are skipped there.
    if CPUS >= 4:
        # Warm workers + reduce-in-worker groups must make the pool an
        # actual speedup: at least 70% of the ideal N-worker throughput.
        assert pool_speedup >= POOL_EFFICIENCY_FLOOR * POOL_WORKERS, (
            f"pooled throughput x{pool_speedup:.2f} below the "
            f"{POOL_EFFICIENCY_FLOOR} * {POOL_WORKERS}-worker bar"
        )
    elif CPUS > 1:
        # 2-3 CPUs: direction-only bar (pool must not be slower than serial
        # by more than scheduling noise at quick scale).
        assert rows["pool_time"] < rows["serial_time"] * 1.5
    cached_engine.close()
