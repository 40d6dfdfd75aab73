"""Cross-job sweep pipeline: pool utilisation, bit-identity, checkpoint/resume.

The paper's headline results (Fig. 9, Table 4, the Appendix-B link-noise
floors) are parameter sweeps of hundreds of *small* jobs.  The historical
``run_many`` path executed jobs one at a time, so a sweep of
4-batch jobs left a many-worker pool almost idle at every job boundary.
This benchmark measures the cross-job pipeline on exactly that workload:

* **pipelining** — the same many-small-jobs sweep runs serially (1 worker)
  and through the cross-job pipeline (all batches of all jobs submitted
  at once).  With >= 4 CPUs the pipeline must clear a **3x** wall-time
  speedup over the serial path at 8 workers.
* **bit-identity** — both configurations produce byte-identical
  per-point estimates (RNG substreams depend only on
  ``(job.seed, batch.index)``).
* **checkpoint/resume** — an experiment-level sweep with ``checkpoint=``
  is killed partway (the streaming iterator is abandoned), then re-run:
  the finished points are served from the checkpoint and only the
  unfinished ones execute jobs.
"""

import tempfile
from pathlib import Path

import numpy as np
from conftest import cpu_count, emit, measured_cpu_share, scaled, stopwatch

from repro.api import Experiment
from repro.core import build_monolithic_swap_test, swap_test_job
from repro.engine import Engine
from repro.reporting import Table
from repro.utils import random_density_matrix

CPUS = cpu_count()
PIPELINE_WORKERS = 8
EXECUTOR = "process" if CPUS > 1 else "thread"

#: Many small jobs: each job is a handful of batches, so only submitting
#: across job boundaries can keep all 8 workers busy.  The shot budget
#: keeps the kernel work well above the per-group dispatch cost; at 200
#: shots a job took a few milliseconds and the 2-CPU floor measured noise.
NUM_JOBS = scaled(full=96, quick=24, smoke=24)
SHOTS = scaled(full=32_000, quick=16_000, smoke=16_000)
BATCHES = 4

#: Acceptance bar (ISSUE 5): pipelined sweep vs the serial path at 8
#: workers, enforced where the hardware can express it.
PIPELINE_SPEEDUP_FLOOR = 3.0

RESUME_POINTS = scaled(full=12, quick=8, smoke=4)


def make_job(seed: int):
    rng = np.random.default_rng(77)
    build = build_monolithic_swap_test(3, 1, variant="b", basis="x")
    states = [random_density_matrix(1, rng=rng) for _ in range(3)]
    return swap_test_job(
        build, states, SHOTS, seed, batch_size=max(1, SHOTS // BATCHES)
    )


SEEDS = range(1000, 1000 + NUM_JOBS)


def run_sweep_configs():
    rows = {}
    with Engine(workers=1) as serial, stopwatch() as serial_time:
        rows["serial"] = serial.run_many([make_job(seed) for seed in SEEDS])
    rows["serial_time"] = serial_time()
    with Engine(workers=PIPELINE_WORKERS, executor=EXECUTOR) as pool:
        # One untimed pass spawns the workers and primes their compile
        # caches, so the pipeline row measures dispatch on a warm pool.
        pool.run_many([make_job(seed) for seed in SEEDS])
        with stopwatch() as pipeline_time:
            rows["pipeline"] = pool.run_many([make_job(seed) for seed in SEEDS])
        rows["pipeline_time"] = pipeline_time()
        # After the timed run: a probe spun just ahead of a pooled run
        # slows it.
        rows["cpu_share"] = measured_cpu_share()
        rows["pool_stats"] = pool.stats_dict()
    return rows


def run_checkpoint_demo():
    rng = np.random.default_rng(5)
    states = [random_density_matrix(1, rng=rng) for _ in range(2)]
    base = Experiment.swap_test(states, shots=max(SHOTS, 128), seed=11, variant="b")
    values = [max(SHOTS, 128) + 16 * i for i in range(RESUME_POINTS)]
    checkpoint = Path(tempfile.mkdtemp(prefix="repro-sweep-ckpt-"))
    kill_after = RESUME_POINTS // 2

    demo = {"kill_after": kill_after, "values": values}
    with Engine(workers=2) as engine, stopwatch() as first_leg:
        iterator = base.sweep_iter(over="shots", values=values, engine=engine,
                                   checkpoint=checkpoint)
        for count, (_point, sweep) in enumerate(iterator, start=1):
            demo["partial_len"] = len(sweep.partial())
            if count == kill_after:
                iterator.close()  # the "kill": abandon the sweep mid-run
                break
        demo["jobs_first_leg"] = engine.stats.jobs
    demo["first_leg_time"] = first_leg()

    with Engine(workers=2) as engine, stopwatch() as resume_leg:
        resumed = base.sweep(over="shots", values=values, engine=engine,
                             checkpoint=checkpoint)
        demo["jobs_resume_leg"] = engine.stats.jobs
    demo["resume_leg_time"] = resume_leg()
    demo["sweep"] = resumed

    reference = base.sweep(over="shots", values=values)
    demo["identical"] = resumed.estimates() == reference.estimates()
    return demo


def test_sweep_pipeline(once):
    table = Table(
        f"Cross-job sweep pipeline — {NUM_JOBS} jobs x {BATCHES} batches "
        f"({SHOTS} shots each, {CPUS} CPU(s) visible)",
        ["configuration", "wall_time_s", "jobs_per_s", "speedup", "note"],
    )
    results = once(lambda: (run_sweep_configs(), run_checkpoint_demo()))
    rows, demo = results

    serial_t = rows["serial_time"]
    pipeline_t = rows["pipeline_time"]
    pipeline_speedup = serial_t / max(pipeline_t, 1e-9)

    def estimates(results):
        return [(r.parity_mean, r.parity_stderr) for r in results]

    identical = estimates(rows["serial"]) == estimates(rows["pipeline"])

    table.add_row(
        configuration="serial (1 worker, job at a time)",
        wall_time_s=serial_t,
        jobs_per_s=f"{NUM_JOBS / max(serial_t, 1e-9):.1f}",
        speedup="x1.00",
        note="the historical run_many path",
    )
    table.add_row(
        configuration=f"cross-job pipeline ({PIPELINE_WORKERS} workers)",
        wall_time_s=pipeline_t,
        jobs_per_s=f"{NUM_JOBS / max(pipeline_t, 1e-9):.1f}",
        speedup=f"x{pipeline_speedup:.2f}",
        note=f"all {NUM_JOBS * BATCHES} batches share the pool, "
        f"{rows['cpu_share']:.2f} CPUs measured"
        + ("" if identical else " (MISMATCH)"),
    )
    table.add_row(
        configuration=f"checkpointed sweep, killed after {demo['kill_after']}"
        f"/{RESUME_POINTS} points",
        wall_time_s=demo["first_leg_time"],
        jobs_per_s="-",
        speedup="-",
        note=f"{demo['jobs_first_leg']} jobs before the kill",
    )
    table.add_row(
        configuration="checkpointed sweep, resumed",
        wall_time_s=demo["resume_leg_time"],
        jobs_per_s="-",
        speedup="-",
        note=(
            f"resumed {demo['sweep'].resumed} points from checkpoint, "
            f"{demo['jobs_resume_leg']} jobs recomputed"
        ),
    )
    emit(
        "sweep_pipeline",
        table,
        wall_time=serial_t + pipeline_t
        + demo["first_leg_time"] + demo["resume_leg_time"],
        results=demo["sweep"],
        meta={
            "cpus_visible": CPUS,
            "pipeline_speedup": pipeline_speedup,
            # CPUs a two-process spin probe got right after the timed
            # pipeline run: the speedup above can only be read against it.
            "cpu_share_measured": rows["cpu_share"],
        },
    )

    # Bit-identity: the pipeline never changes the estimates.
    assert identical
    # Checkpoint/resume: only the unfinished points recompute (2 jobs each).
    assert demo["sweep"].resumed == demo["kill_after"]
    assert demo["jobs_resume_leg"] == 2 * (RESUME_POINTS - demo["kill_after"])
    assert demo["identical"]
    # Pipelining acceptance: >= 3x over the serial path at 8 workers where
    # the hardware can express it; weaker floors below that so the bench
    # still guards against regressions on small CI runners.
    if CPUS >= 4:
        assert pipeline_speedup >= PIPELINE_SPEEDUP_FLOOR
    elif CPUS >= 2:
        assert pipeline_speedup >= 1.3
    else:
        # Single-CPU runner: parallel speedup is physically impossible;
        # only require that pipelining is not catastrophically slower.
        assert pipeline_t < serial_t * 25
