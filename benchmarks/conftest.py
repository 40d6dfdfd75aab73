"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints the
same rows/series the paper reports (visible with ``pytest -s``) and persists
the raw data as JSON under ``benchmarks/out/`` for EXPERIMENTS.md.

Scale knobs: the paper's own artifact takes ~5 hours; these defaults are
sized for minutes.  Set ``REPRO_BENCH_SCALE=full`` for paper-scale shots,
``REPRO_BENCH_SCALE=smoke`` for the CI smoke tier (seconds).
"""

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")
FULL_SCALE = SCALE == "full"
SMOKE = SCALE == "smoke"


def scaled(full: int, quick: int, smoke: int | None = None) -> int:
    """Pick a shot budget for the active benchmark scale tier."""
    if FULL_SCALE:
        return full
    if SMOKE:
        return smoke if smoke is not None else max(1, quick // 4)
    return quick


def cpu_count() -> int:
    """Usable CPUs (affinity-aware on Linux, portable elsewhere)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


WORKERS = max(1, min(4, cpu_count()))


def _spin(barrier, seconds: float, results) -> None:
    barrier.wait()
    start = time.process_time()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    results.put(time.process_time() - start)


def measured_cpu_share(processes: int = 2, seconds: float = 0.25) -> float:
    """CPUs the host actually gives ``processes`` busy processes now
    (at most ``processes``).

    Each process spins pure Python for ``seconds`` of wall time, all
    starting together; the share is their summed ``process_time`` over
    that wall time.  On 2 vCPUs it read anywhere from 0.86 to 2.19
    between runs, so a pooled speedup is recorded next to it.
    """
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(processes)
    results = ctx.Queue()
    spinners = [
        ctx.Process(target=_spin, args=(barrier, seconds, results)) for _ in range(processes)
    ]
    for spinner in spinners:
        spinner.start()
    cpu = sum(results.get() for _ in spinners)
    for spinner in spinners:
        spinner.join()
    return cpu / seconds


def make_engine(cache=True):
    """The benchmarks' shared engine configuration.

    Process pool when real parallelism is available (the pure-Python
    simulators are GIL-bound, so threads cannot speed them up), serial
    otherwise.
    """
    from repro.engine import Engine

    executor = "process" if WORKERS > 1 else "serial"
    return Engine(workers=WORKERS, executor=executor, cache=cache)


def emit(name: str, payload, wall_time: float | None = None, engine=None, results=None,
         meta=None) -> None:
    """Print a result object and persist its JSON dump.

    ``wall_time`` (seconds) and ``engine`` (a :class:`repro.engine.Engine`,
    whose cumulative statistics — jobs, shots, backend mix, cache hit/miss
    counters — are snapshotted) are recorded under a ``meta`` key in the
    persisted payload; ``meta`` merges extra benchmark-specific keys into
    it (e.g. the visible CPU count a speedup gate assumed).  ``results`` is a sequence of
    :class:`repro.api.ExperimentResult` envelopes (or a
    :class:`repro.api.SweepResult`): their ``to_dict()`` output is
    persisted verbatim under ``experiment_results`` so every benchmark
    point stays replayable (specs, recorded seeds, provenance hashes).
    """
    OUT_DIR.mkdir(exist_ok=True)
    text = payload.to_text()
    print()
    print(text)
    document = json.loads(payload.to_json())
    extra_meta = dict(meta) if meta else {}
    meta = {"wall_time_s": wall_time}
    if engine is not None:
        stats = engine.stats_dict()
        meta["engine"] = stats
        meta["compile_time_s"] = stats.get("compile_time", 0.0)
        meta["execute_time_s"] = stats.get("execute_time", 0.0)
        print(f"engine: {json.dumps(stats)}")
        print(
            f"compile time: {meta['compile_time_s']:.4f}s / "
            f"execute time: {meta['execute_time_s']:.4f}s"
        )
    if wall_time is not None:
        print(f"wall time: {wall_time:.2f}s")
    meta.update(extra_meta)
    document["meta"] = meta
    if results is not None:
        if hasattr(results, "results"):  # a SweepResult
            results = results.results()
        document["experiment_results"] = [r.to_dict() for r in results]
    (OUT_DIR / f"{name}.json").write_text(json.dumps(document))


@contextmanager
def stopwatch():
    """Measure a with-block's wall time: ``elapsed()`` after the block."""
    start = time.perf_counter()
    stop = {"at": None}

    def elapsed() -> float:
        return (stop["at"] or time.perf_counter()) - start

    try:
        yield elapsed
    finally:
        stop["at"] = time.perf_counter()


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (heavy simulations)."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)

    return runner
