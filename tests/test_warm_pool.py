"""Tests for the warm process-pool path: batch groups and the cost model.

The load-bearing invariant under test: results are bit-identical at any
worker count and any dispatch shape, because RNG substreams depend only on
``(job.seed, batch.index)`` and every reduction (worker-side group folds,
parent-side index-ordered combine) is exact and order-insensitive.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.engine import (
    Batch,
    BatchExecutionError,
    CostModel,
    BatchStats,
    Engine,
    Job,
    WorkerJobMiss,
)
from repro.engine.runners import (
    _accumulate_matrix,
    _init_pool_worker,
    _warm_group,
    execute_batch_group,
    worker_cache_info,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observability
from repro.obs.trace import NOOP_TRACER
from repro.sim import NoiseModel


def sv_circuit() -> Circuit:
    """Non-Clifford 3-qubit circuit (routes to the vectorized kernel)."""
    circuit = Circuit(3, 3)
    circuit.h(0)
    circuit.t(0)
    circuit.cx(0, 1)
    circuit.rx(0.3, 2)
    circuit.cx(1, 2)
    for q in range(3):
        circuit.measure(q, q)
    return circuit


def sv_job(seed: int = 11, shots: int = 600, **overrides) -> Job:
    return Job(
        circuit=sv_circuit(),
        shots=shots,
        seed=seed,
        batch_size=64,
        readout=(0, 2),
        **overrides,
    )


def link_noise_job(seed: int = 3, shots: int = 400) -> Job:
    """Non-Clifford circuit with a hop-tagged Bell generation + link noise."""
    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.t(0)
    circuit.append("cx", [0, 1], hops=2)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return Job(
        circuit=circuit,
        shots=shots,
        seed=seed,
        batch_size=50,
        noise=NoiseModel(0.01, 0.02, 0.01, p_link=0.1),
    )


def metrics_obs() -> Observability:
    return Observability(tracer=NOOP_TRACER, metrics=MetricsRegistry())


@pytest.fixture(scope="module")
def serial_results():
    """One serial baseline per job flavour, shared across identity tests."""
    with Engine(workers=1, executor="serial") as engine:
        return {
            "sv": engine.run(sv_job()),
            "link": engine.run(link_noise_job()),
        }


class TestProcessPoolBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_statevector_matches_serial(self, workers, serial_results):
        base = serial_results["sv"]
        with Engine(workers=workers, executor="process") as engine:
            result = engine.run(sv_job())
        assert result.counts == base.counts
        assert result.parity_mean == base.parity_mean
        assert result.parity_stderr == base.parity_stderr
        assert result.num_batches == base.num_batches

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_link_noise_matches_serial(self, workers, serial_results):
        base = serial_results["link"]
        with Engine(workers=workers, executor="process") as engine:
            result = engine.run(link_noise_job())
        assert result.counts == base.counts
        assert result.num_batches == base.num_batches

    def test_auto_executor_matches_serial(self, serial_results):
        base = serial_results["sv"]
        with Engine(workers=2, executor="auto") as engine:
            result = engine.run(sv_job())
        assert result.counts == base.counts

    def test_pipelined_sweep_matches_serial(self):
        jobs = [sv_job(seed=s) for s in range(4)]
        with Engine(workers=1, executor="serial") as serial:
            base = serial.run_many(jobs)
        with Engine(workers=2, executor="process") as engine:
            pooled = engine.run_many(jobs)
        assert [r.counts for r in pooled] == [r.counts for r in base]


class TestWarmWorkerProtocol:
    def test_prewarm_reports_worker_pids(self):
        with Engine(workers=2, executor="process") as engine:
            pids = engine.prewarm()
            assert pids and all(isinstance(pid, int) for pid in pids)
            # The warm-up's kernel group leaves the job memo empty.
            pool = engine.scheduler._ensure_pool()
            assert pool.submit(worker_cache_info).result()["jobs"] == 0
        with Engine(workers=2, executor="thread") as engine:
            assert engine.prewarm() == []

    def test_workers_freeze_what_they_inherit(self):
        # A worker's full collections skip the objects it inherited; the
        # parent process, and an in-process cache clear, freeze nothing.
        frozen = gc.get_freeze_count()
        _init_pool_worker()
        assert gc.get_freeze_count() == frozen
        with Engine(workers=1, executor="process") as engine:
            pool = engine.scheduler._ensure_pool()
            assert pool.submit(gc.get_freeze_count).result() > 0
            assert engine.run(sv_job()).counts
        assert gc.get_freeze_count() == frozen

    def test_compile_cache_hits_on_later_groups(self):
        # Tiny target group seconds force groups-per-worker to the max, so
        # a single-worker pool sees several groups of one job: the first
        # ships the payload + program, later ones ride the warm caches.
        model = CostModel(target_group_seconds=1e-9)
        obs = metrics_obs()
        with Engine(workers=2, executor="process", cost_model=model) as engine:
            engine.set_observability(obs)
            engine.prewarm()
            engine.run(sv_job())
        hits = obs.metrics.counter("engine.worker_compile", outcome="hit").value
        assert hits > 0
        shipped = obs.metrics.counter("engine.worker_job", payload="full").value
        assert shipped >= 1

    def test_key_only_dispatch_after_warm_shipping(self):
        # Tiny target group seconds -> many groups; only the first
        # ``workers`` ship the job payload, the rest go key-only.  The
        # ipc_bytes counter is stamped at submission time, so it sees the
        # key-only groups no matter which worker ends up serving them.
        model = CostModel(target_group_seconds=1e-9)
        obs = metrics_obs()
        with Engine(workers=2, executor="process", cost_model=model) as engine:
            engine.set_observability(obs)
            engine.prewarm()
            result = engine.run(sv_job())
        with Engine(workers=1, executor="serial") as serial:
            assert serial.run(sv_job()).counts == result.counts
        key_submits = obs.metrics.counter("engine.ipc_bytes", payload="key").value
        assert key_submits > 0

    def test_key_only_group_served_from_worker_cache(self):
        job = sv_job(shots=128)
        key = job.content_hash()
        _init_pool_worker()  # cold cache: nothing remembered yet
        first = _warm_group(job, key, (Batch(0, 64),), "statevector")
        assert first.job_shipped
        second = _warm_group(None, key, (Batch(1, 64),), "statevector")
        assert not second.job_shipped
        combined = Counter(first.counts)
        combined.update(second.counts)
        folded = Counter()
        for i in range(2):
            folded.update(
                execute_batch_group(job, (Batch(i, 64),), "statevector").counts
            )
        assert combined == folded

    def test_ipc_bytes_counter_populated(self):
        obs = metrics_obs()
        with Engine(workers=2, executor="process") as engine:
            engine.set_observability(obs)
            engine.run(sv_job())
        shipped = obs.metrics.counter("engine.ipc_bytes", payload="full").value
        assert shipped > 0

    def test_worker_job_miss_raised_and_picklable(self):
        import pickle

        _init_pool_worker()  # clear this process's warm job cache
        with pytest.raises(WorkerJobMiss) as info:
            _warm_group(None, "f" * 64, (Batch(0, 10),), "statevector")
        err = pickle.loads(pickle.dumps(info.value))
        assert isinstance(err, WorkerJobMiss)
        assert err.job_key == "f" * 64

    def test_group_fold_matches_per_batch(self):
        job = sv_job(shots=200)
        batches = (Batch(0, 64), Batch(1, 64), Batch(2, 64), Batch(3, 8))
        group = execute_batch_group(job, batches, "statevector")
        assert isinstance(group, BatchStats)
        assert group.indices == (0, 1, 2, 3)
        assert group.index == 0
        singles = [execute_batch_group(job, (b,), "statevector") for b in batches]
        folded = Counter()
        for stats in singles:
            folded.update(stats.counts)
        assert group.counts == folded
        assert group.parity_total == sum(s.parity_total for s in singles)
        assert group.shots == 200

    def test_in_process_groups_leave_the_job_memo_empty(self):
        # The job memo is process-worker state: inline and thread-pool
        # groups hand the job over directly and never fill it.
        _init_pool_worker()
        jobs = [sv_job(seed=s) for s in range(3)]
        for kwargs in ({"workers": 1}, {"workers": 2, "executor": "thread"}):
            with Engine(cache=False, **kwargs) as engine:
                engine.run_many(jobs)
            assert worker_cache_info()["jobs"] == 0


class TestCancelAndDrain:
    def test_pool_reusable_after_worker_failure(self, serial_results):
        # A zero-norm initial state survives job validation but dies at the
        # first collapse inside the worker — a genuine cross-process error.
        bad = sv_job()
        bad.initial_state = np.zeros(8, dtype=complex)
        with Engine(workers=2, executor="process") as engine:
            with pytest.raises(BatchExecutionError) as info:
                engine.run(bad)
            assert info.value.batch_index is not None
            result = engine.run(sv_job())
        assert result.counts == serial_results["sv"].counts

    def test_pipeline_reusable_after_worker_failure(self, serial_results):
        bad = sv_job()
        bad.initial_state = np.zeros(8, dtype=complex)
        with Engine(workers=2, executor="process") as engine:
            with pytest.raises(BatchExecutionError):
                engine.run_many([sv_job(seed=1), bad])
            results = engine.run_many([sv_job(), sv_job(seed=2)])
        assert results[0].counts == serial_results["sv"].counts


def _one_qubit_ensemble():
    from repro.engine import Ensemble

    return Ensemble.from_states(
        qubits=(0,), pairs=[(1.0, np.array([1.0, 0.0], dtype=complex))]
    )


class TestCostModel:
    def test_small_job_inlined_on_auto(self):
        model = CostModel()
        plan = model.plan(estimated_seconds=1e-4, num_batches=4, workers=4)
        assert not plan.pooled
        assert "dispatch" in plan.reason

    def test_large_job_fans_out(self):
        model = CostModel()
        plan = model.plan(estimated_seconds=2.0, num_batches=64, workers=4)
        assert plan.pooled
        assert 1 <= plan.num_groups <= 16

    def test_split_covers_every_batch_contiguously(self):
        model = CostModel()
        plan = model.plan(estimated_seconds=2.0, num_batches=10, workers=4)
        batches = [Batch(i, 10) for i in range(10)]
        groups = plan.split(batches)
        flat = [b for group in groups for b in group]
        assert flat == batches
        for group in groups:
            indices = [b.index for b in group]
            assert indices == list(range(indices[0], indices[0] + len(indices)))

    def test_explicit_process_executor_always_pools(self):
        from repro.engine import Scheduler

        scheduler = Scheduler(workers=4, executor="process")
        plan = scheduler.decide(sv_job(shots=70, seed=0), "statevector", 2)
        assert plan.pooled
        scheduler_auto = Scheduler(workers=4, executor="auto")
        tiny = scheduler_auto.decide(sv_job(shots=70, seed=0), "statevector", 2)
        assert not tiny.pooled


class TestVectorizedAccumulate:
    def test_matches_naive_join(self):
        rng = np.random.default_rng(5)
        clbits = rng.integers(0, 2, size=(500, 6)).astype(np.uint8)
        job = Job(circuit=Circuit(6, 6), shots=500, seed=0, readout=(1, 4))
        stats = BatchStats(indices=(0,), shots=500)
        _accumulate_matrix(stats, clbits, job)
        expected = Counter("".join(str(int(b)) for b in row) for row in clbits)
        assert stats.counts == expected
        parity = (clbits[:, 1] ^ clbits[:, 4]).astype(np.float64)
        assert stats.parity_total == float((1.0 - 2.0 * parity).sum())

    def test_zero_clbits(self):
        job = Job(circuit=Circuit(1, 0), shots=8, seed=0)
        stats = BatchStats(indices=(0,), shots=8)
        _accumulate_matrix(stats, np.zeros((8, 0), dtype=np.uint8), job)
        assert stats.counts == Counter({"": 8})
