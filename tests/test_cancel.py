"""Tests for cooperative job cancellation (CancelToken, cancel scopes).

The engine-layer satellite behind ``DELETE /jobs/{id}``: a thread-safe
latch checked between batch groups — serial and pooled paths, explicit
``cancel=`` arguments and thread-local ``cancel_scope`` blocks — that
drops queued groups instead of computing a result nobody will read,
while leaving the pool reusable afterwards.
"""

import threading
import time

import pytest

from repro.circuits import Circuit
from repro.engine import CancelToken, CostModel, Engine, Job, JobCancelled, Scheduler


def ghz_sampling_circuit(width: int = 3) -> Circuit:
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def make_job(seed: int = 7, shots: int = 400, **overrides) -> Job:
    job = Job(circuit=ghz_sampling_circuit(), shots=shots, seed=seed)
    for key, value in overrides.items():
        setattr(job, key, value)
    return job


def one_batch_groups(batches: int) -> CostModel:
    """A cost model that runs a job of ``batches`` batches on two workers
    (or inline) as one group per batch: many cancel points."""
    return CostModel(target_group_seconds=1e-9, max_groups_per_worker=batches)


def trip_in_first_group(monkeypatch, token: CancelToken, pause: float = 0.01) -> dict:
    """Patch group execution to trip ``token`` inside the first group.

    Every group also sleeps ``pause`` seconds, standing in for real kernel work so
    that the pool cannot race through the whole job before the engine
    sees the tripped token.  Returns the live counters: group calls
    (``n``) and the batches they hold (``batches``).
    """
    import repro.engine.scheduler as sched_mod

    real = sched_mod.execute_batch_group
    calls = {"n": 0, "batches": 0}
    lock = threading.Lock()

    def tripping(job_, group, backend, trace=None):
        with lock:
            calls["n"] += 1
            calls["batches"] += len(group)
            if calls["n"] == 1:
                token.cancel()
        time.sleep(pause)
        return real(job_, group, backend, trace)

    monkeypatch.setattr(sched_mod, "execute_batch_group", tripping)
    return calls


class TestCancelToken:
    def test_latch_semantics(self):
        token = CancelToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op while untripped
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        with pytest.raises(JobCancelled):
            token.raise_if_cancelled()

    def test_trippable_from_another_thread(self):
        token = CancelToken()
        thread = threading.Thread(target=token.cancel)
        thread.start()
        thread.join()
        assert token.cancelled


class TestEngineCancellation:
    def test_pre_cancelled_run_raises_immediately(self):
        token = CancelToken()
        token.cancel()
        with Engine() as engine:
            with pytest.raises(JobCancelled):
                engine.run(make_job(), cancel=token)
            assert engine.stats.jobs == 0

    def test_pre_cancelled_run_many_raises(self):
        token = CancelToken()
        token.cancel()
        with Engine(workers=2) as engine:
            with pytest.raises(JobCancelled):
                engine.run_many([make_job(seed=s) for s in (1, 2)], cancel=token)

    def test_untripped_token_changes_nothing(self):
        token = CancelToken()
        with Engine() as engine:
            plain = engine.run(make_job())
        with Engine() as engine:
            guarded = engine.run(make_job(), cancel=token)
        assert plain.counts == guarded.counts

    def test_serial_multi_group_cancel_between_groups(self, monkeypatch):
        # Cancel inside the first group: the serial path checks the token
        # before each inline group.
        token = CancelToken()
        job = make_job(shots=300, batch_size=100)
        with Engine(cost_model=one_batch_groups(3)) as engine:
            original = engine.scheduler.obs
            assert engine.scheduler.decide(job, "statevector", 3).num_groups == 3
            calls = trip_in_first_group(monkeypatch, token)
            with pytest.raises(JobCancelled):
                engine.run(job, cancel=token)
            assert calls["n"] == 1  # groups 2 and 3 were never computed
            assert original is engine.scheduler.obs

    def test_pooled_sweep_cancelled_mid_flight_keeps_pool_reusable(self):
        token = CancelToken()
        jobs = [make_job(seed=seed, shots=200) for seed in range(6)]
        with Engine(workers=2) as engine:
            stream = engine.as_completed(jobs, cancel=token)
            first = next(stream)
            assert first is not None
            token.cancel()
            with pytest.raises(JobCancelled):
                for _ in stream:
                    pass
            # The pool survived cancel-and-drain: a fresh run works.
            result = engine.run(make_job(seed=99))
            assert result.shots == 400

    def test_pooled_run_cancelled_mid_flight(self, monkeypatch):
        # A single job on a pool honours the token on every completed
        # group, exactly like run_many: it stops early, stores nothing,
        # and the drained pool still runs a fresh job.
        token = CancelToken()
        job = make_job(shots=2000, batch_size=100)
        with Engine(
            workers=2, executor="thread", cache=True, cost_model=one_batch_groups(20)
        ) as engine:
            assert len(engine.scheduler.plan(job)) == 20
            assert engine.scheduler.decide(job, "statevector", 20).num_groups == 20
            calls = trip_in_first_group(monkeypatch, token)
            with pytest.raises(JobCancelled):
                engine.run(job, cancel=token)
            assert calls["n"] < 20
            assert engine.cache.stats.stores == 0
            monkeypatch.undo()
            result = engine.run(make_job(seed=99))
            assert result.shots == 400

    def test_experiment_cancelled_mid_flight_under_scope(self, monkeypatch):
        # The service's DELETE /jobs/{id} path for an analysis kind that
        # reaches the engine through engine.run.
        from repro.api import Experiment

        token = CancelToken()
        experiment = Experiment.ghz_fidelity(8, 0.01, shots=20000, seed=3)
        with Engine(
            workers=2, executor="thread", cost_model=one_batch_groups(79)
        ) as engine:
            calls = trip_in_first_group(monkeypatch, token)
            with engine.cancel_scope(token):
                with pytest.raises(JobCancelled):
                    experiment.run(engine=engine)
            # 20000 shots in 256-shot batches, one group each.
            assert calls["n"] < 79
            monkeypatch.undo()
            assert engine.run(make_job(seed=99)).shots == 400

    @pytest.mark.parametrize(
        "workers, executor, share", [(1, "serial", 0.1), (2, "thread", 0.3)]
    )
    def test_default_model_cancel_stops_within_a_bounded_share(
        self, monkeypatch, workers, executor, share
    ):
        # Under the default cost model a long job runs as groups of at
        # most MAX_GROUP_SECONDS (estimated), so a cancel waits out only
        # the groups already running: the current one inline, and on a
        # pool each worker's current group plus the one it picks up
        # before the engine drains the queue.  Groups are counted, not
        # computed: the job is estimated at seconds of per-shot work.
        import repro.engine.scheduler as sched_mod
        from repro.engine import BatchStats

        token = CancelToken()
        job = make_job(shots=100_000, backend="statevector-ref")
        seen = {"n": 0, "batches": 0}
        lock = threading.Lock()

        def counting(job_, group, backend, trace=None):
            with lock:
                seen["n"] += 1
                seen["batches"] += len(group)
                if seen["n"] == 1:
                    token.cancel()
            time.sleep(0.05)
            return BatchStats(
                indices=tuple(b.index for b in group), shots=sum(b.shots for b in group)
            )

        monkeypatch.setattr(sched_mod, "execute_batch_group", counting)
        with Engine(workers=workers, executor=executor) as engine:
            total = len(engine.scheduler.plan(job))
            plan = engine.scheduler.decide(job, "statevector-ref", total)
            with pytest.raises(JobCancelled):
                engine.run(job, cancel=token)
        running = 1 if workers == 1 else 2 * workers
        assert seen["n"] <= running
        assert seen["batches"] <= running * -(-total // plan.num_groups)
        assert seen["batches"] <= share * total

    def test_cancelled_jobs_not_cached(self):
        token = CancelToken()
        job = make_job(shots=300, batch_size=100)
        with Engine(cache=True) as engine:
            token.cancel()
            with pytest.raises(JobCancelled):
                engine.run(job, cancel=token)
            assert engine.cache.stats.stores == 0


class TestCancelScope:
    def test_scope_applies_to_nested_calls(self):
        token = CancelToken()
        token.cancel()
        with Engine() as engine:
            with engine.cancel_scope(token):
                with pytest.raises(JobCancelled):
                    engine.run(make_job())
            # Outside the scope the token no longer applies.
            result = engine.run(make_job())
            assert result.shots == 400

    def test_explicit_token_wins_over_scope(self):
        scoped = CancelToken()
        explicit = CancelToken()
        explicit.cancel()
        with Engine() as engine:
            with engine.cancel_scope(scoped):
                with pytest.raises(JobCancelled):
                    engine.run(make_job(), cancel=explicit)

    def test_none_scope_is_transparent(self):
        token = CancelToken()
        token.cancel()
        with Engine() as engine:
            with engine.cancel_scope(token):
                with engine.cancel_scope(None):
                    # None means "no new scope", the outer token stays.
                    with pytest.raises(JobCancelled):
                        engine.run(make_job())

    def test_scope_is_thread_local(self):
        token = CancelToken()
        token.cancel()
        outcome = {}
        with Engine() as engine:
            def other_thread():
                try:
                    outcome["result"] = engine.run(make_job())
                except JobCancelled:  # pragma: no cover - the failure mode
                    outcome["result"] = None

            with engine.cancel_scope(token):
                thread = threading.Thread(target=other_thread)
                thread.start()
                thread.join()
        assert outcome["result"] is not None

    def test_scope_wraps_experiment_run(self):
        # The service-worker form: the engine call happens deep inside
        # Experiment.run, with no cancel= parameter to thread through.
        # (swap_test routes through engine.run_many; kinds like
        # ghz_fidelity call engine.run, which drives the same pipeline.)
        from repro.api import Experiment

        token = CancelToken()
        token.cancel()
        experiment = Experiment.swap_test(
            [[1, 0], [1, 0]], shots=200, seed=5
        )
        with Engine() as engine:
            with engine.cancel_scope(token):
                with pytest.raises(JobCancelled):
                    experiment.run(engine=engine)


class TestReferenceBackendGroups:
    """The cancel bound holds only if the cost model prices the per-shot
    ``statevector-ref`` loop at what it costs: a 4,096-shot GHZ-3 job ran
    0.5-0.7 s on 2 vCPUs, so it must not be planned as one group."""

    def reference_plan(self, cost_model: CostModel | None = None):
        job = make_job(shots=4096, backend="statevector-ref")
        scheduler = Scheduler(workers=1, executor="serial", cost_model=cost_model)
        return scheduler.decide(job, "statevector-ref", len(scheduler.plan(job)))

    def test_default_plan_has_several_groups(self):
        assert self.reference_plan().num_groups >= 2

    def test_max_group_seconds_alone_splits_the_job(self):
        from repro.engine.costmodel import MAX_GROUP_SECONDS

        # With no target-size splitting left, only the per-group time
        # bound can split the job.
        plan = self.reference_plan(CostModel(target_group_seconds=10.0))
        assert plan.estimated_seconds > MAX_GROUP_SECONDS
        assert plan.num_groups >= 2
