"""Frozen circuits, the shape memo and the row-priced dense cost model.

A job holds a frozen circuit: it cannot change, and it computes its
content digest and capability scan once and carries both through
pickling, so no pool worker re-digests it.  Protocol builds come from a
bounded shape memo keyed by shape alone (never by states, seeds, shots
or noise).  Dense jobs are priced by expected history rows, and every
computed ``JobResult`` carries its prediction and routing reason.
"""

import pickle
import sys
import threading
import time

import numpy as np
import pytest

import repro.api.execution as execution
import repro.circuits.circuit as circuit_module
import repro.core.shape_memo as shape_memo
from repro.analysis.ghz_fidelity import (
    build_distributed_ghz_circuit,
    commuting_shots,
    ghz_label_commutes,
)
from repro.api import Experiment, NetworkSpec, NoiseSpec
from repro.circuits import Circuit, FrozenCircuitError
from repro.core.shape_memo import clear_shape_memo, memoized_shape, shape_memo_stats
from repro.engine import Batch, Engine, Ensemble, Job, Scheduler
from repro.engine.costmodel import CostModel, expected_row_ops
from repro.engine.job import JOB_HASH_TAG
from repro.engine.router import BackendRouter
from repro.engine.runners import _warm_group, execute_batch_group
from repro.service import ExperimentService, ServiceConfig
from repro.sim import NoiseModel
from repro.sim.pauliframe import clear_frame_caches
from repro.sim.compile import (
    clear_compile_cache,
    compile_cache_stats,
    get_capabilities,
    get_compiled,
)
from repro.utils.states import random_pure_state


def bell_circuit() -> Circuit:
    circuit = Circuit(2, 2, name="bell")
    circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return circuit


def triple(seed: int = 1):
    rng = np.random.default_rng(seed)
    return [random_pure_state(1, rng) for _ in range(3)]


def run_jobs(experiment: Experiment) -> list[Job]:
    """The engine jobs one run of ``experiment`` submits."""
    captured: list[Job] = []

    class Capture(Engine):
        def run_many(self, jobs, **kwargs):
            captured.extend(jobs)
            return super().run_many(jobs, **kwargs)

    with Capture(workers=1, executor="serial") as engine:
        experiment.run(engine=engine)
    return captured


@pytest.fixture
def digest_calls(monkeypatch):
    """Count every ``circuit_digest`` call from here on."""
    calls = []
    original = circuit_module.circuit_digest

    def counting(circuit):
        calls.append(circuit.name)
        return original(circuit)

    monkeypatch.setattr(circuit_module, "circuit_digest", counting)
    return calls


class TestFrozenCircuit:
    def test_every_mutation_raises(self):
        circuit = bell_circuit().freeze()
        assert circuit.is_frozen
        with pytest.raises(FrozenCircuitError):
            circuit.x(0)
        with pytest.raises(FrozenCircuitError):
            circuit.barrier()
        with pytest.raises(FrozenCircuitError):
            circuit.compose(bell_circuit())
        with pytest.raises(FrozenCircuitError):
            circuit.name = "other"
        with pytest.raises(FrozenCircuitError):
            circuit.instructions = []
        with pytest.raises(TypeError):
            circuit.instructions[0] = circuit.instructions[1]
        with pytest.raises(AttributeError):
            circuit.instructions.append(circuit.instructions[0])
        assert len(circuit) == 4

    def test_copy_is_open_and_digests_equal(self):
        frozen = bell_circuit().freeze()
        copy = frozen.copy()
        assert not copy.is_frozen
        copy.x(1)
        assert frozen.content_digest() == bell_circuit().content_digest()
        assert copy.content_digest() != frozen.content_digest()

    def test_pickle_round_trip_keeps_digest_and_capabilities(self, digest_calls):
        frozen = bell_circuit().freeze()
        capabilities = get_capabilities(frozen)
        digest = frozen.content_digest()
        digest_calls.clear()
        shipped = pickle.loads(pickle.dumps(frozen))
        assert shipped.is_frozen
        assert shipped.content_digest() == digest
        assert get_capabilities(shipped) == capabilities
        assert digest_calls == []
        with pytest.raises(FrozenCircuitError):
            shipped.h(0)

    def test_capability_scan_runs_once(self, monkeypatch):
        import repro.sim.compile as compile_module

        scans = []
        original = compile_module.analyze_circuit

        def counting(circuit):
            scans.append(circuit.name)
            return original(circuit)

        monkeypatch.setattr(compile_module, "analyze_circuit", counting)
        job = Job(circuit=bell_circuit(), shots=600, seed=3)
        scheduler = Scheduler(workers=2, executor="thread")
        for _ in range(3):
            BackendRouter().select(job)
            scheduler.decide(job, "statevector", 3)
            get_capabilities(job.circuit)
        assert scans == ["bell"]
        shipped = pickle.loads(pickle.dumps(job))
        assert get_capabilities(shipped.circuit) == get_capabilities(job.circuit)
        assert scans == ["bell"]

    def test_job_freezes_a_copy_and_keeps_the_hash(self):
        open_circuit = bell_circuit()
        job = Job(circuit=open_circuit, shots=10, seed=1)
        assert job.circuit.is_frozen and not open_circuit.is_frozen
        frozen = bell_circuit().freeze()
        same = Job(circuit=frozen, shots=10, seed=1)
        assert same.circuit is frozen
        assert same.content_hash() == job.content_hash()

    def test_job_hash_tag_is_v8(self):
        assert JOB_HASH_TAG == "repro-job-v8"

    def test_hash_routing_and_pricing_never_redigest(self, digest_calls):
        job = Job(circuit=bell_circuit(), shots=600, seed=3)
        digest_calls.clear()
        scheduler = Scheduler(workers=2, executor="thread")
        for _ in range(3):
            job.content_hash()
            scheduler.decide(job, "statevector", 3)
        assert digest_calls == []


class TestNoDigestInsideGroups:
    """A shipped frozen circuit is never re-digested inside a group."""

    def _run(self, job, backend, program, digest_calls):
        shipped = pickle.loads(pickle.dumps(job))
        digest_calls.clear()
        clear_compile_cache()
        clear_frame_caches()
        batches = (Batch(0, 128), Batch(1, 128))
        first = _warm_group(shipped, "key-" + backend, batches, backend, None, program)
        again = _warm_group(None, "key-" + backend, batches, backend, None, None)
        inline = execute_batch_group(shipped, batches, backend)
        assert digest_calls == []
        assert first.counts == again.counts == inline.counts

    def test_statevector(self, digest_calls):
        job = Job(circuit=bell_circuit(), shots=256, seed=4, backend="statevector")
        program = get_compiled(job.circuit)
        self._run(job, "statevector", program, digest_calls)

    def test_pauliframe(self, digest_calls):
        circuit, members = build_distributed_ghz_circuit(8)
        job = Job(
            circuit=circuit,
            shots=256,
            seed=4,
            noise=NoiseModel.from_base(0.01),
            frame_qubits=tuple(members),
            mode="frames",
        )
        self._run(job, "pauliframe", None, digest_calls)


class TestShapeMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        clear_shape_memo()
        yield
        clear_shape_memo()

    def test_each_key_field_yields_a_distinct_circuit(self):
        states = triple()
        base = dict(shots=200, seed=1)
        monolithic = [
            Experiment.swap_test(states, **base),
            Experiment.swap_test(states, variant="b", **base),
            Experiment.swap_test(states, ghz_mode="fused", **base),
            Experiment.swap_test(states, observable="Z", **base),
            Experiment.swap_test(states + states[:1], **base),
            Experiment.swap_test(
                [random_pure_state(2, np.random.default_rng(s)) for s in (1, 2, 3)], **base
            ),
        ]
        distributed = [
            Experiment.swap_test(triple(), backend="compas", **base),
            Experiment.swap_test(triple(), backend="compas", design="telegate", **base),
            Experiment.swap_test(
                triple(), backend="compas", network=NetworkSpec(topology="ring"), **base
            ),
            Experiment.nstate_swap(triple(), **base),
            Experiment.nparty_hadamard(triple(), **base),
        ]
        digests = []
        for experiment in monolithic + distributed:
            jobs = run_jobs(experiment)
            # The X and Y bases are two shapes of their own.
            assert jobs[0].circuit.content_digest() != jobs[1].circuit.content_digest()
            digests.extend(job.circuit.content_digest() for job in jobs)
        assert len(set(digests)) == len(digests)
        assert shape_memo_stats()["builds"] == len(digests)

    def test_states_seeds_shots_and_noise_share_one_entry(self):
        first = run_jobs(Experiment.swap_test(triple(1), shots=200, seed=1, backend="compas"))
        builds = shape_memo_stats()["builds"]
        variants = [
            Experiment.swap_test(triple(2), shots=200, seed=1, backend="compas"),
            Experiment.swap_test(triple(1), shots=200, seed=9, backend="compas"),
            Experiment.swap_test(triple(1), shots=300, seed=1, backend="compas"),
            Experiment.swap_test(
                triple(1), shots=200, seed=1, backend="compas",
                network=NetworkSpec(link_depolarizing=0.02),
            ),
        ]
        for experiment in variants:
            jobs = run_jobs(experiment)
            assert [job.circuit for job in jobs] == [job.circuit for job in first]
            assert jobs[0].circuit is first[0].circuit
        assert shape_memo_stats()["builds"] == builds

    def test_ghz_prep_is_memoized(self):
        experiment = Experiment.ghz_fidelity(8, p=0.01, shots=300, seed=1)
        before = experiment.run().estimate
        builds = shape_memo_stats()["builds"]
        assert experiment.run().estimate == before
        assert shape_memo_stats()["builds"] == builds

    def test_memo_evicts_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(shape_memo, "_SHAPE_MAX", 2)
        calls = []
        for key in ("a", "b", "c"):
            memoized_shape(key, lambda key=key: calls.append(key) or key)
        assert shape_memo_stats()["shapes"] == 2
        memoized_shape("b", lambda: calls.append("b2"))
        memoized_shape("a", lambda: calls.append("a2") or "a")
        assert calls == ["a", "b", "c", "a2"]

    def test_failed_build_stores_nothing(self):
        def broken():
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            memoized_shape("k", broken)
        assert memoized_shape("k", lambda: 5) == 5

    def test_threads_racing_on_few_keys_build_each_once(self):
        builds: dict[int, int] = {}
        lock = threading.Lock()
        keys = 5
        errors = []

        def make(key):
            with lock:
                builds[key] = builds.get(key, 0) + 1
            return key

        def worker(offset):
            try:
                for i in range(200):
                    key = (offset + i) % keys
                    assert memoized_shape(("race", key), lambda key=key: make(key)) == key
            except AssertionError as exc:  # surfaced below, from the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert builds == {key: 1 for key in range(keys)}
        stats = shape_memo_stats()
        assert (stats["builds"], stats["hits"]) == (keys, 8 * 200 - keys)

    def test_concurrent_service_submissions_get_one_build(self, monkeypatch):
        calls = []
        original = execution.build_compas

        def slow_build(*args, **kwargs):
            calls.append(kwargs.get("basis"))
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(execution, "build_compas", slow_build)
        service = ExperimentService(ServiceConfig(engine_workers=1, executor="serial"))
        records = []
        for seed in range(4):
            record, deduped = service.submit({
                "tenant": f"t{seed}",
                "experiment": {
                    "kind": "swap_test",
                    "payload": {"states": [[1, 0], [0, 1], [1, 0]]},
                    "protocol": {"backend": "compas"},
                    "options": {"shots": 64, "seed": seed},
                },
            })
            assert not deduped
            records.append(record)
        threads = [threading.Thread(target=service._execute, args=(r,)) for r in records]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [record.state for record in records] == ["done"] * 4
        assert sorted(calls) == ["x", "y"]


class TestEnsembleInputs:
    def test_each_combination_is_assembled_once_per_group(self, monkeypatch):
        import repro.engine.runners as runners

        zero = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        circuit = Circuit(2, 2)
        circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        job = Job(
            circuit=circuit,
            shots=1024,
            seed=6,
            batch_size=128,
            readout=(0, 1),
            ensembles=(
                Ensemble.from_states((0,), [(0.3, zero), (0.7, plus)]),
                Ensemble.from_states((1,), [(0.5, zero), (0.5, plus)]),
            ),
            backend="statevector",
        )
        batches = tuple(Batch(i, 128) for i in range(8))
        reference = execute_batch_group(job, batches, "statevector")
        assembled = []
        original = runners.assemble_initial_state

        def counting(num_qubits, placements):
            state = original(num_qubits, placements)
            assembled.append(state)
            return state

        monkeypatch.setattr(runners, "assemble_initial_state", counting)
        stats = execute_batch_group(job, batches, "statevector")
        assert len(assembled) == 4
        assert all(not state.flags.writeable for state in assembled)
        assert stats.counts == reference.counts
        assert stats.parity_total == reference.parity_total


def cold_family_experiments() -> dict[str, Experiment]:
    """The dense ops of the repository benchmark's ``cold_family`` (seed 1)."""
    rng = np.random.default_rng(1)
    pair = [random_pure_state(2, rng) for _ in range(2)]
    states = [random_pure_state(1, rng) for _ in range(3)]
    seeds = [int(s) for s in rng.integers(2**31, size=5)]
    return {
        "monolithic": Experiment.swap_test(pair, shots=10_000, seed=seeds[0]),
        "compas": Experiment.swap_test(
            states, shots=1_000, seed=seeds[1], backend="compas",
            network=NetworkSpec(topology="line", link_depolarizing=0.01),
        ),
        "nstate": Experiment.nstate_swap(states, shots=2_000, seed=seeds[2]),
        "nparty": Experiment.nparty_hadamard(states, shots=200, seed=seeds[3]),
    }


class TestRowPricedCostModel:
    def test_expected_rows_track_the_kernel(self):
        with Engine(workers=1, executor="serial") as engine:
            for name, experiment in cold_family_experiments().items():
                jobs = run_jobs(experiment)
                result = engine.run(jobs[0])
                noise = jobs[0].noise
                live = noise is not None and not noise.is_noiseless
                program = get_compiled(
                    jobs[0].circuit,
                    gate_noise=live and noise.has_gate_noise,
                    link_noise=live and noise.has_link_noise,
                )
                predicted = expected_row_ops(program, jobs[0].shots, noise if live else None)
                assert 0.5 <= predicted / result.row_ops <= 2.0, name

    def test_cold_family_dense_jobs_run_as_one_group_per_worker_share(self):
        pool = Scheduler(workers=2, executor="process")
        for name, experiment in cold_family_experiments().items():
            jobs = run_jobs(experiment)
            for job in jobs:
                plan = pool.decide(job, "statevector", len(pool.plan(job)), jobs=len(jobs))
                assert plan.num_groups == 1, name

    def test_service_mixed_jobs_keep_one_group(self):
        rng = np.random.default_rng(1)
        states = [random_pure_state(1, rng) for _ in range(2)]
        experiment = Experiment.swap_test(
            states, shots=2_000, seed=5, noise=NoiseSpec.from_base(0.002)
        )
        config = ServiceConfig()
        scheduler = Scheduler(workers=config.engine_workers, executor=config.executor)
        jobs = run_jobs(experiment)
        assert [job.shots for job in jobs] == [1000, 1000]
        for job in jobs:
            plan = scheduler.decide(job, "statevector", len(scheduler.plan(job)), jobs=2)
            assert plan.pooled and plan.num_groups == 1

    def test_results_carry_prediction_and_route(self):
        experiment = cold_family_experiments()["nstate"]
        result = experiment.run(engine=Engine(workers=1, executor="serial"))
        engine_info = result.extra["resources"]["engine"]
        assert engine_info["predicted_s"] > 0
        assert "vectorized" in engine_info["route_reason"]
        job = Job(circuit=bell_circuit(), shots=300, seed=2)
        with Engine(workers=1, cache=True) as engine:
            computed = engine.run(job)
            hit = engine.run(job)
        assert computed.predicted_s > 0 and computed.route_reason
        assert (hit.predicted_s, hit.route_reason) == (computed.predicted_s, computed.route_reason)
        payload = computed.to_dict()
        assert type(computed).from_dict(payload).route_reason == computed.route_reason

    def test_metrics_gain_the_cost_ratio_histogram(self):
        service = ExperimentService(ServiceConfig())
        record, _ = service.submit({
            "tenant": "alice",
            "experiment": {
                "kind": "swap_test",
                "payload": {"states": [[1, 0], [0, 1]]},
                "options": {"shots": 600, "seed": 3},
            },
        })
        service._execute(record)
        counters = service.metrics_snapshot()["counters"]
        ratios = [value for key, value in counters.items() if key.startswith("engine.cost_ratio")]
        assert [ratio["count"] for ratio in ratios] == [2]


class TestPricingInsideTheGuard:
    def test_pricing_compile_counts_toward_compile_time(self):
        clear_compile_cache()
        job = Job(circuit=bell_circuit(), shots=600, seed=4, backend="statevector")
        with Engine(workers=1, executor="serial") as engine:
            result = engine.run(job)
            compiled = compile_cache_stats()
            assert compiled["compiles"] == 1
            assert result.compile_time >= compiled["compile_time"] > 0.0
            assert engine.stats.compile_time == result.compile_time

    def test_dense_jobs_are_priced_by_dense_seconds_only(self):
        with pytest.raises(ValueError, match="dense_seconds"):
            CostModel().estimate_job_seconds(
                shots=100, num_instructions=4, backend="statevector",
            )

    def test_a_job_that_fails_planning_releases_its_claim(self):
        job = Job(
            circuit=bell_circuit(), shots=100, seed=1, mode="frames", frame_qubits=(0, 1)
        )
        with Engine(workers=1, cache=True) as engine:
            for _ in range(2):
                with pytest.raises(ValueError, match="noise model"):
                    engine.run(job)
                # A leaked claim would make the next run wait forever.
                assert engine._inflight == {}


def test_commuting_shots_matches_the_label_predicate():
    rng = np.random.default_rng(0)
    labels = {
        "".join(rng.choice(list("IXYZ"), size=6, p=[0.7, 0.1, 0.1, 0.1])): int(c)
        for c in rng.integers(1, 50, size=300)
    }
    labels.update({"IIIIII": 7, "XXXXXX": 3, "YYXXXX": 2, "ZZIIII": 5, "ZIIIII": 1})
    expected = sum(count for label, count in labels.items() if ghz_label_commutes(label))
    assert commuting_shots(labels) == expected
    assert commuting_shots({}) == 0
