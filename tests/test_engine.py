"""Tests for the parallel execution engine: jobs, routing, caching, scheduling."""

import numpy as np
import pytest

from repro.api import Experiment
from repro.circuits import Circuit
from repro.core import build_monolithic_swap_test, swap_test_job
from repro.engine import (
    DEFAULT_BATCH_SIZE,
    BackendRouter,
    Engine,
    Ensemble,
    Job,
    ResultCache,
    Scheduler,
    batch_rng,
)
from repro.sim import NoiseModel
from repro.utils import random_density_matrix, random_pure_state

RNG = np.random.default_rng(91)


def ghz_sampling_circuit(width: int = 3) -> Circuit:
    """Clifford GHZ prep + full Z readout."""
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def destructive_swap_test_circuit() -> Circuit:
    """Two-party destructive SWAP test (Bell-basis measurement) — Clifford."""
    circuit = Circuit(2, 2)
    circuit.cx(0, 1)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


def small_sv_job(seed: int = 5, shots: int = 300, **overrides) -> Job:
    build = build_monolithic_swap_test(2, 1, variant="b", basis="x")
    local = np.random.default_rng(1234)
    states = [random_pure_state(1, local), random_pure_state(1, local)]
    job = swap_test_job(build, states, shots, seed)
    for key, value in overrides.items():
        setattr(job, key, value)
    return job


class TestJobHash:
    def test_identical_specs_hash_equal(self):
        a = ghz_sampling_circuit()
        b = ghz_sampling_circuit()
        job_a = Job(circuit=a, shots=100, seed=7)
        job_b = Job(circuit=b, shots=100, seed=7)
        assert job_a.content_hash() == job_b.content_hash()

    def test_gate_mutation_changes_hash(self):
        base = Job(circuit=ghz_sampling_circuit(), shots=100, seed=7).content_hash()
        mutated = ghz_sampling_circuit()
        mutated.instructions[0] = mutated.instructions[0].__class__(
            "s", (0,), (), (), None
        )
        assert Job(circuit=mutated, shots=100, seed=7).content_hash() != base

    def test_qubit_mutation_changes_hash(self):
        circuit = Circuit(2, 0).h(0).cx(0, 1)
        other = Circuit(2, 0).h(1).cx(0, 1)
        assert (
            Job(circuit=circuit, shots=10, seed=0).content_hash()
            != Job(circuit=other, shots=10, seed=0).content_hash()
        )

    def test_param_mutation_changes_hash(self):
        circuit = Circuit(1, 0).rx(0.3, 0)
        other = Circuit(1, 0).rx(0.3000001, 0)
        assert (
            Job(circuit=circuit, shots=10, seed=0).content_hash()
            != Job(circuit=other, shots=10, seed=0).content_hash()
        )

    def test_shots_seed_noise_change_hash(self):
        circuit = ghz_sampling_circuit()
        base = Job(circuit=circuit, shots=100, seed=7).content_hash()
        assert Job(circuit=circuit, shots=101, seed=7).content_hash() != base
        assert Job(circuit=circuit, shots=100, seed=8).content_hash() != base
        noisy = Job(circuit=circuit, shots=100, seed=7, noise=NoiseModel.from_base(0.01))
        assert noisy.content_hash() != base

    def test_batch_partition_is_hashed(self):
        circuit = ghz_sampling_circuit()
        base = Job(circuit=circuit, shots=100, seed=7).content_hash()
        repartitioned = Job(circuit=circuit, shots=100, seed=7, batch_size=10)
        assert repartitioned.content_hash() != base

    def test_ensemble_changes_hash(self):
        job_a = small_sv_job(seed=5)
        job_b = small_sv_job(seed=5)
        assert job_a.content_hash() == job_b.content_hash()
        perturbed = job_b.ensembles[0].vector(0).copy()
        perturbed[0] += 1e-9
        perturbed /= np.linalg.norm(perturbed)
        job_b.ensembles = (
            Ensemble.from_states(job_b.ensembles[0].qubits, [(1.0, perturbed)]),
            job_b.ensembles[1],
        )
        assert job_a.content_hash() != job_b.content_hash()

    def test_validation(self):
        circuit = ghz_sampling_circuit()
        with pytest.raises(ValueError):
            Job(circuit=circuit, shots=0, seed=1)
        with pytest.raises(ValueError):
            Job(circuit=circuit, shots=10, seed=-1)
        with pytest.raises(ValueError):
            Job(circuit=circuit, shots=10, seed=1, mode="bogus")
        with pytest.raises(ValueError):
            Job(circuit=circuit, shots=10, seed=1, mode="frames")


class TestBackendRouter:
    def test_clifford_swap_test_routes_to_stabilizer(self):
        # The destructive two-party SWAP test is pure Clifford: the cheapest
        # capable backend is the batched stabilizer kernel.
        job = Job(circuit=destructive_swap_test_circuit(), shots=50, seed=1)
        choice = BackendRouter().select(job)
        assert choice.name == "stabilizer"

    def test_pauli_noise_stays_on_stabilizer(self):
        # Pauli/readout noise is frame-representable: the stabilizer kernel
        # keeps Clifford jobs off the dense statevector path.
        job = Job(
            circuit=destructive_swap_test_circuit(),
            shots=50,
            seed=1,
            noise=NoiseModel.from_base(0.01),
        )
        assert BackendRouter().select(job).name == "stabilizer"

    def test_non_clifford_routes_to_statevector(self):
        circuit = Circuit(1, 1).t(0).measure(0, 0)
        job = Job(circuit=circuit, shots=50, seed=1)
        assert BackendRouter().select(job).name == "statevector"

    def test_arbitrary_input_forces_statevector(self):
        # Tableau cannot load non-basis amplitudes.
        job = small_sv_job()
        assert BackendRouter().select(job).name == "statevector"

    def test_exact_routes_to_density(self):
        job = Job(circuit=ghz_sampling_circuit(), shots=0, seed=1, mode="exact")
        assert BackendRouter().select(job).name == "density"

    def test_frames_routes_to_pauliframe(self):
        job = Job(
            circuit=ghz_sampling_circuit(),
            shots=50,
            seed=1,
            noise=NoiseModel.from_base(0.01),
            frame_qubits=(0, 1, 2),
            mode="frames",
        )
        assert BackendRouter().select(job).name == "pauliframe"

    def test_frames_without_noise_rejected(self):
        job = Job(
            circuit=ghz_sampling_circuit(),
            shots=50,
            seed=1,
            frame_qubits=(0, 1, 2),
            mode="frames",
        )
        with pytest.raises(ValueError):
            BackendRouter().select(job)


class TestScheduler:
    def test_plan_covers_all_shots(self):
        job = Job(circuit=ghz_sampling_circuit(), shots=1000, seed=1, batch_size=64)
        batches = Scheduler().plan(job)
        assert sum(b.shots for b in batches) == 1000
        assert [b.index for b in batches] == list(range(len(batches)))
        assert max(b.shots for b in batches) <= 64

    def test_default_batch_size(self):
        job = Job(circuit=ghz_sampling_circuit(), shots=10, seed=1)
        assert job.resolved_batch_size() == DEFAULT_BATCH_SIZE
        assert len(Scheduler().plan(job)) == 1

    def test_batch_rng_depends_only_on_seed_and_index(self):
        a = batch_rng(42, 3).integers(2**63, size=4)
        b = batch_rng(42, 3).integers(2**63, size=4)
        c = batch_rng(42, 4).integers(2**63, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDeterminism:
    def test_workers_1_vs_4_bit_identical(self):
        job_spec = dict(seed=17, shots=700, batch_size=100)
        with Engine(workers=1) as serial, Engine(workers=4) as parallel:
            res_1 = serial.run(small_sv_job(**job_spec))
            res_4 = parallel.run(small_sv_job(**job_spec))
        assert res_1.parity_mean == res_4.parity_mean
        assert res_1.parity_stderr == res_4.parity_stderr
        assert res_1.counts == res_4.counts

    def test_engine_matches_direct_path_bit_identical(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(3)]
        experiment = Experiment.swap_test(states, shots=900, variant="b", seed=23)
        direct = experiment.run()
        with Engine(workers=4, cache=True) as engine:
            routed = experiment.run(engine=engine)
        assert routed.estimate == direct.estimate
        assert routed.stderr == direct.stderr
        assert routed.extra["stderr_im"] == direct.extra["stderr_im"]

    def test_stabilizer_sampling_statistics(self):
        job = Job(circuit=ghz_sampling_circuit(3), shots=2000, seed=3, readout=(0, 1))
        with Engine() as engine:
            result = engine.run(job)
        assert result.backend == "stabilizer"
        # GHZ readout: only all-zeros and all-ones strings occur.
        assert set(result.counts) == {"000", "111"}
        # Qubits 0 and 1 are perfectly correlated: parity always +1.
        assert result.parity_mean == 1.0


class TestCache:
    def test_memory_hit_and_stats(self):
        cache = ResultCache()
        with Engine(cache=cache) as engine:
            job = small_sv_job(seed=29, shots=120)
            first = engine.run(job)
            second = engine.run(small_sv_job(seed=29, shots=120))
        assert not first.from_cache
        assert second.from_cache
        assert second.parity_mean == first.parity_mean
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert engine.stats.cached_jobs == 1

    def test_different_jobs_miss(self):
        cache = ResultCache()
        with Engine(cache=cache) as engine:
            engine.run(small_sv_job(seed=29, shots=120))
            engine.run(small_sv_job(seed=30, shots=120))
        assert cache.stats.hits == 0 and cache.stats.misses == 2

    def test_disk_roundtrip(self, tmp_path):
        job = small_sv_job(seed=31, shots=90)
        with Engine(cache=tmp_path / "cache") as engine:
            first = engine.run(job)
        # A fresh engine (fresh memory tier) must hit the disk tier.
        with Engine(cache=tmp_path / "cache") as engine:
            second = engine.run(small_sv_job(seed=31, shots=90))
        assert second.from_cache
        assert second.parity_mean == first.parity_mean
        assert second.counts == first.counts


class TestEngineFacade:
    def test_run_many_order(self):
        with Engine(workers=2) as engine:
            jobs = [small_sv_job(seed=s, shots=80) for s in (1, 2, 3)]
            results = engine.run_many(jobs)
        assert [r.job_hash for r in results] == [j.content_hash() for j in jobs]

    def test_sweep_grid(self):
        def make_job(shots, seed):
            return small_sv_job(seed=seed, shots=shots)

        with Engine() as engine:
            points = engine.sweep(make_job, {"shots": [50, 100], "seed": [1, 2]})
        assert len(points) == 4
        assert points[0].params == {"shots": 50, "seed": 1}
        assert {p.result.shots for p in points} == {50, 100}

    def test_exact_mode_probabilities(self):
        job = Job(
            circuit=ghz_sampling_circuit(2),
            shots=0,
            seed=1,
            mode="exact",
            readout=(0, 1),
        )
        with Engine() as engine:
            result = engine.run(job)
        assert result.backend == "density"
        assert result.probabilities["00"] == pytest.approx(0.5)
        assert result.probabilities["11"] == pytest.approx(0.5)
        assert result.parity_mean == pytest.approx(1.0)

    def test_frames_mode_counts(self):
        job = Job(
            circuit=ghz_sampling_circuit(3),
            shots=400,
            seed=9,
            noise=NoiseModel.from_base(0.02),
            frame_qubits=(0, 1, 2),
            mode="frames",
        )
        with Engine(workers=2) as engine:
            result = engine.run(job)
        assert result.backend == "pauliframe"
        assert sum(result.counts.values()) == 400
        assert all(len(label) == 3 for label in result.counts)

    def test_process_executor_matches_thread(self):
        # run(job) is a one-job pipeline: on every executor, and for an
        # exact-mode (density) job too, it equals run_many([job])[0].
        spec = dict(seed=37, shots=300, batch_size=75)
        exact = Job(
            circuit=ghz_sampling_circuit(2), shots=0, seed=1, mode="exact", readout=(0, 1)
        )

        def bits(result):
            return (
                result.counts,
                result.parity_mean,
                result.probabilities,
                result.backend,
                result.num_batches,
            )

        runs = {"sampled": [], "exact": []}
        for executor in ("serial", "thread", "process"):
            with Engine(workers=2, executor=executor) as engine:
                for name, job in (("sampled", small_sv_job(**spec)), ("exact", exact)):
                    single = engine.run(job)
                    assert bits(single) == bits(engine.run_many([job])[0])
                    runs[name].append(bits(single))
        for name, routed in (("sampled", ("statevector", 4)), ("exact", ("density", 1))):
            assert runs[name] == [runs[name][0]] * 3
            assert runs[name][0][-2:] == routed


class TestSingleFlight:
    """Cross-call dedupe: concurrent identical jobs compute once."""

    def test_concurrent_identical_jobs_store_once(self):
        import threading

        with Engine(workers=2, executor="thread", cache=True) as engine:
            results = [None, None]

            def call(slot):
                results[slot] = engine.run(small_sv_job(shots=2000))

            threads = [threading.Thread(target=call, args=(s,)) for s in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Whatever the interleaving — second caller hits the cache,
            # joins the flight, or (never) both compute — exactly one
            # computation is stored and the other call is a cache hit.
            assert engine.cache.stats.stores == 1
            assert engine.cache.stats.hits == 1
            assert results[0].parity_mean == results[1].parity_mean

    def test_concurrent_run_many_overlap_deduped(self):
        import threading

        jobs_a = [small_sv_job(seed=s) for s in (1, 2, 3)]
        jobs_b = [small_sv_job(seed=s) for s in (2, 3, 4)]
        with Engine(workers=2, executor="thread", cache=True) as engine:
            out = {}

            def call(name, jobs):
                out[name] = engine.run_many(jobs)

            threads = [
                threading.Thread(target=call, args=("a", jobs_a)),
                threading.Thread(target=call, args=("b", jobs_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert engine.cache.stats.stores == 4  # seeds 1-4, once each
            assert engine.cache.stats.hits == 2    # seeds 2 and 3, joined
            assert out["a"][1].parity_mean == out["b"][0].parity_mean
            assert out["a"][2].parity_mean == out["b"][1].parity_mean

    def test_joiner_recomputes_when_owner_aborts(self):
        import threading
        import time as time_mod

        with Engine(cache=True) as engine:
            job = small_sv_job()
            key = job.content_hash()
            owned, _ = engine._try_claim(key)
            assert owned
            done = {}

            def joiner():
                done["result"] = engine.run(job)

            thread = threading.Thread(target=joiner)
            thread.start()
            time_mod.sleep(0.2)  # the joiner is parked on the flight
            assert not done
            engine._release(key)  # owner aborts without storing
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert done["result"].shots == 300
            assert engine.cache.stats.stores == 1
