"""One dispatch shape: every job runs as batch groups, wherever it runs.

Inline, thread-pool and process-pool dispatch all run a job as the
contiguous batch groups ``Scheduler.decide`` sizes, each one
``execute_batch_group`` call.  The digests below were recorded from the
one-call-per-batch inline and thread-pool paths this replaced, so they
pin that grouping moves no bit: every batch keeps its own
``(job.seed, batch.index)`` substream and every fold is exact.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.ghz_fidelity import build_distributed_ghz_circuit
from repro.api import Experiment, NetworkSpec
from repro.circuits import Circuit
from repro.core import build_monolithic_swap_test, swap_test_job
from repro.engine import CostModel, Engine, Ensemble, Job, Scheduler
from repro.sim import DensitySimulator, NoiseModel
from repro.utils import random_density_matrix
from repro.utils.states import random_pure_state

NOISE = NoiseModel(p1=0.01, p2=0.02, p_meas=0.03)


def sv_circuit() -> Circuit:
    circuit = Circuit(3, 3)
    circuit.h(0).t(0).cx(0, 1).rx(0.3, 2).cx(1, 2)
    for q in range(3):
        circuit.measure(q, q)
    return circuit


def matrix_jobs() -> dict[str, Job]:
    """One multi-batch job per backend (and one with input ensembles)."""
    frames_circuit, members = build_distributed_ghz_circuit(4)
    zero = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    return {
        "statevector": Job(
            circuit=sv_circuit(), shots=2000, seed=5, noise=NOISE, readout=(0, 2),
            batch_size=64, backend="statevector",
        ),
        "statevector-ensembles": Job(
            circuit=sv_circuit(), shots=1200, seed=6, readout=(0, 1), batch_size=100,
            ensembles=(Ensemble.from_states((0,), [(0.3, zero), (0.7, plus)]),),
            backend="statevector",
        ),
        "pauliframe": Job(
            circuit=frames_circuit, shots=3000, seed=8,
            noise=NoiseModel.from_base(0.02), frame_qubits=tuple(members),
            mode="frames",
        ),
        "statevector-ref": Job(
            circuit=sv_circuit(), shots=300, seed=9, noise=NOISE, readout=(0, 2),
            batch_size=50, backend="statevector-ref",
        ),
    }


def result_digest(result) -> str:
    """Counts (in insertion order), parity and batch count.  The ``None``
    is the slot the removed exact-distribution field filled, kept so the
    recorded digests still read the same payload."""
    payload = [
        [(str(label), int(count)) for label, count in (result.counts or {}).items()],
        None,
        repr(result.parity_mean),
        repr(result.parity_stderr),
        result.num_batches,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


MATRIX_DIGESTS = {
    "statevector": "f5e9160f3cf509ceea5697703fbb9961e961993b7a75fb8a2868b26d6d2963ea",
    "statevector-ensembles": "979d53560f2f90802559919522c720af8c75faaef80972635e59ce5ce4a5bba8",
    "pauliframe": "fc1e31d0a357ac6252e0e71484ce80663425a7a9aefcdfc4dae20ad9fed3269a",
    "statevector-ref": "ee54033521936a500bb97f6e09978f1eea82fbd609b22bc4e13696257e866bcb",
}


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_every_backend_matches_the_recorded_bits(self, executor, workers):
        jobs = matrix_jobs()
        with Engine(workers=workers, executor=executor, cache=False) as engine:
            results = engine.run_many(list(jobs.values()))
        for name, result in zip(jobs, results):
            assert result.backend == name.removesuffix("-ensembles")
            assert result_digest(result) == MATRIX_DIGESTS[name], name

    def test_statevector_row_samples_the_density_reference(self):
        job = matrix_jobs()["statevector"]
        branches = DensitySimulator(noise=NOISE).run(job.circuit).branch_probabilities()
        with Engine(workers=1, cache=False) as engine:
            counts = engine.run(job).counts
        labels = set(counts) | {"".join(map(str, bits)) for bits in branches}
        distance = 0.5 * sum(
            abs(counts.get(label, 0) / job.shots - branches.get(tuple(map(int, label)), 0.0))
            for label in labels
        )
        assert distance < 0.05


class TestDispatchPlan:
    def test_every_plan_carries_groups(self):
        job = matrix_jobs()["statevector"]
        batches = len(Scheduler().plan(job))
        for kwargs in (
            {"workers": 1},
            {"workers": 2, "executor": "serial"},
            {"workers": 2, "executor": "thread"},
            {"workers": 2, "executor": "process"},
            {"workers": 2, "executor": "auto"},
        ):
            plan = Scheduler(**kwargs).decide(job, "statevector", batches)
            assert 1 <= plan.num_groups <= batches
            groups = plan.split(Scheduler().plan(job))
            assert sum(len(group) for group in groups) == batches
        assert Scheduler(workers=2, executor="thread").decide(
            job, "statevector", batches
        ).pooled
        assert not Scheduler(workers=2, executor="serial").decide(
            job, "statevector", batches
        ).pooled

    def test_one_batch_job_is_one_inline_group(self):
        job = Job(circuit=sv_circuit(), shots=100, seed=10, noise=NOISE, readout=(0, 2))
        plan = Scheduler(workers=4, executor="process").decide(job, "statevector", 1)
        assert not plan.pooled and plan.num_groups == 1

    def test_pooled_job_sizes_groups_for_its_share_of_the_workers(self):
        # A lone job splits across all eight workers; in a sweep of eight
        # or more jobs each job is grouped as on one worker, like serial.
        # The per-shot reference backend is priced by shots, so its split
        # shortens the job.
        job = Job(
            circuit=sv_circuit(), shots=256, seed=3, batch_size=64, backend="statevector-ref"
        )
        pool = Scheduler(workers=8, executor="process")
        serial = Scheduler(workers=1)
        assert pool.decide(job, "statevector-ref", 4).num_groups == 4
        assert pool.decide(job, "statevector-ref", 4, jobs=2).num_groups == 4
        for jobs in (8, 24):
            plan = pool.decide(job, "statevector-ref", 4, jobs=jobs)
            assert plan.pooled
            assert plan.num_groups == serial.decide(job, "statevector-ref", 4).num_groups == 1

    def test_split_that_does_not_pay_keeps_one_group(self):
        # Each dense group pays its own kernel calls and history rows,
        # which a quarter of these shots still hold: split four ways the
        # job would not run any shorter, so it stays one group, and under
        # "auto" a lone one stays inline.
        job = Job(circuit=sv_circuit(), shots=1024, seed=3, batch_size=256)
        plan = Scheduler(workers=8, executor="process").decide(job, "statevector", 4)
        assert plan.pooled and plan.num_groups == 1

    def test_auto_keeps_a_lone_job_inline_when_its_split_does_not_pay(self):
        # A 6,000-shot SWAP test on mixed inputs: 8 input combinations,
        # so every group makes 8 kernel calls whatever its shots.  Its
        # estimate alone would fan out on two workers, but half of it
        # costs well over half.
        rng = np.random.default_rng(77)
        build = build_monolithic_swap_test(3, 1, variant="b", basis="x")
        states = [random_density_matrix(1, rng=rng) for _ in range(3)]
        job = swap_test_job(build, states, 6000, 404, batch_size=250)
        model = CostModel()
        auto = Scheduler(workers=2, executor="auto", cost_model=model)
        estimate = auto.estimate_job_seconds(job, "statevector")
        assert model.plan(estimate, 24, 2).pooled
        plan = auto.decide(job, "statevector", 24)
        assert not plan.pooled and plan.num_groups == 1
        assert plan.reason == "split does not pay"
        assert auto.decide(job, "statevector", 24, jobs=2).pooled
        assert Scheduler(workers=8, executor="auto").decide(job, "statevector", 24).pooled

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_long_job_groups_stay_under_the_time_cap(self, workers):
        # However long the job, a cancel or a failure waits out about
        # MAX_GROUP_SECONDS (by the estimate) per running group.
        from repro.engine.costmodel import MAX_GROUP_SECONDS

        job = Job(
            circuit=sv_circuit(), shots=400 * 256, seed=3, backend="statevector-ref"
        )
        scheduler = Scheduler(workers=workers, executor="thread")
        batches = scheduler.plan(job)
        plan = scheduler.decide(job, "statevector-ref", len(batches))
        assert plan.estimated_seconds > 4 * workers * MAX_GROUP_SECONDS
        assert plan.estimated_seconds / plan.num_groups <= MAX_GROUP_SECONDS
        assert plan.num_groups % workers == 0


def cold_family_ops() -> dict[str, Experiment]:
    """The dense ops of the repository benchmark's ``cold_family`` (seed 1)."""
    rng = np.random.default_rng(1)
    pair = [random_pure_state(2, rng) for _ in range(2)]
    triple = [random_pure_state(1, rng) for _ in range(3)]
    seeds = [int(s) for s in rng.integers(2**31, size=5)]
    return {
        "monolithic": Experiment.swap_test(pair, shots=10_000, seed=seeds[0]),
        "compas": Experiment.swap_test(
            triple,
            shots=1_000,
            seed=seeds[1],
            backend="compas",
            network=NetworkSpec(topology="line", link_depolarizing=0.01),
        ),
        "nstate": Experiment.nstate_swap(triple, shots=2_000, seed=seeds[2]),
        "nparty": Experiment.nparty_hadamard(triple, shots=200, seed=seeds[3]),
    }


#: Serial ``row_ops`` of each op when inline jobs ran one kernel call per
#: batch.
PER_BATCH_ROW_OPS = {"monolithic": 83_032, "compas": 17_901, "nstate": 26_669, "nparty": 5_458}


class TestInlineRowSharing:
    def test_serial_groups_share_rows(self):
        # An inline job runs as a few groups, one kernel call each, so
        # shots of different batches share history rows.
        with Engine(workers=1, cache=False) as engine:
            rows = {
                name: experiment.run(engine=engine).extra["resources"]["engine"]["row_ops"]
                for name, experiment in cold_family_ops().items()
            }
        assert rows["monolithic"] <= 20_000
        for name, per_batch in PER_BATCH_ROW_OPS.items():
            assert 0 < rows[name] <= per_batch, name
