"""Shot branching in the dense kernel: golden bits and the row census.

The golden literals below were recorded from the per-shot kernel that
shot branching replaced.  The branching kernel makes the same draws from
the same generators, in the same order and of the same sizes, and it
evolves each distinct history with the per-row arithmetic the per-shot
kernel applied to every shot of that history, so every result must stay
bit-identical at equal seed.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from repro.api import Experiment, NetworkSpec
from repro.circuits import Circuit, Condition
from repro.core import build_monolithic_swap_test, build_nparty_hadamard, protocol_job
from repro.engine import Batch, Engine, Job, Scheduler, batch_rng
from repro.engine.runners import execute_batch_group
from repro.obs import Observability, build_run_report
from repro.sim import NoiseModel, get_compiled
from repro.sim.batched import run_batched
from repro.utils.states import random_pure_state


def counts_digest(counts) -> str:
    items = sorted((str(label), int(count)) for label, count in counts.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def run_with_counts(experiment, engine):
    """Run ``experiment`` and return (result, counts digest of every job)."""
    results = []
    run_many = engine.run_many

    def spy(jobs, **kwargs):
        out = run_many(jobs, **kwargs)
        results.extend(out)
        return out

    engine.run_many = spy
    try:
        result = experiment.run(engine=engine)
    finally:
        del engine.run_many
    return result, [counts_digest(r.counts) for r in results]


def pure_states(k: int, n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [random_pure_state(n, rng) for _ in range(k)]


def mixed_states(k: int, seed: int) -> list[np.ndarray]:
    """Rank-2 one-qubit density matrices: two ensemble components each."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        a, b = random_pure_state(1, rng), random_pure_state(1, rng)
        w = rng.uniform(0.2, 0.8)
        states.append(w * np.outer(a, a.conj()) + (1 - w) * np.outer(b, b.conj()))
    return states


def feedback_circuit() -> Circuit:
    """Readout noise, a conditioned collapse and a conditioned reset."""
    circuit = Circuit(4, 4)
    circuit.h(0).t(0).h(0).h(1).cx(1, 2).ry(0.7, 3)
    circuit.measure(0, 0)
    circuit.append("measure", [2], clbits=[1], condition=Condition((0,), 1))
    circuit.append("reset", [1], condition=Condition((0, 1), 1))
    circuit.h(1).t(1).cx(1, 3)
    circuit.x(2, condition=Condition((1,), 1))
    circuit.measure(1, 2).measure(3, 3)
    return circuit


def per_shot_rows(job: Job) -> np.ndarray:
    """Every shot's register, batch after batch, from each batch's own
    kernel substream: the rows behind the engine's counts."""
    program = get_compiled(job.circuit, gate_noise=True)
    pieces = []
    for batch in Scheduler().plan(job):
        rng = batch_rng(job.seed, batch.index)
        kernel_rng = np.random.default_rng(int(rng.integers(2**63)))
        pieces.append(
            run_batched(program, batch.shots, kernel_rng, noise=job.noise).clbits
        )
    return np.concatenate(pieces)


def wide_circuit(width: int = 14) -> Circuit:
    """A dense circuit wide enough that a batch runs as several chunks."""
    circuit = Circuit(width, 6)
    for q in range(width):
        circuit.h(q)
    circuit.t(0).cx(0, 1).t(1)
    circuit.measure(0, 0).measure(1, 1).reset(0)
    circuit.h(0).cx(0, width - 1).t(width - 1)
    circuit.measure(width - 1, 2)
    circuit.cx(2, 3, condition=Condition((2,), 1))
    circuit.measure(2, 3).measure(3, 4).measure(0, 5)
    return circuit


MONOLITHIC_ESTIMATE = "((0.6472-0.0308j), 0.010780836331194348)"
MONOLITHIC_DIGESTS = [
    "6aee97f7df8f2573e707602c4d455d2c0e1b0c3ce3bf29d50776987e93c61157",
    "da682b88b0865744995db2e189fe6ed429971d7283e84309dd413918685a3756",
]
COMPAS_ESTIMATE = "((0.092-0.208j), 0.04453169657670814)"
COMPAS_DIGESTS = [
    "b1b2c55514725ca1194106bb3a1684e982ef3561b1dd61a59795122835469359",
    "1be3d34cfffe7089450ec84071298843b7aba39a7f1e2c8ea9ce9d8907987f10",
]
SERVICE_ESTIMATE = "((0.28-0.008j), 0.030357865537616442)"
SERVICE_DIGESTS = [
    "0478ee01b3a9a75373ab06930e8d552b31883b21d7738d714d8ec21a60ec3f39",
    "ecbe676ddcc81bd733caa72e4b37d2ce61ffd5977f52d97fabb294ba3b4b20e6",
]
MIXED_ESTIMATE = "((0.292+0.017333333333333333j), 0.024694614797562648)"
MIXED_DIGESTS = [
    "cb098a14b87b347e984c4ac8e68743818941a2b3ae3b1fe24577761ac17ab08f",
    "75e51c6a3e8863144bf4d7825efdc2cf2eb47e16b2f9e15e0a782177c7cacfb1",
]
FEEDBACK_DIGEST = "059cc06c45bd339175bf9bac02a16bf362ddc76dc33b205042d0f9af3c522753"
FEEDBACK_ROWS_DIGEST = "28c47e3fdfbda1a79cff0413dc25e3b4730cc56a46338c90f60c68c2623271c1"
WIDE_DIGEST = "afaec301205b880bbef3e55f8daa238835bf660622315ceea4ecbc9430c42933"
PACKED_DIGEST = "c0d0de5e6b9c33f59e0e45ee5cf9e12786b27e2901b799a970538670a32bed73"


class TestGoldenBits:
    @pytest.mark.parametrize(
        "engine_kwargs",
        [{"workers": 1, "executor": "serial"}, {"workers": 2, "executor": "process"}],
        ids=["serial", "process"],
    )
    def test_monolithic_k2n2(self, engine_kwargs):
        experiment = Experiment.swap_test(pure_states(2, 2, 1), shots=10_000, seed=17)
        with Engine(cache=False, **engine_kwargs) as engine:
            result, digests = run_with_counts(experiment, engine)
        assert repr((result.estimate, result.stderr)) == MONOLITHIC_ESTIMATE
        assert digests == MONOLITHIC_DIGESTS

    def test_compas_k3n1_link_noise(self):
        experiment = Experiment.swap_test(
            pure_states(3, 1, 2),
            shots=1_000,
            seed=23,
            backend="compas",
            network=NetworkSpec(topology="line", link_depolarizing=0.01),
        )
        with Engine(workers=1, executor="serial", cache=False) as engine:
            result, digests = run_with_counts(experiment, engine)
        assert repr((result.estimate, result.stderr)) == COMPAS_ESTIMATE
        assert digests == COMPAS_DIGESTS

    def test_service_noisy_swap_test_on_threads(self):
        experiment = Experiment.swap_test(
            pure_states(2, 1, 3), shots=2_000, seed=29, noise=0.002
        )
        with Engine(workers=2, executor="thread", cache=False) as engine:
            result, digests = run_with_counts(experiment, engine)
        assert repr((result.estimate, result.stderr)) == SERVICE_ESTIMATE
        assert digests == SERVICE_DIGESTS

    def test_mixed_state_ensembles(self):
        experiment = Experiment.swap_test(
            mixed_states(3, 4), shots=3_000, seed=31, backend="compas"
        )
        with Engine(workers=1, executor="serial", cache=False) as engine:
            result, digests = run_with_counts(experiment, engine)
        assert repr((result.estimate, result.stderr)) == MIXED_ESTIMATE
        assert digests == MIXED_DIGESTS

    def feedback_job(self) -> Job:
        return Job(
            circuit=feedback_circuit(),
            shots=1_500,
            seed=37,
            noise=NoiseModel(p1=0.01, p2=0.02, p_meas=0.05),
            readout=(2, 3),
            backend="statevector",
        )

    def test_readout_flips_and_conditioned_collapse(self):
        with Engine(workers=1, executor="serial", cache=False) as engine:
            counts = engine.run(self.feedback_job()).counts
        assert counts_digest(counts) == FEEDBACK_DIGEST

    def test_per_shot_rows(self):
        rows = per_shot_rows(self.feedback_job())
        assert rows.shape == (1_500, 4)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == FEEDBACK_ROWS_DIGEST

    def test_wide_batches_run_in_chunks(self):
        job = Job(
            circuit=wide_circuit(14),
            shots=300,
            seed=41,
            noise=NoiseModel(p1=0.0, p2=0.0, p_meas=0.02),
            batch_size=150,
            backend="statevector",
        )
        with Engine(workers=1, executor="serial", cache=False) as engine:
            counts = engine.run(job).counts
        assert counts_digest(counts) == WIDE_DIGEST

    def test_group_spanning_several_calls(self):
        job = protocol_job(
            build_nparty_hadamard(3, 1, basis="x"), pure_states(3, 1, 5), 3_000, 43
        )
        assert job.circuit.num_qubits == 10
        batches = tuple(Batch(i, 250) for i in range(12))
        group = execute_batch_group(job, batches, "statevector")
        assert counts_digest(group.counts) == PACKED_DIGEST
        single = [execute_batch_group(job, (b,), "statevector") for b in batches]
        assert group.parity_total == sum(s.parity_total for s in single)


class TestRowsBehindCounts:
    """The engine's aggregates are exactly the histogram of the kernel rows.

    ``JobResult`` is the engine's only result channel; this pins that its
    counts and readout parity are what the per-shot rows of
    :func:`per_shot_rows` add up to, whatever the executor.
    """

    def wide_job(self) -> Job:
        return Job(
            circuit=wide_circuit(8),
            shots=400,
            seed=43,
            noise=NoiseModel(p1=0.0, p2=0.0, p_meas=0.02),
            batch_size=150,
            readout=(2, 5),
            backend="statevector",
        )

    @pytest.mark.parametrize("which", ["feedback", "wide"])
    @pytest.mark.parametrize(
        "engine_kwargs",
        [{"workers": 1, "executor": "serial"}, {"workers": 2, "executor": "process"}],
        ids=["serial", "process"],
    )
    def test_rows_reproduce_counts_and_parity(self, which, engine_kwargs):
        job = TestGoldenBits().feedback_job() if which == "feedback" else self.wide_job()
        rows = per_shot_rows(job)
        with Engine(cache=False, **engine_kwargs) as engine:
            result = engine.run(job)
        assert len(list(Scheduler().plan(job))) > 1
        histogram = Counter("".join(str(int(b)) for b in row) for row in rows)
        assert result.counts == dict(histogram)
        parity = (-1.0) ** rows[:, list(job.readout)].sum(axis=1)
        assert result.parity_mean == pytest.approx(parity.mean(), abs=1e-12)


class TestRowCensus:
    """``row_ops`` (history rows held, summed over ops) against ``shot_ops``."""

    def test_rows_never_outnumber_shots(self):
        feedback = TestGoldenBits().feedback_job()
        link = NetworkSpec(link_depolarizing=0.05).noise_model(None)
        jobs = [
            feedback,
            protocol_job(
                build_nparty_hadamard(3, 1, basis="x"), pure_states(3, 1, 6), 300, 7,
                noise=link,
            ),
        ]
        with Engine(workers=1, executor="serial", cache=False) as engine:
            results = engine.run_many(jobs)
        for result in results:
            assert 0 < result.row_ops <= result.shot_ops

    def test_monolithic_group_shares_rows(self):
        experiment = Experiment.swap_test(pure_states(2, 2, 1), shots=10_000, seed=17)
        with Engine(workers=1, executor="serial", cache=False) as engine:
            result, _ = run_with_counts(experiment, engine)
        census = result.extra["resources"]["engine"]
        assert 0 < census["row_ops"] <= census["shot_ops"]
        job = protocol_job(
            build_monolithic_swap_test(2, 2, basis="x"), pure_states(2, 2, 1), 5_000, 3
        )
        batches = tuple(Batch(i, 250) for i in range(20))
        group = execute_batch_group(job, batches, "statevector")
        assert group.shot_ops == 5_000 * len(get_compiled(job.circuit).ops)
        assert group.row_ops / group.shot_ops < 0.1
        single = execute_batch_group(job, batches[:1], "statevector")
        assert group.row_ops < 20 * single.row_ops

    def test_run_report_sums_the_census(self):
        job = protocol_job(
            build_monolithic_swap_test(2, 2, basis="x"), pure_states(2, 2, 1), 1_000, 5
        )
        obs = Observability()
        with Engine(workers=2, executor="thread", cache=False, obs=obs) as engine:
            result = engine.run(job)
        rows = build_run_report(obs)["kernel_rows"]
        assert (rows["row_ops"], rows["shot_ops"]) == (result.row_ops, result.shot_ops)
        assert 0 < rows["row_share"] < 1
