"""Row folding in the dense kernel: merged histories never move a bit.

Teledata and telegate corrections and ancilla resets send different
measurement histories back onto byte-identical rows.  At the fold points
``compile_circuit`` marks, the kernel merges those rows.  Every case here
runs once with the fold and once with it patched out, and the two runs
must agree byte for byte while the folded one holds no more rows.
"""

import numpy as np
import pytest

from repro.api import Experiment, NetworkSpec
from repro.circuits import Circuit, Condition
from repro.core import (
    build_compas,
    build_monolithic_swap_test,
    build_nparty_hadamard,
    build_nstate_swap,
    exact_swap_test_expectation,
    protocol_job,
)
from repro.engine import Engine, batch_rng
from repro.engine.runners import _ensemble_groups
from repro.service.specparse import parse_submission
from repro.sim import NoiseModel, compile_circuit, get_compiled
from repro.sim.batched import Segment, _Rows, run_segments
from repro.utils.states import random_pure_state


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


def program_of(job):
    noise = job.noise
    return get_compiled(
        job.circuit,
        gate_noise=noise is not None and noise.has_gate_noise,
        link_noise=noise is not None and noise.has_link_noise,
    )


def no_fold(monkeypatch):
    monkeypatch.setattr(_Rows, "fold", lambda self: None)


def compare(monkeypatch, program, make_segments, noise=None):
    """Run with and without the fold; return the two row censuses."""
    folded = run_segments(program, make_segments(), noise=noise, return_states=True)
    with monkeypatch.context() as patch:
        no_fold(patch)
        plain = run_segments(program, make_segments(), noise=noise, return_states=True)
    assert folded.clbits.tobytes() == plain.clbits.tobytes()
    assert folded.states.tobytes() == plain.states.tobytes()
    assert folded.row_ops <= plain.row_ops
    return folded.row_ops, plain.row_ops


def job_segments(job, batches: int = 3, shots: int = 200):
    """A few batches of ``job`` as the engine hands them to the kernel."""

    def make():
        segments = []
        for index in range(batches):
            rng = batch_rng(job.seed, index)
            kernel_rng = np.random.default_rng(int(rng.integers(2**63)))
            segments.extend(
                Segment(kernel_rng, count, initial_state)
                for initial_state, count in _ensemble_groups(job, shots, rng)
            )
        return segments

    return make


def feedback_circuit() -> Circuit:
    """Readout noise, feedback, a conditioned reset and a mid-circuit reset."""
    circuit = Circuit(4, 5)
    circuit.h(0).t(0).h(1).cx(1, 2).ry(0.7, 3)
    circuit.measure(0, 0).measure(1, 1)
    circuit.x(2, condition=Condition((1,), 1))
    circuit.z(3, condition=Condition((0,), 1))
    circuit.append("reset", [1], condition=Condition((0, 1), 1))
    circuit.reset(0)
    circuit.h(0).cx(0, 3).t(3)
    circuit.measure(2, 2).measure(3, 3).measure(0, 4)
    return circuit


LINK_NOISE = NetworkSpec(topology="line", link_depolarizing=0.01).noise_model(None)

FAMILY = {
    "monolithic_k2n2": lambda: protocol_job(
        build_monolithic_swap_test(2, 2, basis="x"), pure_states(2, 2, 1), 600, 17
    ),
    "compas_k3n1_link": lambda: protocol_job(
        build_compas(3, 1, basis="x"), pure_states(3, 1, 2), 600, 23, noise=LINK_NOISE
    ),
    "nstate_k3n1": lambda: protocol_job(
        build_nstate_swap(3, 1, basis="x"), pure_states(3, 1, 3), 600, 29
    ),
    "nparty_k3n1": lambda: protocol_job(
        build_nparty_hadamard(3, 1, basis="y"), pure_states(3, 1, 4), 600, 31
    ),
}


class TestFoldIsInvisible:
    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_family_ops(self, monkeypatch, name):
        job = FAMILY[name]()
        folded, plain = compare(
            monkeypatch, program_of(job), job_segments(job), noise=job.noise
        )
        # Reconverged histories really do merge.
        assert folded < plain / 2

    def test_readout_flips_feedback_and_reset(self, monkeypatch):
        noise = NoiseModel(p1=0.0, p2=0.0, p_meas=0.05)
        program = compile_circuit(feedback_circuit())
        assert any(op.fold for op in program.ops)

        def make():
            return [Segment(np.random.default_rng(41), 500)]

        folded, plain = compare(monkeypatch, program, make, noise=noise)
        assert folded < plain

    def test_packed_call_with_per_shot_inputs(self, monkeypatch):
        # Per-shot inputs start one row per shot, so byte-identical inputs
        # are merged at the first fold point.
        job = protocol_job(build_compas(3, 1, basis="x"), mixed_states(3, 5), 300, 7)
        program = program_of(job)
        groups = _ensemble_groups(job, 120, np.random.default_rng(8))
        inputs = np.stack([state for state, _ in groups])
        picks = np.random.default_rng(9).integers(len(groups), size=(2, 90))

        def make():
            return [
                Segment(np.random.default_rng(11), 90, inputs[picks[0]]),
                Segment(np.random.default_rng(12), 70, inputs[0]),
                Segment(np.random.default_rng(13), 90, inputs[picks[1]]),
            ]

        folded, plain = compare(monkeypatch, program, make)
        assert folded < plain / 2

    def test_fold_merges_exactly_the_identical_rows(self):
        rng = np.random.default_rng(3)
        distinct = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        picks = [2, 0, 2, 3, 0, 2, 1]
        rows = _Rows([(None, distinct[picks], 0, len(picks))], 8)
        rows.row_of = np.array([0, 1, 2, 3, 4, 5, 5])  # no shot holds row 6
        rows.fold()
        assert rows.count == 3
        assert rows.live.tobytes() == distinct[[2, 0, 3]].tobytes()
        held = rows.live[rows.row_of]
        assert held.tobytes() == distinct[[2, 0, 2, 3, 0, 2, 2]].tobytes()


class TestFoldPoints:
    def test_service_mixed_spec_has_no_fold_point(self, monkeypatch):
        # The service workload's fresh compute: a noisy monolithic SWAP
        # test whose only collapse is its terminal measure.
        rng = np.random.default_rng(1)
        states = [
            [{"__complex__": [float(a.real), float(a.imag)]} for a in random_pure_state(1, rng)]
            for _ in range(2)
        ]
        spec = {
            "tenant": "t",
            "experiment": {
                "kind": "swap_test",
                "payload": {"states": states},
                "noise": {"p": 0.002},
                "options": {"shots": 20, "seed": 3},
            },
        }
        experiment = parse_submission(spec).experiment
        jobs = []
        with Engine(workers=1, executor="serial", cache=False) as engine:
            run_many = engine.run_many

            def record(batch, **kwargs):
                jobs.extend(batch)
                return run_many(batch, **kwargs)

            monkeypatch.setattr(engine, "run_many", record)
            experiment.run(engine=engine)
        assert len(jobs) == 2
        for job in jobs:
            program = program_of(job)
            assert program.gate_noise
            assert not any(op.fold for op in program.ops)

    def test_terminal_measures_do_not_fold(self):
        circuit = Circuit(2, 3)
        circuit.h(0).measure(0, 0).reset(0)
        circuit.x(1, condition=Condition((0,), 1))
        circuit.h(0).measure(0, 1).measure(1, 2)
        ops = compile_circuit(circuit).ops
        assert [op.kind for op in ops] == [
            "unitary", "measure", "reset", "unitary", "unitary", "measure", "measure"
        ]
        assert [op.fold for op in ops] == [False, True, True, True, False, False, False]

    def test_fault_sites_do_not_fold(self):
        circuit = Circuit(2, 2)
        circuit.h(0).cx(0, 1).measure(0, 0).h(0).measure(0, 1)
        program = compile_circuit(circuit, gate_noise=True)
        assert [op.fold for op in program.ops] == [False, False, True, False, False]


class TestWideFamilyRows:
    """At k=6 the histories outnumber the shots; folded rows stay few."""

    STATES = pure_states(6, 1, 12)

    def run(self, experiment):
        with Engine(workers=1, executor="serial", cache=False) as engine:
            return experiment.run(engine=engine)

    @pytest.mark.parametrize("kind", ["compas", "nstate"])
    def test_rows_bounded_and_bits_kept(self, monkeypatch, kind):
        if kind == "compas":
            experiment = Experiment.swap_test(
                self.STATES, shots=200, seed=3, backend="compas"
            )
        else:
            experiment = Experiment.nstate_swap(self.STATES, shots=200, seed=3)
        folded = self.run(experiment)
        assert folded.extra["resources"]["engine"]["row_ops"] <= 1_000
        with monkeypatch.context() as patch:
            no_fold(patch)
            plain = self.run(experiment)
        assert plain.extra["resources"]["engine"]["row_ops"] > 5_000
        assert repr(folded.estimate) == repr(plain.estimate)
        assert folded.stderr == plain.stderr
        if kind == "compas":
            exact = exact_swap_test_expectation(self.STATES)
            assert abs(folded.estimate.real - exact.real) <= 5 * folded.stderr
            assert abs(folded.estimate.imag - exact.imag) <= 5 * folded.extra["stderr_im"]
