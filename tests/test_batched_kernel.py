"""Cross-validation of the compiled-program / vectorized-kernel stack.

Three-way agreement is the correctness argument for the new simulation core:

* the **vectorized kernel** (`repro.sim.batched`) against the **per-shot
  reference interpreter** (`StatevectorSimulator.run`), exactly on
  deterministic circuits and statistically on sampled ones;
* the kernel against :class:`DensitySimulator` **exact branch
  probabilities** — noiseless and depolarizing, with and without classical
  feedback;
* the engine's new ``statevector`` backend against itself across worker
  counts (bit identity) and against the pinned ``statevector-ref``
  per-shot backend (statistical identity).
"""

import numpy as np
import pytest

from repro.circuits import Circuit, Condition
from repro.core import build_monolithic_swap_test, swap_test_job
from repro.core.estimator import exact_swap_test_expectation
from repro.engine import BackendRouter, Engine, Job
from repro.sim import (
    DensitySimulator,
    NoiseModel,
    StatevectorSimulator,
    compile_circuit,
    get_capabilities,
    get_compiled,
    run_batched,
)
from repro.sim.compile import FUSION_MAX_QUBITS
from repro.utils import partial_trace, random_density_matrix, random_pure_state, state_fidelity

RNG = np.random.default_rng(515)

ALL_GATES = ["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap", "t", "tdg", "ccx", "cswap"]


def random_unitary_circuit(num_qubits, depth, rng):
    from repro.circuits.gates import GATES

    c = Circuit(num_qubits)
    for _ in range(depth):
        name = str(rng.choice(ALL_GATES))
        arity = GATES[name].num_qubits
        if arity > num_qubits:
            continue
        qubits = rng.choice(num_qubits, size=arity, replace=False)
        c.append(name, [int(q) for q in qubits])
    return c


def teleport_circuit() -> Circuit:
    c = Circuit(3, 2)
    c.h(1).cx(1, 2)
    c.cx(0, 1).h(0)
    c.measure(0, 0).measure(1, 1)
    c.x(2, condition=Condition((1,), 1))
    c.z(2, condition=Condition((0,), 1))
    return c


def distribution(clbit_strings, shots):
    out = {}
    for s in clbit_strings:
        out[s] = out.get(s, 0) + 1
    return {k: v / shots for k, v in out.items()}


class TestCompile:
    @pytest.mark.parametrize("seed", range(5))
    def test_fusion_preserves_unitary_semantics(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        circuit = random_unitary_circuit(n, 20, rng)
        program = compile_circuit(circuit)
        psi = random_pure_state(n, rng)
        out = run_batched(
            program, 1, np.random.default_rng(0), initial_state=psi, return_states=True
        )
        assert np.allclose(out.states[0], circuit.to_unitary() @ psi, atol=1e-9)

    def test_fusion_shrinks_op_count_and_bounds_support(self):
        circuit = Circuit(4).h(0).t(0).cx(0, 1).h(2).cx(2, 3).s(3).h(1)
        program = compile_circuit(circuit)
        assert len(program.ops) < program.source_ops == 7
        for op in program.ops:
            assert len(op.qubits) <= FUSION_MAX_QUBITS

    def test_gate_noise_disables_fusion_and_marks_fault_sites(self):
        circuit = Circuit(2).h(0).cx(0, 1).t(1)
        program = compile_circuit(circuit, gate_noise=True)
        assert len(program.ops) == 3
        assert all(op.sample_fault for op in program.ops)
        assert program.prefix_len == 0
        noiseless = compile_circuit(circuit)
        assert noiseless.prefix_len == len(noiseless.ops)

    def test_capability_flags(self):
        clifford = Circuit(2, 1).h(0).cx(0, 1).measure(0, 0)
        caps = get_capabilities(clifford)
        assert caps.is_clifford and caps.num_measurements == 1
        assert not caps.has_reset and not caps.has_conditional

        magic = Circuit(1).t(0)
        assert not get_capabilities(magic).is_clifford

        feedback = teleport_circuit()
        caps = get_capabilities(feedback)
        assert caps.is_clifford and caps.is_frame_compatible and caps.has_conditional

        nonpauli_feedback = Circuit(2, 1)
        nonpauli_feedback.measure(0, 0)
        nonpauli_feedback.h(1, condition=Condition((0,), 1))
        assert not get_capabilities(nonpauli_feedback).is_frame_compatible

    def test_compile_cache_reuses_programs(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        first = get_compiled(circuit)
        again = get_compiled(circuit.copy())
        assert first is again  # same digest -> same cached object
        noisy = get_compiled(circuit, gate_noise=True)
        assert noisy is not first


class TestKernelVsReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_unitary_batch_matches_reference_exactly(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(2, 4))
        circuit = random_unitary_circuit(n, 15, rng)
        psi = random_pure_state(n, rng)
        reference = StatevectorSimulator(seed=0).run(circuit, initial_state=psi).statevector
        out = run_batched(
            get_compiled(circuit),
            5,
            np.random.default_rng(seed),
            initial_state=psi,
            return_states=True,
        )
        for row in out.states:
            assert np.allclose(row, reference, atol=1e-9)

    def test_teleportation_feedback_is_exact_per_shot(self):
        circuit = teleport_circuit()
        psi = random_pure_state(1, RNG)
        init = np.kron(psi, [1, 0, 0, 0]).astype(complex)
        out = run_batched(
            get_compiled(circuit),
            200,
            np.random.default_rng(7),
            initial_state=init,
            return_states=True,
        )
        for row in out.states[::20]:
            assert state_fidelity(psi, partial_trace(row, [2], 3)) > 1 - 1e-9
        # All four measurement branches appear.
        assert set(out.clbit_strings()) == {"00", "01", "10", "11"}

    def test_reset_in_superposition_lands_in_zero(self):
        circuit = Circuit(2).h(0).cx(0, 1).reset(0)
        out = run_batched(
            get_compiled(circuit), 50, np.random.default_rng(3), return_states=True
        )
        tensor = out.states.reshape(50, 2, 2)
        assert np.allclose(tensor[:, 1, :], 0.0)  # qubit 0 always |0>


def _controlled_deferral(circuit: Circuit, gate: str, control: int, target: int, value: int):
    """Append the coherent controlled-``gate`` that feedback on ``control``
    defers to: ``value`` 0 conditions on |0>, i.e. X-conjugated control."""
    if value == 0:
        circuit.x(control)
    if gate == "x":
        circuit.cx(control, target)
    elif gate == "y":
        circuit.sdg(target).cx(control, target).s(target)  # S X S^dag = Y
    else:
        circuit.cz(control, target)
    if value == 0:
        circuit.x(control)


class TestDeferredMeasurement:
    """Mid-circuit measurement + Pauli feedback = deferred controlled Pauli.

    The kernel's per-shot post-measurement state, in every branch, must
    equal the state of the circuit that applies the controlled gate
    coherently and measures at the end (the principle of deferred
    measurement), from an arbitrary entangled input.
    """

    @staticmethod
    def _branch_states(circuit, initial_state):
        out = run_batched(
            get_compiled(circuit),
            64,
            np.random.default_rng(3),
            initial_state=initial_state,
            return_states=True,
        )
        keys = np.array(out.clbit_strings())
        return {key: out.states[keys == key] for key in set(keys)}

    def _assert_same_branches(self, feedback, deferred, num_qubits, measured):
        psi = random_pure_state(num_qubits, np.random.default_rng(8))
        got = self._branch_states(feedback, psi)
        want = self._branch_states(deferred, psi)
        assert set(got) == set(want) and len(got) == 2 ** len(measured)
        for key, rows in got.items():
            reference = want[key][0]
            for row in np.concatenate([rows, want[key]]):
                assert abs(np.vdot(reference, row)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "gate, value", [("x", 1), ("x", 0), ("y", 1), ("z", 1)]
    )
    def test_single_bit_feedback(self, gate, value):
        feedback = Circuit(2, 1).measure(0, 0)
        getattr(feedback, gate)(1, condition=Condition((0,), value))
        deferred = Circuit(2, 1)
        _controlled_deferral(deferred, gate, 0, 1, value)
        deferred.measure(0, 0)
        self._assert_same_branches(feedback, deferred, 2, (0,))

    def test_parity_feedback(self):
        # A correction conditioned on the parity of two outcomes defers to
        # one CX per measured qubit.
        feedback = Circuit(3, 2).measure(0, 0).measure(1, 1)
        feedback.x(2, condition=Condition((0, 1), 1))
        deferred = Circuit(3, 2).cx(0, 2).cx(1, 2).measure(0, 0).measure(1, 1)
        self._assert_same_branches(feedback, deferred, 3, (0, 1))


class TestKernelVsDensityExact:
    def _compare(self, circuit, noise, shots=6000, atol=0.035, seed=11):
        gate_noise = noise is not None and (noise.p1 > 0 or noise.p2 > 0)
        program = get_compiled(circuit, gate_noise=gate_noise)
        out = run_batched(
            program, shots, np.random.default_rng(seed), noise=noise
        )
        empirical = distribution(out.clbit_strings(), shots)
        exact = {
            "".join(str(b) for b in bits): p
            for bits, p in DensitySimulator(noise=noise)
            .run(circuit)
            .branch_probabilities()
            .items()
        }
        for key in set(exact) | set(empirical):
            assert abs(exact.get(key, 0.0) - empirical.get(key, 0.0)) < atol

    def test_noiseless_bell_sampling(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        self._compare(circuit, None)

    def test_depolarizing_without_feedback(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        self._compare(circuit, NoiseModel.from_base(0.05))

    def test_depolarizing_with_feedback(self):
        self._compare(teleport_circuit(), NoiseModel.from_base(0.05))

    def test_noiseless_with_feedback(self):
        self._compare(teleport_circuit(), None)

    def test_readout_flip_only(self):
        circuit = Circuit(1, 1).measure(0, 0)
        self._compare(circuit, NoiseModel(p1=0.0, p2=0.0, p_meas=0.25))

    def test_reset_under_noise(self):
        circuit = Circuit(2, 1).h(0).cx(0, 1).reset(0).measure(1, 0)
        self._compare(circuit, NoiseModel.from_base(0.04))

    def test_conditional_reset_and_measure(self):
        # Regression: collapse sites can themselves be conditioned — the
        # compiled program must carry the condition and the kernel must
        # collapse only the satisfying subset of shots.
        circuit = Circuit(2, 2)
        circuit.x(1).h(0).measure(0, 0)
        circuit.append("reset", [1], condition=Condition((0,), 1))
        circuit.append("measure", [1], clbits=[1], condition=Condition((0,), 1))
        self._compare(circuit, None)
        caps = get_capabilities(circuit)
        assert caps.has_conditional
        # Shot-level check against the reference interpreter: whenever the
        # condition fired, q1 was reset before being measured into clbit 1.
        out = run_batched(get_compiled(circuit), 400, np.random.default_rng(2))
        fired = out.clbits[:, 0] == 1
        assert fired.any() and (~fired).any()
        assert np.all(out.clbits[fired, 1] == 0)  # reset |1> -> |0> -> measured 0
        assert np.all(out.clbits[~fired, 1] == 0)  # site skipped, clbit untouched


class TestChunking:
    def test_chunked_run_is_deterministic_and_correct(self, monkeypatch):
        import repro.sim.batched as batched

        circuit = Circuit(3, 3).h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            circuit.measure(q, q)
        program = get_compiled(circuit)
        monkeypatch.setattr(batched, "MAX_CHUNK_AMPLITUDES", 64)
        first = batched.run_batched(program, 120, np.random.default_rng(5))
        second = batched.run_batched(program, 120, np.random.default_rng(5))
        assert np.array_equal(first.clbits, second.clbits)
        strings = set("".join(str(int(b)) for b in row) for row in first.clbits)
        assert strings <= {"000", "111"}  # GHZ correlations survive chunking


class TestEngineIntegration:
    def _job(self, seed=17, shots=600, backend=None, noise=None):
        rng = np.random.default_rng(9)
        build = build_monolithic_swap_test(3, 1, variant="b", basis="x")
        states = [random_density_matrix(1, rng=rng) for _ in range(3)]
        return swap_test_job(
            build, states, shots, seed, noise=noise, batch_size=100, backend=backend
        ), states

    def test_workers_1_vs_4_bit_identical_on_new_kernel(self):
        job_a, _ = self._job()
        job_b, _ = self._job()
        with Engine(workers=1) as serial, Engine(workers=4) as parallel:
            res_1 = serial.run(job_a)
            res_4 = parallel.run(job_b)
        assert res_1.backend == "statevector"
        assert res_1.parity_mean == res_4.parity_mean
        assert res_1.parity_stderr == res_4.parity_stderr
        assert res_1.counts == res_4.counts

    @pytest.mark.parametrize("noise", [None, NoiseModel.from_base(0.01)])
    def test_batched_and_reference_agree_with_exact(self, noise):
        shots = 4000
        job_vec, states = self._job(seed=3, shots=shots, noise=noise)
        job_ref, _ = self._job(seed=3, shots=shots, backend="statevector-ref", noise=noise)
        with Engine(workers=1) as engine:
            res_vec = engine.run(job_vec)
            res_ref = engine.run(job_ref)
        assert res_vec.backend == "statevector"
        assert res_ref.backend == "statevector-ref"
        # Both estimate the same quantity; with noise the target drifts from
        # the ideal trace, so compare the two samplers against each other.
        spread = 5.0 * (res_vec.parity_stderr + res_ref.parity_stderr)
        assert abs(res_vec.parity_mean - res_ref.parity_mean) < spread
        if noise is None:
            exact = exact_swap_test_expectation(states, variant="b").real
            assert abs(res_vec.parity_mean - exact) < 5.0 * res_vec.parity_stderr
            assert abs(res_ref.parity_mean - exact) < 5.0 * res_ref.parity_stderr

    def test_backend_pin_changes_hash_and_routing(self):
        job_auto, _ = self._job()
        job_ref, _ = self._job(backend="statevector-ref")
        assert job_auto.content_hash() != job_ref.content_hash()
        router = BackendRouter()
        assert router.select(job_auto).name == "statevector"
        assert router.select(job_ref).name == "statevector-ref"

    def test_router_uses_capability_flags(self):
        clifford = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        magic = Circuit(2, 2).h(0).t(1).cx(0, 1).measure(0, 0).measure(1, 1)
        router = BackendRouter()
        assert router.select(Job(circuit=clifford, shots=10, seed=1)).name == "stabilizer"
        assert router.select(Job(circuit=magic, shots=10, seed=1)).name == "statevector"

    def test_invalid_backend_pins_rejected(self):
        clifford = Circuit(2, 2).h(0).t(1).cx(0, 1).measure(0, 0)
        router = BackendRouter()
        with pytest.raises(ValueError):
            Job(circuit=clifford, shots=10, seed=1, backend="bogus")
        with pytest.raises(ValueError):
            Job(circuit=clifford, shots=10, seed=1, backend="tableau")
        with pytest.raises(ValueError):
            router.select(Job(circuit=clifford, shots=10, seed=1, backend="density"))

    def test_compile_and_execute_times_recorded(self):
        job, _ = self._job()
        with Engine(workers=1) as engine:
            result = engine.run(job)
        assert result.execute_time > 0.0
        assert result.compile_time >= 0.0
        stats = engine.stats_dict()
        assert stats["execute_time"] == pytest.approx(result.execute_time)
