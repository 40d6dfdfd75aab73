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
  per-shot backend (statistical identity);
* Clifford sample jobs, which route to the dense kernel, against the
  density branches and against the Pauli-frame sampler's record flips;
* the router matrix: one pinned backend per circuit class and mode.
"""

import pickle
from itertools import permutations

import numpy as np
import pytest

from repro.analysis.fanout_errors import build_fanout_circuit
from repro.analysis.ghz_fidelity import build_distributed_ghz_circuit
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
    run_batched_frames,
)
from repro.sim.batched import (
    _PAULI_NAMES,
    Segment,
    _apply_matrix,
    _collapse_rows,
    _fault_matrix,
    _flip_qubit,
    _zero_probability,
    run_segments,
)
from repro.sim.compile import FUSION_MAX_QUBITS
from repro.sim.noisemodel import PAULI_MATRICES
from repro.utils import partial_trace, random_density_matrix, random_pure_state, state_fidelity
from repro.utils.linalg import kron_all

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

    def test_router_sends_every_sample_job_to_statevector(self):
        clifford = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        magic = Circuit(2, 2).h(0).t(1).cx(0, 1).measure(0, 0).measure(1, 1)
        router = BackendRouter()
        assert router.select(Job(circuit=clifford, shots=10, seed=1)).name == "statevector"
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


# ----------------------------------------------------------------------
# Clifford sampling on the dense kernel's auto-route
# ----------------------------------------------------------------------
def ghz_circuit(width: int) -> Circuit:
    """Clifford GHZ prep + full Z readout."""
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def verified_teleport_circuit() -> Circuit:
    """Teleport |0> through a Bell pair with Pauli feedback, then verify."""
    c = Circuit(3, 3)
    c.h(1).cx(1, 2)
    c.cx(0, 1).h(0)
    c.measure(0, 0).measure(1, 1)
    c.x(2, condition=Condition((1,), 1))
    c.z(2, condition=Condition((0,), 1))
    return c.measure(2, 2)


def magic_circuit() -> Circuit:
    c = Circuit(2, 2)
    c.h(0).t(0).cx(0, 1)
    c.measure(0, 0).measure(1, 1)
    return c


def exact_distribution(circuit: Circuit, noise=None) -> dict[str, float]:
    branches = DensitySimulator(noise=noise).run(circuit).branch_probabilities()
    return {"".join(str(b) for b in bits): p for bits, p in branches.items()}


def tvd(counts: dict, exact: dict, shots: int) -> float:
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(k, 0) / shots - exact.get(k, 0.0)) for k in keys)


class TestCliffordAutoRouteVsDensityExact:
    """Clifford sample jobs route to the dense kernel and sample the
    exact branch distribution."""

    def _run(self, circuit, shots, seed, noise=None):
        with Engine(workers=1) as engine:
            result = engine.run(Job(circuit=circuit, shots=shots, seed=seed, noise=noise))
        assert result.backend == "statevector"
        return result.counts

    def test_teleport_matches_density_exact(self):
        # Teleporting |0> lands qubit 2 in |0> on every feedback branch;
        # the Bell-measurement record is two fair coins.
        circuit = verified_teleport_circuit()
        counts = self._run(circuit, 4000, 5)
        assert all(key[2] == "0" for key in counts)
        assert tvd(counts, exact_distribution(circuit), 4000) < 0.05

    def test_noisy_ghz_matches_density_exact(self):
        circuit = ghz_circuit(2)
        noise = NoiseModel.from_base(0.05)
        counts = self._run(circuit, 20000, 21, noise)
        assert tvd(counts, exact_distribution(circuit, noise), 20000) < 0.02

    def test_link_noisy_distributed_ghz_matches_density_exact(self):
        # Distributed GHZ: Bell links with hop weights, reset + feedback.
        circuit, _members = build_distributed_ghz_circuit(3)
        noise = NoiseModel(p1=0.002, p2=0.01, p_meas=0.01, p_link=0.03, p_swap=0.01)
        counts = self._run(circuit, 20000, 31, noise)
        assert tvd(counts, exact_distribution(circuit, noise), 20000) < 0.03


# ----------------------------------------------------------------------
# Segment packing leaves every segment's bits unchanged
# ----------------------------------------------------------------------
class TestPackedKernelPath:
    """A segment packed into one kernel call with another segment must be
    bit-identical to the same segment run alone: each segment draws from
    its own generator in its own order and sizes, and rows shared across
    segments carry the same arithmetic as rows held by one segment."""

    SHOTS = 512

    @staticmethod
    def _program(circuit, noise):
        return compile_circuit(
            circuit,
            gate_noise=noise is not None and noise.has_gate_noise,
            link_noise=noise is not None and noise.has_link_noise,
        )

    def _compare(self, circuit, noise=None):
        program = self._program(circuit, noise)
        alone = run_segments(
            program, [Segment(np.random.default_rng(1234), self.SHOTS)], noise=noise
        )
        companion = run_segments(
            program, [Segment(np.random.default_rng(99), 300)], noise=noise
        )
        packed = run_segments(
            program,
            [
                Segment(np.random.default_rng(99), 300),
                Segment(np.random.default_rng(1234), self.SHOTS),
            ],
            noise=noise,
        )
        assert np.array_equal(packed.clbits[300:], alone.clbits)
        assert np.array_equal(packed.clbits[:300], companion.clbits)
        assert 0 < packed.row_ops <= packed.shot_ops
        return alone

    def test_noiseless_ghz(self):
        alone = self._compare(ghz_circuit(4))
        assert set(alone.clbit_strings()) == {"0000", "1111"}
        # The deterministic prefix runs on one row: far fewer rows than shots.
        assert alone.row_ops < alone.shot_ops // 10

    def test_feedback_and_reset(self):
        circuit = verified_teleport_circuit()
        circuit.reset(0)
        circuit.h(0)
        alone = self._compare(circuit)
        # Teleporting |0> with Pauli feedback always verifies as 0.
        assert not alone.clbits[:, 2].any()

    def test_non_clifford(self):
        alone = self._compare(magic_circuit())
        # T commutes with the Z readout: the two clbits always agree.
        assert np.array_equal(alone.clbits[:, 0], alone.clbits[:, 1])

    def test_noisy_ghz(self):
        alone = self._compare(ghz_circuit(3), noise=NoiseModel.from_base(0.05))
        # Faults leave GHZ's two-outcome support.
        assert set(alone.clbit_strings()) - {"000", "111"}


# ----------------------------------------------------------------------
# Clifford sampling semantics on the dense kernel
# ----------------------------------------------------------------------
def random_clifford_circuit(num_qubits: int, depth: int, rng) -> Circuit:
    """Random Clifford gates with mid-circuit measurement and Pauli
    feedback, then a full Z readout."""
    from repro.circuits.gates import GATES

    c = Circuit(num_qubits, num_qubits + 1)
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.1:
            c.measure(int(rng.integers(num_qubits)), num_qubits)
        elif roll < 0.2:
            c.append(
                str(rng.choice(["x", "z"])),
                [int(rng.integers(num_qubits))],
                condition=Condition((num_qubits,), 1),
            )
        else:
            name = str(rng.choice(["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"]))
            qubits = rng.choice(num_qubits, size=GATES[name].num_qubits, replace=False)
            c.append(name, [int(q) for q in qubits])
    for q in range(num_qubits):
        c.measure(q, q)
    return c


class TestCliffordSampling:
    """What the retired stabilizer sampler was checked for, now asked of
    the dense kernel that Clifford sample jobs route to."""

    @staticmethod
    def _run(circuit, shots, seed, noise=None, **kwargs):
        with Engine(workers=1) as engine:
            result = engine.run(
                Job(circuit=circuit, shots=shots, seed=seed, noise=noise, **kwargs)
            )
        return result

    @staticmethod
    def _clbits(circuit, shots, seed):
        program = get_compiled(circuit)
        return run_batched(program, shots, np.random.default_rng(seed)).clbits

    def test_noiseless_ghz_support_and_fair_coin(self):
        clbits = self._clbits(ghz_circuit(5), 4000, 7)
        rows = {"".join(map(str, row)) for row in clbits.astype(int)}
        assert rows == {"00000", "11111"}
        assert abs(clbits[:, 0].mean() - 0.5) < 0.03

    def test_deterministic_outcomes_are_exact(self):
        circuit = Circuit(3, 3).x(0).cx(0, 1).measure(0, 0).measure(1, 1).measure(2, 2)
        clbits = self._clbits(circuit, 64, 0)
        assert np.array_equal(clbits, np.tile([1, 1, 0], (64, 1)))

    def test_feedback_fires_on_the_measured_bit(self):
        circuit = Circuit(2, 2).x(0).measure(0, 0)
        circuit.x(1, condition=Condition((0,), 1))
        circuit.measure(1, 1)
        assert self._run(circuit, 50, 0).counts == {"11": 50}

    def test_repeat_measurement_is_stable(self):
        circuit = Circuit(1, 2).h(0).measure(0, 0).measure(0, 1)
        clbits = self._clbits(circuit, 4000, 3)
        assert np.array_equal(clbits[:, 0], clbits[:, 1])
        assert abs(clbits[:, 0].mean() - 0.5) < 0.03

    def test_reset_rerandomizes_measurement(self):
        # measure; reset; h; measure: the second bit is a fresh coin
        # whatever the first was.
        circuit = Circuit(1, 2)
        circuit.h(0).measure(0, 0).reset(0).h(0).measure(0, 1)
        clbits = self._clbits(circuit, 4000, 3)
        first, second = clbits[:, 0], clbits[:, 1]
        assert abs(second.mean() - 0.5) < 0.03
        # Independence: the conditional means match the marginal.
        assert abs(second[first == 1].mean() - second[first == 0].mean()) < 0.06

    @pytest.mark.parametrize("width", [2, 4])
    def test_agrees_with_per_shot_backend(self, width):
        shots = 3000
        dense = self._run(ghz_circuit(width), shots, 11)
        ref = self._run(ghz_circuit(width), shots, 12, backend="statevector-ref")
        assert (dense.backend, ref.backend) == ("statevector", "statevector-ref")
        keys = set(dense.counts) | set(ref.counts)
        d = 0.5 * sum(abs(dense.counts.get(k, 0) - ref.counts.get(k, 0)) for k in keys)
        assert d / shots < 0.05

    def test_fanout_sampling_matches_density_exact(self):
        circuit, _data = build_fanout_circuit(2)
        noise = NoiseModel.from_base(0.02)
        result = self._run(circuit, 6000, 41, noise)
        assert result.backend == "statevector"
        assert tvd(result.counts, exact_distribution(circuit, noise), 6000) < 0.05

    @pytest.mark.parametrize("seed", range(6))
    def test_random_clifford_circuit_matches_density_exact(self, seed):
        rng = np.random.default_rng(300 + seed)
        circuit = random_clifford_circuit(3, 16, rng)
        noise = NoiseModel.from_base(0.02) if seed % 2 else None
        result = self._run(circuit, 4000, seed, noise)
        assert result.backend == "statevector"
        assert tvd(result.counts, exact_distribution(circuit, noise), 4000) < 0.05


class TestDenseVsFrames:
    """The two kernels that stay agree on noisy GHZ readout: a Clifford
    circuit's noisy record is its ideal record XOR an independent
    record-deviation pattern, and the frames sampler draws that pattern."""

    @pytest.mark.parametrize("width", [3, 5])
    @pytest.mark.parametrize("p", [0.01, 0.05])
    def test_ghz_readout_is_ideal_record_xor_frame_flips(self, width, p):
        circuit = ghz_circuit(width)
        noise = NoiseModel.from_base(p)
        shots = 20000
        with Engine(workers=1) as engine:
            result = engine.run(Job(circuit=circuit, shots=shots, seed=61, noise=noise))
        assert result.backend == "statevector"
        _fx, _fz, flips = run_batched_frames(
            circuit, noise, shots, np.random.default_rng(62)
        )
        flip_counts: dict[str, int] = {}
        for row in flips.astype(int):
            key = "".join(map(str, row))
            flip_counts[key] = flip_counts.get(key, 0) + 1
        # The ideal GHZ record is all-0 or all-1 with equal weight.
        predicted: dict[str, float] = {}
        for key, count in flip_counts.items():
            flipped = "".join("1" if b == "0" else "0" for b in key)
            for record in (key, flipped):
                predicted[record] = predicted.get(record, 0.0) + 0.5 * count / shots
        assert set(flip_counts) - {"0" * width}
        assert tvd(result.counts, predicted, shots) < 0.03


class TestRouterMatrix:
    """One pinned backend (or refusal) per circuit class and mode, so a
    routing change is deliberate."""

    NOISE = NoiseModel.from_base(0.01)

    @staticmethod
    def _conditioned_collapse():
        c = Circuit(2, 2).h(0).measure(0, 0)
        c.append("reset", [1], condition=Condition((0,), 1))
        return c.measure(1, 1)

    @pytest.mark.parametrize(
        ("label", "make_job", "expected"),
        [
            ("clifford+noiseless", lambda n: Job(circuit=ghz_circuit(3), shots=10, seed=1), "statevector"),
            ("clifford+pauli-noise", lambda n: Job(circuit=ghz_circuit(3), shots=10, seed=1, noise=n), "statevector"),
            ("clifford-64+noiseless", lambda n: Job(circuit=ghz_circuit(64), shots=10, seed=1), "statevector"),
            ("pauli-feedback+noise", lambda n: Job(circuit=verified_teleport_circuit(), shots=10, seed=1, noise=n), "statevector"),
            ("cond-collapse+noiseless", lambda n: Job(circuit=TestRouterMatrix._conditioned_collapse(), shots=10, seed=1), "statevector"),
            ("cond-collapse+noise", lambda n: Job(circuit=TestRouterMatrix._conditioned_collapse(), shots=10, seed=1, noise=n), "statevector"),
            ("magic+noiseless", lambda n: Job(circuit=magic_circuit(), shots=10, seed=1), "statevector"),
            ("magic+noise", lambda n: Job(circuit=magic_circuit(), shots=10, seed=1, noise=n), "statevector"),
            ("clifford+state-input", lambda n: Job(circuit=ghz_circuit(3), shots=10, seed=1, initial_state=random_pure_state(3, np.random.default_rng(0))), "statevector"),
            ("frames-mode", lambda n: Job(circuit=verified_teleport_circuit(), shots=10, seed=1, noise=n, frame_qubits=(2,), mode="frames"), "pauliframe"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_backend_matrix(self, label, make_job, expected):
        assert BackendRouter().select(make_job(self.NOISE)).name == expected, label

    def test_non_pauli_feedback_falls_back_to_statevector(self):
        circuit = Circuit(2, 2).h(0).measure(0, 0)
        circuit.h(1, condition=Condition((0,), 1))
        circuit.measure(1, 1)
        assert BackendRouter().select(Job(circuit=circuit, shots=10, seed=1)).name == "statevector"

    def test_frames_mode_refuses_what_frames_cannot_run(self):
        router = BackendRouter()
        for circuit in (magic_circuit(), self._non_pauli_feedback()):
            job = Job(
                circuit=circuit, shots=10, seed=1, noise=self.NOISE,
                frame_qubits=(1,), mode="frames",
            )
            with pytest.raises(ValueError, match="Clifford circuit with Pauli-only feedback"):
                router.select(job)
        noiseless = Job(circuit=ghz_circuit(3), shots=10, seed=1, frame_qubits=(0,), mode="frames")
        with pytest.raises(ValueError, match="non-trivial noise model"):
            router.select(noiseless)

    @staticmethod
    def _non_pauli_feedback():
        c = Circuit(2, 2).h(0).measure(0, 0)
        c.h(1, condition=Condition((0,), 1))
        return c.measure(1, 1)


class TestEngineDeterminism:
    def test_worker_count_bit_identity_through_process_pool(self):
        circuit = ghz_circuit(10)
        noise = NoiseModel.from_base(0.02)
        job = lambda: Job(  # noqa: E731
            circuit=circuit, shots=2048, seed=99, noise=noise, batch_size=512
        )
        with Engine(workers=1) as serial, Engine(workers=2, executor="process") as pool:
            a = serial.run(job())
            b = pool.run(job())
        assert a.backend == b.backend == "statevector"
        assert a.counts == b.counts

    def test_thread_executor_bit_identity(self):
        circuit = ghz_circuit(6)
        job = lambda: Job(circuit=circuit, shots=1024, seed=5, batch_size=256)  # noqa: E731
        with Engine(workers=1) as serial, Engine(workers=3, executor="thread") as pool:
            assert serial.run(job()).counts == pool.run(job()).counts

    def test_64_qubit_ghz_completes_in_frames_mode(self):
        # Wide Clifford sampling is frames mode: the 64-qubit GHZ that
        # the dense kernel cannot hold runs as a Pauli-frame job.
        circuit = ghz_circuit(64)
        job = Job(
            circuit=circuit, shots=256, seed=3, noise=NoiseModel.from_base(0.001),
            frame_qubits=tuple(range(64)), mode="frames",
        )
        with Engine(workers=1) as engine:
            result = engine.run(job)
        assert result.backend == "pauliframe"
        assert sum(result.counts.values()) == 256
        assert all(len(label) == 64 and set(label) <= set("IXYZ") for label in result.counts)
        assert result.counts.get("I" * 64, 0) > 0


# ----------------------------------------------------------------------
# Row plans: the same bits as the moveaxis kernels they replaced
# ----------------------------------------------------------------------
def moveaxis_apply_matrix(state, matrix, qubits, num_qubits, out=None):
    """The moveaxis ``_apply_matrix`` the row plans replaced (reference)."""
    m = state.shape[0]
    k = len(qubits)
    axes = [1 + q for q in qubits]
    tensor = state.reshape((m,) + (2,) * num_qubits)
    tensor = np.moveaxis(tensor, axes, range(1, k + 1))
    block = tensor.reshape(m, 2**k, -1)
    block = np.matmul(matrix, block)
    tensor = block.reshape((m,) + (2,) * num_qubits)
    tensor = np.moveaxis(tensor, range(1, k + 1), axes)
    if out is None:
        return np.ascontiguousarray(tensor).reshape(m, -1)
    out.reshape((m,) + (2,) * num_qubits)[...] = tensor
    return out


def moved_view(state, qubit, num_qubits):
    m = state.shape[0]
    tensor = state.reshape((m,) + (2,) * num_qubits)
    return np.moveaxis(tensor, 1 + qubit, 1)


def moveaxis_zero_probability(state, qubit, num_qubits):
    m = state.shape[0]
    amp0 = moved_view(state, qubit, num_qubits)[:, 0].reshape(m, -1)
    return np.einsum("ij,ij->i", amp0, amp0.conj()).real


def moveaxis_collapse_rows(state, outcomes, qubit, num_qubits):
    m = state.shape[0]
    moved = moved_view(state, qubit, num_qubits)
    moved[np.arange(m), 1 - outcomes] = 0.0
    norms = np.linalg.norm(state, axis=1)
    if np.any(norms < 1e-15):
        raise RuntimeError("collapse onto zero-probability branch")
    state /= norms[:, None]


def moveaxis_flip_qubit(state, rows, qubit, num_qubits):
    moved = moved_view(state, qubit, num_qubits)
    moved[rows] = moved[rows][:, ::-1]


def signed_zero_rows(m, width, rng):
    """Random rows with some amplitudes exactly ``+0.0`` or ``-0.0``; the
    first and last amplitudes are not zero, so no branch is empty."""
    rows = rng.normal(size=(m, 2**width)) + 1j * rng.normal(size=(m, 2**width))
    inner = rows[:, 1:-1]
    inner[rng.random(inner.shape) < 0.2] = 0.0
    inner[rng.random(inner.shape) < 0.2] = complex(-0.0, -0.0)
    return rows


def qubit_tuples(width):
    for k in (1, 2, 3):
        yield from permutations(range(width), k)


class TestRowPlans:
    """The dense kernel's transpose plans and qubit views give byte-equal
    rows to the moveaxis kernels: ``tobytes`` tells ``-0.0`` from
    ``+0.0``, which the row fold keeps apart."""

    WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 12]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_apply_matrix(self, width):
        rng = np.random.default_rng(width)
        state = signed_zero_rows(4, width, rng)
        subset = np.array([3, 1])
        for qubits in qubit_tuples(width):
            k = len(qubits)
            dense = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            for matrix in (dense, _fault_matrix(int(rng.integers(1, 4**k)), k)):
                got = state.copy()
                want = state.copy()
                _apply_matrix(got, matrix, qubits, width, out=got)
                moveaxis_apply_matrix(want, matrix, qubits, width, out=want)
                assert got.tobytes() == want.tobytes(), qubits
                got = _apply_matrix(state[subset], matrix, qubits, width)
                want = moveaxis_apply_matrix(state[subset], matrix, qubits, width)
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), qubits

    @pytest.mark.parametrize("width", WIDTHS)
    def test_zero_probability_collapse_and_reset_flip(self, width):
        rng = np.random.default_rng(100 + width)
        state = signed_zero_rows(5, width, rng)
        state /= np.linalg.norm(state, axis=1)[:, None]
        for qubit in range(width):
            assert (
                _zero_probability(state, qubit, width).tobytes()
                == moveaxis_zero_probability(state, qubit, width).tobytes()
            )
            for outcomes in ([0] * 5, [1] * 5, [0, 1, 1, 0, 1]):
                outcomes = np.array(outcomes, dtype=np.uint8)
                got, want = state.copy(), state.copy()
                _collapse_rows(got, outcomes, qubit, width)
                moveaxis_collapse_rows(want, outcomes, qubit, width)
                assert got.tobytes() == want.tobytes(), (qubit, outcomes)
                flipped = np.flatnonzero(outcomes)
                _flip_qubit(got, flipped, qubit, width)
                moveaxis_flip_qubit(want, flipped, qubit, width)
                assert got.tobytes() == want.tobytes(), (qubit, outcomes)

    def test_collapse_onto_zero_branch_still_raises(self):
        state = np.zeros((1, 4), dtype=complex)
        state[0, 0] = 1.0
        with pytest.raises(RuntimeError, match="zero-probability"):
            _collapse_rows(state, np.array([1], dtype=np.uint8), 0, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fault_matrices_are_cached_kron_products(self, k):
        for word in range(1, 4**k):
            matrix = _fault_matrix(word, k)
            assert _fault_matrix(word, k) is matrix
            assert not matrix.flags.writeable
            paulis = [PAULI_MATRICES[_PAULI_NAMES[(word >> (2 * (k - 1 - i))) & 3]] for i in range(k)]
            assert matrix.tobytes() == kron_all(paulis).tobytes()
        # Freezing a one-qubit word leaves the shared Pauli writable.
        assert all(p.flags.writeable for p in PAULI_MATRICES.values())

    def test_plans_stay_off_the_pickled_program(self):
        program = compile_circuit(ghz_circuit(5), gate_noise=True)
        before = pickle.dumps(program)
        run_batched(program, 64, np.random.default_rng(0), noise=NoiseModel.from_base(0.05))
        assert pickle.dumps(program) == before
