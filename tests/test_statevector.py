"""Unit tests for the statevector trajectory simulator."""

import numpy as np
import pytest

from repro.circuits import Circuit, Condition
from repro.engine import Engine, Job
from repro.sim import NoiseModel, StatevectorSimulator
from repro.sim.statevector import apply_gate, simulate_statevector
from repro.utils import ghz_state, random_pure_state

RNG = np.random.default_rng(7)


class TestApplyGate:
    def test_x_on_each_qubit(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        out = apply_gate(state, x, [0], 2)
        assert out[0b10] == 1.0
        out = apply_gate(out, x, [1], 2)
        assert out[0b11] == 1.0

    def test_two_qubit_gate_order(self):
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        state = np.zeros(4, dtype=complex)
        state[0b01] = 1.0  # q0=0 control, nothing happens
        out = apply_gate(state, cx, [0, 1], 2)
        assert out[0b01] == 1.0
        state = np.zeros(4, dtype=complex)
        state[0b10] = 1.0  # q0=1 -> flip q1
        out = apply_gate(state, cx, [0, 1], 2)
        assert out[0b11] == 1.0

    def test_reversed_qubit_order(self):
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        state = np.zeros(4, dtype=complex)
        state[0b01] = 1.0  # q1=1 controls when order is [1, 0]
        out = apply_gate(state, cx, [1, 0], 2)
        assert out[0b11] == 1.0

    def test_matches_circuit_unitary(self):
        circuit = Circuit(3).h(0).cx(0, 2).t(1).cz(1, 2)
        u = circuit.to_unitary()
        psi = random_pure_state(3, RNG)
        via_sim = StatevectorSimulator(seed=0).run(circuit, initial_state=psi).statevector
        assert np.allclose(via_sim, u @ psi, atol=1e-10)


class TestMeasurement:
    def test_deterministic_outcome(self):
        c = Circuit(1, 1).x(0).measure(0, 0)
        result = StatevectorSimulator(seed=1).run(c)
        assert result.clbits == [1]

    def test_collapse_normalised(self):
        c = Circuit(2, 1).h(0).cx(0, 1).measure(0, 0)
        result = StatevectorSimulator(seed=2).run(c)
        assert abs(np.linalg.norm(result.statevector) - 1.0) < 1e-10

    def test_ghz_measurements_correlated(self):
        c = Circuit(3, 3).h(0).cx(0, 1).cx(1, 2)
        for q in range(3):
            c.measure(q, q)
        for seed in range(8):
            bits = StatevectorSimulator(seed=seed).run(c).clbits
            assert bits[0] == bits[1] == bits[2]

    def test_statistics_of_plus_state(self):
        c = Circuit(1, 1).h(0).measure(0, 0)
        job = Job(circuit=c, shots=600, seed=3, backend="statevector")
        with Engine(workers=1, executor="serial") as engine:
            counts = engine.run(job).counts
        assert 200 < counts["0"] < 400

    def test_forced_outcomes(self):
        c = Circuit(1, 1).h(0).measure(0, 0)
        result = StatevectorSimulator(seed=4).run(c, forced_outcomes=[1])
        assert result.clbits == [1]
        assert abs(result.statevector[1]) > 0.999

    def test_forced_impossible_outcome_raises(self):
        c = Circuit(1, 1).measure(0, 0)  # state |0>, outcome 1 impossible
        with pytest.raises(RuntimeError):
            StatevectorSimulator(seed=5).run(c, forced_outcomes=[1])

    def test_forced_outcomes_cover_resets(self):
        # Forcing consumes one outcome per collapse site — measure AND
        # reset — in program order.
        c = Circuit(1, 0).h(0).reset(0)
        for branch in (0, 1):
            result = StatevectorSimulator(seed=5).run(c, forced_outcomes=[branch])
            assert abs(result.statevector[0]) > 0.999  # reset always ends in |0>

    def test_forced_reset_ordering_after_measure(self):
        # Program order: measure q0 (site 1), then reset q0 (site 2).  After
        # forcing the measurement onto |1>, the reset's collapse must also be
        # forceable — only the 1 branch has support.
        c = Circuit(1, 1).h(0).measure(0, 0).reset(0)
        result = StatevectorSimulator(seed=5).run(c, forced_outcomes=[1, 1])
        assert result.clbits == [1]
        assert abs(result.statevector[0]) > 0.999
        with pytest.raises(RuntimeError):
            StatevectorSimulator(seed=5).run(c, forced_outcomes=[1, 0])


class TestResetAndFeedback:
    def test_reset_to_zero(self):
        c = Circuit(1).x(0).reset(0)
        result = StatevectorSimulator(seed=6).run(c)
        assert abs(result.statevector[0]) > 0.999

    def test_reset_superposition(self):
        c = Circuit(1).h(0).reset(0)
        for seed in range(5):
            out = StatevectorSimulator(seed=seed).run(c).statevector
            assert abs(out[0]) > 0.999

    def test_conditional_fires_on_parity(self):
        c = Circuit(2, 2)
        c.x(0).measure(0, 0)
        c.x(1, condition=Condition((0,), 1))
        c.measure(1, 1)
        assert StatevectorSimulator(seed=7).run(c).clbits == [1, 1]

    def test_conditional_skipped(self):
        c = Circuit(2, 2)
        c.measure(0, 0)
        c.x(1, condition=Condition((0,), 1))
        c.measure(1, 1)
        assert StatevectorSimulator(seed=8).run(c).clbits == [0, 0]

    def test_parity_condition_two_bits(self):
        c = Circuit(3, 3)
        c.x(0).x(1)
        c.measure(0, 0).measure(1, 1)
        c.x(2, condition=Condition((0, 1), 1))  # parity 0 -> skip
        c.measure(2, 2)
        assert StatevectorSimulator(seed=9).run(c).clbits[2] == 0


class TestExpectationAndHelpers:
    def test_expectation_of_z(self):
        z = np.diag([1, -1]).astype(complex)
        c = Circuit(1)
        assert abs(StatevectorSimulator().expectation(c, z, [0]) - 1.0) < 1e-12
        c = Circuit(1).x(0)
        assert abs(StatevectorSimulator().expectation(c, z, [0]) + 1.0) < 1e-12

    def test_expectation_rejects_measurement(self):
        c = Circuit(1, 1).measure(0, 0)
        with pytest.raises(ValueError):
            StatevectorSimulator().expectation(c, np.eye(2), [0])

    def test_expectation_bypasses_noise(self):
        # Regression: an "exact" expectation must not sample stochastic
        # faults from the simulator's noise model.
        z = np.diag([1, -1]).astype(complex)
        c = Circuit(1)
        for _ in range(20):
            c.x(0)
            c.x(0)
        noisy = StatevectorSimulator(seed=13, noise=NoiseModel(p1=0.5, p2=0.5, p_meas=0.5))
        values = [noisy.expectation(c, z, [0]) for _ in range(5)]
        assert all(abs(v - 1.0) < 1e-12 for v in values)  # deterministic and exact

    def test_simulate_statevector_wrapper(self):
        out = simulate_statevector(Circuit(2).h(0).cx(0, 1))
        assert np.allclose(out, ghz_state(2))

    def test_initial_state_dimension_checked(self):
        with pytest.raises(ValueError):
            StatevectorSimulator().run(Circuit(2), initial_state=np.ones(2))


class TestNoiseInjection:
    def test_noiseless_model_ignored(self):
        sim = StatevectorSimulator(seed=1, noise=NoiseModel.noiseless())
        assert sim.noise is None

    def test_noise_changes_outcomes(self):
        c = Circuit(1, 1)
        for _ in range(30):
            c.x(0)
            c.x(0)
        c.measure(0, 0)
        noisy = StatevectorSimulator(seed=11, noise=NoiseModel(p1=0.3, p2=0.3, p_meas=0.0))
        flips = sum(noisy.run(c).clbits[0] for _ in range(40))
        assert flips > 0  # depolarizing noise must disturb the identity chain

    def test_measurement_flip_rate(self):
        c = Circuit(1, 1).measure(0, 0)
        noisy = StatevectorSimulator(seed=12, noise=NoiseModel(p1=0, p2=0, p_meas=0.5))
        ones = sum(noisy.run(c).clbits[0] for _ in range(300))
        assert 90 < ones < 210
