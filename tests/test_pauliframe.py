"""Tests for the Pauli-frame sampler (Stim substitute)."""

import numpy as np
import pytest

from repro.circuits import Circuit, Condition
from repro.sim import NoiseModel, PauliFrameSimulator
from repro.sim.pauliframe import get_frame_program
from repro.sim.pauliframe import sample_error_counts
from repro.analysis.ghz_fidelity import (
    build_distributed_ghz_circuit,
    ghz_fidelity_density,
    ghz_fidelity_frames,
)


class TestNoiselessFrames:
    def test_identity_frame_without_noise(self):
        c = Circuit(3, 1).h(0).cx(0, 1).cz(1, 2).measure(2, 0)
        sim = PauliFrameSimulator(c, NoiseModel.noiseless(), seed=0)
        for _ in range(20):
            sample = sim.sample()
            assert sample.frame.is_identity()
            assert sample.record_flips == [0]

    def test_rejects_non_clifford(self):
        c = Circuit(1).t(0)
        with pytest.raises(ValueError):
            PauliFrameSimulator(c, NoiseModel.noiseless())

    def test_rejects_non_pauli_feedback(self):
        c = Circuit(1, 1).measure(0, 0)
        c.h(0, condition=Condition((0,), 1))
        with pytest.raises(ValueError):
            PauliFrameSimulator(c, NoiseModel.noiseless())


class TestPropagationRules:
    def _frame_after(self, build, inject, n=2):
        """Inject a Pauli by hand, propagate through `build` gates."""
        circuit = Circuit(n)
        build(circuit)
        sim = PauliFrameSimulator(circuit, NoiseModel.noiseless(), seed=0)
        fx = np.zeros(n, dtype=bool)
        fz = np.zeros(n, dtype=bool)
        for q, kind in inject:
            if kind in ("X", "Y"):
                fx[q] = True
            if kind in ("Z", "Y"):
                fz[q] = True
        for inst in circuit.instructions:
            sim._propagate(inst.name, inst.qubits, fx, fz)
        return fx, fz

    def test_h_swaps_x_z(self):
        fx, fz = self._frame_after(lambda c: c.h(0), [(0, "X")], n=1)
        assert not fx[0] and fz[0]

    def test_cx_propagates_x_to_target(self):
        fx, fz = self._frame_after(lambda c: c.cx(0, 1), [(0, "X")])
        assert fx[0] and fx[1]

    def test_cx_propagates_z_to_control(self):
        fx, fz = self._frame_after(lambda c: c.cx(0, 1), [(1, "Z")])
        assert fz[0] and fz[1]

    def test_cz_creates_z_on_partner(self):
        fx, fz = self._frame_after(lambda c: c.cz(0, 1), [(0, "X")])
        assert fx[0] and fz[1]

    def test_swap_exchanges(self):
        fx, fz = self._frame_after(lambda c: c.swap(0, 1), [(0, "Y")])
        assert fx[1] and fz[1] and not fx[0] and not fz[0]

    def test_s_turns_x_into_y(self):
        fx, fz = self._frame_after(lambda c: c.s(0), [(0, "X")], n=1)
        assert fx[0] and fz[0]


class TestMeasurementFlips:
    def test_x_frame_flips_record(self):
        # Deterministic X fault before measurement flips the record.
        c = Circuit(1, 1).x(0).measure(0, 0)
        noise = NoiseModel(p1=1.0, p2=0.0, p_meas=0.0)
        sim = PauliFrameSimulator(c, noise, seed=1)
        flipped = sum(sim.sample().record_flips[0] for _ in range(200))
        # p1=1 guarantees a fault; 2/3 of random Paulis have an X component.
        assert 90 < flipped < 180

    def test_measurement_error_flips_record(self):
        c = Circuit(1, 1).measure(0, 0)
        noise = NoiseModel(p1=0.0, p2=0.0, p_meas=1.0)
        sim = PauliFrameSimulator(c, noise, seed=2)
        assert all(sim.sample().record_flips[0] == 1 for _ in range(10))

    def test_feedback_difference_joins_frame(self):
        # measure, then X correction conditioned on the record: a flipped
        # record makes the noisy run disagree -> X joins the frame on q1.
        c = Circuit(2, 1).measure(0, 0)
        c.x(1, condition=Condition((0,), 1))
        noise = NoiseModel(p1=0.0, p2=0.0, p_meas=1.0)
        sim = PauliFrameSimulator(c, noise, seed=3)
        sample = sim.sample()
        assert sample.frame.restricted([1]).bare_label() == "X"

    def test_reset_clears_frame(self):
        c = Circuit(1, 1).x(0)
        c.reset(0)
        c.measure(0, 0)
        noise = NoiseModel(p1=1.0, p2=0.0, p_meas=0.0)
        # The fault lands after the x gate but before reset; reset clears it
        # (reset is last before measure), so records never flip... except the
        # fault injected after no further gates. Build: x (fault) reset measure.
        sim = PauliFrameSimulator(c, noise, seed=4)
        flips = sum(sim.sample().record_flips[0] for _ in range(50))
        assert flips == 0


class TestErrorDistribution:
    def test_distribution_sums_to_shots(self):
        c = Circuit(2, 0).h(0).cx(0, 1)
        program = get_frame_program(c, NoiseModel.from_base(0.05), (0, 1))
        counts = sample_error_counts(program, 500, np.random.default_rng(5))
        assert sum(counts.values()) == 500

    def test_noiseless_distribution_is_identity(self):
        c = Circuit(2, 0).h(0).cx(0, 1)
        program = get_frame_program(c, NoiseModel.noiseless(), (0, 1))
        counts = sample_error_counts(program, 100, np.random.default_rng(6))
        assert counts == {"II": 100}


class TestAgainstDensitySimulator:
    def test_ghz_fidelity_frame_vs_density(self):
        # The same quantity computed two independent ways must agree.
        for r in (2, 3):
            exact = ghz_fidelity_density(r, 0.02)
            sampled = ghz_fidelity_frames(r, 0.02, shots=30000, seed=7)
            assert abs(exact - sampled) < 0.02

    def test_ghz_circuit_data_qubits(self):
        circuit, members = build_distributed_ghz_circuit(3)
        assert len(members) == 3
        assert circuit.num_qubits >= 3
