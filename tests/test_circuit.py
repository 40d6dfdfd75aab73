"""Unit tests for the circuit IR (repro.circuits)."""

import numpy as np
import pytest

from repro.circuits import Circuit, Condition, gate_matrix
from repro.circuits.gates import CCX_MATRIX, CSWAP_MATRIX, CX_MATRIX, GATES
from repro.utils.linalg import is_unitary


class TestGateRegistry:
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_all_gates_unitary(self, name):
        spec = GATES[name]
        params = [0.3] * spec.num_params
        assert is_unitary(spec.matrix(params))

    def test_cx_truth_table(self):
        assert np.allclose(CX_MATRIX @ np.eye(4)[:, 2], np.eye(4)[:, 3])

    def test_ccx_flips_only_when_both_controls(self):
        for basis in range(8):
            out = CCX_MATRIX[:, basis]
            expect = basis ^ 1 if basis >= 6 else basis
            assert out[expect] == 1.0

    def test_cswap_swaps_targets(self):
        assert CSWAP_MATRIX[0b110, 0b101] == 1.0
        assert CSWAP_MATRIX[0b101, 0b110] == 1.0
        assert CSWAP_MATRIX[0b001, 0b001] == 1.0

    def test_unknown_gate_raises(self):
        with pytest.raises(KeyError):
            gate_matrix("bogus")

    def test_rotation_identity_at_zero(self):
        for name in ("rx", "ry", "rz"):
            assert np.allclose(gate_matrix(name, [0.0]), np.eye(2))


class TestCondition:
    def test_parity_evaluation(self):
        cond = Condition((0, 2), 1)
        assert cond.evaluate([1, 0, 0])
        assert not cond.evaluate([1, 0, 1])

    def test_value_zero(self):
        cond = Condition((0,), 0)
        assert cond.evaluate([0])
        assert not cond.evaluate([1])

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            Condition((0,), 2)

    def test_empty_clbits(self):
        with pytest.raises(ValueError):
            Condition((), 1)


class TestCircuitConstruction:
    def test_append_validates_arity(self):
        with pytest.raises(ValueError):
            Circuit(2).append("cx", [0])

    def test_append_validates_range(self):
        with pytest.raises(IndexError):
            Circuit(1).h(3)

    def test_append_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Circuit(2).cx(0, 0)

    def test_clbit_range_checked(self):
        with pytest.raises(IndexError):
            Circuit(1, 1).measure(0, 5)

    def test_condition_clbits_checked(self):
        with pytest.raises(IndexError):
            Circuit(1, 1).x(0, condition=Condition((3,), 1))

    def test_fluent_chaining(self):
        c = Circuit(2).h(0).cx(0, 1)
        assert len(c) == 2

    def test_count_ops(self):
        c = Circuit(2, 1).h(0).h(1).cx(0, 1).measure(0, 0)
        counts = c.count_ops()
        assert counts["h"] == 2 and counts["cx"] == 1 and counts["measure"] == 1

    def test_qubits_used(self):
        c = Circuit(4).h(1).cx(1, 3)
        assert c.qubits_used() == {1, 3}

    def test_two_qubit_gate_count(self):
        c = Circuit(3).h(0).cx(0, 1).ccx(0, 1, 2)
        assert c.two_qubit_gate_count() == 2

    def test_repr_and_draw(self):
        c = Circuit(2, 1).h(0).measure(0, 0)
        assert "Circuit" in repr(c)
        assert "measure" in c.draw()


class TestCompose:
    def test_compose_identity_map(self):
        a = Circuit(2).h(0)
        b = Circuit(2).cx(0, 1)
        a.compose(b)
        assert [i.name for i in a] == ["h", "cx"]

    def test_compose_with_qubit_map(self):
        inner = Circuit(2).cx(0, 1)
        outer = Circuit(3)
        outer.compose(inner, qubit_map=[2, 0])
        assert outer.instructions[0].qubits == (2, 0)

    def test_compose_remaps_conditions(self):
        inner = Circuit(1, 2)
        inner.measure(0, 0)
        inner.x(0, condition=Condition((0,), 1))
        outer = Circuit(1, 4)
        outer.compose(inner, clbit_map=[3, 2])
        assert outer.instructions[1].condition.clbits == (3,)


class TestInverse:
    def test_inverse_of_unitary_circuit(self):
        c = Circuit(2).h(0).s(0).cx(0, 1).t(1)
        product = c.to_unitary() @ c.inverse().to_unitary()
        assert np.allclose(product, np.eye(4), atol=1e-10)

    def test_inverse_rejects_measurement(self):
        c = Circuit(1, 1).measure(0, 0)
        with pytest.raises(ValueError):
            c.inverse()

    def test_inverse_of_rotations(self):
        c = Circuit(1).rx(0.3, 0).rz(-0.7, 0)
        assert np.allclose(
            c.inverse().to_unitary() @ c.to_unitary(), np.eye(2), atol=1e-10
        )


class TestToUnitary:
    def test_bell_circuit_unitary(self):
        u = Circuit(2).h(0).cx(0, 1).to_unitary()
        out = u @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(out, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_rejects_measurement(self):
        with pytest.raises(ValueError):
            Circuit(1, 1).measure(0, 0).to_unitary()

    def test_rejects_condition(self):
        c = Circuit(1, 1)
        c.x(0, condition=Condition((0,), 1))
        with pytest.raises(ValueError):
            c.to_unitary()


class TestDepth:
    def test_empty_circuit(self):
        assert Circuit(2).depth() == 0

    def test_parallel_gates_share_layer(self):
        c = Circuit(3).h(0).h(1).h(2)
        assert c.depth() == 1

    def test_serial_chain(self):
        c = Circuit(3).cx(0, 1).cx(1, 2)
        assert c.depth() == 2

    def test_barrier_synchronises(self):
        c = Circuit(2)
        c.h(0)
        c.barrier()
        c.h(1)
        assert c.depth() == 2

    def test_measure_not_counted_when_disabled(self):
        c = Circuit(1, 1).h(0).measure(0, 0)
        assert c.depth(count_measurements=True) == 2
        assert c.depth(count_measurements=False) == 1

    def test_condition_waits_for_measurement(self):
        c = Circuit(2, 1)
        c.measure(0, 0)
        c.x(1, condition=Condition((0,), 1))
        # The conditioned gate cannot start before the measurement finishes.
        assert c.depth() == 2
