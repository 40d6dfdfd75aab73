"""Cross-validation between the simulators, plus failure injection.

The statevector, density and Pauli-frame simulators implement the same
semantics through different algorithms; random-circuit agreement between
them is the strongest correctness evidence the repository has.  The failure-injection tests
deliberately corrupt protocol circuits and check the validators notice —
a silent-pass here would mean the test oracles are vacuous.
"""

import numpy as np
import pytest

from repro.circuits import Circuit, Condition
from repro.sim import (
    DensitySimulator,
    NoiseModel,
    Pauli,
    PauliFrameSimulator,
    StatevectorSimulator,
)
from repro.sim.pauliframe import _conjugate_frames
from repro.utils import partial_trace, random_pure_state, state_fidelity

RNG = np.random.default_rng(2025)

CLIFFORD_GATES = ["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"]
ALL_GATES = CLIFFORD_GATES + ["t", "tdg", "ccx", "cswap"]


def random_circuit(num_qubits, depth, rng, gate_pool):
    c = Circuit(num_qubits)
    from repro.circuits.gates import GATES

    for _ in range(depth):
        name = str(rng.choice(gate_pool))
        arity = GATES[name].num_qubits
        if arity > num_qubits:
            continue
        qubits = rng.choice(num_qubits, size=arity, replace=False)
        c.append(name, [int(q) for q in qubits])
    return c


class TestStatevectorVsDensity:
    @pytest.mark.parametrize("seed", range(6))
    def test_unitary_circuits_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        circuit = random_circuit(n, 12, rng, ALL_GATES)
        psi = random_pure_state(n, rng)
        sv = StatevectorSimulator().run(circuit, initial_state=psi).statevector
        rho = DensitySimulator().run(circuit, initial_state=psi).final_density()
        assert np.allclose(rho, np.outer(sv, sv.conj()), atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_measurement_statistics_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 2
        circuit = Circuit(n, 1)
        circuit.compose(random_circuit(n, 8, rng, ALL_GATES))
        circuit.measure(0, 0)
        # Density branches give the exact outcome distribution.
        result = DensitySimulator().run(circuit.copy())
        probs = result.branch_probabilities()
        p1_exact = sum(p for bits, p in probs.items() if bits[0] == 1)
        # Statevector sampling approximates it.
        shots = 800
        sim = StatevectorSimulator(seed=seed)
        p1_sampled = (
            sum(sim.run(circuit).clbits[0] for _ in range(shots)) / shots
        )
        assert abs(p1_exact - p1_sampled) < 0.08


class TestCliffordMeasurementStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_clifford_measurement_distributions(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 3
        circuit = random_circuit(n, 14, rng, CLIFFORD_GATES)
        sv = StatevectorSimulator(seed=seed).run(circuit).statevector
        for qubit in range(n):
            # A stabilizer state measures every qubit deterministically or
            # as a fair coin, and the density branches say the same.
            p1 = float(np.real(partial_trace(sv, [qubit], n)[1, 1]))
            assert min(abs(p1 - v) for v in (0.0, 0.5, 1.0)) < 1e-8
            probe = Circuit(n, 1)
            probe.compose(circuit)
            probe.measure(qubit, 0)
            branches = DensitySimulator().run(probe).branch_probabilities()
            assert abs(branches.get((1,), 0.0) - p1) < 1e-8


def gf2_rank(rows: np.ndarray) -> int:
    rows = rows.astype(bool).copy()
    rank = 0
    for col in range(rows.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r, col]), None)
        if pivot is None:
            continue
        rows[[rank, pivot]] = rows[[pivot, rank]]
        for r in range(len(rows)):
            if r != rank and rows[r, col]:
                rows[r] ^= rows[rank]
        rank += 1
    return rank


def conjugated_z_generators(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Push each Z_i stabilizer of |0...0> through ``circuit`` with the
    frames kernel's Clifford rules; row i is U Z_i U^dagger up to sign."""
    n = circuit.num_qubits
    fx = np.zeros((n, n), dtype=bool)
    fz = np.eye(n, dtype=bool)
    for inst in circuit.instructions:
        _conjugate_frames(inst.name, inst.qubits, fx, fz)
    return fx, fz


def hermitian_pauli(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    # Pauli stores i^phase X^x Z^z; one factor of i per Y keeps it Hermitian.
    return Pauli(x, z, int(np.count_nonzero(x & z))).to_matrix()


def pauli_expectation(label: str, state: np.ndarray) -> float:
    matrix = Pauli.from_label(label).to_matrix()
    if state.ndim == 1:
        return float(np.real(np.vdot(state, matrix @ state)))
    return float(np.real(np.trace(state @ matrix)))


class TestFrameRulesVsStatevector:
    """The frames kernel's Clifford conjugation against the statevector:
    the pushed-through Z stabilizers of |0...0> must stabilize the
    circuit's output state and stay independent."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_clifford_stabilizers_fix_state(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        circuit = random_circuit(n, 18, rng, CLIFFORD_GATES)
        sv = StatevectorSimulator(seed=seed).run(circuit).statevector
        fx, fz = conjugated_z_generators(circuit)
        assert gf2_rank(np.concatenate([fx, fz], axis=1)) == n
        for x, z in zip(fx, fz):
            image = hermitian_pauli(x, z) @ sv
            # Frames drop the sign: the state is a +1 or -1 eigenvector.
            overlap = np.vdot(sv, image)
            assert abs(abs(overlap) - 1.0) < 1e-8
            assert np.allclose(image, overlap.real * sv, atol=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_frames_conjugate_like_the_circuit_unitary(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(2, 5))
        circuit = random_circuit(n, 18, rng, CLIFFORD_GATES)
        u = circuit.to_unitary()
        fx, fz = rng.random((12, n)) < 0.5, rng.random((12, n)) < 0.5
        before = [hermitian_pauli(x, z) for x, z in zip(fx, fz)]
        for inst in circuit.instructions:
            _conjugate_frames(inst.name, inst.qubits, fx, fz)
        for pauli, x, z in zip(before, fx, fz):
            image = u @ pauli @ u.conj().T
            after = hermitian_pauli(x, z)
            # Equal up to the sign frames do not track.
            assert np.allclose(image, after, atol=1e-8) or np.allclose(
                image, -after, atol=1e-8
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_pauli_expectations_match(self, seed):
        rng = np.random.default_rng(100 + seed)
        circuit = random_circuit(3, 15, rng, CLIFFORD_GATES)
        sv = StatevectorSimulator(seed=seed).run(circuit).statevector
        rho = DensitySimulator().run(circuit).final_density()
        for label in ("ZII", "IXI", "XYZ", "ZZI", "XXX"):
            expect_sv = pauli_expectation(label, sv)
            assert abs(expect_sv - pauli_expectation(label, rho)) < 1e-8
            # A stabilizer state's Pauli expectations are 0 or +-1.
            assert min(abs(expect_sv - v) for v in (-1.0, 0.0, 1.0)) < 1e-8

    def test_ghz_expectations(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        sv = StatevectorSimulator().run(circuit).statevector
        expected = {"XXX": 1, "ZZI": 1, "IZZ": 1, "ZII": 0, "YYX": -1}
        for label, value in expected.items():
            assert abs(pauli_expectation(label, sv) - value) < 1e-12
        fx, fz = conjugated_z_generators(circuit)
        labels = {Pauli(x, z, int(np.count_nonzero(x & z))).bare_label() for x, z in zip(fx, fz)}
        assert labels == {"XXX", "ZZI", "IZZ"}


class TestSdg:
    """``sdg`` is ``s`` applied three times: on the statevector exactly,
    and in the frames kernel's conjugation rule."""

    ONE_Q = ["h", "s", "sdg", "x", "y", "z"]
    TWO_Q = ["cx", "cz", "swap"]

    @pytest.mark.parametrize("seed", range(6))
    def test_sdg_matches_triple_s_after_random_clifford_prefix(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        direct, reference = Circuit(n), Circuit(n)
        for _ in range(30):
            if rng.random() < 0.6:
                gate, qubits = str(rng.choice(self.ONE_Q)), [int(rng.integers(n))]
            else:
                gate = str(rng.choice(self.TWO_Q))
                qubits = [int(v) for v in rng.choice(n, size=2, replace=False)]
            direct.append(gate, qubits)
            reference.append(gate, qubits)
            q = int(rng.integers(n))
            direct.append("sdg", [q])
            for _ in range(3):
                reference.append("s", [q])
        sim = StatevectorSimulator()
        assert np.allclose(
            sim.run(direct).statevector, sim.run(reference).statevector, atol=1e-12
        )
        frames = [rng.random((16, n)) < 0.5 for _ in range(2)]
        pushed = []
        for circuit in (direct, reference):
            fx, fz = frames[0].copy(), frames[1].copy()
            for inst in circuit.instructions:
                _conjugate_frames(inst.name, inst.qubits, fx, fz)
            pushed.append((fx, fz))
        assert np.array_equal(pushed[0][0], pushed[1][0])
        assert np.array_equal(pushed[0][1], pushed[1][1])

    def test_sdg_inverts_s(self):
        sim = StatevectorSimulator()
        plus = sim.run(Circuit(1).h(0)).statevector
        assert np.allclose(sim.run(Circuit(1).h(0).s(0).sdg(0)).statevector, plus)
        assert not np.allclose(sim.run(Circuit(1).h(0).s(0)).statevector, plus)


class TestFrameVsDensityNoisy:
    def test_bell_pair_fidelity_agrees(self):
        # Noisy Bell preparation: frame sampling vs exact density channel.
        circuit = Circuit(2).h(0).cx(0, 1)
        noise = NoiseModel.from_base(0.02)
        rho = DensitySimulator(noise=noise).run(circuit).final_density()
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        exact = float(np.real(np.vdot(bell, rho @ bell)))

        frame_sim = PauliFrameSimulator(circuit, noise, seed=9)
        # Stabilizers of |Phi+>: XX and ZZ.
        from repro.sim import Pauli

        xx = Pauli.from_label("XX")
        zz = Pauli.from_label("ZZ")
        shots = 40000
        good = 0
        for _ in range(shots):
            error = frame_sim.sample().frame
            if error.commutes_with(xx) and error.commutes_with(zz):
                good += 1
        assert abs(good / shots - exact) < 0.015


class TestFailureInjection:
    def test_missing_teleport_correction_is_detected(self):
        # Teleportation without the X correction must not be a teleport.
        c = Circuit(3, 2)
        c.h(1).cx(1, 2)
        c.cx(0, 1).h(0)
        c.measure(0, 0).measure(1, 1)
        # omit: c.x(2, Condition((1,), 1))
        c.z(2, condition=Condition((0,), 1))
        psi = random_pure_state(1, RNG)
        init = np.kron(psi, [1, 0, 0, 0]).astype(complex)
        failures = 0
        for seed in range(12):
            out = StatevectorSimulator(seed=seed).run(c, initial_state=init)
            rho = partial_trace(out.statevector, [2], 3)
            if state_fidelity(psi, rho) < 1 - 1e-6:
                failures += 1
        assert failures > 0

    def test_wrong_parity_correction_breaks_fanout(self):
        # A fanout whose final Z-correction is inverted must corrupt the
        # control for some measurement outcomes.
        from repro.fanout import append_fanout, fanout_ancillas_required
        from repro.network import DistributedProgram

        p = DistributedProgram()
        p.add_qpu("m")
        (c,) = p.alloc("m", "c", 1)
        ts = p.alloc("m", "t", 2)
        anc = p.alloc("m", "anc", fanout_ancillas_required(2))
        append_fanout(p, c, ts, anc, reset_ancillas=False)
        circuit = p.build()
        # Flip the parity value of the final conditioned Z.
        broken = Circuit(circuit.num_qubits, circuit.num_clbits)
        for inst in circuit.instructions:
            condition = inst.condition
            if inst.name == "z" and condition is not None:
                condition = Condition(condition.clbits, 1 - condition.value)
            broken.append(inst.name, inst.qubits, inst.clbits, inst.params, condition)

        ideal = Circuit(3)
        ideal.cx(0, 1)
        ideal.cx(0, 2)
        u = ideal.to_unitary()
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        data = np.kron(np.kron(plus, [1, 0]), [1, 0]).astype(complex)
        init = np.zeros(2**broken.num_qubits, dtype=complex)
        pad = np.zeros(2 ** (broken.num_qubits - 3), dtype=complex)
        pad[0] = 1.0
        init = np.kron(data, pad)
        want = u @ data
        mismatches = 0
        for seed in range(12):
            out = StatevectorSimulator(seed=seed).run(broken, initial_state=init)
            rho = partial_trace(out.statevector, [0, 1, 2], broken.num_qubits)
            if not np.allclose(rho, np.outer(want, want.conj()), atol=1e-6):
                mismatches += 1
        assert mismatches > 0

    def test_locality_auditor_catches_cheating(self):
        # A protocol that "fixes" remoteness with a direct CX must be flagged.
        from repro.network import DistributedProgram, line_topology

        prog = DistributedProgram(line_topology(["A", "B"]))
        (a,) = prog.alloc("A", "a", 1)
        (b,) = prog.alloc("B", "b", 1)
        prog.cx(a, b)  # illegal: spans QPUs without a Bell pair
        assert not prog.audit_locality().is_local
