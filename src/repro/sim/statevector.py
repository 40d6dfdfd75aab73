"""Dense statevector trajectory simulator.

Substitute for Qiskit Aer's shot-based simulator (paper Sec 5.2): runs one
stochastic trajectory per shot, collapsing on measurement, honouring resets
and parity-conditioned feedback.  Measurement outcomes land in a classical
register that conditions later gates.

:meth:`StatevectorSimulator.run` is the repository's **per-shot reference
interpreter**: it walks the IR instruction by instruction and is the ground
truth the vectorized batch kernel (:mod:`repro.sim.batched`) is
cross-validated against.  Multi-shot sampling is an engine job; the engine
exposes this per-shot path as ``backend="statevector-ref"``.

Qubit 0 is the most significant bit of basis-state indices (big-endian),
matching :mod:`repro.utils.bits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import cached_gate_matrix, gate_matrix
from .noisemodel import PAULI_MATRICES, NoiseModel

__all__ = ["TrajectoryResult", "StatevectorSimulator", "apply_gate", "simulate_statevector"]


@dataclass
class TrajectoryResult:
    """Outcome of a single trajectory."""

    statevector: np.ndarray
    clbits: list[int]
    measurements: list[tuple[int, int, int]] = field(default_factory=list)
    """(qubit, clbit, outcome) triples in program order."""

    def clbit_string(self) -> str:
        """Classical register as a bit string, clbit 0 first."""
        return "".join(str(b) for b in self.clbits)


def apply_gate(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a k-qubit gate matrix to the statevector in place-ish.

    Returns a new contiguous array; the input may be invalidated.
    """
    k = len(qubits)
    tensor = state.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, qubits, range(k))
    block = tensor.reshape(2**k, -1)
    block = matrix @ block
    tensor = block.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, range(k), qubits)
    return np.ascontiguousarray(tensor).reshape(-1)


def _probability_zero(state: np.ndarray, qubit: int, num_qubits: int) -> float:
    tensor = state.reshape([2] * num_qubits)
    slice_zero = np.moveaxis(tensor, qubit, 0)[0]
    return float(np.real(np.vdot(slice_zero, slice_zero)))


def _collapse(state: np.ndarray, qubit: int, outcome: int, num_qubits: int) -> np.ndarray:
    """Project ``qubit`` onto ``outcome`` and renormalise, **in place**.

    Mutates (and returns) ``state``: the dead branch is zeroed through a
    moved-axis view of the caller's array — no full-tensor copy.  Callers
    own the trajectory state they pass in.
    """
    moved = np.moveaxis(state.reshape([2] * num_qubits), qubit, 0)
    moved[1 - outcome] = 0.0
    norm = np.linalg.norm(state)
    if norm < 1e-15:
        raise RuntimeError("collapse onto zero-probability branch")
    state /= norm
    return state


def _matrix_for(name: str, params: tuple[float, ...]) -> np.ndarray:
    """Gate matrix with memoised lookups for the parameterless majority."""
    if params:
        return gate_matrix(name, params)
    return cached_gate_matrix(name)


class StatevectorSimulator:
    """Trajectory simulator over the :class:`~repro.circuits.Circuit` IR.

    With a :class:`NoiseModel`, stochastic Pauli faults are injected after
    every gate and measurement records are flipped with the model's readout
    error — the Monte-Carlo (quantum-trajectory) unravelling of the paper's
    depolarizing noise (Sec 5.2).
    """

    def __init__(self, seed: int | None = None, noise: NoiseModel | None = None):
        self.rng = np.random.default_rng(seed)
        self.noise = noise if noise is not None and not noise.is_noiseless else None

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        initial_state: np.ndarray | None = None,
        forced_outcomes: Sequence[int] | None = None,
    ) -> TrajectoryResult:
        """Run one trajectory through the per-shot reference interpreter.

        ``initial_state`` defaults to |0...0>.  ``forced_outcomes``, if
        given, supplies collapse outcomes for **both measure and reset
        sites, consumed in program order** (one value per site, useful for
        exhaustive branch enumeration in tests); outcomes with zero
        probability raise.
        """
        return self._run_trajectory(circuit, initial_state, forced_outcomes, self.noise)

    def _run_trajectory(
        self,
        circuit: Circuit,
        initial_state: np.ndarray | None,
        forced_outcomes: Sequence[int] | None,
        noise: NoiseModel | None,
    ) -> TrajectoryResult:
        num_qubits = circuit.num_qubits
        if initial_state is None:
            state = np.zeros(2**num_qubits, dtype=complex)
            state[0] = 1.0
        else:
            state = np.asarray(initial_state, dtype=complex).copy()
            if state.shape != (2**num_qubits,):
                raise ValueError("initial state dimension mismatch")
        clbits = [0] * circuit.num_clbits
        measurements: list[tuple[int, int, int]] = []
        forced_iter = iter(forced_outcomes) if forced_outcomes is not None else None

        for inst in circuit.instructions:
            if inst.name == "barrier":
                continue
            if inst.condition is not None and not inst.condition.evaluate(clbits):
                continue
            if inst.name == "measure":
                qubit, clbit = inst.qubits[0], inst.clbits[0]
                p0 = _probability_zero(state, qubit, num_qubits)
                if forced_iter is not None:
                    outcome = next(forced_iter)
                else:
                    outcome = 0 if self.rng.random() < p0 else 1
                state = _collapse(state, qubit, outcome, num_qubits)
                recorded = outcome
                if noise is not None and noise.sample_measurement_flip(
                    self.rng, qpu=inst.qpu
                ):
                    recorded ^= 1
                clbits[clbit] = recorded
                measurements.append((qubit, clbit, recorded))
                continue
            if inst.name == "reset":
                qubit = inst.qubits[0]
                p0 = _probability_zero(state, qubit, num_qubits)
                if forced_iter is not None:
                    outcome = next(forced_iter)
                else:
                    outcome = 0 if self.rng.random() < p0 else 1
                state = _collapse(state, qubit, outcome, num_qubits)
                if outcome == 1:
                    state = apply_gate(state, cached_gate_matrix("x"), [qubit], num_qubits)
                continue
            matrix = _matrix_for(inst.name, inst.params)
            state = apply_gate(state, matrix, inst.qubits, num_qubits)
            if noise is not None:
                # Gate fault first, then the hop-weighted link fault at
                # Bell-generation sites — the same fixed order as the
                # batched kernel's RNG-consumption contract.
                for fault_qubit, pauli in noise.sample_gate_fault(
                    inst.qubits, self.rng, qpu=inst.qpu
                ):
                    state = apply_gate(
                        state, PAULI_MATRICES[pauli], [fault_qubit], num_qubits
                    )
                if inst.hops:
                    for fault_qubit, pauli in noise.sample_link_fault(
                        inst.qubits, inst.hops, self.rng
                    ):
                        state = apply_gate(
                            state, PAULI_MATRICES[pauli], [fault_qubit], num_qubits
                        )
        return TrajectoryResult(state, clbits, measurements)

    # ------------------------------------------------------------------
    def expectation(
        self,
        circuit: Circuit,
        observable: np.ndarray,
        qubits: Sequence[int],
        initial_state: np.ndarray | None = None,
    ) -> complex:
        """<final| O |final> for a measurement-free circuit.

        ``observable`` acts on the listed qubits.  The simulator's noise
        model is **bypassed**: an expectation value is an exact, deterministic
        quantity, and injecting stochastic faults here would silently turn it
        into a one-sample estimate.
        """
        if circuit.num_measurements():
            raise ValueError("expectation requires a measurement-free circuit")
        result = self._run_trajectory(circuit, initial_state, None, None)
        state = result.statevector
        expanded = apply_gate(state.copy(), observable, list(qubits), circuit.num_qubits)
        return complex(np.vdot(state, expanded))


def simulate_statevector(
    circuit: Circuit,
    initial_state: np.ndarray | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Convenience wrapper: run one trajectory, return the final statevector."""
    return StatevectorSimulator(seed=seed).run(circuit, initial_state=initial_state).statevector
