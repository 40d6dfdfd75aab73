"""Pauli-frame sampling for Clifford circuits with Pauli feedback.

This is the same strategy Stim uses for bulk sampling, and it is exactly what
the paper's Table 4 experiment needs: model the noisy circuit as the *ideal*
circuit followed by a Pauli error, and sample that error's distribution.

Per shot we track a Pauli *frame* F — the deviation between the noisy and the
ideal run.  Faults XOR Paulis into the frame; Clifford gates conjugate it;
a Z-basis measurement's recorded outcome deviates from the reference exactly
when the frame has an X component on the measured qubit (plus any readout
flip); and a Pauli correction conditioned on a parity of classical bits
differs between the noisy and ideal runs exactly when the parity of the
*deviations* is 1, in which case the correction Pauli itself joins the frame.
The frame at the end of the circuit, restricted to the data qubits, is the
effective error E with ``E . U_ideal = U_noisy`` (paper Sec 5.1).

Only Clifford gates and Pauli feedback are supported — which covers GHZ
preparation, Fanout, and all teleportation corrections.

:class:`PauliFrameSimulator` is the per-shot cross-validation oracle;
engine frames jobs run :func:`sample_error_counts` over the compiled
:class:`~repro.sim.batched_stabilizer.FrameProgram`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from .batched_stabilizer import FrameProgram
from .noisemodel import NoiseModel
from .pauli import Pauli

__all__ = ["FrameSample", "PauliFrameSimulator", "sample_error_counts"]

_CLIFFORD_1Q = {"h", "s", "sdg", "x", "y", "z", "id"}
_CLIFFORD_2Q = {"cx", "cz", "swap"}


@dataclass
class FrameSample:
    """One sampled deviation: final frame plus measurement-record flips."""

    frame: Pauli
    record_flips: list[int]

    def error_on(self, qubits: Sequence[int]) -> Pauli:
        """Frame restricted to a subset of qubits."""
        return self.frame.restricted(qubits)


class PauliFrameSimulator:
    """Sample effective Pauli errors of a noisy Clifford circuit."""

    def __init__(self, circuit: Circuit, noise: NoiseModel, seed: int | None = None):
        self.circuit = circuit
        self.noise = noise
        self.rng = np.random.default_rng(seed)
        self._validate()

    def _validate(self) -> None:
        for inst in self.circuit.instructions:
            if inst.name in ("barrier", "measure", "reset"):
                continue
            if inst.condition is not None and inst.name not in ("x", "y", "z"):
                raise ValueError(
                    f"conditioned gate {inst.name!r} is not a Pauli; frame sim unsupported"
                )
            if inst.name not in _CLIFFORD_1Q | _CLIFFORD_2Q:
                raise ValueError(f"non-Clifford gate {inst.name!r}; frame sim unsupported")

    # ------------------------------------------------------------------
    def sample(self) -> FrameSample:
        """Sample one shot's deviation frame."""
        n = self.circuit.num_qubits
        fx = np.zeros(n, dtype=bool)
        fz = np.zeros(n, dtype=bool)
        flips = [0] * self.circuit.num_clbits

        for inst in self.circuit.instructions:
            name = inst.name
            if name == "barrier":
                continue
            if name == "measure":
                qubit, clbit = inst.qubits[0], inst.clbits[0]
                flip = int(fx[qubit])
                if self.noise.sample_measurement_flip(self.rng, qpu=inst.qpu):
                    flip ^= 1
                flips[clbit] = flip
                # The Z component on a measured qubit is unobservable and the
                # post-measurement state is an eigenstate, so clear it.
                fz[qubit] = False
                continue
            if name == "reset":
                fx[inst.qubits[0]] = False
                fz[inst.qubits[0]] = False
                continue
            if inst.condition is not None:
                # Noisy and ideal runs disagree on whether the correction
                # fires exactly when the parity of record deviations is odd.
                parity = 0
                for c in inst.condition.clbits:
                    parity ^= flips[c]
                if parity:
                    q = inst.qubits[0]
                    if name in ("x", "y"):
                        fx[q] ^= True
                    if name in ("z", "y"):
                        fz[q] ^= True
                # A conditioned Pauli never transforms the frame, so the gate
                # itself needs no further propagation; still inject gate noise.
                self._inject_noise(inst, fx, fz)
                continue
            self._propagate(name, inst.qubits, fx, fz)
            self._inject_noise(inst, fx, fz)
        return FrameSample(Pauli(fx, fz, 0), flips)

    # ------------------------------------------------------------------
    def _propagate(
        self, name: str, qubits: tuple[int, ...], fx: np.ndarray, fz: np.ndarray
    ) -> None:
        if name in ("x", "y", "z", "id"):
            return  # Paulis commute with the frame up to phase.
        if name == "h":
            q = qubits[0]
            fx[q], fz[q] = fz[q], fx[q]
            return
        if name == "s" or name == "sdg":
            q = qubits[0]
            fz[q] ^= fx[q]
            return
        if name == "cx":
            c, t = qubits
            fx[t] ^= fx[c]
            fz[c] ^= fz[t]
            return
        if name == "cz":
            a, b = qubits
            fz[b] ^= fx[a]
            fz[a] ^= fx[b]
            return
        if name == "swap":
            a, b = qubits
            fx[a], fx[b] = fx[b], fx[a]
            fz[a], fz[b] = fz[b], fz[a]
            return
        raise AssertionError(f"unreachable gate {name!r}")

    def _inject_noise(self, inst, fx: np.ndarray, fz: np.ndarray) -> None:
        """Gate fault, then the hop-weighted link fault at Bell sites.

        Same fixed fault order as the statevector paths; Pauli faults XOR
        straight into the frame.
        """
        faults = self.noise.sample_gate_fault(inst.qubits, self.rng, qpu=inst.qpu)
        if inst.hops:
            faults = faults + self.noise.sample_link_fault(
                inst.qubits, inst.hops, self.rng
            )
        for qubit, pauli in faults:
            if pauli in ("X", "Y"):
                fx[qubit] ^= True
            if pauli in ("Z", "Y"):
                fz[qubit] ^= True

    # ------------------------------------------------------------------
    def sample_error_distribution_reference(
        self, data_qubits: Sequence[int], shots: int
    ) -> Counter:
        """Per-shot tally loop: the cross-check of :func:`sample_error_counts`."""
        counts: Counter = Counter()
        for _ in range(shots):
            sample = self.sample()
            counts[sample.error_on(data_qubits).bare_label()] += 1
        return counts


def sample_error_counts(
    program: FrameProgram, shots: int, rng: np.random.Generator
) -> Counter:
    """Tally the bare Pauli labels of ``shots`` samples of ``program``,
    whose outputs are the X then the Z frame of the data qubits."""
    bits = program.sample(shots, rng)
    k = program.num_outputs // 2
    return _tally_labels(bits[:, :k], bits[:, k:])


def _tally_labels(fx: np.ndarray, fz: np.ndarray) -> Counter:
    """Count bare Pauli labels of packed (shots, k) frame matrices.

    Builds each row's label as ASCII codes via a 4-entry lookup on the
    (x + 2z) encoding — (0,0)->I, (1,0)->X, (0,1)->Z, (1,1)->Y, matching
    :attr:`Pauli._SINGLE` with qubit 0 leftmost — then reinterprets rows
    as fixed-width bytes so the unique/count pass happens in C and Python
    strings materialize once per *distinct* label.
    """
    shots, k = fx.shape
    if k == 0:
        return Counter({"": shots})
    codes = np.array([73, 88, 90, 89], dtype=np.uint8)  # I X Z Y
    chars = codes[fx.astype(np.uint8) + 2 * fz.astype(np.uint8)]
    keys = np.ascontiguousarray(chars).view(np.dtype((np.bytes_, k))).ravel()
    unique_keys, counts = np.unique(keys, return_counts=True)
    return Counter(
        {key.decode("ascii"): int(count) for key, count in zip(unique_keys, counts)}
    )
