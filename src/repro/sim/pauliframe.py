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

:class:`PauliFrameSimulator` is the per-shot cross-validation oracle.
Engine frames jobs run over the compiled
:class:`~repro.sim.batched_stabilizer.FrameProgram`: each batch draws
its fired faults with :meth:`~repro.sim.batched_stabilizer.FrameProgram.fire`
from its own generator, and :func:`tally_error_counts` counts a whole
batch group's labels in one pass over only the shots those faults
touch, so a shot that no fault touched costs nothing.
:func:`sample_error_counts` is the one-batch case.
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

__all__ = ["FrameSample", "PauliFrameSimulator", "sample_error_counts", "tally_error_counts"]

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
        """Per-shot tally loop: the cross-check of :func:`tally_error_counts`."""
        counts: Counter = Counter()
        for _ in range(shots):
            sample = self.sample()
            counts[sample.error_on(data_qubits).bare_label()] += 1
        return counts


def sample_error_counts(
    program: FrameProgram, shots: int, rng: np.random.Generator
) -> Counter:
    """Tally the bare Pauli labels of ``shots`` samples of ``program``:
    the one-segment case of :func:`tally_error_counts`."""
    hits, rows = program.fire([(rng, shots)])
    return tally_error_counts(program, hits, rows, [shots])


#: ASCII codes of the bare Pauli letters by ``x + 2z``: I X Z Y.
_LETTERS = np.array([73, 88, 90, 89], dtype=np.uint8)


def tally_error_counts(
    program: FrameProgram, hits: np.ndarray, rows: np.ndarray, sizes: Sequence[int]
) -> Counter:
    """Count the bare Pauli labels of consecutive shot segments of
    ``sizes`` shots, whose fired faults are ``(hits, rows)`` as
    :meth:`FrameProgram.fire` returns them; the program's outputs are the
    X then the Z frame of the data qubits.

    Only shots that fired are accumulated: one ``bitwise_xor.at`` over
    their distinct indices, then a ``lexsort`` of the packed rows finds
    the distinct frames, and only those are unpacked into labels (qubit 0
    leftmost, ``(x, z)`` = (0,0)->I, (1,0)->X, (0,1)->Z, (1,1)->Y as
    :attr:`Pauli._SINGLE` has it).  Shots that never fired join the
    identity count without being built, as do shots whose faults cancel.
    Labels enter the Counter as one tally per segment would insert them:
    by the first segment that holds them, then by label.
    """
    k = program.num_outputs // 2
    total = int(sum(sizes))
    if not hits.size or not k:
        return Counter({"I" * k: total})
    shots, inverse = np.unique(hits, return_inverse=True)
    acc = np.zeros((shots.size, program.effects.shape[1]), dtype=np.uint64)
    np.bitwise_xor.at(acc, inverse, program.effects[rows])
    order = np.lexsort(acc.T)
    acc, shots = acc[order], shots[order]
    starts = np.flatnonzero(np.r_[True, (acc[1:] != acc[:-1]).any(axis=1)])
    distinct = acc[starts]
    counts = np.diff(np.r_[starts, acc.shape[0]])
    bounds = np.cumsum(sizes)
    first = np.searchsorted(bounds, np.minimum.reduceat(shots, starts), "right")
    bits = np.unpackbits(distinct.view(np.uint8), axis=1, count=2 * k)
    labels = _LETTERS[bits[:, :k] + 2 * bits[:, k:]]
    labels = np.ascontiguousarray(labels).view(np.dtype((np.bytes_, k))).ravel()
    untouched = total - shots.size
    if untouched:
        touched = np.bincount(np.searchsorted(bounds, shots, "right"), minlength=len(sizes))
        idle = int(np.flatnonzero(touched < np.asarray(sizes))[0])
        # The sort puts an all-zero (cancelled) frame first.
        if not distinct[0].any():
            counts[0] += untouched
            first[0] = min(first[0], idle)
        else:
            labels = np.r_[labels, np.array([b"I" * k])]
            counts = np.r_[counts, untouched]
            first = np.r_[first, idle]
    order = np.lexsort((labels, first))
    return Counter(
        {
            label.decode("ascii"): count
            for label, count in zip(labels[order].tolist(), counts[order].tolist())
        }
    )
