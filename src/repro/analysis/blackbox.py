"""Blackboxed noisy execution (paper Sec 5.2 methodology).

Simulating the full two-party CSWAP with every teleportation and Fanout
ancilla is intractable, so — exactly as the paper does — higher-level
primitives are *blackboxed*: the reduced circuit applies each primitive's
ideal effect on the data qubits and then injects a Pauli error drawn from a
distribution obtained by simulating that primitive alone as an engine
frames job (the Stim substitute).

:class:`PrimitiveErrorModel` caches per-primitive distributions at one base
noise level; :class:`BlackboxCircuit` is the reduced-circuit interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..engine import Engine
from ..network.program import DistributedProgram
from ..network.topology import line_topology
from ..sim.noisemodel import PAULI_MATRICES, NoiseModel
from ..sim.statevector import apply_gate
from ..circuits.gates import gate_matrix
from ..teleport.teledata import teleport_qubit
from ..teleport.telegate import remote_cnot
from .fanout_errors import build_fanout_circuit
from .frames import sample_frame_counts

__all__ = ["ErrorSampler", "PrimitiveErrorModel", "BlackboxCircuit"]


@dataclass
class ErrorSampler:
    """Samples Pauli labels from a frame-simulated distribution."""

    labels: list[str]
    probabilities: np.ndarray

    @classmethod
    def from_counts(cls, counts, width: int) -> "ErrorSampler":
        """Build from a Counter of bare Pauli labels."""
        labels = list(counts.keys())
        total = sum(counts.values())
        probs = np.array([counts[l] / total for l in labels])
        if not labels:
            labels = ["I" * width]
            probs = np.array([1.0])
        return cls(labels, probs)

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one Pauli label."""
        index = rng.choice(len(self.labels), p=self.probabilities)
        return self.labels[index]


class PrimitiveErrorModel:
    """Per-primitive Pauli error distributions at one base noise level.

    Each distribution is one frames job on ``engine`` (a private serial
    engine when ``None``), drawn on first use and kept for the model's
    lifetime.
    """

    def __init__(
        self,
        p: float,
        shots: int = 20_000,
        seed: int | None = None,
        engine: Engine | None = None,
    ):
        self.p = p
        self.shots = shots
        self.seed = seed
        self.engine = engine
        self.noise = NoiseModel.from_base(p)
        self._cache: dict = {}

    # ------------------------------------------------------------------
    def _frame_distribution(self, circuit, data_qubits, key) -> ErrorSampler:
        if key not in self._cache:
            counts, _ = sample_frame_counts(
                circuit,
                data_qubits,
                self.noise,
                shots=self.shots,
                seed=self.seed,
                engine=self.engine,
            )
            self._cache[key] = ErrorSampler.from_counts(counts, len(data_qubits))
        return self._cache[key]

    def teleport(self) -> ErrorSampler:
        """Error on the teleported data qubit (Fig 1a with Bell generation)."""
        key = ("teleport",)
        if key not in self._cache:
            program = DistributedProgram(line_topology(["A", "B"]))
            (src,) = program.alloc("A", "data", 1)
            (bl,) = program.alloc("A", "bell", 1)
            (br,) = program.alloc("B", "bell", 1)
            program.create_bell_pair(bl, br)
            teleport_qubit(program, src, bl, br)
            circuit = program.build(name="teleport")
            self._frame_distribution(circuit, [br], key)
        return self._cache[key]

    def telegate_cnot(self) -> ErrorSampler:
        """Error on (control, target) of the teleported CNOT (Fig 1b)."""
        key = ("telegate_cnot",)
        if key not in self._cache:
            program = DistributedProgram(line_topology(["A", "B"]))
            (c,) = program.alloc("A", "ctrl", 1)
            (t,) = program.alloc("B", "tgt", 1)
            (bl,) = program.alloc("A", "bell", 1)
            (br,) = program.alloc("B", "bell", 1)
            program.create_bell_pair(bl, br)
            remote_cnot(program, c, t, bl, br)
            circuit = program.build(name="remote_cnot")
            self._frame_distribution(circuit, [c, t], key)
        return self._cache[key]

    def fanout(self, num_targets: int) -> ErrorSampler:
        """Error on (control + targets) of the constant-depth Fanout."""
        key = ("fanout", num_targets)
        if key not in self._cache:
            circuit, data = build_fanout_circuit(num_targets)
            self._frame_distribution(circuit, data, key)
        return self._cache[key]


@dataclass
class BlackboxCircuit:
    """Reduced circuit: ideal gates interleaved with sampled error injections."""

    num_qubits: int
    steps: list = field(default_factory=list)

    # Construction ------------------------------------------------------
    def gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()):
        """Ideal gate application."""
        self.steps.append(("gate", name, tuple(qubits), tuple(params)))
        return self

    def error(self, sampler: ErrorSampler, qubits: Sequence[int]):
        """Inject a Pauli drawn from a primitive's error distribution."""
        self.steps.append(("error", sampler, tuple(qubits)))
        return self

    def depolarize(self, probability: float, qubits: Sequence[int]):
        """Inject gate-level depolarizing noise on the listed qubits."""
        self.steps.append(("depol", float(probability), tuple(qubits)))
        return self

    # Execution ---------------------------------------------------------
    def run_shot(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One noisy trajectory from the given initial statevector."""
        n = self.num_qubits
        for step in self.steps:
            kind = step[0]
            if kind == "gate":
                _, name, qubits, params = step
                state = apply_gate(state, gate_matrix(name, params), qubits, n)
            elif kind == "error":
                _, sampler, qubits = step
                label = sampler.sample(rng)
                for q, ch in zip(qubits, label):
                    if ch != "I":
                        state = apply_gate(state, PAULI_MATRICES[ch], [q], n)
            else:  # depol
                _, probability, qubits = step
                if probability > 0.0 and rng.random() < probability:
                    dim = len(qubits)
                    while True:
                        word = [int(rng.integers(0, 4)) for _ in range(dim)]
                        if any(word):
                            break
                    names = ("I", "X", "Y", "Z")
                    for q, w in zip(qubits, word):
                        if w:
                            state = apply_gate(state, PAULI_MATRICES[names[w]], [q], n)
        return state
