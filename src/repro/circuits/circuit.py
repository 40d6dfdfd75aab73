"""Gate-level circuit IR with mid-circuit measurement and classical feedback.

This is the repository's substitute for Qiskit's ``QuantumCircuit``: the
COMPAS constructions only need a fixed gate set, measurement into classical
bits, reset, barriers, and Pauli corrections conditioned on the *parity* of a
set of classical bits (the form every teleportation / fanout correction
takes).

A :class:`Circuit` is an ordered list of :class:`Instruction`.  Depth is
computed by ASAP layering (see :mod:`repro.circuits.moments`).

:meth:`Circuit.freeze` seals a circuit: its instructions become a tuple,
every mutation raises :class:`FrozenCircuitError`, and the content digest
is computed once and kept on the object, as is the capability scan of
:func:`repro.sim.compile.get_capabilities` (pickling carries both).
Engine jobs hold frozen circuits, so the job hash, the compile caches
and the router never re-walk the instructions.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..utils.linalg import embed_operator
from .gates import GATES, gate_matrix, inverse_gate

__all__ = ["Condition", "Instruction", "Circuit", "FrozenCircuitError", "circuit_digest"]

#: Instruction names that are not unitary gates.
NON_GATE_OPS = ("measure", "reset", "barrier")


@dataclass(frozen=True)
class Condition:
    """Classical parity condition: apply iff XOR of ``clbits`` equals ``value``."""

    clbits: tuple[int, ...]
    value: int = 1

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("condition value must be 0 or 1")
        if not self.clbits:
            raise ValueError("condition needs at least one classical bit")

    def evaluate(self, bits: Sequence[int]) -> bool:
        """Whether the condition holds for the given classical register."""
        acc = 0
        for c in self.clbits:
            acc ^= bits[c] & 1
        return acc == self.value


@dataclass(frozen=True)
class Instruction:
    """A single operation: gate, measure, reset, or barrier.

    ``qpu`` and ``hops`` are *site tags* attached by the distributed-program
    lowering: ``qpu`` names the processor executing an intra-QPU op, and a
    nonzero ``hops`` marks a Bell-pair generation event spanning that many
    network links (entanglement swapping stitches one nearest-neighbour pair
    per hop).  Untagged circuits leave both at their defaults and digest to
    exactly the same bytes as before tags existed.
    """

    name: str
    qubits: tuple[int, ...]
    clbits: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    condition: Condition | None = None
    qpu: str | None = None
    hops: int = 0

    @property
    def is_gate(self) -> bool:
        """Whether this instruction is a unitary gate application."""
        return self.name not in NON_GATE_OPS

    @property
    def is_link_event(self) -> bool:
        """Whether this op is a tagged Bell-pair generation across QPUs."""
        return self.hops > 0


class FrozenCircuitError(TypeError):
    """A frozen circuit was asked to change."""


class Circuit:
    """A quantum circuit over ``num_qubits`` qubits and ``num_clbits`` classical bits."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = "circuit"):
        if num_qubits < 0 or num_clbits < 0:
            raise ValueError("register sizes must be non-negative")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.name = name
        self.instructions: list[Instruction] | tuple[Instruction, ...] = []

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    @property
    def is_frozen(self) -> bool:
        """Whether :meth:`freeze` sealed this circuit."""
        return "_digest" in self.__dict__

    def freeze(self) -> "Circuit":
        """Seal this circuit in place and return it.

        The instructions become a tuple, every later mutation raises
        :class:`FrozenCircuitError`, and the content digest is computed
        here, once.  Freezing a frozen circuit is a no-op.
        """
        if not self.is_frozen:
            state = self.__dict__
            state["instructions"] = tuple(self.instructions)
            state["_digest"] = circuit_digest(self)
        return self

    def frozen(self) -> "Circuit":
        """This circuit if it is frozen, else a frozen copy (``self`` stays open)."""
        return self if self.is_frozen else self.copy().freeze()

    def __setattr__(self, name: str, value) -> None:
        self._check_open()
        super().__setattr__(name, value)

    def _check_open(self) -> None:
        if self.is_frozen:
            raise FrozenCircuitError(f"circuit {self.name!r} is frozen")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(
        self,
        name: str,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
        params: Sequence[float] = (),
        condition: Condition | None = None,
        qpu: str | None = None,
        hops: int = 0,
    ) -> "Circuit":
        """Append one instruction, validating indices and arity."""
        self._check_open()
        qubits = tuple(qubits)
        clbits = tuple(clbits)
        params = tuple(params)
        if name not in NON_GATE_OPS:
            spec = GATES.get(name)
            if spec is None:
                raise KeyError(f"unknown gate {name!r}")
            if len(qubits) != spec.num_qubits:
                raise ValueError(
                    f"gate {name} expects {spec.num_qubits} qubits, got {len(qubits)}"
                )
            if len(params) != spec.num_params:
                raise ValueError(
                    f"gate {name} expects {spec.num_params} params, got {len(params)}"
                )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in {name}: {qubits}")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise IndexError(f"qubit {q} out of range (have {self.num_qubits})")
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise IndexError(f"clbit {c} out of range (have {self.num_clbits})")
        if condition is not None:
            for c in condition.clbits:
                if not 0 <= c < self.num_clbits:
                    raise IndexError(f"condition clbit {c} out of range")
        if hops < 0:
            raise ValueError("hops must be non-negative")
        self.instructions.append(
            Instruction(name, qubits, clbits, params, condition, qpu, hops)
        )
        return self

    # Single-qubit gates -------------------------------------------------
    def i(self, q: int, condition: Condition | None = None) -> "Circuit":
        """Identity (explicit no-op placeholder)."""
        return self.append("id", [q], condition=condition)

    def x(self, q: int, condition: Condition | None = None) -> "Circuit":
        """Pauli X."""
        return self.append("x", [q], condition=condition)

    def y(self, q: int, condition: Condition | None = None) -> "Circuit":
        """Pauli Y."""
        return self.append("y", [q], condition=condition)

    def z(self, q: int, condition: Condition | None = None) -> "Circuit":
        """Pauli Z."""
        return self.append("z", [q], condition=condition)

    def h(self, q: int, condition: Condition | None = None) -> "Circuit":
        """Hadamard."""
        return self.append("h", [q], condition=condition)

    def s(self, q: int) -> "Circuit":
        """Phase gate S."""
        return self.append("s", [q])

    def sdg(self, q: int) -> "Circuit":
        """Inverse phase gate."""
        return self.append("sdg", [q])

    def t(self, q: int) -> "Circuit":
        """T gate."""
        return self.append("t", [q])

    def tdg(self, q: int) -> "Circuit":
        """Inverse T gate."""
        return self.append("tdg", [q])

    def rx(self, theta: float, q: int) -> "Circuit":
        """X rotation."""
        return self.append("rx", [q], params=[theta])

    def ry(self, theta: float, q: int) -> "Circuit":
        """Y rotation."""
        return self.append("ry", [q], params=[theta])

    def rz(self, theta: float, q: int) -> "Circuit":
        """Z rotation."""
        return self.append("rz", [q], params=[theta])

    # Multi-qubit gates --------------------------------------------------
    def cx(self, control: int, target: int, condition: Condition | None = None) -> "Circuit":
        """CNOT."""
        return self.append("cx", [control, target], condition=condition)

    def cz(self, a: int, b: int) -> "Circuit":
        """Controlled-Z."""
        return self.append("cz", [a, b])

    def swap(self, a: int, b: int) -> "Circuit":
        """SWAP."""
        return self.append("swap", [a, b])

    def ccx(self, c0: int, c1: int, target: int) -> "Circuit":
        """Toffoli."""
        return self.append("ccx", [c0, c1, target])

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        """Fredkin (controlled-SWAP)."""
        return self.append("cswap", [control, a, b])

    # Non-unitary ---------------------------------------------------------
    def measure(self, qubit: int, clbit: int) -> "Circuit":
        """Z-basis measurement into a classical bit."""
        return self.append("measure", [qubit], clbits=[clbit])

    def reset(self, qubit: int) -> "Circuit":
        """Reset a qubit to |0>."""
        return self.append("reset", [qubit])

    def barrier(self, qubits: Sequence[int] | None = None) -> "Circuit":
        """Scheduling barrier across the given qubits (all if omitted)."""
        self._check_open()
        qs = tuple(range(self.num_qubits)) if qubits is None else tuple(qubits)
        self.instructions.append(Instruction("barrier", qs))
        return self

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def compose(
        self,
        other: "Circuit",
        qubit_map: Mapping[int, int] | Sequence[int] | None = None,
        clbit_map: Mapping[int, int] | Sequence[int] | None = None,
    ) -> "Circuit":
        """Append ``other``'s instructions, relabelling via the given maps.

        ``qubit_map`` maps *other*'s qubit indices into this circuit's; a
        sequence is interpreted positionally.  Identity mapping by default.
        """

        def as_map(m, size: int) -> dict[int, int]:
            if m is None:
                return {i: i for i in range(size)}
            if isinstance(m, Mapping):
                return dict(m)
            return {i: v for i, v in enumerate(m)}

        self._check_open()
        qmap = as_map(qubit_map, other.num_qubits)
        cmap = as_map(clbit_map, other.num_clbits)
        for inst in other.instructions:
            new_q = tuple(qmap[q] for q in inst.qubits)
            new_c = tuple(cmap[c] for c in inst.clbits)
            new_cond = None
            if inst.condition is not None:
                new_cond = Condition(
                    tuple(cmap[c] for c in inst.condition.clbits), inst.condition.value
                )
            if inst.name == "barrier":
                self.instructions.append(Instruction("barrier", new_q))
            else:
                self.append(
                    inst.name, new_q, new_c, inst.params, new_cond, inst.qpu, inst.hops
                )
        return self

    def inverse(self) -> "Circuit":
        """Inverse circuit (unitary instructions only)."""
        inv = Circuit(self.num_qubits, self.num_clbits, name=f"{self.name}_dg")
        for inst in reversed(self.instructions):
            if inst.name == "barrier":
                inv.instructions.append(inst)
                continue
            if not inst.is_gate or inst.condition is not None:
                raise ValueError("cannot invert a circuit with measurement/feedback")
            name, params = inverse_gate(inst.name, inst.params)
            inv.append(name, inst.qubits, params=params)
        return inv

    def copy(self) -> "Circuit":
        """Shallow, open copy (instructions are immutable)."""
        dup = Circuit(self.num_qubits, self.num_clbits, name=self.name)
        dup.instructions = list(self.instructions)
        return dup

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def count_ops(self) -> Counter:
        """Histogram of instruction names (barriers excluded)."""
        return Counter(i.name for i in self.instructions if i.name != "barrier")

    def num_measurements(self) -> int:
        """Number of measurement instructions."""
        return sum(1 for i in self.instructions if i.name == "measure")

    def qubits_used(self) -> set[int]:
        """Set of qubits touched by any non-barrier instruction."""
        used: set[int] = set()
        for inst in self.instructions:
            if inst.name != "barrier":
                used.update(inst.qubits)
        return used

    def depth(self, count_measurements: bool = True) -> int:
        """Circuit depth under ASAP scheduling (barriers synchronise)."""
        from .moments import circuit_depth

        return circuit_depth(self, count_measurements=count_measurements)

    def content_digest(self) -> bytes:
        """Canonical byte digest of the circuit's structure.

        Two circuits digest identically iff they have the same registers and
        the same instruction sequence (names, qubits, clbits, parameters,
        conditions).  This is the key of the per-process compile cache and a
        component of the engine's job content hash.  A frozen circuit
        returns the digest it computed when it was frozen.
        """
        digest = self.__dict__.get("_digest")
        return digest if digest is not None else circuit_digest(self)

    def two_qubit_gate_count(self) -> int:
        """Number of gates acting on two or more qubits."""
        return sum(
            1 for i in self.instructions if i.is_gate and len(i.qubits) >= 2 and i.name != "barrier"
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def to_unitary(self) -> np.ndarray:
        """Full unitary of a measurement-free, condition-free circuit."""
        dim = 2**self.num_qubits
        unitary = np.eye(dim, dtype=complex)
        for inst in self.instructions:
            if inst.name == "barrier":
                continue
            if not inst.is_gate or inst.condition is not None:
                raise ValueError(
                    "to_unitary requires a purely unitary circuit; "
                    f"found {inst.name} (condition={inst.condition})"
                )
            matrix = gate_matrix(inst.name, inst.params)
            unitary = embed_operator(matrix, inst.qubits, self.num_qubits) @ unitary
        return unitary

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def draw(self, max_width: int = 120) -> str:
        """Crude text rendering, one line per instruction."""
        lines = [f"{self.name}: {self.num_qubits} qubits, {self.num_clbits} clbits"]
        for inst in self.instructions:
            token = f"  {inst.name} q{list(inst.qubits)}"
            if inst.clbits:
                token += f" -> c{list(inst.clbits)}"
            if inst.params:
                token += f" ({', '.join(f'{p:.4g}' for p in inst.params)})"
            if inst.condition is not None:
                token += f" if parity(c{list(inst.condition.clbits)})=={inst.condition.value}"
            if inst.qpu is not None:
                token += f" @{inst.qpu}"
            if inst.hops:
                token += f" hops={inst.hops}"
            lines.append(token[:max_width])
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, ops={len(self.instructions)})"
        )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterable[Instruction]:
        return iter(self.instructions)


def circuit_digest(circuit: "Circuit") -> bytes:
    """Canonical byte encoding of a circuit's structure (see ``content_digest``).

    The byte format is shared with the engine's job hash: any mutation of a
    gate name, qubit, clbit, parameter, or condition changes the digest.
    """
    h = hashlib.sha256()
    h.update(struct.pack(">qq", circuit.num_qubits, circuit.num_clbits))
    for inst in circuit.instructions:
        h.update(inst.name.encode())
        h.update(b"q" + ",".join(map(str, inst.qubits)).encode())
        h.update(b"c" + ",".join(map(str, inst.clbits)).encode())
        if inst.params:
            h.update(struct.pack(f">{len(inst.params)}d", *inst.params))
        if inst.condition is not None:
            h.update(
                b"if" + ",".join(map(str, inst.condition.clbits)).encode()
                + bytes([inst.condition.value])
            )
        # Site tags are part of the structure: a Bell-generation event with a
        # different hop count (or an op re-homed to another QPU) is a
        # different physical circuit.  Untagged instructions contribute no
        # extra bytes, so pre-tag digests of plain circuits are unchanged.
        if inst.qpu is not None:
            h.update(b"@" + inst.qpu.encode())
        if inst.hops:
            h.update(b"#" + str(inst.hops).encode())
        h.update(b";")
    return h.digest()
