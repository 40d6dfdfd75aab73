"""Live-width compilation: recycle reset qubits onto a narrower register.

The distributed builders allocate fresh ancilla and workspace qubits per
stage and reset each one once it has been measured, but a simulator
carries every *allocated* qubit for the whole run.  :func:`recycle_qubits`
relabels a circuit onto slots by a linear scan in program order:

* the preloaded position registers take slots ``0..p-1``, in order;
* every other qubit takes the lowest free slot at its first non-barrier use;
* an unconditioned ``reset`` returns its qubit's slot to the free pool once
  the reset has run, so a freed slot is always in |0>.

No instruction moves: order, clbits, conditions, params and the ``qpu`` /
``hops`` site tags pass through unchanged, so every simulator consumes its
RNG stream in the same order on the narrow circuit as on the wide one.
Slots free only at existing resets, never at measurements: freeing a slot
earlier would need a reset the circuit does not have, and with it a new
collapse draw.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import replace

from .circuit import Circuit, Instruction

__all__ = ["recycle_qubits"]


def recycle_qubits(
    circuit: Circuit, preloaded: Sequence[Sequence[int]] = ()
) -> tuple[Circuit, tuple[tuple[int, ...], ...]]:
    """Relabel ``circuit`` onto its live width.

    ``preloaded`` lists the registers whose initial state is loaded before
    the circuit runs.  Returns ``(narrow_circuit, slot_of_preloaded)``, the
    second mirroring ``preloaded`` with each qubit replaced by its slot.  A
    circuit that recycling would not make narrower comes back as the very
    same object with its registers as given, so its digest (and every job
    hash built on it) is untouched.
    """
    registers = tuple(tuple(int(q) for q in reg) for reg in preloaded)
    flat = [q for reg in registers for q in reg]
    if len(set(flat)) != len(flat):
        raise ValueError("preloaded registers overlap")
    for q in flat:
        if not 0 <= q < circuit.num_qubits:
            raise IndexError(f"preloaded qubit {q} out of range")
    slot = {q: s for s, q in enumerate(flat)}
    slot_of_preloaded = tuple(tuple(slot[q] for q in reg) for reg in registers)
    width = len(slot)
    free: list[int] = []
    reused = False
    instructions: list[Instruction] = []
    for inst in circuit.instructions:
        if inst.name == "barrier":
            live = tuple(slot[q] for q in inst.qubits if q in slot)
            instructions.append(Instruction("barrier", live))
            continue
        for q in inst.qubits:
            if q in slot:
                continue
            if free:
                slot[q] = heapq.heappop(free)
                reused = True
            else:
                slot[q] = width
                width += 1
        instructions.append(replace(inst, qubits=tuple(slot[q] for q in inst.qubits)))
        if inst.name == "reset" and inst.condition is None:
            heapq.heappush(free, slot.pop(inst.qubits[0]))
    if not reused or width >= circuit.num_qubits:
        return circuit, registers
    narrow = Circuit(width, circuit.num_clbits, name=circuit.name)
    narrow.instructions = instructions
    return narrow, slot_of_preloaded
