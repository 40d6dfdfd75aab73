"""Circuit IR: gates, circuits with classical feedback, and layer scheduling."""

from .circuit import Circuit, Condition, FrozenCircuitError, Instruction
from .gates import GATES, GateSpec, gate_matrix, is_clifford_gate
from .moments import circuit_depth, circuit_moments
from .recycle import recycle_qubits

__all__ = [
    "Circuit",
    "Condition",
    "FrozenCircuitError",
    "Instruction",
    "GATES",
    "GateSpec",
    "gate_matrix",
    "is_clifford_gate",
    "circuit_depth",
    "circuit_moments",
    "recycle_qubits",
]
