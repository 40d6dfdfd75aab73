"""Pauli-string algebra with exact phase tracking.

A Pauli operator on n qubits is represented in the symplectic form
``i^phase * prod_q X_q^{x[q]} Z_q^{z[q]}`` with ``phase`` mod 4.  This is the
shared currency between the Pauli-frame sampler and the noise analyses
(Table 4 reports Pauli error strings).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..circuits.gates import I2, X, Y, Z

__all__ = ["Pauli"]

_SINGLE = {
    (0, 0): ("I", 0),
    (1, 0): ("X", 0),
    (1, 1): ("Y", 1),  # XZ = -iY, so Y = i * X Z
    (0, 1): ("Z", 0),
}

_MATRICES = {"I": I2, "X": X, "Y": Y, "Z": Z}


@dataclass
class Pauli:
    """An n-qubit Pauli operator ``i^phase * X^x Z^z``."""

    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=bool).copy()
        self.z = np.asarray(self.z, dtype=bool).copy()
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("x and z must be 1-D arrays of equal length")
        self.phase = self.phase % 4

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int) -> "Pauli":
        """The identity operator on ``num_qubits`` qubits."""
        return cls(np.zeros(num_qubits, bool), np.zeros(num_qubits, bool), 0)

    @classmethod
    def from_label(cls, label: str) -> "Pauli":
        """Build from a string like ``"+XIZY"`` (sign prefix optional)."""
        phase = 0
        if label.startswith("+"):
            label = label[1:]
        elif label.startswith("-"):
            phase = 2
            label = label[1:]
        n = len(label)
        x = np.zeros(n, bool)
        z = np.zeros(n, bool)
        for i, ch in enumerate(label.upper()):
            if ch == "I":
                continue
            if ch == "X":
                x[i] = True
            elif ch == "Z":
                z[i] = True
            elif ch == "Y":
                x[i] = True
                z[i] = True
                phase = (phase + 1) % 4  # store Y as i * X Z
            else:
                raise ValueError(f"invalid Pauli character {ch!r}")
        return cls(x, z, phase)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, kind: str) -> "Pauli":
        """A weight-one Pauli ``kind`` in {X, Y, Z} on ``qubit``."""
        p = cls.identity(num_qubits)
        kind = kind.upper()
        if kind == "X":
            p.x[qubit] = True
        elif kind == "Z":
            p.z[qubit] = True
        elif kind == "Y":
            p.x[qubit] = True
            p.z[qubit] = True
            p.phase = 1
        else:
            raise ValueError(f"invalid Pauli kind {kind!r}")
        return p

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of qubits the operator acts on."""
        return len(self.x)

    @property
    def weight(self) -> int:
        """Number of qubits with a non-identity factor."""
        return int(np.count_nonzero(self.x | self.z))

    def is_identity(self, up_to_phase: bool = True) -> bool:
        """Whether the operator is (proportional to) the identity."""
        trivial = not self.x.any() and not self.z.any()
        if up_to_phase:
            return trivial
        return trivial and self.phase == 0

    def copy(self) -> "Pauli":
        """Deep copy."""
        return Pauli(self.x, self.z, self.phase)

    # ------------------------------------------------------------------
    def __mul__(self, other: "Pauli") -> "Pauli":
        """Operator product self * other with exact phase."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli size mismatch")
        # (X^a Z^b)(X^c Z^d) = (-1)^(b.c) X^(a+c) Z^(b+d)
        anticommute = int(np.count_nonzero(self.z & other.x))
        phase = (self.phase + other.phase + 2 * anticommute) % 4
        return Pauli(self.x ^ other.x, self.z ^ other.z, phase)

    def commutes_with(self, other: "Pauli") -> bool:
        """Whether the two operators commute."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli size mismatch")
        sym = int(np.count_nonzero(self.x & other.z)) + int(
            np.count_nonzero(self.z & other.x)
        )
        return sym % 2 == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pauli):
            return NotImplemented
        return (
            bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.z, other.z))
            and self.phase == other.phase
        )

    def equal_up_to_phase(self, other: "Pauli") -> bool:
        """Whether the two operators agree ignoring the scalar prefactor."""
        return bool(np.array_equal(self.x, other.x)) and bool(
            np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.z.tobytes(), self.phase))

    # ------------------------------------------------------------------
    def to_label(self, include_sign: bool = True) -> str:
        """Human-readable label, e.g. ``"-XIZ"``."""
        chars = []
        phase = self.phase
        for xi, zi in zip(self.x, self.z):
            ch, extra = _SINGLE[(int(xi), int(zi))]
            chars.append(ch)
            phase = (phase - extra) % 4
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[phase] if include_sign else ""
        return prefix + "".join(chars)

    def bare_label(self) -> str:
        """Label without a sign prefix (e.g. for Table 4 tallies)."""
        return self.to_label(include_sign=False)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix (small n only)."""
        label = self.to_label(include_sign=False)
        out = np.array([[1.0 + 0j]])
        for ch in label:
            out = np.kron(out, _MATRICES[ch])
        phase = self.phase
        for xi, zi in zip(self.x, self.z):
            __, extra = _SINGLE[(int(xi), int(zi))]
            phase = (phase - extra) % 4
        return (1j**phase) * out

    def restricted(self, qubits: Sequence[int]) -> "Pauli":
        """Restriction to a subset of qubits (phase reset to +1)."""
        qubits = list(qubits)
        return Pauli(self.x[qubits], self.z[qubits], 0)

    def __repr__(self) -> str:
        return f"Pauli({self.to_label()})"
