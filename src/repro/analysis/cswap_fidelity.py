"""Classical fidelity of the two-party CSWAP designs (paper Fig 9b, Sec 5.2).

The circuit acts on 2n+1 data qubits (control + two n-qubit registers).
When ``2^(2n+1) <= 300`` every computational-basis input is simulated
exhaustively, otherwise 300 random basis inputs are sampled — the paper's
exact protocol.  For each input the *classical fidelity* is the fraction of
shot outcomes that match the noiseless output (basis inputs make the ideal
output deterministic).  Noise enters through blackboxed primitive error
distributions (:mod:`repro.analysis.blackbox`) plus gate-level depolarizing
on the local gates and readout flips on the final measurement.

Expected shape: fidelity decreases with n, drops faster at higher p2q, and
teledata edges out telegate by under a percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine import Engine
from ..utils.bits import int_to_bits
from ..utils.fitting import binomial_stderr
from .blackbox import BlackboxCircuit, PrimitiveErrorModel

__all__ = [
    "build_blackbox_cswap",
    "ideal_cswap_output",
    "CswapFidelityResult",
    "cswap_classical_fidelity",
]


def _append_toffoli_bank_blackbox(
    bb: BlackboxCircuit,
    model: PrimitiveErrorModel,
    control: int,
    b_wires: list[int],
    t_wires: list[int],
) -> None:
    """Ideal Fig-7c bank + fanout errors + local-gate depolarizing."""
    n = len(b_wires)
    noise = model.noise
    fanout_t = model.fanout(n)
    fanout_b = model.fanout(n)

    def locals_1q(wires: list[int]) -> None:
        for w in wires:
            bb.depolarize(noise.p1, [w])

    def fanout_layer(wires: list[int], sampler) -> None:
        for w in wires:
            bb.gate("cx", [control, w])
        bb.error(sampler, [control] + wires)

    # Explicit bank schedule (same as append_parallel_toffoli_bank).
    for t in t_wires:
        bb.gate("h", [t])
    locals_1q(t_wires)
    for b, t in zip(b_wires, t_wires):
        bb.gate("cx", [b, t])
        bb.depolarize(noise.p2, [b, t])
    for t in t_wires:
        bb.gate("tdg", [t])
    locals_1q(t_wires)
    fanout_layer(t_wires, fanout_t)
    for t in t_wires:
        bb.gate("t", [t])
    locals_1q(t_wires)
    for b, t in zip(b_wires, t_wires):
        bb.gate("cx", [b, t])
        bb.depolarize(noise.p2, [b, t])
    for t in t_wires:
        bb.gate("tdg", [t])
    locals_1q(t_wires)
    fanout_layer(t_wires, fanout_t)
    for b in b_wires:
        bb.gate("t", [b])
    for t in t_wires:
        bb.gate("t", [t])
    locals_1q(b_wires)
    locals_1q(t_wires)
    for t in t_wires:
        bb.gate("h", [t])
    locals_1q(t_wires)
    fanout_layer(b_wires, fanout_b)
    bb.gate("rz", [control], params=[n * math.pi / 4.0])
    bb.depolarize(noise.p1, [control])
    for b in b_wires:
        bb.gate("tdg", [b])
    locals_1q(b_wires)
    fanout_layer(b_wires, fanout_b)


def build_blackbox_cswap(
    design: str, n: int, model: PrimitiveErrorModel
) -> BlackboxCircuit:
    """Reduced noisy CSWAP on qubits [control, x_1..x_n, y_1..y_n]."""
    if design not in ("teledata", "telegate"):
        raise ValueError("design must be 'teledata' or 'telegate'")
    control = 0
    xs = list(range(1, n + 1))
    ys = list(range(n + 1, 2 * n + 1))
    bb = BlackboxCircuit(2 * n + 1)
    noise = model.noise

    if design == "teledata":
        # Teleport y over (errors only; the move is logically the identity).
        for y in ys:
            bb.error(model.teleport(), [y])
        # Local CSWAP: CX(y,x) wrap + Toffoli bank with fanout errors.
        for x, y in zip(xs, ys):
            bb.gate("cx", [y, x])
            bb.depolarize(noise.p2, [y, x])
        _append_toffoli_bank_blackbox(bb, model, control, xs, ys)
        for x, y in zip(xs, ys):
            bb.gate("cx", [y, x])
            bb.depolarize(noise.p2, [y, x])
        # Teleport y back.
        for y in ys:
            bb.error(model.teleport(), [y])
        return bb

    # telegate: remote CX layers + teleported Toffolis via AND ancillas.
    for x, y in zip(xs, ys):
        bb.gate("cx", [y, x])
        bb.error(model.telegate_cnot(), [y, x])
    _append_toffoli_bank_blackbox(bb, model, control, xs, ys)
    # The AND ancilla's remote CNOT drive adds one teleported-CNOT error
    # per Toffoli, landing on (x_l, y_l).
    for x, y in zip(xs, ys):
        bb.error(model.telegate_cnot(), [x, y])
    for x, y in zip(xs, ys):
        bb.gate("cx", [y, x])
        bb.error(model.telegate_cnot(), [y, x])
    return bb


def ideal_cswap_output(input_index: int, n: int) -> int:
    """Noiseless output basis state of CSWAP on [c, x(n), y(n)]."""
    width = 2 * n + 1
    bits = int_to_bits(input_index, width)
    if bits[0] == 1:
        for l in range(n):
            bits[1 + l], bits[1 + n + l] = bits[1 + n + l], bits[1 + l]
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


@dataclass
class CswapFidelityResult:
    """Fig 9b data point."""

    design: str
    n: int
    p: float
    fidelity: float
    inputs_used: int
    shots_per_input: int

    @property
    def stderr(self) -> float:
        """Binomial standard error of ``fidelity`` over all its shots."""
        trials = self.inputs_used * self.shots_per_input
        return binomial_stderr(round(self.fidelity * trials), trials)


def cswap_classical_fidelity(
    design: str,
    n: int,
    p: float,
    shots_per_input: int = 40,
    max_inputs: int = 300,
    seed: int | None = None,
    model: PrimitiveErrorModel | None = None,
    engine: Engine | None = None,
) -> CswapFidelityResult:
    """Classical fidelity of one (design, n, p) setting (paper Sec 5.2).

    Without a ``model``, the primitive error distributions are drawn as
    frames jobs on ``engine``.
    """
    rng = np.random.default_rng(seed)
    model = model or PrimitiveErrorModel(p, seed=seed, engine=engine)
    bb = build_blackbox_cswap(design, n, model)
    width = 2 * n + 1
    dim = 2**width
    if dim <= max_inputs:
        inputs = list(range(dim))
    else:
        inputs = list(rng.choice(dim, size=max_inputs, replace=False))
    matches = 0
    total = 0
    p_meas = model.noise.p_meas
    for idx in inputs:
        expected = ideal_cswap_output(int(idx), n)
        base = np.zeros(dim, dtype=complex)
        base[idx] = 1.0
        for _ in range(shots_per_input):
            state = bb.run_shot(base.copy(), rng)
            probs = np.abs(state) ** 2
            probs = probs / probs.sum()
            outcome = int(rng.choice(dim, p=probs))
            # Readout flips on every measured qubit.
            if p_meas > 0.0:
                for q in range(width):
                    if rng.random() < p_meas:
                        outcome ^= 1 << (width - 1 - q)
            matches += int(outcome == expected)
            total += 1
    return CswapFidelityResult(
        design=design,
        n=n,
        p=p,
        fidelity=matches / total,
        inputs_used=len(inputs),
        shots_per_input=shots_per_input,
    )
