"""Fanout error-distribution analysis (paper Table 4, Sec 5.1).

Models the noisy constant-depth Fanout as an ideal Fanout followed by a
Pauli error ``E_i = U_noisy . U_ideal^-1`` and samples the distribution of
``E_i`` with the Pauli-frame simulator (our Stim substitute).  The paper
applies depolarizing noise p/10 to 1q gates, p to 2q gates, and flips
measurements with probability p, then reports the top-4 errors over
(control + targets) for 100k shots.

Expected shape (paper): the dominant error is always Z on the control
(mis-corrected Pauli frame from the X-basis cat measurements), followed by
contiguous X blocks on the targets (a flipped fusion-measurement parity
mis-corrects every cat member downstream).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..engine import Engine, Job
from ..fanout.fanout import append_fanout, fanout_ancillas_required
from ..network.program import DistributedProgram
from ..sim.noisemodel import NoiseModel
from ..sim.pauliframe import PauliFrameSimulator

__all__ = [
    "FanoutErrorReport",
    "build_fanout_circuit",
    "sample_fanout_error_counts",
    "fanout_error_distribution",
]


@dataclass
class FanoutErrorReport:
    """Sampled error distribution of one (p, num_targets) setting."""

    p: float
    num_targets: int
    shots: int
    counts: Counter
    """Bare Pauli labels over (control + targets), including identity."""

    seed: int | None = None
    """The recorded seed of the sampling run."""

    def error_probability(self) -> float:
        """Probability of any non-identity error."""
        identity = "I" * (self.num_targets + 1)
        return 1.0 - self.counts.get(identity, 0) / self.shots

    def top_errors(self, count: int = 4) -> list[tuple[str, float]]:
        """The most likely non-identity errors and their probabilities."""
        identity = "I" * (self.num_targets + 1)
        items = [
            (label, c / self.shots)
            for label, c in self.counts.most_common()
            if label != identity
        ]
        return items[:count]


def build_fanout_circuit(num_targets: int):
    """A standalone Fanout over fresh qubits; returns (circuit, data_qubits)."""
    program = DistributedProgram()
    program.add_qpu("mono")
    (control,) = program.alloc("mono", "control", 1)
    targets = program.alloc("mono", "targets", num_targets)
    ancillas = program.alloc("mono", "anc", fanout_ancillas_required(num_targets))
    append_fanout(program, control, targets, ancillas, reset_ancillas=True)
    return program.build(name=f"fanout_{num_targets}"), [control] + targets


def sample_fanout_error_counts(
    num_targets: int,
    noise: NoiseModel | None,
    *,
    shots: int,
    seed: int | None,
    engine: Engine,
    batch_size: int | None = None,
) -> Counter:
    """Engine-path error tally behind ``Experiment.fanout_errors``.

    The sampling runs as one frames-mode job, batched across the engine's
    workers and served from its cache on repeats.  A noiseless model
    short-circuits: every shot carries the identity error.
    """
    if noise is None or noise.is_noiseless:
        return Counter({"I" * (num_targets + 1): shots})
    circuit, data = build_fanout_circuit(num_targets)
    job = Job(
        circuit=circuit,
        shots=shots,
        seed=int(np.random.default_rng(seed).integers(2**63)),
        noise=noise,
        frame_qubits=tuple(data),
        mode="frames",
        batch_size=batch_size,
    )
    return Counter(engine.run(job).counts)


def fanout_error_distribution(
    p: float,
    num_targets: int,
    *,
    shots: int = 100_000,
    seed: int | None = None,
    engine: Engine | None = None,
) -> FanoutErrorReport:
    """Sample the effective Pauli error distribution of the noisy Fanout.

    With an ``engine`` the sampling runs as a frames-mode job (the path
    ``Experiment.fanout_errors`` takes); without one it falls back to the
    direct Pauli-frame loop.
    """
    noise = NoiseModel.from_base(p)
    if engine is not None:
        counts = sample_fanout_error_counts(
            num_targets, noise, shots=shots, seed=seed, engine=engine
        )
    else:
        circuit, data = build_fanout_circuit(num_targets)
        simulator = PauliFrameSimulator(circuit, noise, seed=seed)
        counts = simulator.sample_error_distribution(data, shots)
    return FanoutErrorReport(
        p=p, num_targets=num_targets, shots=shots, counts=counts, seed=seed
    )
