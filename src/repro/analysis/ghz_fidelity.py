"""GHZ preparation fidelity under circuit-level noise (paper Fig 9a, Sec 5.3).

Two interchangeable estimators of <GHZ| rho |GHZ> for the distributed
constant-depth preparation circuit:

* ``ghz_fidelity_frames`` — scalable Pauli-frame sampling: the prepared state
  is E|GHZ> for a sampled deviation Pauli E, and |<GHZ|E|GHZ>|^2 is 1 exactly
  when E commutes with every GHZ stabilizer (X^r and Z_i Z_{i+1}); the
  fidelity is the probability of that event.  (The GHZ stabilizer group has
  full rank, so its centralizer in the Pauli group is itself.)
* ``ghz_fidelity_density`` — exact density-matrix simulation for small r,
  used to validate the frame estimator.

The paper reports fidelity decreasing linearly in the party count r, with
steeper slope for larger two-qubit error rate p2q.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..core.ghz import distributed_ghz
from ..core.shape_memo import memoized_shape
from ..engine import Engine, JobResult
from ..network.program import DistributedProgram
from ..network.topology import line_topology
from ..sim.density import DensitySimulator
from ..sim.noisemodel import NoiseModel
from ..utils.fitting import LinearFit, linear_fit
from ..utils.linalg import partial_trace
from ..utils.states import ghz_state
from .frames import sample_frame_counts

__all__ = [
    "build_distributed_ghz_circuit",
    "commuting_shots",
    "ghz_label_commutes",
    "sample_ghz_fidelity_frames",
    "ghz_fidelity_frames",
    "ghz_fidelity_density",
    "ghz_fidelity_density_model",
    "GhzSweepResult",
    "ghz_fidelity_sweep",
]


def build_distributed_ghz_circuit(num_parties: int):
    """Distributed GHZ prep circuit; returns (circuit, member_qubits)."""
    names = [f"qpu{i}" for i in range(num_parties)]
    program = DistributedProgram(line_topology(names))
    plan = distributed_ghz(program, names, reset_ancillas=True)
    return program.build(name=f"ghz_{num_parties}"), list(plan.members)


def _frozen_ghz(num_parties: int):
    circuit, members = build_distributed_ghz_circuit(num_parties)
    return circuit.freeze(), tuple(members)


def ghz_label_commutes(label: str) -> bool:
    """Whether the Pauli error ``label`` leaves |GHZ_r> invariant up to sign.

    E commutes with all Z_i Z_{i+1} iff its X-pattern is uniform (every
    letter in {X, Y} or every letter in {I, Z}), and with X^r iff its
    Z-weight (the letters in {Z, Y}) is even.
    """
    x_weight = label.count("X") + label.count("Y")
    uniform_x = x_weight in (0, len(label))
    return uniform_x and (label.count("Z") + label.count("Y")) % 2 == 0


def commuting_shots(counts: Mapping[str, int]) -> int:
    """Shots of an error tally whose label passes :func:`ghz_label_commutes`.

    The same predicate, evaluated over the whole tally at once: the
    labels are rows of ASCII codes, an X part is an ``X`` or ``Y``
    (``code & 0xFE == 0x58``) and a Z part a ``Y`` or ``Z`` (``code -
    0x59 < 2``), and each row's weights are one matrix product.
    """
    if not counts:
        return 0
    labels = list(counts)
    codes = np.frombuffer("".join(labels).encode("ascii"), dtype=np.uint8)
    codes = codes.reshape(len(labels), -1)
    ones = np.ones(codes.shape[1], dtype=np.float32)
    x_weight = ((codes & 0xFE) == 0x58).astype(np.float32) @ ones
    z_weight = ((codes - np.uint8(0x59)) < 2).astype(np.float32) @ ones
    good = ((x_weight == 0) | (x_weight == codes.shape[1])) & (z_weight % 2 == 0)
    return int(np.fromiter(counts.values(), dtype=np.int64, count=len(labels))[good].sum())


def sample_ghz_fidelity_frames(
    num_parties: int,
    noise: NoiseModel | None,
    *,
    shots: int,
    seed: int | None,
    engine: Engine | None = None,
    batch_size: int | None = None,
) -> tuple[float, int, JobResult | None]:
    """Frame-sampled ``(fidelity, good_shot_count, job_result)`` of the
    noisy prep (the result is None when a noiseless model ran no job).

    This is the implementation behind ``Experiment.ghz_fidelity``: the
    error distribution runs as one frames-mode job
    (:func:`~repro.analysis.frames.sample_frame_counts`) and the
    commutation predicate is applied to the tally.  The frozen prep
    circuit comes from the shape memo, so repeated runs build it once.
    """
    circuit, members = memoized_shape(
        ("build_distributed_ghz_circuit", num_parties), lambda: _frozen_ghz(num_parties)
    )
    counts, result = sample_frame_counts(
        circuit,
        members,
        noise,
        shots=shots,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
    )
    good = commuting_shots(counts)
    return good / shots, good, result


def ghz_fidelity_frames(
    num_parties: int,
    p: float,
    *,
    shots: int = 20_000,
    seed: int | None = None,
    engine: Engine | None = None,
) -> float:
    """<GHZ|rho|GHZ> of the noisy prep at base rate ``p``, by frame sampling."""
    fidelity, _, _ = sample_ghz_fidelity_frames(
        num_parties, NoiseModel.from_base(p), shots=shots, seed=seed, engine=engine
    )
    return fidelity


def ghz_fidelity_density_model(num_parties: int, noise: NoiseModel | None) -> float:
    """Exact <GHZ|rho|GHZ> under an explicit noise model (small r only)."""
    circuit, members = build_distributed_ghz_circuit(num_parties)
    if circuit.num_qubits > 12:
        raise ValueError("density-matrix path limited to small circuits")
    simulator = DensitySimulator(noise=noise or NoiseModel.noiseless())
    rho = simulator.run(circuit).final_density()
    reduced = partial_trace(rho, members, circuit.num_qubits)
    target = ghz_state(num_parties)
    return float(np.real(np.vdot(target, reduced @ target)))


def ghz_fidelity_density(num_parties: int, p: float) -> float:
    """Exact <GHZ|rho|GHZ> via density-matrix simulation (small r only)."""
    return ghz_fidelity_density_model(num_parties, NoiseModel.from_base(p))


@dataclass
class GhzSweepResult:
    """Fig 9a data: fidelity vs party count, with the paper's linear fit."""

    p: float
    parties: list[int]
    fidelities: list[float]
    fit: LinearFit
    sweep: object | None = None
    """The underlying :class:`repro.api.SweepResult` (envelopes per point)."""


def ghz_fidelity_sweep(
    p: float,
    *,
    parties: list[int] | None = None,
    shots: int = 20_000,
    seed: int | None = None,
    engine: Engine | None = None,
) -> GhzSweepResult:
    """Sweep the party count at fixed noise, with linear fit (Fig 9a).

    Runs ``Experiment.ghz_fidelity(...).sweep(...)`` over the party
    counts (per-point seeds ``seed + r``, as before the API redesign) and
    overlays the paper's linear fit.  Note: every point now samples
    through the engine's batched frames path, so fidelities at a fixed
    seed differ from the pre-1.1 direct-loop numbers (statistically
    equivalent estimator, different RNG stream).
    """
    from ..api import Experiment

    parties = list(parties or [4, 6, 8, 10, 12])
    base_seed = seed
    sweep = Experiment.ghz_fidelity(
        parties[0], p, shots=shots, seed=0 if base_seed is None else base_seed
    ).sweep(
        over=("num_parties", "seed"),
        values=[
            (r, None if base_seed is None else base_seed + r) for r in parties
        ],
        engine=engine,
    )
    fidelities = [float(point.result.estimate) for point in sweep]
    return GhzSweepResult(
        p, parties, fidelities, linear_fit(parties, fidelities), sweep=sweep
    )
