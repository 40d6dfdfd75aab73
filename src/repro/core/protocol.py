"""The protocol-family abstraction: one interface over every estimator.

COMPAS (Sec 3) is one point in a family of distributed overlap estimators
that all load user states into position registers, apply some controlled
permutation structure, and read a parity off a control register:

* the monolithic SWAP-test variants (:mod:`repro.core.swap_test`),
* COMPAS itself (:mod:`repro.core.compas`),
* the pairwise Multi-state Swap Test (:mod:`repro.core.multistate_swap`,
  arXiv:2205.07171),
* the single-circuit N-state test (:mod:`repro.core.nstate_swap`,
  arXiv:2110.13261),
* the N-Party Hadamard Test (:mod:`repro.core.nparty_hadamard`,
  arXiv:2411.10024).

:class:`ProtocolBuild` is the shared contract: a built
:class:`~repro.network.program.DistributedProgram` plus the metadata the
estimation pipeline needs (which user state loads where, which clbits
carry the parity, what the circuit consumed).  A build narrows, freezes
and lowers its circuit once (:meth:`ProtocolBuild.live`,
:meth:`ProtocolBuild.lowered`) however many jobs it packages.
:func:`protocol_job` packages any build as a content-hashed
:class:`~repro.engine.Job`, so
every family member runs through the unmodified Engine/Scheduler path —
cached, deterministic, and bit-identical at any worker count.

:data:`FAMILY` names the members the analysis layer can build and rank
(:func:`family_builds`); a member may expand to several circuits (the
multi-state Gram campaign builds one per pair).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.recycle import recycle_qubits
from ..engine import Ensemble, Job
from ..network.lowering import LoweredProgram, lower_program
from ..network.program import DistributedProgram, LocalityReport
from ..sim.compile import get_capabilities
from ..sim.noisemodel import NoiseModel

__all__ = ["LiveCircuit", "ProtocolBuild", "protocol_job", "FAMILY", "family_builds"]

#: Family members the analysis layer ranks (see :func:`family_builds`).
FAMILY = (
    "compas-teledata",
    "compas-telegate",
    "naive",
    "multistate",
    "nstate",
    "nparty",
)


@dataclass(frozen=True)
class LiveCircuit:
    """A build's circuit narrowed onto its live width and frozen.

    ``registers`` are the position registers' slots on the narrow
    circuit, and ``compiled`` is the shape summary every job of the build
    records under ``metadata["compiled"]``.
    """

    circuit: Circuit
    registers: tuple[tuple[int, ...], ...]
    compiled: dict


@dataclass
class ProtocolBuild:
    """One constructed overlap-estimator circuit plus its metadata.

    Every field has a default so subclasses may add defaulted fields of
    their own (dataclass inheritance); builders always construct by
    keyword.  ``position_registers`` need not have ``k`` entries — the
    pairwise multi-state circuit loads only two of the ``k`` user states
    per build, with ``user_of_position`` indexing into the full list.
    """

    program: DistributedProgram | None = None
    k: int = 0
    n: int = 0
    variant: str = ""
    ghz_qubits: tuple[int, ...] = ()
    position_registers: tuple[tuple[int, ...], ...] = ()
    user_of_position: tuple[int, ...] = ()
    basis: str | None = None
    readout_clbits: tuple[int, ...] = ()
    stage_depths: dict[str, int] = field(default_factory=dict)
    _live: LiveCircuit | None = field(default=None, init=False, repr=False, compare=False)
    _lowered: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def circuit_name(self) -> str:
        """Name of the flat circuit (subclasses keep their legacy names)."""
        return self.variant or "protocol"

    def circuit(self):
        """The flat circuit (build lazily so callers can inspect stages)."""
        return self.program.build(name=self.circuit_name())

    @property
    def ghz_width(self) -> int:
        """Width of the control register read out for the parity."""
        return len(self.ghz_qubits)

    @property
    def total_qubits(self) -> int:
        """All qubits including data, control, and ancillas."""
        return self.program.machine.num_qubits

    def locality(self) -> LocalityReport:
        """Audit that only Bell generation spans QPUs."""
        return self.program.audit_locality()

    def live(self) -> LiveCircuit:
        """The circuit on its live width, frozen; built on the first call.

        :func:`~repro.circuits.recycle_qubits` narrows the built circuit:
        reset ancillas hand their slots to later qubits, so every backend
        simulates fewer qubits with the same ops in the same order.  The
        capability flags come from the frozen circuit's one scan; nothing
        is compiled here, so every compile lands in the engine's
        compile-time accounting (pricing a dense job compiles it, and
        that time counts toward the job's ``compile_time``).
        """
        if self._live is None:
            allocated = self.circuit()
            circuit, registers = recycle_qubits(allocated, self.position_registers)
            capabilities = get_capabilities(circuit.freeze())
            self._live = LiveCircuit(
                circuit=circuit,
                registers=registers,
                compiled={
                    "allocated_width": allocated.num_qubits,
                    "live_width": circuit.num_qubits,
                    "instructions": len(circuit.instructions),
                    "num_measurements": capabilities.num_measurements,
                    "is_clifford": capabilities.is_clifford,
                    "is_frame_compatible": capabilities.is_frame_compatible,
                },
            )
        return self._live

    def lowered(self, bell_latency: float = 1.0) -> LoweredProgram:
        """The scheduled, QPU-attributed lowering (measured accounting),
        computed once per ``bell_latency``."""
        lowered = self._lowered.get(bell_latency)
        if lowered is None:
            lowered = self._lowered[bell_latency] = lower_program(
                self.program, bell_latency=bell_latency
            )
        return lowered

    def resources(self) -> dict:
        """Resource summary: Bell pairs, qubits, depth per stage."""
        return {
            "variant": self.variant,
            "k": self.k,
            "n": self.n,
            "ghz_width": self.ghz_width,
            "total_qubits": self.total_qubits,
            "max_qubits_per_qpu": self.program.machine.max_qubits_per_qpu(),
            "bell_pairs": self.program.ledger.summary(),
            "stage_depths": dict(self.stage_depths),
        }


def _eigen_ensembles(
    states: Sequence[np.ndarray],
) -> list[list[tuple[float, np.ndarray]]]:
    ensembles = []
    for rho in states:
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim == 1:
            ensembles.append([(1.0, rho)])
            continue
        weights, vectors = np.linalg.eigh(rho)
        ensemble = [
            (float(w), vectors[:, i])
            for i, w in enumerate(np.real(weights))
            if w > 1e-12
        ]
        ensembles.append(ensemble)
    return ensembles


def protocol_job(
    build: ProtocolBuild,
    states: Sequence[np.ndarray],
    shots: int,
    seed: int,
    noise: NoiseModel | None = None,
    batch_size: int | None = None,
    backend: str | None = None,
) -> Job:
    """Package a built (readout-carrying) protocol circuit as an engine job.

    The job runs the build's frozen live-width circuit
    (:meth:`ProtocolBuild.live`).  Each loaded position becomes a
    per-shot :class:`~repro.engine.Ensemble` over its user state's
    eigen-decomposition (pure states degenerate to a single component),
    placed on the position's slot.  The allocated and live widths and the
    circuit's capability flags are recorded in the job metadata.
    ``backend`` optionally pins a simulator (e.g. ``"statevector-ref"``
    for the per-shot reference path).
    """
    if build.basis is None:
        raise ValueError("build must include a readout basis")
    live = build.live()
    ensembles = []
    for position, register in enumerate(live.registers):
        state = states[build.user_of_position[position]]
        pairs = _eigen_ensembles([state])[0]
        ensembles.append(Ensemble.from_states(register, pairs))
    return Job(
        circuit=live.circuit,
        shots=shots,
        seed=seed,
        noise=noise,
        ensembles=tuple(ensembles),
        readout=build.readout_clbits,
        batch_size=batch_size,
        backend=backend,
        metadata={
            "variant": build.variant,
            "k": build.k,
            "n": build.n,
            "compiled": dict(live.compiled),
        },
    )


def family_builds(member: str, k: int, n: int, basis: str = "x", topology=None):
    """Build one family member's circuit(s) for analysis and accounting.

    Returns a list of builds — usually one; the pairwise multi-state
    campaign returns ``C(k, 2)`` (one circuit per unordered state pair),
    whose Bell events the caller aggregates.  Everything returned exposes
    ``.program`` (ledger, lowering), so the link-noise bounds and measured
    accounting treat every member identically.
    """
    if member not in FAMILY:
        raise ValueError(f"member must be one of {FAMILY}")
    if member in ("compas-teledata", "compas-telegate"):
        from .compas import build_compas

        design = member.split("-", 1)[1]
        return [build_compas(k, n, design=design, basis=basis, topology=topology)]
    if member == "naive":
        from .naive import build_naive_distribution

        return [build_naive_distribution(k, n, basis=basis, topology=topology)]
    if member == "multistate":
        from .multistate_swap import build_multistate_swap

        return [
            build_multistate_swap(k, n, pair=(i, j), basis="x", topology=topology)
            for i in range(k)
            for j in range(i + 1, k)
        ]
    if member == "nstate":
        from .nstate_swap import build_nstate_swap

        return [build_nstate_swap(k, n, basis=basis, topology=topology)]
    from .nparty_hadamard import build_nparty_hadamard

    return [build_nparty_hadamard(k, n, basis=basis, topology=topology)]
