"""Job and JobResult: the unit of work the execution engine schedules.

A :class:`Job` is a fully self-describing shot workload — circuit, shot
budget, noise model, seed, input-state specification, and readout — with a
stable content hash.  Two jobs with identical specs hash identically, and any
mutation of the circuit (gate name, qubit, parameter, condition), the shot
count, the seed, the noise rates, or the input states changes the hash.  The
hash keys the :mod:`result cache <repro.engine.cache>` and is safe to persist
across processes.

Stochastic inputs are described by :class:`Ensemble` entries: each names a
register and a convex mixture of pure states to load there, sampled freshly
per shot (the same trajectory unravelling of a mixed input that
``sample_pure_inputs`` performs one draw at a time).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence

import numpy as np

from ..circuits.circuit import Circuit, circuit_digest
from ..sim.noisemodel import NoiseModel

__all__ = ["DEFAULT_BATCH_SIZE", "Ensemble", "Job", "JobResult", "JOB_BACKENDS"]

#: Shots per scheduler batch when the job does not override it.  The batch
#: partition (not the worker count) defines the RNG substreams, so this value
#: is part of the job's content hash: results are bit-identical for any
#: worker count but change if the partition changes.
DEFAULT_BATCH_SIZE = 256

#: Job execution modes.
MODES = ("sample", "exact", "frames")

#: Backends a job may explicitly pin via ``Job.backend`` (``None`` = route
#: automatically).  ``statevector-ref`` is the per-shot reference
#: interpreter, kept for cross-validating the vectorized kernel;
#: ``stabilizer`` is the compile-once/sample-many batched frame kernel for
#: Clifford circuits under Pauli/link noise.
JOB_BACKENDS = (
    "tableau",
    "stabilizer",
    "pauliframe",
    "statevector",
    "statevector-ref",
    "density",
)


@dataclass(frozen=True)
class Ensemble:
    """A convex mixture of pure states loaded into one register per shot."""

    qubits: tuple[int, ...]
    weights: tuple[float, ...]
    vectors: tuple[bytes, ...] = field(repr=False)
    dim: int = 0

    @classmethod
    def from_states(
        cls, qubits: Sequence[int], pairs: Sequence[tuple[float, np.ndarray]]
    ) -> "Ensemble":
        """Build from (weight, statevector) pairs."""
        if not pairs:
            raise ValueError("ensemble needs at least one component")
        dim = int(np.asarray(pairs[0][1]).shape[0])
        vectors = []
        weights = []
        for w, v in pairs:
            v = np.ascontiguousarray(np.asarray(v, dtype=complex))
            if v.shape != (dim,):
                raise ValueError("ensemble vectors must share one dimension")
            weights.append(float(w))
            vectors.append(v.tobytes())
        total = sum(weights)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            weights = [w / total for w in weights]
        return cls(
            qubits=tuple(int(q) for q in qubits),
            weights=tuple(weights),
            vectors=tuple(vectors),
            dim=dim,
        )

    def vector(self, index: int) -> np.ndarray:
        """The index-th component statevector."""
        return np.frombuffer(self.vectors[index], dtype=complex)

    @property
    def is_deterministic(self) -> bool:
        """Whether the ensemble has a single component (no sampling needed)."""
        return len(self.weights) == 1


@dataclass
class Job:
    """One schedulable shot workload.

    ``mode`` selects the semantics:

    * ``"sample"`` — run ``shots`` stochastic trajectories, tally classical
      registers, and (if ``readout`` names clbits) the ±1 parity statistic.
    * ``"exact"``  — exact mixed-state evolution; shots are ignored and the
      full branch distribution is returned.
    * ``"frames"`` — sample effective Pauli errors of a noisy Clifford
      circuit on ``frame_qubits`` (the Table-4 workload).

    ``backend`` pins a specific simulator (one of :data:`JOB_BACKENDS`)
    instead of letting the router choose; it is part of the content hash
    because the RNG consumption — and therefore the sampled result — is
    backend-specific.
    """

    circuit: Circuit
    shots: int
    seed: int
    noise: NoiseModel | None = None
    initial_state: np.ndarray | None = None
    ensembles: tuple[Ensemble, ...] = ()
    readout: tuple[int, ...] = ()
    frame_qubits: tuple[int, ...] = ()
    mode: str = "sample"
    backend: str | None = None
    batch_size: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.backend is not None and self.backend not in JOB_BACKENDS:
            raise ValueError(f"backend must be one of {JOB_BACKENDS} (or None)")
        if self.mode != "exact" and self.shots < 1:
            raise ValueError("sampled jobs need at least one shot")
        if self.seed < 0:
            raise ValueError("job seed must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.mode == "frames" and not self.frame_qubits:
            raise ValueError("frames mode requires frame_qubits")
        if self.initial_state is not None and self.ensembles:
            raise ValueError("give either initial_state or ensembles, not both")
        self.readout = tuple(int(c) for c in self.readout)
        self.frame_qubits = tuple(int(q) for q in self.frame_qubits)

    def resolved_batch_size(self) -> int:
        """The batch size the scheduler (and the hash) actually uses."""
        return self.batch_size if self.batch_size is not None else DEFAULT_BATCH_SIZE

    # ------------------------------------------------------------------
    # Content hash
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Stable hex digest of everything that determines the result.

        The ``v5`` tag marks the protocol-family era: the distributed
        builders gained new family members (pairwise multi-state, single-
        ancilla n-state, N-party Hadamard) and a shared job-packaging path
        whose ensemble ordering is position-driven rather than party-
        driven, so cached bits persisted by the ``v4`` stabilizer-kernel
        pipeline (or the earlier ``v3``/``v2``/``v1`` eras) must never be
        served.
        """
        h = hashlib.sha256()
        h.update(b"repro-job-v5")
        h.update(_circuit_digest(self.circuit))
        if self.backend is not None:
            h.update(b"be" + self.backend.encode())
        h.update(
            struct.pack(
                ">qqqB",
                self.shots,
                self.seed,
                self.resolved_batch_size(),
                MODES.index(self.mode),
            )
        )
        if self.noise is None or self.noise.is_noiseless:
            h.update(b"noiseless")
        else:
            h.update(
                struct.pack(
                    ">ddddd",
                    self.noise.p1,
                    self.noise.p2,
                    self.noise.p_meas,
                    self.noise.p_link,
                    self.noise.p_swap,
                )
            )
            for override in self.noise.qpu_overrides:
                h.update(b"ovr" + override.qpu.encode())
                for rate in (override.p1, override.p2, override.p_meas):
                    h.update(b"N" if rate is None else struct.pack(">d", rate))
        h.update(b"ro" + ",".join(map(str, self.readout)).encode())
        h.update(b"fq" + ",".join(map(str, self.frame_qubits)).encode())
        if self.initial_state is not None:
            arr = np.ascontiguousarray(np.asarray(self.initial_state, dtype=complex))
            h.update(b"init" + str(arr.shape).encode() + arr.tobytes())
        for ens in self.ensembles:
            h.update(b"ens" + ",".join(map(str, ens.qubits)).encode())
            h.update(struct.pack(f">{len(ens.weights)}d", *ens.weights))
            for blob in ens.vectors:
                h.update(blob)
        return h.hexdigest()


#: Canonical circuit structure digest — shared with the compile cache so a
#: job's hash and its compiled program are keyed by the same bytes.
_circuit_digest = circuit_digest


@dataclass
class JobResult:
    """Aggregated outcome of one job."""

    job_hash: str
    backend: str
    shots: int
    num_batches: int
    counts: dict[str, int] | None = None
    probabilities: dict[str, float] | None = None
    parity_mean: float | None = None
    parity_stderr: float | None = None
    elapsed: float = 0.0
    compile_time: float = 0.0
    execute_time: float = 0.0
    from_cache: bool = False
    row_ops: int = 0
    """Dense-kernel history rows held, summed over ops (0 off the dense path)."""

    shot_ops: int = 0
    """Shots times ops of the dense kernel: ``row_ops / shot_ops`` is the
    share of per-shot work the shot-branching kernel actually did."""

    def cached_copy(self) -> "JobResult":
        """The same result, flagged as served from cache."""
        return replace(self, from_cache=True)

    # ------------------------------------------------------------------
    # Serialization (disk cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict."""
        return {
            "job_hash": self.job_hash,
            "backend": self.backend,
            "shots": self.shots,
            "num_batches": self.num_batches,
            "counts": self.counts,
            "probabilities": self.probabilities,
            "parity_mean": self.parity_mean,
            "parity_stderr": self.parity_stderr,
            "elapsed": self.elapsed,
            "compile_time": self.compile_time,
            "execute_time": self.execute_time,
            "row_ops": self.row_ops,
            "shot_ops": self.shot_ops,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            job_hash=payload["job_hash"],
            backend=payload["backend"],
            shots=int(payload["shots"]),
            num_batches=int(payload["num_batches"]),
            counts=dict(payload["counts"]) if payload.get("counts") else None,
            probabilities=(
                dict(payload["probabilities"]) if payload.get("probabilities") else None
            ),
            parity_mean=payload.get("parity_mean"),
            parity_stderr=payload.get("parity_stderr"),
            elapsed=float(payload.get("elapsed", 0.0)),
            compile_time=float(payload.get("compile_time", 0.0)),
            execute_time=float(payload.get("execute_time", 0.0)),
            row_ops=int(payload.get("row_ops", 0)),
            shot_ops=int(payload.get("shot_ops", 0)),
        )
