"""Backend auto-selection: the cheapest simulator that can honour a job.

Routing decisions consume the **compiled capability flags**
(:func:`repro.sim.compile.get_capabilities`) — Clifford-ness, frame
compatibility, measurement census — computed once per circuit and cached by
content digest, instead of re-scanning the instruction list per decision.

Routing rules, in order:

0. ``job.backend``       → explicit pin (after checking the backend can
   honour the job); ``statevector-ref`` selects the per-shot reference
   interpreter for cross-validating the vectorized kernel.
1. ``mode="frames"``  → ``pauliframe``, the compiled Pauli-frame sampler
   (:func:`~repro.sim.pauliframe.tally_error_counts`) — effective-Pauli-
   error sampling; requires a Clifford circuit (Pauli-only feedback) and a
   non-trivial Pauli noise model.
2. ``mode="sample"``  → the vectorized batched statevector kernel, for
   every circuit: non-Clifford gates, arbitrary input states, stochastic
   input ensembles, circuit-level noise and Clifford circuits alike.
   Wide Clifford sampling belongs in frames mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.compile import get_capabilities
from .job import Job

__all__ = ["BackendChoice", "BackendRouter"]


@dataclass(frozen=True)
class BackendChoice:
    """A routing decision plus the rule that produced it."""

    name: str
    reason: str


class BackendRouter:
    """Pure routing policy: :meth:`select` maps a job to a backend."""

    def select(self, job: Job) -> BackendChoice:
        """Pick the cheapest simulator capable of executing ``job``."""
        if job.backend is not None:
            self._check_pinned(job)
            return BackendChoice(job.backend, "explicitly pinned by the job")
        if job.mode == "frames":
            self._check_frames(job)
            return BackendChoice(
                "pauliframe", "Clifford circuit + Pauli noise: frame sampling"
            )
        return BackendChoice(
            "statevector", "general circuit/input/noise: vectorized batch kernel"
        )

    # ------------------------------------------------------------------
    def _check_pinned(self, job: Job) -> None:
        if job.backend == "pauliframe":
            if job.mode != "frames":
                raise ValueError("the pauliframe backend requires mode='frames'")
            self._check_frames(job)
        elif job.mode == "frames":
            raise ValueError("mode='frames' can only run on the pauliframe backend")

    @staticmethod
    def _check_frames(job: Job) -> None:
        if job.noise is None or job.noise.is_noiseless:
            raise ValueError("frames mode needs a non-trivial noise model")
        if not get_capabilities(job.circuit).is_frame_compatible:
            raise ValueError(
                "frames mode needs a Clifford circuit with Pauli-only feedback"
            )
