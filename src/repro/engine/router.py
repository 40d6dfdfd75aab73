"""Backend auto-selection: the cheapest simulator that can honour a job.

Routing decisions consume the **compiled capability flags**
(:func:`repro.sim.compile.get_capabilities`) — Clifford-ness, frame
compatibility, measurement census — computed once per circuit and cached by
content digest, instead of re-scanning the instruction list per decision.

Routing rules, in order:

0. ``job.backend``       → explicit pin (after checking the backend can
   honour the job); ``statevector-ref`` selects the per-shot reference
   interpreter for cross-validating the vectorized kernel.
1. ``mode="exact"``   → :class:`DensitySimulator` — exact mixed-state
   evolution over the full branch ensemble was explicitly requested.
2. ``mode="frames"``  → ``pauliframe``, the compiled Pauli-frame sampler
   (:func:`~repro.sim.pauliframe.tally_error_counts`) — effective-Pauli-
   error sampling; requires a Clifford circuit (Pauli-only feedback) and a
   non-trivial Pauli noise model.
3. ``mode="sample"``:
   a. the batched **stabilizer** kernel when the circuit is Clifford with
      Pauli-only feedback, no conditioned measure/reset, and the input is
      the computational basis state — noiseless *or* noisy: every channel a
      :class:`NoiseModel` expresses (gate depolarizing, readout flips,
      hop-weighted link faults) is a Pauli channel the frame formalism
      absorbs.  Compile-once O(gates * n^2), then O(shots * n) per gate.
   b. the vectorized batched statevector kernel otherwise — it handles
      non-Clifford gates, arbitrary input states, stochastic input
      ensembles, circuit-level depolarizing noise, and the Clifford
      circuits the frame kernel cannot serve (conditioned collapse,
      non-Pauli feedback).
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
        if job.mode == "exact":
            return BackendChoice(
                "density", "exact mixed-state evolution requested"
            )
        capabilities = get_capabilities(job.circuit)
        if job.mode == "frames":
            if job.noise is None or job.noise.is_noiseless:
                raise ValueError("frames mode needs a non-trivial noise model")
            if not capabilities.is_frame_compatible:
                raise ValueError(
                    "frames mode needs a Clifford circuit with Pauli-only feedback"
                )
            return BackendChoice(
                "pauliframe", "Clifford circuit + Pauli noise: frame sampling"
            )
        noiseless = job.noise is None or job.noise.is_noiseless
        basis_input = job.initial_state is None and not job.ensembles
        if (
            basis_input
            and capabilities.is_frame_compatible
            and not capabilities.has_conditioned_collapse
        ):
            # NoiseModel is Pauli-only by construction, so *any* noise
            # configuration is stabilizer-compatible here.
            reason = (
                "Clifford circuit, basis input: batched stabilizer kernel"
                if noiseless
                else "Clifford circuit + Pauli/link noise: batched stabilizer kernel"
            )
            return BackendChoice("stabilizer", reason)
        return BackendChoice(
            "statevector", "general circuit/input/noise: vectorized batch kernel"
        )

    # ------------------------------------------------------------------
    def _check_pinned(self, job: Job) -> None:
        backend = job.backend
        if backend == "density":
            if job.mode != "exact":
                raise ValueError("the density backend requires mode='exact'")
            return
        if job.mode == "exact":
            raise ValueError("mode='exact' can only run on the density backend")
        if backend == "pauliframe":
            if job.mode != "frames":
                raise ValueError("the pauliframe backend requires mode='frames'")
            if job.noise is None or job.noise.is_noiseless:
                raise ValueError("frames mode needs a non-trivial noise model")
            if not get_capabilities(job.circuit).is_frame_compatible:
                raise ValueError(
                    "frames mode needs a Clifford circuit with Pauli-only feedback"
                )
            return
        if job.mode == "frames":
            raise ValueError("mode='frames' can only run on the pauliframe backend")
        if backend == "stabilizer":
            basis_input = job.initial_state is None and not job.ensembles
            capabilities = get_capabilities(job.circuit)
            if not (
                basis_input
                and capabilities.is_frame_compatible
                and not capabilities.has_conditioned_collapse
            ):
                raise ValueError(
                    "the stabilizer backend needs a Clifford circuit with "
                    "Pauli-only feedback, unconditioned collapse, and a "
                    "basis input"
                )
