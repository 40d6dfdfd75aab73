"""The one Pauli-error sampler of Table 4, Fig 9a and the blackboxed
primitives of Fig 9b/9c: a noisy Clifford circuit as an engine frames job
(batched, cancellable, and served from the engine's cache on repeats)."""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..engine import Engine, Job, JobResult
from ..sim.noisemodel import NoiseModel

__all__ = ["sample_frame_counts"]


def sample_frame_counts(
    circuit: Circuit,
    data_qubits: Sequence[int],
    noise: NoiseModel | None,
    *,
    shots: int,
    seed: int | None,
    engine: Engine | None = None,
    batch_size: int | None = None,
) -> tuple[Counter, JobResult | None]:
    """Tally the bare Pauli labels of the error on ``data_qubits``.

    Returns the tally and the engine's :class:`~repro.engine.JobResult`
    (its backend, batches, times and cost-model prediction).  The job
    seed is drawn from ``seed`` (``None`` draws a fresh one), so equal
    arguments build one job hash.  A noiseless model short-circuits:
    every shot carries the identity error and no job runs (the result is
    None).  Without an ``engine`` the job runs on a private serial one.
    """
    if noise is None or noise.is_noiseless:
        return Counter({"I" * len(data_qubits): shots}), None
    job = Job(
        circuit=circuit,
        shots=shots,
        seed=int(np.random.default_rng(seed).integers(2**63)),
        noise=noise,
        frame_qubits=tuple(data_qubits),
        mode="frames",
        batch_size=batch_size,
    )
    with Engine.or_serial(engine) as runner:
        result = runner.run(job)
    return Counter(result.counts), result
