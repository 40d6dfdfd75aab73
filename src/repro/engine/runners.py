"""Per-backend batch executors and the engine's one execution entry.

A *batch* is the unit of the RNG partition: ``shots`` trajectories of one
job driven by an RNG derived solely from ``(job.seed, batch.index)``.  A
*batch group* — a contiguous run of one job's batches — is the unit of
dispatch: :func:`execute_batch_group` runs a group and folds it into one
:class:`BatchStats`, whether it runs inline, on a pool thread or in a
pool process.  Because no substream depends on which group, worker or
process runs its batch, and every fold is an exact Counter/±1 sum reduced
in index order, the engine's results are bit-identical for any worker
count, executor kind and grouping.

The default ``statevector`` backend executes **compiled programs** through
the shot-branching kernel (:mod:`repro.sim.batched`): the circuit is
lowered once per process (:mod:`repro.sim.compile`, cached by content
digest), stochastic input ensembles are sampled in one vectorized draw and
grouped by component, and the kernel holds one statevector row per
distinct history rather than per shot.  A group's batches go to the kernel
together, so they share rows.  ``statevector-ref`` keeps the historical
per-shot interpreter loop for cross-validation.

Tracing: when the scheduler ships a batch context (a small picklable dict
from :meth:`repro.obs.Tracer.batch_context`), the group measures its own
side — queue wait (context submit time → worker start), compile, and
execute — as plain span records returned in ``BatchStats.spans``.  The
parent tracer adopts them, so one trace covers both sides of the pool
boundary and the pickle/IPC gap (parent-observed latency minus queue wait
minus worker time) is directly measurable.  With tracing disabled the
context is None and no span is built.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from threading import Lock

import numpy as np

from ..circuits import Circuit
from ..obs.trace import span_record
from ..sim.batched import Segment, run_segments
from ..sim.compile import compile_cache_stats, get_compiled, prime_compiled
from ..sim.pauliframe import frame_cache_stats, get_frame_program, tally_error_counts
from ..sim.statevector import StatevectorSimulator
from ..utils.states import assemble_initial_state
from .job import Job

__all__ = [
    "Batch",
    "BatchExecutionError",
    "BatchStats",
    "WorkerJobMiss",
    "batch_rng",
    "execute_batch_group",
    "worker_cache_info",
]


@dataclass(frozen=True)
class Batch:
    """One slice of a job's shot budget."""

    index: int
    shots: int


class BatchExecutionError(RuntimeError):
    """A batch group died inside the worker pool.

    The engine's pipeline raises this in place of the worker's original
    exception (kept as ``__cause__``) so the failure names the job and
    the group's first ``batch_index`` (the exact RNG substream when the
    group is one batch).  By the time it propagates, every outstanding
    future of the submission has been cancelled and the still-running
    ones drained, so the pool is quiet and reusable.  ``job_index`` is ``None`` when the
    failure came from a single-job submission.
    """

    def __init__(
        self,
        message: str,
        job_index: int | None = None,
        batch_index: int | None = None,
    ):
        super().__init__(message)
        self.job_index = job_index
        self.batch_index = batch_index

    def __reduce__(self):
        # Positional re-construction keeps the error picklable across
        # process-pool boundaries.
        return (type(self), (self.args[0], self.job_index, self.batch_index))


class WorkerJobMiss(RuntimeError):
    """A key-only batch group arrived at a worker without that job cached.

    The warm-worker protocol ships a job's full payload with its first
    few groups and only the content hash afterwards; a worker that saw
    none of the full payloads raises this, and the dispatcher resubmits
    the group with the job attached.  Never user-visible.
    """

    def __init__(self, job_key: str):
        super().__init__(f"worker holds no cached job {job_key[:16]}")
        self.job_key = job_key

    def __reduce__(self):
        return (type(self), (self.job_key,))


@dataclass
class BatchStats:
    """Order-independent aggregates of one batch group.

    A group is a contiguous run of one job's batches, executed by one
    :func:`execute_batch_group` call and folded where it ran.  Counts are
    a ``Counter`` sum and parity totals are exact sums of ±1, so folding
    a group can never change the bits the parent's index-ordered
    reduction produces.  Only this object (a few hundred bytes) crosses a
    process boundary.

    ``spans`` carries the worker-side span records (plain picklable
    dicts) when the group ran under a trace context; the parent tracer
    adopts them into its trace.  It is None on untraced runs and never
    affects the statistical aggregates.

    ``row_ops`` / ``shot_ops`` are the dense kernel's row census: history
    rows held summed over ops, against shots times ops (zero on other
    backends), and ``tally_time`` the part of ``execute_time`` the
    dense or frames outcome tally took.  ``compile_hits`` / ``compile_misses``
    snapshot the process's compile cache across the group; ``job_shipped`` /
    ``program_primed`` record whether a process-pool dispatch paid the
    full-payload and compile costs or rode the warm caches.
    """

    indices: tuple[int, ...]
    shots: int
    counts: Counter = field(default_factory=Counter)
    parity_total: float = 0.0
    parity_total_sq: float = 0.0
    compile_time: float = 0.0
    execute_time: float = 0.0
    tally_time: float = 0.0
    spans: list[dict] | None = None
    row_ops: int = 0
    shot_ops: int = 0
    compile_hits: int = 0
    compile_misses: int = 0
    job_shipped: bool = False
    program_primed: bool = False

    @property
    def index(self) -> int:
        """The group's first batch index (its reduction sort key)."""
        return self.indices[0]


def batch_rng(seed: int, index: int) -> np.random.Generator:
    """The deterministic RNG substream of batch ``index`` of a job."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def _sample_initial_state(job: Job, rng: np.random.Generator) -> np.ndarray | None:
    """Draw one shot's initial state (None means |0...0>)."""
    if not job.ensembles:
        return job.initial_state
    placements = {}
    for ens in job.ensembles:
        if ens.is_deterministic:
            index = 0
        else:
            index = int(rng.choice(len(ens.weights), p=ens.weights))
        placements[ens.qubits] = ens.vector(index)
    return assemble_initial_state(job.circuit.num_qubits, placements)


def _parity(clbits: list[int], readout: tuple[int, ...]) -> int:
    acc = 0
    for c in readout:
        acc ^= clbits[c] & 1
    return acc


def _worker_spans(
    index: int,
    shots: int,
    backend: str,
    trace: dict,
    stats,
    start_unix: float,
    total: float,
    batches: int,
) -> list[dict]:
    """The worker-side view of one batch group as span records.

    The root ``worker.batch`` record is left parent-less — the adopting
    tracer re-parents it under its parent-side batch span — covers all
    the group's batches, and carries the measured queue wait (submit →
    worker start, comparable because both sides stamp the same machine's
    wall clock).
    """
    queue_wait = max(start_unix - trace.get("submit_unix", start_unix), 0.0)
    root = span_record(
        "worker.batch",
        start_unix,
        total,
        attrs={
            "batch_index": index,
            "shots": shots,
            "batches": batches,
            "backend": backend,
            "queue_wait": queue_wait,
            "row_ops": stats.row_ops,
            "shot_ops": stats.shot_ops,
        },
    )
    records = [root]
    cursor = start_unix
    if stats.compile_time > 0.0:
        records.append(
            span_record(
                "worker.compile", cursor, stats.compile_time, parent_id=root["span_id"]
            )
        )
        cursor += stats.compile_time
    records.append(
        span_record(
            "worker.execute", cursor, stats.execute_time, parent_id=root["span_id"],
            attrs={"tally_time": stats.tally_time},
        )
    )
    return records


def _accumulate(stats: BatchStats, clbits: list[int], job: Job) -> None:
    stats.counts["".join(str(b) for b in clbits)] += 1
    if job.readout:
        value = 1.0 - 2.0 * _parity(clbits, job.readout)
        stats.parity_total += value
        stats.parity_total_sq += value * value


# ----------------------------------------------------------------------
# Vectorized statevector backend (compiled programs + batch kernel)
# ----------------------------------------------------------------------
def _accumulate_matrix(stats: BatchStats, clbits: np.ndarray, job: Job, sizes=None) -> None:
    """Fold a (shots, num_clbits) outcome matrix into the batch aggregates.

    Parity values are ±1, so the float sums are exact integers and the
    totals do not depend on accumulation order — regrouping shots (by
    ensemble component, by chunk) never changes the bits.

    Counting keys each row as a big-endian integer, clbit 0 most
    significant, in as many 16-bit words as the register needs (16 bits,
    so the stable sort is numpy's radix sort): the rows are sorted by
    their words (``np.lexsort``, stable, first word primary), so the
    distinct outcomes come out in the order of their bit-string labels,
    each first at the row where it first occurs, and each label is
    decoded once.  ``sizes`` splits the rows into consecutive segments
    that are reduced in this one pass: labels enter ``stats.counts`` in
    the order one fold per segment would insert them, by the first
    segment that holds them, then by label.
    """
    shots, ncols = clbits.shape
    if ncols:
        keys = np.empty((-(-ncols // 16), shots), dtype=np.uint16)
        for word, lo in enumerate(range(0, ncols, 16)):
            bits = clbits[:, lo : lo + 16]
            weights = np.uint16(1) << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.uint16)
            keys[word] = bits @ weights
        order = np.lexsort(keys[::-1])
        ordered = keys[:, order]
        new_key = np.ones(shots, dtype=bool)
        new_key[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        starts = np.flatnonzero(new_key)
        first = order[starts]
        row_counts = np.diff(np.append(starts, shots))
        if sizes is not None and len(sizes) > 1:
            by_segment = np.argsort(np.searchsorted(np.cumsum(sizes), first, "right"), kind="stable")
            first, row_counts = first[by_segment], row_counts[by_segment]
        text = (clbits[first].astype(np.uint8) + np.uint8(48)).tobytes().decode("ascii")
        labels = [text[i : i + ncols] for i in range(0, len(text), ncols)]
        # Counter.update adds a mapping's counts in its order (one dict
        # update when the Counter is still empty).
        stats.counts.update(dict(zip(labels, row_counts.tolist())))
    else:
        stats.counts[""] += shots
    if job.readout:
        parity = np.zeros(shots, dtype=np.uint8)
        for c in job.readout:
            parity ^= clbits[:, c]
        values = 1.0 - 2.0 * parity.astype(np.float64)
        stats.parity_total += float(values.sum())
        stats.parity_total_sq += float(shots)


def _ensemble_groups(
    job: Job,
    shots: int,
    rng: np.random.Generator,
    inputs: dict | None = None,
) -> list[tuple[np.ndarray, int]]:
    """Sample every shot's input-ensemble components in one vectorized draw.

    Returns ``(initial_state, count)`` groups — shots sharing a component
    combination share one assembled input state, so the kernel evolves their
    common deterministic prefix once per group instead of once per shot.
    ``inputs`` maps component combinations to their assembled states
    across the batches of one group, so each distinct combination is
    assembled once; the states are read-only, shared by every segment
    that loads them.  When every ensemble is deterministic (pure inputs)
    the batch is one group on the one combination: nothing is drawn, as
    deterministic ensembles never touch ``rng``.
    """
    if all(ens.is_deterministic for ens in job.ensembles):
        unique, combo_counts = np.zeros((1, len(job.ensembles)), dtype=np.int64), [shots]
    else:
        draws = [
            np.zeros(shots, dtype=np.int64)
            if ens.is_deterministic
            else rng.choice(len(ens.weights), p=ens.weights, size=shots)
            for ens in job.ensembles
        ]
        unique, combo_counts = np.unique(np.stack(draws, axis=1), axis=0, return_counts=True)
    if inputs is None:
        inputs = {}
    groups = []
    for combo, count in zip(unique, combo_counts):
        key = combo.tobytes()
        state = inputs.get(key)
        if state is None:
            placements = {
                ens.qubits: ens.vector(int(component))
                for ens, component in zip(job.ensembles, combo)
            }
            state = assemble_initial_state(job.circuit.num_qubits, placements)
            state.flags.writeable = False
            inputs[key] = state
        groups.append((state, int(count)))
    return groups


def _statevector_batches(job: Job, batches, stats) -> None:
    """Run dense batches through the branching kernel and fold them into ``stats``.

    Each batch keeps its own substreams: ``kernel_rng`` drives its kernel
    draws and ``rng`` its input-ensemble draw.  All the batches go to the
    kernel at once, so shots of different batches share history rows, and
    the group's outcomes are tallied in one pass, timed as ``tally_time``.
    """
    noise = job.noise if job.noise is not None and not job.noise.is_noiseless else None
    compile_start = time.perf_counter()
    program = get_compiled(
        job.circuit,
        gate_noise=noise is not None and noise.has_gate_noise,
        link_noise=noise is not None and noise.has_link_noise,
    )
    stats.compile_time += time.perf_counter() - compile_start

    execute_start = time.perf_counter()
    segments = []
    inputs: dict = {}
    for batch in batches:
        rng = batch_rng(job.seed, batch.index)
        kernel_rng = np.random.default_rng(int(rng.integers(2**63)))
        if job.ensembles:
            segments.extend(
                Segment(kernel_rng, count, initial_state)
                for initial_state, count in _ensemble_groups(job, batch.shots, rng, inputs)
            )
        else:
            segments.append(Segment(kernel_rng, batch.shots, job.initial_state))
    result = run_segments(program, segments, noise=noise)
    tally_start = time.perf_counter()
    _accumulate_matrix(stats, result.clbits, job, [segment.shots for segment in segments])
    stats.tally_time += time.perf_counter() - tally_start
    stats.row_ops += result.row_ops
    stats.shot_ops += result.shot_ops
    stats.execute_time += time.perf_counter() - execute_start


# ----------------------------------------------------------------------
# Per-shot reference backend (cross-validation)
# ----------------------------------------------------------------------
def _statevector_ref_batches(job: Job, batches, stats: BatchStats) -> None:
    execute_start = time.perf_counter()
    for batch in batches:
        rng = batch_rng(job.seed, batch.index)
        simulator = StatevectorSimulator(seed=int(rng.integers(2**63)), noise=job.noise)
        for _ in range(batch.shots):
            init = _sample_initial_state(job, rng)
            result = simulator.run(job.circuit, initial_state=init)
            _accumulate(stats, result.clbits, job)
    stats.execute_time += time.perf_counter() - execute_start


def _pauliframe_batches(job: Job, batches, stats: BatchStats) -> None:
    """Frames mode: sample the job's compiled fault-effect table, looked
    up once (one circuit digest) for the whole group.

    Each batch draws its faults from its own ``kernel_rng``; the group's
    fired faults are then tallied in one pass over the shots they touch,
    timed as ``tally_time``.
    """
    compile_start = time.perf_counter()
    program = get_frame_program(job.circuit, job.noise, job.frame_qubits)
    stats.compile_time += time.perf_counter() - compile_start
    execute_start = time.perf_counter()
    segments = []
    for batch in batches:
        rng = batch_rng(job.seed, batch.index)
        segments.append((np.random.default_rng(int(rng.integers(2**63))), batch.shots))
    hits, rows = program.fire(segments)
    tally_start = time.perf_counter()
    stats.counts.update(
        tally_error_counts(program, hits, rows, [batch.shots for batch in batches])
    )
    stats.tally_time += time.perf_counter() - tally_start
    stats.execute_time += time.perf_counter() - execute_start


#: Each backend folds a whole group into one BatchStats.
_GROUP_RUNNERS = {
    "statevector": _statevector_batches,
    "statevector-ref": _statevector_ref_batches,
    "pauliframe": _pauliframe_batches,
}


# ----------------------------------------------------------------------
# Warm-worker batch groups (process pools)
# ----------------------------------------------------------------------
# A process-pool worker keeps the jobs it has executed so the dispatcher
# can ship a job's payload once per worker and send only the content hash
# afterwards.  The compiled-program cache in ``sim.compile`` is already
# per-process; this layer adds the *job* objects (circuit + noise + seed)
# that group dispatches reference by key.
_WORKER_JOBS: OrderedDict[str, Job] = OrderedDict()
_WORKER_JOBS_MAX = 32
_worker_jobs_lock = Lock()


def _remember_job(job_key: str, job: Job) -> None:
    with _worker_jobs_lock:
        _WORKER_JOBS[job_key] = job
        _WORKER_JOBS.move_to_end(job_key)
        while len(_WORKER_JOBS) > _WORKER_JOBS_MAX:
            _WORKER_JOBS.popitem(last=False)


def _recall_job(job_key: str) -> Job | None:
    with _worker_jobs_lock:
        job = _WORKER_JOBS.get(job_key)
        if job is not None:
            _WORKER_JOBS.move_to_end(job_key)
        return job


def _init_pool_worker() -> None:
    """Start a worker with empty warm caches.

    On fork-start platforms a worker would otherwise inherit the parent's
    job cache and silently skip the warm-up protocol the tests (and the
    cache-hit counters) observe.
    """
    with _worker_jobs_lock:
        _WORKER_JOBS.clear()


def _start_pool_worker() -> None:
    """Process-pool initializer: empty warm caches, and everything the
    worker inherited moved out of the garbage collector's reach.

    A forked worker holds every object its parent had tracked (~50k under
    the ``cold_family`` benchmark), and each full collection walked them
    all: 20-35 ms on 2 vCPUs, a stall of whatever group the worker was
    running.  Frozen (:func:`gc.freeze`), a full collection walks only
    the worker's own few thousand objects, in 1-4 ms.
    """
    _init_pool_worker()
    gc.freeze()


def _warm_worker() -> int:
    """Pool task that prewarms a worker; returns the worker's PID.

    It runs one tiny group through the statevector kernel, so the worker
    pays its first-call costs (the copy-on-write faults of a forked
    worker's first touch of the kernel's code and data, first
    allocations) here rather than in the first real group.  It leaves
    the job memo empty.
    """
    circuit = Circuit(1, 1)
    circuit.h(0)
    circuit.measure(0, 0)
    execute_batch_group(Job(circuit=circuit, shots=8, seed=0), (Batch(0, 8),), "statevector")
    return os.getpid()


def worker_cache_info() -> dict:
    """This process's warm-cache occupancy, for diagnostics and tests."""
    with _worker_jobs_lock:
        jobs = len(_WORKER_JOBS)
    return {
        "pid": os.getpid(),
        "jobs": jobs,
        "compile": compile_cache_stats(),
        "frames": frame_cache_stats(),
    }


def execute_batch_group(
    job: Job,
    batches: tuple[Batch, ...],
    backend: str,
    trace: dict | None = None,
) -> BatchStats:
    """Run a contiguous group of one job's batches and fold it locally.

    The engine's one execution entry: inline, thread-pool and
    process-pool groups all run here (a process worker through
    :func:`_warm_group`, which first resolves the job from the warm
    cache).  Every batch still consumes exactly its own
    ``(job.seed, batch.index)`` substream, and the fold is the
    order-insensitive Counter/±1-sum reduction, so grouping cannot change
    result bits.  A ``statevector`` group runs all its batches through the
    shot-branching kernel at once (each batch a segment with its own
    generators, packed into as few calls as
    :data:`~repro.sim.batched.MAX_CHUNK_AMPLITUDES` allows), so histories
    are shared across the group's batches; ``row_ops`` and ``shot_ops``
    on the returned stats show how much.  A ``pauliframe`` group draws
    every batch's fired faults from that batch's generator, then tallies
    the group in one pass over the shots they touch.  Either tally is
    timed as ``tally_time``.
    """
    runner = _GROUP_RUNNERS.get(backend)
    if runner is None:
        raise ValueError(f"unknown backend {backend!r}")
    compile_before = compile_cache_stats()
    start_unix = time.time()
    t0 = time.perf_counter()
    stats = BatchStats(
        indices=tuple(b.index for b in batches),
        shots=sum(b.shots for b in batches),
    )
    runner(job, batches, stats)
    total = time.perf_counter() - t0
    compile_after = compile_cache_stats()
    stats.compile_hits = compile_after["hits"] - compile_before["hits"]
    stats.compile_misses = compile_after["compiles"] - compile_before["compiles"]
    if trace is not None:
        stats.spans = _worker_spans(
            stats.index,
            stats.shots,
            backend,
            trace,
            stats,
            start_unix,
            total,
            batches=len(batches),
        )
    return stats


def _warm_group(
    job: Job | None,
    job_key: str,
    batches: tuple[Batch, ...],
    backend: str,
    trace: dict | None = None,
    program=None,
) -> BatchStats:
    """A process-pool worker's group: the warm-worker protocol around
    :func:`execute_batch_group`.

    ``job`` is the full payload on this worker's first sight of
    ``job_key`` (and is remembered), or ``None`` for a key-only dispatch
    that reuses the remembered payload — raising :class:`WorkerJobMiss`
    when this worker never saw it, so the parent can resubmit with the
    payload attached.  ``program`` optionally ships the parent's
    already-compiled program to prime this process's compile cache,
    saving the first compile per worker.
    """
    shipped = job is not None
    if shipped:
        _remember_job(job_key, job)
    else:
        job = _recall_job(job_key)
        if job is None:
            raise WorkerJobMiss(job_key)
    primed = program is not None and prime_compiled(job.circuit, program)
    stats = execute_batch_group(job, batches, backend, trace)
    stats.job_shipped = shipped
    stats.program_primed = primed
    return stats
