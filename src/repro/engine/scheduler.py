"""Batch planning, dispatch policy and submission over a worker pool.

The scheduler plans, decides and submits: it splits a job's shot budget
into fixed-size batches (the size comes from the job spec, not the pool),
decides per job whether those batches run inline or fan out
(:meth:`Scheduler.decide`, the one dispatch policy), and submits pooled
batches as ``concurrent.futures`` futures.  Collecting them — cancel,
miss-retry, failure drain and the in-order reduce — is the engine's one
pipeline loop.  Each batch derives its RNG substream from
``(job.seed, batch.index)`` alone and results are reduced in batch-index
order, so the outcome is bit-identical whether the batches run serially,
on 4 threads, or on 16 processes.

``executor`` picks the pool flavour:

* ``"serial"``  — run batches inline on the calling thread (no pool);
* ``"thread"``  — :class:`~concurrent.futures.ThreadPoolExecutor` (default;
  cheap to spin up, shares the circuit objects);
* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor` (true
  CPU parallelism; jobs and batches are picklable by construction);
* ``"auto"``    — a process pool whose use is gated per job by the
  :class:`~repro.engine.costmodel.CostModel`: jobs too small to amortize
  one IPC round trip run inline, everything else fans out.

Process pools dispatch **batch groups** (several batches of one job per
worker call, reduced worker-side — see
:func:`~repro.engine.runners.execute_batch_group`) under the warm-worker
protocol: a job's full payload and its parent-compiled program ship with
the first ``workers`` groups; later groups carry only the job's content
hash and ride the worker-resident caches.  A worker that never saw the
payload raises ``WorkerJobMiss`` and the engine resubmits the group with
the payload attached.  A group also runs as one shot-branching kernel
call, so its batches share history rows.  Thread pools still keep the
historical one-future-per-batch shape: nothing is pickled there, but
grouping them (and inline jobs) would share rows the same way and is not
done yet.

:meth:`Scheduler.cancel_and_drain` is where the pool-stays-reusable
invariant lives: after a failure or a cancel, every not-yet-started batch
is cancelled and the still-running ones are drained before the error
propagates.
"""

from __future__ import annotations

import logging
import math
import pickle
import threading
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

from ..obs.runtime import NOOP
from ..sim.batched_stabilizer import (
    FrameProgram,
    frame_fault_profile,
    get_frame_program,
    get_stabilizer,
)
from ..sim.compile import get_capabilities, get_compiled
from .costmodel import CostModel, DispatchPlan
from .job import Job
from .runners import (
    Batch,
    BatchStats,
    _init_pool_worker,
    _warm_worker,
    execute_batch,
    execute_batch_group,
)

__all__ = ["Scheduler"]

_EXECUTORS = ("serial", "thread", "process", "auto")

#: Executor kinds backed by a ProcessPoolExecutor (group dispatch applies).
_PROCESS_KINDS = ("process", "auto")

_log = logging.getLogger("repro.engine.scheduler")


class Scheduler:
    """Plans a job into batches and dispatches them to a worker pool.

    ``obs`` is the engine-propagated observability bundle (default: the
    shared no-op).  With tracing enabled, :meth:`submit` ships a batch
    context to the worker and :meth:`run_batch` adopts the inline
    worker-side spans, so per-batch queue wait and compile/execute time
    land in the parent trace.

    ``cost_model`` owns the dispatch policy (inline vs pooled, batch-group
    sizing); pass a custom :class:`~repro.engine.costmodel.CostModel` to
    re-tune it without touching the deterministic batch partition.
    """

    def __init__(
        self,
        workers: int = 1,
        executor: str = "thread",
        cost_model: CostModel | None = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}")
        self.workers = workers
        self.executor_kind = executor
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.obs = NOOP
        self._pool: Executor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def pooled(self) -> bool:
        """Whether this scheduler dispatches batches to a real pool."""
        return self.workers > 1 and self.executor_kind != "serial"

    @property
    def process_pooled(self) -> bool:
        """Whether the pool crosses a process (pickle/IPC) boundary."""
        return self.workers > 1 and self.executor_kind in _PROCESS_KINDS

    def plan(self, job: Job) -> list[Batch]:
        """Deterministic batch partition of the job's shot budget."""
        if job.mode == "exact":
            return [Batch(index=0, shots=job.shots)]
        size = job.resolved_batch_size()
        num_batches = max(1, math.ceil(job.shots / size))
        batches = []
        remaining = job.shots
        for index in range(num_batches):
            take = min(size, remaining)
            batches.append(Batch(index=index, shots=take))
            remaining -= take
        return batches

    # ------------------------------------------------------------------
    # Dispatch policy
    # ------------------------------------------------------------------
    def estimate_job_seconds(self, job: Job, backend: str) -> float:
        """The cost model's serial-runtime estimate for one job."""
        caps = get_capabilities(job.circuit)
        noise = job.noise
        sites = caps.num_measurements
        if noise is not None and not noise.is_noiseless:
            if noise.has_gate_noise:
                sites += sum(1 for op in job.circuit.instructions if op.is_gate)
            if noise.has_link_noise:
                sites += caps.num_link_events
        groups, faults = 0, 0.0
        if backend == "pauliframe" and noise is not None:
            groups, faults = frame_fault_profile(job.circuit, noise)
        return self.cost_model.estimate_job_seconds(
            shots=job.shots,
            num_qubits=caps.num_qubits,
            num_instructions=len(job.circuit.instructions),
            stochastic_sites=sites,
            backend=backend,
            site_groups=groups,
            faults_per_shot=faults,
        )

    def decide(self, job: Job, backend: str, num_batches: int) -> DispatchPlan:
        """How this job's batches should be dispatched.

        Exact-distribution jobs and serial schedulers always run inline.
        Thread pools keep the historical one-future-per-batch fan-out,
        so they forgo the kernel-row sharing a batch group gets.
        Process pools ship batch groups sized by the cost model; with
        ``executor="auto"`` the cost model may also veto pooling entirely
        (a job smaller than its own dispatch overhead stays on the calling
        thread), while an explicit ``"process"`` executor is honored
        regardless of the estimate.
        """
        if not self.pooled or num_batches <= 1 or backend == "density":
            return DispatchPlan(pooled=False, reason="inline executor")
        if self.executor_kind == "thread":
            return DispatchPlan(
                pooled=True, per_batch=True, reason="thread pool: per-batch"
            )
        estimate = self.estimate_job_seconds(job, backend)
        plan = self.cost_model.plan(estimate, num_batches, self.workers)
        if not plan.pooled and self.executor_kind == "process":
            return DispatchPlan(
                pooled=True,
                num_groups=self.cost_model.group_count(
                    estimate, num_batches, self.workers
                ),
                estimated_seconds=estimate,
                reason="explicit process executor",
            )
        return plan

    # ------------------------------------------------------------------
    # Submission primitives
    # ------------------------------------------------------------------
    def submit(
        self,
        job: Job,
        batch: Batch,
        backend: str,
        trace: dict | None = None,
        frames: FrameProgram | None = None,
    ) -> Future:
        """Submit one batch to the pool (the cross-job pipeline's primitive).

        ``trace`` is an optional picklable batch context shipped to the
        worker; when None (tracing disabled) the submission is exactly the
        historical three-argument call.  ``frames`` is the job's resolved
        program from :meth:`frames_for`, passed on only when set.
        """
        extra = {} if frames is None else {"frames": frames}
        if trace is None:
            return self._ensure_pool().submit(execute_batch, job, batch, backend, **extra)
        return self._ensure_pool().submit(
            execute_batch, job, batch, backend, trace, **extra
        )

    def submit_group(
        self,
        job: Job,
        job_key: str,
        group: tuple[Batch, ...],
        backend: str,
        trace: dict | None = None,
        program=None,
        ship_job: bool = True,
    ) -> Future:
        """Submit one batch group under the warm-worker protocol.

        ``ship_job=False`` sends the content hash only (the payload rode a
        previous group); the receiving worker raises ``WorkerJobMiss`` if
        it holds no copy, and the caller resubmits with ``ship_job=True``.
        """
        payload = job if ship_job else None
        metrics = self.obs.metrics
        if metrics.enabled:
            try:
                size = len(
                    pickle.dumps(
                        (payload, job_key, group, backend, trace, program),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                )
                metrics.counter(
                    "engine.ipc_bytes", payload="full" if ship_job else "key"
                ).inc(size)
            except Exception:  # pragma: no cover - metrics never block dispatch
                pass
        return self._ensure_pool().submit(
            execute_batch_group, payload, job_key, group, backend, trace, program
        )

    def note_group(self, stats) -> None:
        """Surface one dispatch's warm-cache telemetry.

        No-op for plain :class:`~repro.engine.runners.BatchStats`; for
        group stats it feeds the ``engine.worker_compile`` hit/miss
        counters and the ``engine.worker_job`` payload counters the tests
        and the run report read.
        """
        hits = getattr(stats, "compile_hits", None)
        if hits is None:
            return
        metrics = self.obs.metrics
        if hits:
            metrics.counter("engine.worker_compile", outcome="hit").inc(hits)
        if stats.compile_misses:
            metrics.counter("engine.worker_compile", outcome="miss").inc(
                stats.compile_misses
            )
        metrics.counter(
            "engine.worker_job", payload="full" if stats.job_shipped else "key"
        ).inc()

    def prewarm(self) -> list[int]:
        """Spin up every pool worker ahead of the first real submission.

        Returns the distinct worker PIDs that answered (empty for serial
        and thread executors, where there is nothing to warm).  Calling
        this outside a timed region keeps process-start cost out of
        throughput measurements; it is never required for correctness.
        """
        if not self.process_pooled:
            return []
        pool = self._ensure_pool()
        futures = [pool.submit(_warm_worker) for _ in range(self.workers)]
        return sorted({future.result() for future in futures})

    def compiled_for(self, job: Job, backend: str):
        """The parent-side compiled program to prime workers with (or None).

        The vectorized statevector backend ships its
        :class:`~repro.sim.compile.CompiledProgram` and the batched
        stabilizer backend its
        :class:`~repro.sim.batched_stabilizer.StabilizerProgram` (which
        embeds the one-time reference tableau pass — the expensive part).
        The parent's caches make repeat calls free, so shipping costs one
        compile per distinct circuit across the whole run.
        """
        if backend == "stabilizer":
            return get_stabilizer(job.circuit)
        if backend != "statevector":
            return None
        noise = job.noise
        live = noise is not None and not noise.is_noiseless
        return get_compiled(
            job.circuit,
            gate_noise=live and noise.has_gate_noise,
            link_noise=live and noise.has_link_noise,
        )

    def frames_for(self, job: Job, backend: str) -> FrameProgram | None:
        """A ``pauliframe`` job's compiled program (else None), resolved
        once so its inline or thread-pool batches skip the per-batch
        lookup, which digests the whole circuit."""
        if backend != "pauliframe":
            return None
        return get_frame_program(job.circuit, job.noise, job.frame_qubits)

    def run_batch(
        self,
        job: Job,
        batch: Batch,
        backend: str,
        trace_parent: str | None = None,
        frames: FrameProgram | None = None,
    ) -> BatchStats:
        """Run one batch inline on the calling thread (no pool round trip).

        With tracing off and no ``frames`` this is exactly the historical
        three-argument ``execute_batch`` call, so this module's global is
        the one place tests patch batch execution; with tracing on, the
        worker-side spans are adopted under ``trace_parent``.
        """
        extra = {} if frames is None else {"frames": frames}
        tracer = self.obs.tracer
        if not tracer.enabled:
            return execute_batch(job, batch, backend, **extra)
        ctx = tracer.batch_context(trace_parent)
        stats = execute_batch(job, batch, backend, trace=ctx, **extra)
        tracer.adopt(stats.spans, parent_id=trace_parent)
        return stats

    @staticmethod
    def cancel_and_drain(futures) -> None:
        """Cancel what hasn't started and wait out what has.

        The one place the pool-stays-reusable invariant lives: after this
        returns, no batch of the submission is queued or running, so the
        pool can take new work and the caller can safely report the first
        failure.
        """
        futures = list(futures)
        cancelled = 0
        for future in futures:
            if future.cancel():
                cancelled += 1
        if futures and _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "cancel-and-drain: %d futures (%d cancelled, %d draining)",
                len(futures),
                cancelled,
                len(futures) - cancelled,
            )
        wait([future for future in futures if not future.cancelled()])

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        # Guarded: concurrent engine calls (the multi-tenant service) must
        # never race two pools into existence and leak one.
        with self._pool_lock:
            if self._pool is None:
                if self.executor_kind in _PROCESS_KINDS:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers, initializer=_init_pool_worker
                    )
                else:
                    self._pool = ThreadPoolExecutor(max_workers=self.workers)
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
