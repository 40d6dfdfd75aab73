"""Batch planning, dispatch policy and submission over a worker pool.

The scheduler plans, decides and submits: it splits a job's shot budget
into fixed-size batches (the size comes from the job spec, not the pool),
decides per job how many contiguous **batch groups** those batches run
as and whether the groups run inline or on the pool
(:meth:`Scheduler.decide`, the one dispatch policy), and runs or submits
each group as one :func:`~repro.engine.runners.execute_batch_group`
call.  A group is one shot-branching kernel call, so its batches share
history rows.  Collecting pooled groups — cancel, miss-retry, failure
drain and the in-order reduce — is the engine's one pipeline loop.  Each
batch derives its RNG substream from ``(job.seed, batch.index)`` alone
and results are reduced in batch-index order, so the outcome is
bit-identical whether the groups run serially, on 4 threads, or on 16
processes.

``executor`` picks where groups run:

* ``"serial"``  — inline on the calling thread (no pool), with the
  cancel token checked between groups;
* ``"thread"``  — :class:`~concurrent.futures.ThreadPoolExecutor` (default;
  cheap to spin up; the job is passed directly and nothing is pickled);
* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor` (true
  CPU parallelism; jobs and batches are picklable by construction);
* ``"auto"``    — a process pool whose use is gated per job by the
  :class:`~repro.engine.costmodel.CostModel`: jobs too small to amortize
  one IPC round trip run inline, everything else fans out.

Process pools run groups under the warm-worker protocol: a job's full
payload and its parent-compiled program ship with the first ``workers``
groups; later groups carry only the job's content hash and ride the
worker-resident caches.  A worker that never saw the payload raises
``WorkerJobMiss`` and the engine resubmits the group with the payload
attached.

:meth:`Scheduler.cancel_and_drain` is where the pool-stays-reusable
invariant lives: after a failure or a cancel, every not-yet-started group
is cancelled and the still-running ones are drained before the error
propagates.
"""

from __future__ import annotations

import logging
import math
import pickle
import threading
import time
from collections.abc import Iterator
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import replace

from ..obs.runtime import NOOP
from ..sim.compile import get_compiled
from ..sim.pauliframe import frame_fault_profile
from .costmodel import CostModel, DispatchPlan
from .job import Job
from .runners import (
    Batch,
    BatchStats,
    _start_pool_worker,
    _warm_group,
    _warm_worker,
    execute_batch_group,
)

__all__ = ["Scheduler"]

_EXECUTORS = ("serial", "thread", "process", "auto")

#: Executor kinds backed by a ProcessPoolExecutor (the warm-worker protocol).
_PROCESS_KINDS = ("process", "auto")

_log = logging.getLogger("repro.engine.scheduler")


class Scheduler:
    """Plans a job into batches and dispatches them to a worker pool.

    ``obs`` is the engine-propagated observability bundle (default: the
    shared no-op).  With tracing enabled, :meth:`submit_groups` ships a
    batch context to the worker and :meth:`run_group` adopts the inline
    worker-side spans, so per-group queue wait and compile/execute time
    land in the parent trace.

    ``cost_model`` owns the dispatch policy (inline vs pooled, group
    count); pass a custom :class:`~repro.engine.costmodel.CostModel` to
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
        """Whether this scheduler dispatches groups to a real pool."""
        return self.workers > 1 and self.executor_kind != "serial"

    @property
    def process_pooled(self) -> bool:
        """Whether the pool crosses a process (pickle/IPC) boundary."""
        return self.workers > 1 and self.executor_kind in _PROCESS_KINDS

    def plan(self, job: Job) -> list[Batch]:
        """Deterministic batch partition of the job's shot budget."""
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
        """The cost model's serial-runtime estimate for one job.

        A dense ``statevector`` job is priced by its compiled program's
        expected history rows (:meth:`CostModel.dense_seconds`), a
        ``pauliframe`` job by its frame program's fault profile.
        """
        return self._price(job, backend)[0]

    def _price(self, job: Job, backend: str, shots: int | None = None) -> tuple[float, float]:
        """``(estimate, compile seconds)`` of ``job``, or of a group of
        its first ``shots`` shots: pricing a dense job compiles it (a
        cache hit after the first), and that time is the job's."""
        shots = job.shots if shots is None else shots
        if backend == "statevector":
            start = time.perf_counter()
            program = self._dense_program(job)
            compile_time = time.perf_counter() - start
            noise = job.noise if job.noise is not None and not job.noise.is_noiseless else None
            estimate = self.cost_model.dense_seconds(
                program,
                shots,
                job.resolved_batch_size(),
                combos=math.prod(len(ens.weights) for ens in job.ensembles),
                noise=noise,
            )
            return estimate, compile_time
        groups, faults = 0, 0.0
        if backend == "pauliframe" and job.noise is not None:
            groups, faults = frame_fault_profile(job.circuit, job.noise)
        estimate = self.cost_model.estimate_job_seconds(
            shots=shots,
            num_instructions=len(job.circuit.instructions),
            backend=backend,
            site_groups=groups,
            faults_per_shot=faults,
        )
        return estimate, 0.0

    def decide(
        self, job: Job, backend: str, num_batches: int, jobs: int = 1
    ) -> DispatchPlan:
        """How many groups this job's batches run as, and where.

        A one-batch job is one group, inline when it is the submission's
        only job or there is no pool (its plan still carries the
        estimate); beside other jobs it is pooled like any job, so two
        one-batch jobs run side by side.  Otherwise the cost model sizes the groups:
        serial schedulers run them inline; ``executor="auto"`` lets the
        model also veto pooling (a job smaller than its own dispatch
        overhead stays on the calling thread); an explicit ``"thread"``
        or ``"process"`` executor is honored regardless of the estimate.

        ``jobs`` is how many jobs the same submission puts on the pool.
        Those jobs already run side by side, so a pooled job's groups
        only need to cover its share of the workers: a lone job splits
        across all of them, while in a sweep of at least ``workers`` jobs
        each job is sized as if it had one worker, keeping its batches
        in few groups that share kernel rows.  A job whose split does not
        shorten it (:meth:`CostModel.group_count`) is also sized as on
        one worker; under ``"auto"`` such a lone job stays inline.

        A dense job's pricing compile is timed into the plan's
        ``compile_time``, which the engine adds to the job's.
        """
        estimate, compile_time = self._price(job, backend)
        if num_batches <= 1 and (jobs <= 1 or not self.pooled):
            return DispatchPlan(
                pooled=False,
                estimated_seconds=estimate,
                compile_time=compile_time,
                reason="one batch",
            )
        workers = self.workers if self.pooled else 1
        plan = replace(
            self.cost_model.plan(estimate, num_batches, workers), compile_time=compile_time
        )
        if not plan.pooled and (not self.pooled or self.executor_kind == "auto"):
            return plan
        # Pooled by the model, or by an explicit pool, which runs even a
        # job the model would keep inline.
        share = -(-workers // max(jobs, 1))
        split = None
        if share > 1 and num_batches > 1:
            shots = -(-num_batches // share) * job.resolved_batch_size()
            split = self._price(job, backend, min(shots, job.shots))[0]
        num_groups = self.cost_model.group_count(
            estimate, num_batches, share, split, pooled=self.executor_kind != "auto"
        )
        if num_groups == 1 and jobs <= 1 and self.executor_kind == "auto":
            return replace(plan, pooled=False, num_groups=1, reason="split does not pay")
        return DispatchPlan(
            pooled=True,
            num_groups=num_groups,
            estimated_seconds=estimate,
            compile_time=compile_time,
            reason=plan.reason if plan.pooled else f"explicit {self.executor_kind} executor",
        )

    # ------------------------------------------------------------------
    # Execution primitives
    # ------------------------------------------------------------------
    def submit_groups(
        self,
        job: Job,
        job_key: str,
        groups: list[tuple[Batch, ...]],
        backend: str,
        trace_parent: str | None = None,
    ) -> Iterator[tuple[Future, tuple[Batch, ...], dict | None]]:
        """Submit a job's batch groups to the pool, yielding each as it goes.

        Yields ``(future, group, trace context)`` right after each submit
        (the context is None with tracing off), so a caller that fails
        mid-submission still holds every future that went in.  A thread
        pool gets the job itself.  A process pool runs the warm-worker
        protocol: the payload and the parent-compiled program ride the
        first ``workers`` groups, later groups send the content hash only.
        A worker that holds no copy raises ``WorkerJobMiss``, and the
        caller resubmits that group alone, which ships the payload again.
        """
        pool = self._ensure_pool()
        tracer = self.obs.tracer
        if not self.process_pooled:
            for group in groups:
                ctx = tracer.batch_context(trace_parent)
                yield pool.submit(execute_batch_group, job, group, backend, ctx), group, ctx
            return
        program = self._compiled_for(job, backend)
        metrics = self.obs.metrics
        for position, group in enumerate(groups):
            ship = position < self.workers
            ctx = tracer.batch_context(trace_parent)
            args = (
                job if ship else None,
                job_key,
                group,
                backend,
                ctx,
                program if ship else None,
            )
            if metrics.enabled:
                try:
                    size = len(pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL))
                    metrics.counter(
                        "engine.ipc_bytes", payload="full" if ship else "key"
                    ).inc(size)
                except Exception:  # pragma: no cover - metrics never block dispatch
                    pass
            yield pool.submit(_warm_group, *args), group, ctx

    def run_group(
        self,
        job: Job,
        group: tuple[Batch, ...],
        backend: str,
        trace_parent: str | None = None,
    ) -> BatchStats:
        """Run one batch group inline on the calling thread.

        With tracing on, the group's spans are adopted under
        ``trace_parent``.  This module's ``execute_batch_group`` global is
        the one place tests patch group execution.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return execute_batch_group(job, group, backend)
        ctx = tracer.batch_context(trace_parent)
        stats = execute_batch_group(job, group, backend, ctx)
        tracer.adopt(stats.spans, parent_id=trace_parent)
        return stats

    def note_group(self, stats: BatchStats) -> None:
        """Surface one process-pool dispatch's warm-cache telemetry.

        Feeds the ``engine.worker_compile`` hit/miss counters and the
        ``engine.worker_job`` payload counters the tests and the run
        report read; a no-op off process pools, which have no warm
        workers.
        """
        if not self.process_pooled:
            return
        metrics = self.obs.metrics
        if stats.compile_hits:
            metrics.counter("engine.worker_compile", outcome="hit").inc(
                stats.compile_hits
            )
        if stats.compile_misses:
            metrics.counter("engine.worker_compile", outcome="miss").inc(
                stats.compile_misses
            )
        metrics.counter(
            "engine.worker_job", payload="full" if stats.job_shipped else "key"
        ).inc()

    def prewarm(self) -> list[int]:
        """Spin up every pool worker ahead of the first real submission.

        Each warm-up task also runs one tiny kernel group, so a worker's
        first-call costs stay out of the first real group.  Returns the
        distinct worker PIDs that answered (empty for serial
        and thread executors, where there is nothing to warm).  Calling
        this outside a timed region keeps process-start cost out of
        throughput measurements; it is never required for correctness.
        """
        if not self.process_pooled:
            return []
        pool = self._ensure_pool()
        futures = [pool.submit(_warm_worker) for _ in range(self.workers)]
        return sorted({future.result() for future in futures})

    def _compiled_for(self, job: Job, backend: str):
        """The parent-side compiled program to prime workers with (or None).

        The vectorized statevector backend ships its
        :class:`~repro.sim.compile.CompiledProgram`.  The parent's caches
        make repeat calls free, so shipping costs one compile per distinct
        circuit across the whole run.
        """
        if backend != "statevector":
            return None
        return self._dense_program(job)

    @staticmethod
    def _dense_program(job: Job):
        """The job's compiled dense program (a cache hit after the first)."""
        noise = job.noise
        live = noise is not None and not noise.is_noiseless
        return get_compiled(
            job.circuit,
            gate_noise=live and noise.has_gate_noise,
            link_noise=live and noise.has_link_noise,
        )

    @staticmethod
    def cancel_and_drain(futures) -> None:
        """Cancel what hasn't started and wait out what has.

        The one place the pool-stays-reusable invariant lives: after this
        returns, no group of the submission is queued or running, so the
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
                        max_workers=self.workers, initializer=_start_pool_worker
                    )
                else:
                    self._pool = ThreadPoolExecutor(max_workers=self.workers)
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
