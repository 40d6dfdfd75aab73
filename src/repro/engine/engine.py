"""The Engine facade: the single entry point for all shot execution.

Layers (each independently testable):

* :class:`~repro.engine.job.Job` / :class:`~repro.engine.job.JobResult` —
  content-hashed work spec and aggregated outcome;
* :class:`~repro.engine.router.BackendRouter` — picks the cheapest capable
  simulator per job;
* :class:`~repro.engine.scheduler.Scheduler` — splits shots into batches,
  decides how many batch groups each job runs as and where, and runs or
  submits them;
* :class:`~repro.engine.cache.ResultCache` — in-memory + on-disk result
  store keyed on the job hash.

One execution loop, one dispatch shape and one result channel:
:meth:`Engine.run`, :meth:`Engine.run_many` and :meth:`Engine.as_completed`
all drive the same private stream and return
:class:`~repro.engine.job.JobResult` aggregates.  Every job runs as the
contiguous batch groups
:meth:`Scheduler.decide <repro.engine.scheduler.Scheduler.decide>` sizes,
each one :func:`~repro.engine.runners.execute_batch_group` call.  The
stream submits *all* pooled groups of *all* non-cached jobs to the shared
pool at once, runs the inline jobs' groups on the calling thread
meanwhile, and reduces each job in batch-index order as its groups land —
so a sweep of many small jobs keeps every worker busy across job
boundaries, and ``run`` is simply a one-job pipeline.  RNG substreams
depend only on ``(job.seed, batch.index)``, so results are bit-identical
at any worker count, executor kind and grouping.  The cancel token is
checked before every inline group and on every completed pooled group,
whatever the entry point.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence

from ..obs.runtime import NOOP, Observability
from .cache import ResultCache
from .cancel import CancelToken, JobCancelled
from .costmodel import CostModel, DispatchPlan
from .job import Job, JobResult
from .router import BackendChoice, BackendRouter
from .runners import BatchExecutionError, BatchStats, WorkerJobMiss
from .scheduler import Scheduler

__all__ = ["Engine", "EngineStats", "grid_points"]

_log = logging.getLogger("repro.engine")

#: Buckets of the ``engine.cost_ratio`` histogram: predicted over actual
#: kernel seconds per computed job (above 1 the model overprices).
_COST_RATIO_BUCKETS = (0.25, 0.5, 0.67, 0.8, 1.0, 1.25, 1.5, 2.0, 4.0)


def grid_points(grid: Mapping[str, Sequence]):
    """Yield the cartesian product of ``grid`` as parameter dicts.

    Row-major order of the grid's keys — the ordering contract of
    :meth:`repro.api.Experiment.sweep`.  A job-level sweep is
    ``engine.run_many([make_job(**p) for p in grid_points(grid)])``.
    """
    keys = list(grid)
    for combo in itertools.product(*(grid[k] for k in keys)):
        yield dict(zip(keys, combo))


@dataclass
class EngineStats:
    """Cumulative execution statistics of one engine.

    Two time totals with different meanings, both reported:

    * ``wall_time`` sums each job's own elapsed time; under cross-job
      pipelining jobs overlap, so this total can exceed the actual wall
      clock (it measures work, not latency);
    * ``elapsed`` is the true wall clock, measured at the outermost
      ``run``/``run_many``/``as_completed`` call (nested calls are not double
      counted) — the denominator for throughput (``shots / elapsed``).
    """

    jobs: int = 0
    cached_jobs: int = 0
    shots: int = 0
    wall_time: float = 0.0
    elapsed: float = 0.0
    compile_time: float = 0.0
    execute_time: float = 0.0
    backends: Counter = field(default_factory=Counter)

    @property
    def shots_per_second(self) -> float:
        """Throughput over the true wall clock (0.0 before any run)."""
        return self.shots / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-safe dict (cache stats are merged in by the engine)."""
        return {
            "jobs": self.jobs,
            "cached_jobs": self.cached_jobs,
            "shots": self.shots,
            "wall_time": self.wall_time,
            "elapsed": self.elapsed,
            "shots_per_second": self.shots_per_second,
            "compile_time": self.compile_time,
            "execute_time": self.execute_time,
            "backends": dict(self.backends),
        }


@dataclass
class _PendingJob:
    """In-flight bookkeeping of one pipelined job."""

    job: Job
    key: str
    choice: BackendChoice
    plan: DispatchPlan
    expected: int
    started: float
    stats: list[BatchStats] = field(default_factory=list)
    span: object = None  # the job's open trace span (noop when disabled)


class Engine:
    """Batched, cached, backend-routed shot execution.

    ``cache`` may be ``True`` (in-memory), ``False``/``None`` (disabled), a
    path (in-memory + on-disk), or a ready :class:`ResultCache`.
    """

    def __init__(
        self,
        workers: int = 1,
        executor: str = "thread",
        cache: bool | str | ResultCache | None = False,
        router: BackendRouter | None = None,
        obs: Observability | None = None,
        cost_model: CostModel | None = None,
    ):
        self.scheduler = Scheduler(
            workers=workers, executor=executor, cost_model=cost_model
        )
        self.router = router or BackendRouter()
        if isinstance(cache, ResultCache):
            self.cache: ResultCache | None = cache
        elif cache is True:
            self.cache = ResultCache()
        elif cache:
            self.cache = ResultCache(directory=cache)
        else:
            self.cache = None
        self.stats = EngineStats()
        #: Per-thread state: top-level call nesting (for EngineStats.elapsed)
        #: and the active cancel scope.  Thread-local so concurrent engine
        #: calls (the multi-tenant service) neither corrupt the depth guard
        #: nor see each other's cancel tokens.
        self._tls = threading.local()
        self._stats_lock = threading.Lock()
        #: Cross-call single flight: job hashes currently being computed
        #: by some thread, each mapped to the event its joiners wait on.
        #: This is what lets concurrent tenants on a shared service
        #: engine compute identical jobs exactly once.
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        self.obs = NOOP
        self.set_observability(obs)

    def set_observability(self, obs: Observability | None) -> None:
        """Install (or, with None, disable) tracing/metrics on this engine.

        Propagates the bundle to the scheduler and the cache, so batch
        submission ships trace contexts and cache lookups are tagged.
        """
        self.obs = obs if obs is not None else NOOP
        self.scheduler.obs = self.obs
        if self.cache is not None:
            self.cache.obs = self.obs

    def prewarm(self) -> list[int]:
        """Spin up process-pool workers ahead of the first submission.

        Returns the distinct worker PIDs that answered (empty when there is
        no process pool to warm).  Purely a latency optimisation — calling
        it keeps pool start-up cost out of the first job's critical path
        (and out of benchmark timing windows).
        """
        return self.scheduler.prewarm()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    @contextmanager
    def cancel_scope(self, token: CancelToken | None):
        """Apply ``token`` to every engine call on this thread in the block.

        The form a serving layer uses when the engine calls happen deep
        inside library code (:meth:`repro.api.Experiment.run`) that has no
        ``cancel=`` parameter to thread through.  Scopes nest; the
        innermost wins.  ``None`` is accepted and means "no scope".
        """
        previous = getattr(self._tls, "cancel", None)
        self._tls.cancel = token if token is not None else previous
        try:
            yield token
        finally:
            self._tls.cancel = previous

    def _cancel_for(self, explicit: CancelToken | None) -> CancelToken | None:
        """The effective token: the explicit one, else the thread's scope."""
        if explicit is not None:
            return explicit
        return getattr(self._tls, "cancel", None)

    # ------------------------------------------------------------------
    # Single flight (cross-call dedupe on the shared cache)
    # ------------------------------------------------------------------
    def _try_claim(self, key: str) -> tuple[bool, threading.Event | None]:
        """Claim ``key``'s computation, or return the owner's event.

        ``(True, None)`` means this thread owns the flight and must call
        :meth:`_release` when the result is stored (or the attempt is
        abandoned).  ``(False, event)`` means another thread is already
        computing this hash; wait on ``event`` and read the cache.  With
        no cache there is nothing to share, so every caller owns.
        """
        if self.cache is None:
            return True, None
        with self._inflight_lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
                return True, None
            return False, event

    def _release(self, key: str) -> None:
        """End ``key``'s flight and wake its joiners (idempotent)."""
        if self.cache is None:
            return
        with self._inflight_lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def _join(self, event: threading.Event, cancel: CancelToken | None) -> None:
        """Wait for another thread's flight, staying cancel-responsive."""
        if cancel is None:
            event.wait()
            return
        while not event.wait(0.05):
            cancel.raise_if_cancelled()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, job: Job, *, cancel: CancelToken | None = None) -> JobResult:
        """Execute one job (or serve it from cache): a one-job pipeline.

        ``cancel`` (or an enclosing :meth:`cancel_scope`) cooperatively
        aborts with :class:`~repro.engine.cancel.JobCancelled` before any
        inline batch group and on any completed pooled group.
        """
        # The private stream, not run_many: wrappers of the public methods
        # must see one call per job.
        [(_, result)] = self._stream("engine.run", [job], cancel)
        return result

    def run_many(
        self, jobs: Sequence[Job], *, cancel: CancelToken | None = None
    ) -> list[JobResult]:
        """Execute several jobs; all jobs' batches share the worker pool.

        Every pooled batch group of every non-cached job is submitted at
        once, so small jobs cannot leave workers idle at job boundaries.
        Bit-identical to running the jobs one at a time, at equal seeds,
        for any worker count.
        """
        jobs = list(jobs)
        results: list[JobResult | None] = [None] * len(jobs)
        for index, result in self.as_completed(jobs, cancel=cancel):
            results[index] = result
        return results

    def as_completed(
        self, jobs: Sequence[Job], *, cancel: CancelToken | None = None
    ) -> Iterator[tuple[int, JobResult]]:
        """Yield ``(job_index, JobResult)`` pairs in completion order.

        Cache hits are yielded immediately; the remaining jobs' groups
        are all submitted to the pool at once and each job is reduced (in
        batch-index order) the moment its last group lands, so long sweeps
        can report progress incrementally.  When the cache is enabled,
        duplicate jobs inside one call are computed once and the repeats
        served as cache hits — exactly what the serial path would do.
        Duplicates *across* concurrent calls (two tenants of a shared
        service engine sweeping overlapping grids) are deduped the same
        way: a job some other thread is already computing is joined and
        served from the cache when that computation stores, so identical
        physics is computed exactly once engine-wide.
        Under pipelining a job's ``elapsed`` is its submission-to-reduce
        latency on the shared pool (groups of different jobs interleave),
        not the time a dedicated pool would have needed.

        On the first group failure every outstanding future is cancelled
        and drained, then a
        :class:`~repro.engine.runners.BatchExecutionError` naming the
        failed job and the group's first batch index propagates.  A tripped
        ``cancel`` token likewise cancels and drains, then raises
        :class:`~repro.engine.cancel.JobCancelled` — the service's
        ``DELETE /jobs/{id}`` path.
        """
        return self._stream("engine.run_many", list(jobs), cancel)

    def _stream(
        self, root_name: str, jobs: list[Job], cancel: CancelToken | None
    ) -> Iterator[tuple[int, JobResult]]:
        """The one execution stream, under a root span named ``root_name``."""
        cancel = self._cancel_for(cancel)
        with self._toplevel():
            tracer = self.obs.tracer
            root = tracer.begin(
                root_name,
                jobs=len(jobs),
                workers=self.scheduler.workers,
                executor=self.scheduler.executor_kind,
                pooled=self.scheduler.pooled,
            )
            error = None
            try:
                yield from self._as_completed(jobs, root.span_id, cancel)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end(root, error=error)

    def _as_completed(
        self, jobs: list[Job], parent_id: str | None, cancel: CancelToken | None
    ) -> Iterator[tuple[int, JobResult]]:
        if cancel is not None:
            cancel.raise_if_cancelled()
        pending: list[tuple[int, Job, str]] = []
        pending_keys: set[str] = set()
        for index, job in enumerate(jobs):
            key = job.content_hash()
            if key in pending_keys:
                # A known in-flight duplicate: skip the redundant lookup
                # (and its miss counter) — it will be served after the
                # first occurrence computes, like on the serial path.
                pending.append((index, job, key))
                continue
            hit = self._cache_hit(key, parent_id=parent_id)
            if hit is not None:
                yield index, hit
            else:
                pending.append((index, job, key))
                pending_keys.add(key)
        if pending:
            yield from self._pipeline(pending, parent_id, cancel)

    @contextmanager
    def _toplevel(self):
        """Accumulate ``stats.elapsed`` on the outermost engine call only.

        ``run``, ``run_many`` and ``as_completed`` each enter here once.
        The depth guard (per thread, so concurrent service calls do not
        corrupt each other's nesting) makes sure a call made while another
        call's stream is still open on the same thread (say, between two
        ``as_completed`` yields) is not counted on top of it, so true wall
        clock is never summed across the nesting.
        """
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._tls.depth = depth
            if depth == 0:
                with self._stats_lock:
                    self.stats.elapsed += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Pipelined execution internals
    # ------------------------------------------------------------------
    def _pipeline(
        self, pending, parent_id: str | None = None, cancel: CancelToken | None = None
    ) -> Iterator[tuple[int, JobResult]]:
        """Run the pending jobs: pooled groups fan out, the rest run inline."""
        # Within-run dedupe: with a cache, one computation per distinct
        # hash; repeats are served from cache when the original finishes
        # (matching the serial path's behaviour and counters).
        duplicates: dict[str, list[int]] = {}
        submit: list[tuple[int, Job, str]] = []
        if self.cache is not None:
            first_for: dict[str, int] = {}
            for index, job, key in pending:
                if key in first_for:
                    duplicates.setdefault(key, []).append(index)
                else:
                    first_for[key] = index
                    submit.append((index, job, key))
        else:
            submit = pending

        # Cross-call single flight: a key some other thread is already
        # computing is joined (awaited after our own work, then served
        # from cache) instead of recomputed — the cross-tenant dedupe a
        # shared service engine relies on.  Claims are released the
        # moment each job's result is stored, so joiners never wait past
        # the store.
        owned: list[tuple[int, Job, str]] = []
        joined: list[tuple[tuple[int, Job, str], threading.Event]] = []
        claimed: set[str] = set()
        for entry in submit:
            is_owner, event = self._try_claim(entry[2])
            if is_owner:
                owned.append(entry)
                if self.cache is not None:
                    claimed.add(entry[2])
            else:
                joined.append((entry, event))

        tracer = self.obs.tracer
        states: dict[int, _PendingJob] = {}
        future_map: dict = {}
        try:
            # Routing and dispatch planning happen up front so a bad job
            # fails before anything runs (and, inside the try, releases
            # its claims).  Scheduler.decide is the one dispatch policy:
            # it sizes every job's batch groups, and the groups of the
            # jobs it keeps inline (serial schedulers, a lone single-batch
            # job, jobs smaller than one dispatch round trip) run on the
            # calling thread, overlapping the pooled futures.
            pooled: list[tuple] = []
            inline: list[tuple] = []
            for index, job, key in owned:
                choice = self.router.select(job)
                batches = self.scheduler.plan(job)
                plan = self.scheduler.decide(
                    job, choice.name, len(batches), jobs=len(owned)
                )
                entry = (index, job, key, choice, plan, plan.split(batches))
                (pooled if plan.pooled else inline).append(entry)

            # Submission happens inside the try so a mid-loop failure
            # (e.g. a broken process pool) still cancels what went in.
            for index, job, key, choice, plan, groups in pooled:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                state = states[index] = self._start(job, key, choice, plan, groups, parent_id)
                submitted = time.perf_counter()
                for future, group, ctx in self.scheduler.submit_groups(
                    job, key, groups, choice.name, state.span.span_id
                ):
                    future_map[future] = (index, group, ctx, submitted)
            # Inline jobs run here while the pool chews on the submitted
            # groups.
            for index, job, key, choice, plan, groups in inline:
                state = states[index] = self._start(job, key, choice, plan, groups, parent_id)
                for group in groups:
                    if cancel is not None:
                        cancel.raise_if_cancelled()
                    state.stats.append(
                        self.scheduler.run_group(job, group, choice.name, state.span.span_id)
                    )
                yield from self._complete(index, state, claimed, duplicates, parent_id)

            # Streaming reduce over a mutable pending set (not a fixed
            # as_completed iterable) so WorkerJobMiss retries can join the
            # stream mid-flight.
            pending_futures = set(future_map)
            while pending_futures:
                done, pending_futures = wait(
                    pending_futures, return_when=FIRST_COMPLETED
                )
                for future in done:
                    if cancel is not None and cancel.cancelled:
                        # The except-handler below cancels every queued
                        # batch and drains the running ones before this
                        # propagates.
                        raise JobCancelled("job cancelled by its cancel token")
                    index, group, ctx, submitted = future_map.pop(future)
                    state = states[index]
                    exc = future.exception()
                    if exc is not None:
                        if isinstance(exc, WorkerJobMiss):
                            # A one-group resubmission ships the payload.
                            submitted = time.perf_counter()
                            for retry, _, retry_ctx in self.scheduler.submit_groups(
                                state.job,
                                state.key,
                                [group],
                                state.choice.name,
                                state.span.span_id,
                            ):
                                future_map[retry] = (index, group, retry_ctx, submitted)
                                pending_futures.add(retry)
                            continue
                        if len(group) == 1:
                            desc = f"batch {group[0].index} ({group[0].shots} shots)"
                        else:
                            desc = (
                                f"batches {group[0].index}..{group[-1].index} "
                                f"({sum(b.shots for b in group)} shots)"
                            )
                        raise BatchExecutionError(
                            f"job {index} {desc} failed on backend "
                            f"{state.choice.name!r}: {exc}",
                            job_index=index,
                            batch_index=group[0].index,
                        ) from exc
                    group_stats = future.result()
                    if ctx is not None:
                        self._record_batch(
                            state, group, group_stats, ctx, time.perf_counter() - submitted
                        )
                    self.scheduler.note_group(group_stats)
                    state.stats.append(group_stats)
                    if len(state.stats) == state.expected:
                        yield from self._complete(
                            index, state, claimed, duplicates, parent_id
                        )

            # Our own work is done (and its claims released), so waiting
            # on other threads' flights cannot deadlock.
            for entry, event in joined:
                index, _, key = entry
                if cancel is not None:
                    cancel.raise_if_cancelled()
                self._join(event, cancel)
                hit = self._cache_hit(key, parent_id=parent_id)
                if hit is None:
                    # The owner aborted without storing (failure or
                    # cancellation): re-enter the pipeline for this entry.
                    yield from self._pipeline([entry], parent_id, cancel)
                else:
                    if tracer.enabled:
                        tracer.event(
                            "engine.singleflight_join",
                            parent_id=parent_id,
                            job_hash=key[:16],
                        )
                    yield index, hit
                yield from self._serve_duplicates(duplicates, key, parent_id)
        except GeneratorExit:
            # An abandoned generator must not leave batches queued — but
            # close() must not block on running ones either.
            for future in future_map:
                future.cancel()
            raise
        except BaseException as exc:
            # Any failure (a dead group, an inline group, a cache write)
            # quiets the pool before it propagates.
            if tracer.enabled:
                tracer.event(
                    "engine.cancel_and_drain",
                    parent_id=parent_id,
                    futures=len(future_map),
                )
                for state in states.values():
                    if state.span is not None:
                        tracer.end(state.span, error=exc)
                        state.span = None
            self.scheduler.cancel_and_drain(future_map)
            raise
        finally:
            # Abandoned claims (failure, cancellation, a closed stream)
            # must wake their joiners so one of them can take over.
            for key in claimed:
                self._release(key)

    def _start(self, job, key, choice, plan, groups, parent_id) -> _PendingJob:
        """Open one job's ``engine.job`` span and its bookkeeping."""
        span = self.obs.tracer.begin(
            "engine.job",
            parent_id=parent_id,
            job_hash=key[:16],
            backend=choice.name,
            shots=job.shots,
            batches=sum(len(group) for group in groups),
        )
        return _PendingJob(
            job=job,
            key=key,
            choice=choice,
            plan=plan,
            expected=len(groups),
            started=time.perf_counter(),
            span=span,
        )

    def _complete(
        self, index, state, claimed, duplicates, parent_id
    ) -> Iterator[tuple[int, JobResult]]:
        """Reduce and store a job whose batches all landed, then yield it.

        Its flight claim is released the moment the result is stored, and
        its within-run duplicates are served from the cache right after.
        """
        result = self._finish(
            state.job,
            state.key,
            state.choice,
            state.plan,
            state.stats,
            time.perf_counter() - state.started,
            parent_id=state.span.span_id,
        )
        self.obs.tracer.end(state.span)
        state.span = None
        self._release(state.key)
        claimed.discard(state.key)
        yield index, result
        yield from self._serve_duplicates(duplicates, state.key, parent_id)

    def _record_batch(self, state, group, stats, ctx, latency: float) -> None:
        """Stitch one pooled group into the trace, parent-side view first.

        ``group`` is the tuple of batches behind one future.  The
        parent-observed latency (submit → future resolved) decomposes
        into queue wait (submit → worker start, from the shipped context)
        plus worker-side time plus the serialization/IPC remainder — the
        number the run report's ``ipc_share`` is built from.
        """
        records = stats.spans or ()
        worker = next((r for r in records if r["name"] == "worker.batch"), None)
        queue_wait = worker["attrs"].get("queue_wait", 0.0) if worker else 0.0
        worker_time = worker["duration"] if worker else 0.0
        ipc_gap = max(latency - queue_wait - worker_time, 0.0)
        span = self.obs.tracer.record(
            "engine.batch",
            start_unix=ctx["submit_unix"],
            duration=latency,
            parent_id=state.span.span_id if state.span is not None else None,
            batch_index=group[0].index,
            shots=sum(b.shots for b in group),
            batches=len(group),
            queue_wait=queue_wait,
            ipc_gap=ipc_gap,
        )
        self.obs.tracer.adopt(records, parent_id=span.span_id)
        metrics = self.obs.metrics
        metrics.histogram("engine.batch_latency").observe(latency)
        metrics.histogram("engine.queue_wait").observe(queue_wait)
        metrics.histogram("engine.ipc_gap").observe(ipc_gap)

    def _serve_duplicates(
        self, duplicates, key, parent_id: str | None = None
    ) -> Iterator[tuple[int, JobResult]]:
        for dup_index in duplicates.pop(key, ()):
            hit = self._cache_hit(key, parent_id=parent_id)
            yield dup_index, hit

    # ------------------------------------------------------------------
    # Shared per-job bookkeeping
    # ------------------------------------------------------------------
    def _cache_hit(self, key: str, parent_id: str | None = None) -> JobResult | None:
        if self.cache is None:
            return None
        hit = self.cache.get(key, trace_parent=parent_id)
        if hit is None:
            return None
        with self._stats_lock:
            self.stats.jobs += 1
            self.stats.cached_jobs += 1
        return hit

    def _finish(
        self,
        job: Job,
        key: str,
        choice: BackendChoice,
        plan: DispatchPlan,
        group_stats: Sequence[BatchStats],
        elapsed: float,
        parent_id: str | None = None,
    ) -> JobResult:
        tracer = self.obs.tracer
        span = tracer.begin("engine.reduce", parent_id=parent_id, groups=len(group_stats))
        result = _combine(job, key, choice, plan, group_stats, elapsed)
        if self.cache is not None:
            self.cache.put(key, result)
        tracer.end(span)
        metrics = self.obs.metrics
        metrics.histogram("engine.job_latency").observe(elapsed)
        if result.predicted_s > 0.0 and result.execute_time > 0.0:
            metrics.histogram("engine.cost_ratio", buckets=_COST_RATIO_BUCKETS).observe(
                result.predicted_s / result.execute_time
            )
        with self._stats_lock:
            self.stats.jobs += 1
            self.stats.shots += job.shots
            self.stats.wall_time += elapsed
            self.stats.compile_time += result.compile_time
            self.stats.execute_time += result.execute_time
            self.stats.backends[choice.name] += 1
        return result

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        """Engine statistics plus cache counters, JSON-safe."""
        payload = self.stats.to_dict()
        payload["cache"] = self.cache.stats.to_dict() if self.cache is not None else None
        return payload

    def close(self) -> None:
        """Release the worker pool."""
        self.scheduler.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    @contextmanager
    def or_serial(cls, engine: "Engine | None") -> Iterator["Engine"]:
        """``engine`` itself, or a private serial engine closed on exit.

        The fallback of every entry point whose ``engine`` is optional:
        without one, its shots still run as engine jobs.
        """
        if engine is not None:
            yield engine
            return
        with cls(workers=1, executor="serial") as private:
            yield private


def _combine(
    job: Job,
    key: str,
    choice: BackendChoice,
    plan: DispatchPlan,
    group_stats: Sequence[BatchStats],
    elapsed: float,
) -> JobResult:
    """Reduce a job's group aggregates in batch-index order.

    Groups arrive pre-folded (see
    :class:`~repro.engine.runners.BatchStats`); their contribution to the
    Counter/parity sums is identical to their member batches', so this
    reduction is bit-identical however the batches were grouped.
    """
    ordered = sorted(group_stats, key=lambda s: s.index)
    counts: Counter = Counter()
    compile_time = plan.compile_time
    execute_time = tally_time = 0.0
    row_ops = shot_ops = 0
    for stats in ordered:
        counts.update(stats.counts)
        compile_time += stats.compile_time
        execute_time += stats.execute_time
        tally_time += stats.tally_time
        row_ops += stats.row_ops
        shot_ops += stats.shot_ops
    parity_mean = parity_stderr = None
    if job.readout:
        total = 0.0
        total_sq = 0.0
        for stats in ordered:
            total += stats.parity_total
            total_sq += stats.parity_total_sq
        parity_mean = total / job.shots
        variance = max(total_sq / job.shots - parity_mean * parity_mean, 0.0)
        parity_stderr = math.sqrt(variance / job.shots)
    return JobResult(
        job_hash=key,
        backend=choice.name,
        shots=job.shots,
        num_batches=sum(len(stats.indices) for stats in ordered),
        counts=dict(counts) if counts else None,
        parity_mean=parity_mean,
        parity_stderr=parity_stderr,
        elapsed=elapsed,
        compile_time=compile_time,
        execute_time=execute_time,
        tally_time=tally_time,
        row_ops=row_ops,
        shot_ops=shot_ops,
        predicted_s=plan.estimated_seconds,
        route_reason=choice.reason,
    )
