"""The experiment service: a fair, deduping, cancellable job runner.

:class:`ExperimentService` is the piece between the HTTP front door
(:mod:`repro.service.http`) and the shared :class:`~repro.engine.Engine`:

* **submit** parses untrusted JSON (:func:`~repro.service.specparse.
  parse_submission`), dedupes on the content-derived job id — a second
  tenant submitting identical physics *joins* the in-flight job instead
  of queueing a copy — and admits the record to the weighted-round-robin
  :class:`~repro.service.queue.FairQueue` under the tenant's quota;
* **workers** (``config.concurrency`` asyncio tasks) drain the queue,
  executing each job on the shared engine via ``asyncio.to_thread`` so
  the event loop keeps serving HTTP while shots run.  Every execution is
  wrapped in ``engine.cancel_scope(record.cancel)``, so a tripped token
  aborts between batch groups wherever the engine call is nested;
* **sweeps** stream: each grid point is published to the record's event
  log the moment it lands (:meth:`~repro.api.Experiment.sweep_iter`),
  so ``GET /jobs/{id}/events`` sees per-point results live;
* **metrics** land in a metrics-only observability bundle (a noop tracer
  — span accumulation is unbounded and a service never stops running):
  queue-depth and running gauges, a submit-to-complete latency
  histogram (exact p50/p99 below the sample cap), per-tenant counters,
  and the shared cache's hit/miss/eviction counters.

Submission, polling, and cancellation are plain synchronous methods —
only the worker loop needs an event loop — so the whole lifecycle is
unit-testable without HTTP.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import OrderedDict

from ..api.result import _encode
from ..engine import Engine, JobCancelled, ResultCache
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import Observability
from ..obs.trace import NOOP_TRACER
from .config import ServiceConfig
from .jobs import JobRecord, States
from .queue import FairQueue, QuotaExceeded
from .specparse import parse_submission

__all__ = ["ExperimentService"]

_log = logging.getLogger("repro.service")

#: Latency buckets for submit-to-complete (seconds): services resolve
#: most jobs in well under a second (cache hits) but sweeps take minutes.
_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0)


class ExperimentService:
    """Multi-tenant job runner over one shared engine and warm cache."""

    def __init__(self, config: ServiceConfig | None = None, engine: Engine | None = None):
        self.config = config if config is not None else ServiceConfig()
        self.config.validate()
        self._owns_engine = engine is None
        if engine is None:
            cache = ResultCache(
                directory=self.config.cache_dir,
                max_entries=self.config.cache_max_entries,
                max_bytes=self.config.cache_max_bytes,
            )
            engine = Engine(
                workers=self.config.engine_workers,
                executor=self.config.executor,
                cache=cache,
            )
        self.engine = engine
        # Metrics without tracing: the tracer accumulates spans without
        # bound, which a long-running process must not do.
        self.obs = Observability(tracer=NOOP_TRACER, metrics=MetricsRegistry())
        self.engine.set_observability(self.obs)
        if self.config.prewarm:
            self.engine.prewarm()
        self.queue = FairQueue(self.config)
        self.jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._kick: asyncio.Event | None = None
        self._workers: list = []
        self._stopping = False
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Submission / polling / cancellation (synchronous)
    # ------------------------------------------------------------------
    def submit(self, payload) -> tuple[JobRecord, bool]:
        """Admit one untrusted submission; ``(record, deduped)``.

        Raises :class:`~repro.service.specparse.SpecError` (HTTP 400) on
        a malformed spec and :class:`~repro.service.queue.QuotaExceeded`
        (HTTP 429) when the tenant's backlog is full.  A submission whose
        job id matches a queued, running, or completed job joins that
        record instead of computing again — the cross-tenant dedupe the
        content-hash discipline buys.
        """
        metrics = self.obs.metrics
        try:
            submission = parse_submission(payload, self.config.limits)
        except Exception:
            metrics.counter("service.rejected", reason="spec").inc()
            raise
        with self._jobs_lock:
            existing = self.jobs.get(submission.job_id)
            if existing is not None and existing.state not in (
                States.FAILED,
                States.CANCELLED,
            ):
                existing.join(submission.tenant)
                metrics.counter("service.deduped", tenant=submission.tenant).inc()
                return existing, True
            record = JobRecord(submission=submission, max_events=self.config.max_events)
            try:
                self.queue.submit(record)
            except QuotaExceeded:
                metrics.counter("service.rejected", reason="quota").inc()
                raise
            self.jobs[submission.job_id] = record
            self._trim_retained()
        metrics.counter("service.submissions", tenant=submission.tenant).inc()
        self._update_gauges()
        self._wake()
        return record, False

    def get(self, job_id: str) -> JobRecord | None:
        """The record of one job id, or None."""
        with self._jobs_lock:
            return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> JobRecord | None:
        """Trip one job's cancel token (``DELETE /jobs/{id}``).

        A still-queued job is marked cancelled immediately (the queue
        skips terminal records); a running one stops at the engine's next
        batch boundary.  Returns the record, or None for an unknown id.
        """
        record = self.get(job_id)
        if record is None:
            return None
        record.cancel.cancel()
        if record.state == States.QUEUED:
            record.mark_cancelled()
        self.obs.metrics.counter("service.cancellations").inc()
        self._wake()
        return record

    def _trim_retained(self) -> None:
        """Drop the oldest *terminal* records past the retention cap."""
        excess = len(self.jobs) - self.config.max_jobs_retained
        if excess <= 0:
            return
        for job_id in [
            job_id
            for job_id, record in self.jobs.items()
            if record.state in States.TERMINAL
        ][:excess]:
            del self.jobs[job_id]

    # ------------------------------------------------------------------
    # Worker loop (asyncio)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker tasks on the running event loop."""
        self._kick = asyncio.Event()
        self._stopping = False
        self._workers = [
            asyncio.create_task(self._worker(index))
            for index in range(self.config.concurrency)
        ]

    async def stop(self) -> None:
        """Stop the workers; running jobs are cancelled cooperatively."""
        self._stopping = True
        with self._jobs_lock:
            records = list(self.jobs.values())
        for record in records:
            if record.state in (States.QUEUED, States.RUNNING):
                record.cancel.cancel()
                if record.state == States.QUEUED:
                    record.mark_cancelled()
        if self._kick is not None:
            self._kick.set()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._owns_engine:
            self.engine.close()

    def _wake(self) -> None:
        """Kick the workers from any thread (submission, release, cancel)."""
        kick = self._kick
        if kick is None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None
        if loop is not None:
            kick.set()
        else:
            # Called from a worker thread (job completion) or a test:
            # the event belongs to the service loop, so hop over to it.
            service_loop = getattr(self, "_loop", None)
            if service_loop is not None and service_loop.is_running():
                service_loop.call_soon_threadsafe(kick.set)

    async def _worker(self, index: int) -> None:
        self._loop = asyncio.get_running_loop()
        kick = self._kick
        while not self._stopping:
            record = self.queue.acquire()
            if record is None:
                # Timeout as a lost-wakeup backstop; the kick event is
                # the fast path.
                try:
                    await asyncio.wait_for(kick.wait(), timeout=0.2)
                except (asyncio.TimeoutError, TimeoutError):
                    pass
                kick.clear()
                continue
            self._update_gauges()
            try:
                await asyncio.to_thread(self._execute, record)
            except Exception:  # pragma: no cover - _execute traps job errors
                _log.exception("worker %d: unexpected execution failure", index)
            finally:
                self.queue.release(record)
                self._update_gauges()
                self._wake()

    # ------------------------------------------------------------------
    # Job execution (runs on a pool thread)
    # ------------------------------------------------------------------
    def _execute(self, record: JobRecord) -> None:
        if not record.mark_running():
            return  # cancelled while queued
        submission = record.submission
        metrics = self.obs.metrics
        try:
            with self.engine.cancel_scope(record.cancel):
                record.cancel.raise_if_cancelled()
                if submission.is_sweep:
                    result = self._run_sweep(record)
                else:
                    result = self._run_single(record)
        except JobCancelled:
            record.mark_cancelled()
        except Exception as exc:
            # str(exc) only: a tenant must never see a server traceback.
            _log.warning("job %s failed: %s", record.job_id, exc)
            record.mark_failed(str(exc))
        else:
            record.mark_done(result)
        latency = record.latency()
        if latency is not None:
            metrics.histogram(
                "service.submit_to_complete", buckets=_LATENCY_BUCKETS
            ).observe(latency)
        for tenant in sorted(record.tenants):
            metrics.counter("service.jobs_finished", tenant=tenant,
                            state=record.state).inc()

    def _run_single(self, record: JobRecord) -> dict:
        submission = record.submission
        result = submission.experiment.run(
            engine=self.engine, with_exact=submission.with_exact
        )
        payload = result.to_dict()
        record.publish({"event": "result", "job_id": record.job_id, "result": payload})
        return {"result": payload}

    def _run_sweep(self, record: JobRecord) -> dict:
        submission = record.submission
        axes = dict(submission.sweep)
        if "over" in axes and isinstance(axes["over"], tuple):
            axes["values"] = [tuple(v) for v in axes["values"]]
        final = None
        for point, sweep in submission.experiment.sweep_iter(
            engine=self.engine, with_exact=submission.with_exact, **axes
        ):
            record.publish({
                "event": "point",
                "job_id": record.job_id,
                "index": len(sweep.points) - 1,
                "params": _encode(point.params),
                "result": point.result.to_dict(),
            })
            final = sweep
            record.cancel.raise_if_cancelled()
        return {"sweep": final.to_dict()}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _update_gauges(self) -> None:
        metrics = self.obs.metrics
        metrics.gauge("service.queue_depth").set(self.queue.depth())
        metrics.gauge("service.running").set(sum(self.queue.running().values()))

    def metrics_snapshot(self) -> dict:
        """The ``GET /metrics`` payload: queue, latency, cache, engine."""
        histogram = self.obs.metrics.histogram(
            "service.submit_to_complete", buckets=_LATENCY_BUCKETS
        )
        with self._jobs_lock:
            by_state: dict[str, int] = {}
            for record in self.jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
        cache = self.engine.cache
        return {
            "queue_depth": self.queue.depth(),
            "queue_depths": self.queue.depths(),
            "running": self.queue.running(),
            "jobs_by_state": by_state,
            "latency": {
                "count": histogram.count,
                "mean": histogram.mean,
                "p50": histogram.percentile(0.50),
                "p99": histogram.percentile(0.99),
            },
            "cache": cache.stats.to_dict() if cache is not None else None,
            "engine": self.engine.stats_dict(),
            "counters": self.obs.metrics.to_dict(),
        }

    def health(self) -> dict:
        """The ``GET /healthz`` payload."""
        return {
            "status": "ok",
            "uptime": time.time() - self._started_at,
            "workers": self.config.concurrency,
            "engine_workers": self.config.engine_workers,
            "jobs": len(self.jobs),
            "queue_depth": self.queue.depth(),
        }
