"""Observability: tracing, metrics, logging, and run reports.

A lightweight, dependency-free instrumentation layer threaded through the
compile → route → schedule → execute pipeline:

* :class:`Tracer` — nested spans (``trace_id`` / ``span_id`` /
  ``parent_id``) with a thread-safe collector, JSONL export, and
  cross-process stitching (each batch group returns its span records in
  its :class:`~repro.engine.runners.BatchStats`, so one trace covers
  parent and pool);
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with p50/p95/p99 queries;
* :class:`Observability` — the bundle the engine and API accept
  (``Engine(obs=Observability())``); the default is a shared no-op whose
  hot-path cost is one attribute lookup and zero allocations;
* :func:`run_report` / :func:`render_timeline` — reduce a trace into a
  JSON run report and a terminal flame timeline (attached to
  :class:`~repro.api.ExperimentResult` under the optional
  ``observability`` key);
* :func:`get_logger` / :func:`enable_logging` — the ``repro.*`` logger
  hierarchy (NullHandler on the root; span ends and pipeline events at
  DEBUG).

Tracing never touches job RNG streams: results are bit-identical with
observability on or off, at any worker count.
"""

from .logs import enable_logging, get_logger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopMetrics,
)
from .report import build_run_report, render_timeline, run_report
from .runtime import NOOP, Observability, get_observability, set_observability
from .trace import NoopTracer, Span, Tracer, span_record

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NOOP",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopMetrics",
    "NoopTracer",
    "Observability",
    "Span",
    "Tracer",
    "build_run_report",
    "enable_logging",
    "get_logger",
    "get_observability",
    "render_timeline",
    "run_report",
    "set_observability",
    "span_record",
]
