"""Nested-span tracing with cross-process stitching.

One :class:`Tracer` records one trace: a thread-safe collector of
:class:`Span` records, each carrying ``trace_id`` / ``span_id`` /
``parent_id``, a wall-clock anchor (``start_unix``, comparable across the
processes of one machine — the property cross-process stitching relies
on), a monotonic ``duration`` measured with ``time.perf_counter``, and a
structured ``attrs`` dict.

Three recording styles cover every call shape in the pipeline:

* :meth:`Tracer.span` — a context manager for straight-line code (the
  span nests under the thread's current span automatically);
* :meth:`Tracer.begin` / :meth:`Tracer.end` — explicit lifetime for
  generator-driven code (the engine's pipelined ``as_completed``), where
  ``with`` blocks cannot bracket the work;
* :meth:`Tracer.record` — a span whose start/duration were measured
  elsewhere (the parent-side view of a pooled batch group).

Cross-process stitching: the scheduler ships a tiny picklable *batch
context* (:meth:`Tracer.batch_context`) with each batch group; the group
measures its own compile/execute sub-spans as plain dicts
(:func:`span_record`, no Tracer needed worker-side) and returns them in
its :class:`~repro.engine.runners.BatchStats`; the parent adopts them
(:meth:`Tracer.adopt`) under its own batch span.
Because both sides stamp ``time.time()``, queue wait (submit → worker
start) and the serialization/IPC gap (parent-observed latency minus queue
wait minus worker-side time) are directly computable.

Tracing never touches job RNG streams, so results are bit-identical with
tracing on or off.  The disabled path is :class:`NoopTracer`: its
``span()`` returns one shared singleton (no per-call allocation), and the
scheduler ships no context at all, so the hot path is untouched.
"""

from __future__ import annotations

import json
import logging
import os
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from threading import Lock, local

from ..utils.jsonio import atomic_write_text

__all__ = [
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "Tracer",
    "span_record",
]

_log = logging.getLogger("repro.obs.trace")


def _new_id() -> str:
    """A fresh 16-hex-char span/trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation inside a trace.

    ``start_unix`` is ``time.time()`` at span start (cross-process
    comparable); ``duration`` is measured monotonically.  ``attrs`` holds
    JSON-safe structured attributes; ``status`` is ``"ok"`` or
    ``"error"`` (with ``error`` naming the exception).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "duration",
        "attrs",
        "status",
        "error",
        "pid",
        "_t0",
    )

    def __init__(self, name: str, trace_id: str, parent_id: str | None, attrs: dict):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_unix = time.time()
        self.duration = 0.0
        self.attrs = attrs
        self.status = "ok"
        self.error: str | None = None
        self.pid = os.getpid()
        self._t0 = time.perf_counter()

    def set(self, key: str, value) -> None:
        """Attach one structured attribute."""
        self.attrs[key] = value

    def to_dict(self) -> dict:
        """JSON-safe record of this span (one JSONL line)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "attrs": self.attrs,
            "status": self.status,
            "error": self.error,
            "pid": self.pid,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, attrs={self.attrs})"


def span_record(
    name: str,
    start_unix: float,
    duration: float,
    parent_id: str | None = None,
    attrs: dict | None = None,
) -> dict:
    """A pre-measured span as a plain picklable dict (worker-side spans).

    ``trace_id`` is left None: :meth:`Tracer.adopt` fills it in (and
    re-parents records whose ``parent_id`` is None) when the record is
    stitched into the parent trace.
    """
    return {
        "name": name,
        "trace_id": None,
        "span_id": _new_id(),
        "parent_id": parent_id,
        "start_unix": start_unix,
        "duration": duration,
        "attrs": attrs or {},
        "status": "ok",
        "error": None,
        "pid": os.getpid(),
    }


class Tracer:
    """Thread-safe span collector for one trace."""

    enabled = True

    def __init__(self):
        self.trace_id = _new_id()
        #: Collected items in collection order: finished Spans and adopted
        #: worker record dicts interleaved, so ``mark()`` windows are exact.
        self._items: list[Span | dict] = []
        self._lock = Lock()
        self._tls = local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, parent_id: str | None = None, **attrs) -> Span:
        """Start a span with an explicit parent (generator-friendly).

        The span is not collected until :meth:`end`; it does not affect
        the thread's current-span stack.
        """
        if parent_id is None:
            parent_id = self.current_parent()
        return Span(name, self.trace_id, parent_id, attrs)

    def end(self, span: Span, error: BaseException | str | None = None) -> Span:
        """Finish a span begun with :meth:`begin` and collect it."""
        span.duration = time.perf_counter() - span._t0
        if error is not None:
            span.status = "error"
            span.error = str(error)
        with self._lock:
            self._items.append(span)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "span %s %.6fs status=%s attrs=%s",
                span.name,
                span.duration,
                span.status,
                span.attrs,
            )
        return span

    @contextmanager
    def span(self, name: str, parent_id: str | None = None, **attrs):
        """Record a span around a ``with`` block, nesting automatically."""
        span = self.begin(name, parent_id=parent_id, **attrs)
        stack = self._stack()
        stack.append(span.span_id)
        try:
            yield span
        except BaseException as exc:
            self.end(span, error=exc)
            raise
        else:
            self.end(span)
        finally:
            stack.pop()

    def record(
        self,
        name: str,
        *,
        start_unix: float,
        duration: float,
        parent_id: str | None = None,
        status: str = "ok",
        error: str | None = None,
        **attrs,
    ) -> Span:
        """Collect a span whose start/duration were measured elsewhere."""
        span = Span(name, self.trace_id, parent_id, attrs)
        span.start_unix = start_unix
        span.duration = duration
        span.status = status
        span.error = error
        with self._lock:
            self._items.append(span)
        return span

    def event(self, name: str, parent_id: str | None = None, **attrs) -> Span:
        """A zero-duration marker span (checkpoint resume, cancel, ...)."""
        return self.record(
            name, start_unix=time.time(), duration=0.0, parent_id=parent_id, **attrs
        )

    # ------------------------------------------------------------------
    # Cross-process stitching
    # ------------------------------------------------------------------
    def batch_context(self, parent_id: str | None = None) -> dict:
        """The picklable context the scheduler ships with a batch group."""
        return {
            "trace_id": self.trace_id,
            "parent_id": parent_id,
            "submit_unix": time.time(),
        }

    def adopt(self, records, parent_id: str | None = None) -> list[dict]:
        """Stitch worker-side span dicts into this trace.

        Every record gets this trace's id; records without a parent
        (worker roots) are re-parented under ``parent_id``.  Returns the
        adopted records (now live views of the collected spans).
        """
        adopted = []
        for record in records or ():
            record = dict(record)
            record["trace_id"] = self.trace_id
            if record.get("parent_id") is None:
                record["parent_id"] = parent_id
            adopted.append(record)
        if adopted:
            with self._lock:
                self._items.extend(adopted)
        return adopted

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def current_parent(self) -> str | None:
        """The innermost ``with tracer.span(...)`` id on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def mark(self) -> int:
        """Collected-span count now; pass to :meth:`span_dicts` as ``since``."""
        with self._lock:
            return len(self._items)

    def span_dicts(self, since: int = 0) -> list[dict]:
        """Every collected span (own + adopted) as dicts, in collection order.

        ``since`` restricts the view to spans collected after a
        :meth:`mark` — the windowing per-sweep-point reports use.  Spans
        land in *completion* order (a parent span follows its children).
        """
        with self._lock:
            items = self._items[since:]
        return [item.to_dict() if isinstance(item, Span) else item for item in items]

    def export_jsonl(self, path: str | Path) -> Path:
        """Atomically write every span as one JSON line per span."""
        path = Path(path)
        lines = "".join(json.dumps(record) + "\n" for record in self.span_dicts())
        atomic_write_text(path, lines)
        return path

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack


class _NoopSpan:
    """Shared inert span: context manager + ``set`` sink, no allocations."""

    __slots__ = ()
    span_id = None
    name = "noop"
    attrs: dict = {}
    duration = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, key, value) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: every call is a no-op returning shared singletons.

    ``span()`` hands back one module-level inert span — no allocation on
    the hot path — and ``batch_context()`` returns None, so the scheduler
    ships batches exactly as the un-instrumented code did.
    """

    enabled = False
    trace_id = None

    def begin(self, name, parent_id=None, **attrs):
        return _NOOP_SPAN

    def end(self, span, error=None):
        return span

    def span(self, name, parent_id=None, **attrs):
        return _NOOP_SPAN

    def record(self, name, **kwargs):
        return _NOOP_SPAN

    def event(self, name, parent_id=None, **attrs):
        return _NOOP_SPAN

    def batch_context(self, parent_id=None):
        return None

    def adopt(self, records, parent_id=None):
        return []

    def current_parent(self):
        return None

    def mark(self) -> int:
        return 0

    def span_dicts(self, since: int = 0) -> list:
        return []

    def export_jsonl(self, path):
        raise RuntimeError("tracing is disabled; no spans to export")


NOOP_TRACER = NoopTracer()
