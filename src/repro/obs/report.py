"""Render a collected trace into a run report and a text timeline.

:func:`build_run_report` reduces a window of span records (plus the
metrics registry) into one JSON-safe dict: per-span-name totals, the
pipeline *breakdown* — queue wait, worker-side compile, worker-side
execute, parent-side reduce, and the serialization/IPC gap (parent-
observed batch latency minus queue wait minus worker-side time, the
direct measurement of what pickling jobs in and shipping results out
costs) — the worker-side outcome tally (``worker_tally``, the part of
``worker_execute`` the ``tally_time`` of ``worker.execute`` spans
reports; outside the breakdown, so its shares still sum to 1), worker
utilization, and cache hit rates by tier.

:func:`render_timeline` draws the span tree as an indented text timeline
with proportional duration bars — a terminal-friendly flame view.

Both operate on plain span dicts (:meth:`repro.obs.trace.Tracer.span_dicts`),
so a report can be rebuilt offline from an exported JSONL trace.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["build_run_report", "render_timeline", "run_report"]

REPORT_VERSION = 1

#: Span names whose durations/attrs feed the pipeline breakdown.
_QUEUE_ATTR = "queue_wait"
_IPC_ATTR = "ipc_gap"


def _window(source, since: int = 0) -> list[dict]:
    """Normalise a tracer/Observability/span-list into span dicts."""
    if isinstance(source, (list, tuple)):
        return list(source[since:]) if since else list(source)
    tracer = getattr(source, "tracer", source)
    return tracer.span_dicts(since=since)


def _by_name(spans) -> dict:
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(
            span["name"], {"count": 0, "total": 0.0, "max": 0.0, "errors": 0}
        )
        entry["count"] += 1
        entry["total"] += span["duration"]
        entry["max"] = max(entry["max"], span["duration"])
        if span.get("status") == "error":
            entry["errors"] += 1
    for entry in totals.values():
        entry["mean"] = entry["total"] / entry["count"]
    return totals


def _roots(spans) -> list[dict]:
    ids = {span["span_id"] for span in spans}
    return [span for span in spans if span.get("parent_id") not in ids]


def _first_attr(spans, key):
    for span in spans:
        value = span.get("attrs", {}).get(key)
        if value is not None:
            return value
    return None


def build_run_report(source, *, since: int = 0, extra: dict | None = None) -> dict:
    """Reduce a span window (+ metrics, when available) into one report dict.

    ``source`` may be an :class:`~repro.obs.runtime.Observability`, a
    :class:`~repro.obs.trace.Tracer`, or a plain list of span dicts (e.g.
    re-read from an exported JSONL trace).  ``since`` windows the trace
    (pair with :meth:`~repro.obs.trace.Tracer.mark`).
    """
    spans = _window(source, since)
    metrics = getattr(source, "metrics", None)
    roots = _roots(spans)
    wall = sum(span["duration"] for span in roots)

    queue_wait = 0.0
    ipc = 0.0
    worker_compile = 0.0
    worker_execute = 0.0
    worker_tally = 0.0
    reduce_time = 0.0
    worker_busy = 0.0
    batches = 0
    row_ops = shot_ops = 0
    for span in spans:
        name = span["name"]
        attrs = span.get("attrs", {})
        if name == "worker.batch":
            queue_wait += attrs.get(_QUEUE_ATTR, 0.0) or 0.0
            worker_busy += span["duration"]
            batches += 1
            row_ops += attrs.get("row_ops", 0) or 0
            shot_ops += attrs.get("shot_ops", 0) or 0
        elif name == "worker.compile":
            worker_compile += span["duration"]
        elif name == "worker.execute":
            worker_execute += span["duration"]
            worker_tally += attrs.get("tally_time", 0.0) or 0.0
        elif name == "engine.batch":
            ipc += attrs.get(_IPC_ATTR, 0.0) or 0.0
        elif name == "engine.reduce":
            reduce_time += span["duration"]

    breakdown = {
        "queue_wait": queue_wait,
        "worker_compile": worker_compile,
        "worker_execute": worker_execute,
        "ipc": ipc,
        "reduce": reduce_time,
    }
    attributed = sum(breakdown.values())
    shares = {
        key: (value / attributed if attributed > 0 else 0.0)
        for key, value in breakdown.items()
    }

    workers = _first_attr(spans, "workers")
    utilization = None
    if workers and wall > 0:
        utilization = worker_busy / (wall * workers)

    report = {
        "version": REPORT_VERSION,
        "trace_id": spans[0]["trace_id"] if spans else None,
        "num_spans": len(spans),
        "wall_time": wall,
        "workers": workers,
        "executor": _first_attr(spans, "executor"),
        "batches": batches,
        "worker_busy": worker_busy,
        "worker_utilization": utilization,
        "breakdown": breakdown,
        "breakdown_shares": shares,
        "ipc_share": shares["ipc"],
        "worker_tally": worker_tally,
        "kernel_rows": {
            "row_ops": row_ops,
            "shot_ops": shot_ops,
            "row_share": row_ops / shot_ops if shot_ops else None,
        },
        "by_name": _by_name(spans),
        "errors": sum(1 for span in spans if span.get("status") == "error"),
    }
    if metrics is not None:
        report["metrics"] = metrics.to_dict()
    if extra:
        report.update(extra)
    return report


# ----------------------------------------------------------------------
# Text timeline
# ----------------------------------------------------------------------
def render_timeline(source, *, since: int = 0, width: int = 100, max_lines: int = 60) -> str:
    """The span tree as an indented text timeline with duration bars.

    Bars are positioned proportionally between the earliest start and the
    latest end of the window, so queue wait shows up as horizontal offset
    between a parent batch span and its worker child.  Output is capped at
    ``max_lines`` spans (the deepest/latest are elided with a summary
    line), keeping reports terminal- and envelope-sized.
    """
    spans = _window(source, since)
    if not spans:
        return "(no spans recorded)"
    t0 = min(span["start_unix"] for span in spans)
    t1 = max(span["start_unix"] + span["duration"] for span in spans)
    total = max(t1 - t0, 1e-9)

    children: dict[str | None, list[dict]] = defaultdict(list)
    ids = {span["span_id"] for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        children[parent if parent in ids else None].append(span)
    for group in children.values():
        group.sort(key=lambda s: s["start_unix"])

    name_width = 36
    bar_width = max(20, width - name_width - 14)
    lines = [
        f"trace {spans[0].get('trace_id') or '?'} — {len(spans)} spans, "
        f"{total * 1e3:.1f} ms window"
    ]
    emitted = 0
    elided = 0

    def emit(span: dict, depth: int) -> None:
        nonlocal emitted, elided
        if emitted >= max_lines:
            elided += 1
        else:
            label = ("  " * depth + span["name"])[:name_width]
            offset = int((span["start_unix"] - t0) / total * bar_width)
            length = max(1, int(span["duration"] / total * bar_width))
            bar = " " * min(offset, bar_width - 1) + "█" * min(length, bar_width - offset)
            marker = " !" if span.get("status") == "error" else ""
            lines.append(
                f"{label:<{name_width}} {span['duration'] * 1e3:9.2f}ms |{bar:<{bar_width}}|{marker}"
            )
            emitted += 1
        for child in children.get(span["span_id"], ()):
            emit(child, depth + 1)

    for root in children[None]:
        emit(root, 0)
    if elided:
        lines.append(f"... (+{elided} more spans)")
    return "\n".join(lines)


def run_report(source, *, since: int = 0, extra: dict | None = None) -> dict:
    """The envelope-ready observability block: report + text timeline."""
    spans = _window(source, since)
    report = build_run_report(spans, extra=extra)
    metrics = getattr(source, "metrics", None)
    if metrics is not None:
        report["metrics"] = metrics.to_dict()
    return {"report": report, "timeline": render_timeline(spans)}
