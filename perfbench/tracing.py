"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps each layer's public entry
point *where its caller looks it up* (a module attribute such as
``repro.api.execution.build_compas``, or a method on the class such as
``repro.engine.job.Job.content_hash``) with a recording shim, runs the
traced phase, and restores the originals.  Work inside process-pool
workers is invisible to these shims; it comes from the program's own
``repro.obs`` spans (``worker.batch`` / ``worker.compile`` /
``worker.execute``, ``engine.batch``, ``engine.reduce``), which the
engine collects when an :class:`~repro.obs.Observability` is installed.

A span is ``[name, start, end, parent, child_time]``.  Parents are
tracked per thread (a shim's span encloses every shim called below it on
the same thread), and a layer's *self* time is its span minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Thread-safe in-memory span log plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a shim recording span ``name``.

        ``on_return(args, kwargs, result)`` runs after the span closes, so
        what it costs is never charged to the layer.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            stack = recorder._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0]
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if span[3] is not None:
                    span[3][4] += span[2] - span[1]
                with recorder._lock:
                    recorder.spans.append(span)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, shim)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original entry point back (reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per span name: ``calls`` and ``self_s`` (span minus children)."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        with self._lock:
            spans = list(self.spans)
        for name, start, end, _parent, child in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
        return out

    def export(self) -> list[dict]:
        """Spans as dicts (start/end on the perf_counter clock)."""
        with self._lock:
            spans = list(self.spans)
        index = {id(span): i for i, span in enumerate(spans)}
        return [
            {
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": index.get(id(parent)) if parent is not None else None,
            }
            for i, (name, start, end, parent, _child) in enumerate(spans)
        ]


def _shape(job) -> tuple:
    """Jobs of one shape cost the same to simulate (cheap, digest-free key)."""
    noise = job.noise
    live = noise is not None and not noise.is_noiseless
    return (
        job.circuit.name,
        job.circuit.num_qubits,
        len(job.circuit.instructions),
        job.shots,
        job.mode,
        live and noise.has_gate_noise,
        live and noise.has_link_noise,
    )


class Tally:
    """Jobs grouped by shape: one kept job, a count, and a running sum."""

    def __init__(self):
        self.groups: dict[tuple, list] = {}
        self._lock = threading.Lock()

    def add(self, job, amount: float = 0.0, tag: str = "") -> None:
        with self._lock:
            group = self.groups.setdefault((tag, *_shape(job)), [job, 0, 0.0, tag])
            group[1] += 1
            group[2] += amount

    def __iter__(self):
        with self._lock:
            return iter(list(self.groups.values()))


class LayerTrace:
    """The benchmark's layer shims, installed around one traced phase.

    Besides spans it tallies what the per-layer metrics need from return
    values: jobs the router sent to each backend, jobs the engine computed
    (with their measured kernel seconds, for the cost-model check), and
    every packaged job (for the allocated-width census).  Tallies group
    jobs by shape, so a long phase holds one job per shape, not millions.
    """

    def __init__(self):
        self.recorder = SpanRecorder()
        self.routed = Tally()
        self.computed = Tally()
        self.packaged = Tally()
        self.ghz_widths: set[int] = set()
        self.cache_hits = 0
        self._lock = threading.Lock()

    def install(self) -> None:
        import repro.analysis.ghz_fidelity as ghz
        import repro.api.experiment as experiment
        import repro.api.execution as execution
        import repro.core.protocol as protocol
        import repro.engine.scheduler as scheduler
        import repro.service.core as service_core
        from repro.engine import Engine, ResultCache
        from repro.engine.job import Job
        from repro.engine.router import BackendRouter
        from repro.network.program import DistributedProgram
        from repro.service import ExperimentService

        wrap = self.recorder.wrap
        wrap(experiment, "execute", "api")
        for builder in (
            "build_monolithic_swap_test",
            "build_compas",
            "build_nstate_swap",
            "build_nparty_hadamard",
            "build_multistate_swap",
        ):
            wrap(execution, builder, "core.build")
        wrap(
            ghz,
            "build_distributed_ghz_circuit",
            "core.build",
            on_return=lambda a, k, built: self.ghz_widths.add(built[0].num_qubits),
        )
        packaged = lambda a, k, job: self.packaged.add(job)  # noqa: E731
        wrap(execution, "swap_test_job", "core.job", on_return=packaged)
        wrap(execution, "protocol_job", "core.job", on_return=packaged)
        wrap(DistributedProgram, "build", "network.circuit")
        wrap(protocol, "lower_program", "network.lower")
        wrap(Job, "content_hash", "engine.job.hash")
        wrap(ResultCache, "get", "engine.cache.get", on_return=self._note_lookup)
        wrap(ResultCache, "put", "engine.cache.put")
        wrap(
            BackendRouter,
            "select",
            "engine.router",
            on_return=lambda a, k, choice: self.routed.add(a[1], tag=choice.name),
        )
        wrap(Engine, "run", "engine.run", on_return=lambda a, k, r: self._note([a[1]], [r]))
        wrap(Engine, "run_many", "engine.run", on_return=lambda a, k, r: self._note(a[1], r))
        wrap(scheduler, "get_compiled", "sim.compile")
        wrap(service_core, "parse_submission", "service.parse")
        wrap(ExperimentService, "submit", "service.submit")

    def _note_lookup(self, args, kwargs, result) -> None:
        if result is not None:
            with self._lock:
                self.cache_hits += 1

    def _note(self, jobs, results) -> None:
        for job, result in zip(jobs, results):
            if not result.from_cache:
                self.computed.add(job, result.execute_time)

    def restore(self) -> None:
        self.recorder.restore()


def _obs_split(obs) -> dict:
    """Pool-side times from the program's own spans, split by backend."""
    spans = obs.tracer.span_dicts()
    batches = {s["span_id"]: s for s in spans if s["name"] == "worker.batch"}
    out = {"execute": defaultdict(float), "shots": defaultdict(int), "busy": 0.0}
    for span in batches.values():
        backend = span["attrs"].get("backend")
        out["shots"][backend] += span["attrs"].get("shots", 0)
        out["busy"] += span["duration"]
    for span in spans:
        if span["name"] == "worker.execute":
            parent = batches.get(span.get("parent_id"))
            backend = parent["attrs"].get("backend") if parent else None
            out["execute"][backend] += span["duration"]
    return out


def layer_metrics(layer: LayerTrace, obs, scheduler, ops: int, elapsed: float,
                  compile_delta: dict, service=None) -> dict:
    """Every per-layer metric of one traced phase, per completed operation.

    Times and counts are divided by the operations the phase completed,
    so a layer that gets faster shows a smaller number even though a
    closed loop then completes more operations in the same window.
    """
    from repro.obs.report import build_run_report
    from repro.sim.compile import get_compiled

    per_op = 1.0 / max(ops, 1)
    totals = layer.recorder.totals()

    def self_s(name: str) -> float:
        return totals[name]["self_s"] * per_op if name in totals else 0.0

    def calls(name: str) -> float:
        return totals[name]["calls"] * per_op if name in totals else 0.0

    report = build_run_report(obs)
    breakdown = report["breakdown"]
    split = _obs_split(obs)
    counters = obs.metrics.to_dict()

    def counter(key: str) -> int:
        return counters.get(key, {}).get("value", 0)

    worker_hits = counter("engine.worker_compile{outcome=hit}")
    worker_misses = counter("engine.worker_compile{outcome=miss}")

    def dense_program(job):
        noise = job.noise
        live = noise is not None and not noise.is_noiseless
        return get_compiled(
            job.circuit,
            gate_noise=live and noise.has_gate_noise,
            link_noise=live and noise.has_link_noise,
        )

    def amp_ops(job) -> int:
        program = dense_program(job)
        return job.shots * (1 << program.num_qubits) * len(program.ops)

    dense = [(job, count) for job, count, _, tag in layer.routed if tag == "statevector"]
    dense_amp_ops = sum(amp_ops(job) * count for job, count in dense)
    costs = cost_model_check(layer, scheduler)
    predicted = sum(row["predicted_s"] * row["jobs"] for row in costs)
    actual = sum(row["actual_s"] * row["jobs"] for row in costs)
    ratios = [row["actual_s"] / row["predicted_s"] for row in costs if row["predicted_s"] > 0]
    lookups = totals["engine.cache.get"]["calls"] if "engine.cache.get" in totals else 0
    widths = {job.circuit.content_digest(): job.circuit.num_qubits for job, *_ in layer.packaged}
    workers = scheduler.workers

    metrics = {
        "api.self_s": (self_s("api"), "s/op"),
        "core.build.calls": (calls("core.build"), "count/op"),
        "core.build.self_s": (self_s("core.build"), "s/op"),
        "network.circuit.self_s": (self_s("network.circuit"), "s/op"),
        "network.lower.calls": (calls("network.lower"), "count/op"),
        "network.lower.self_s": (self_s("network.lower"), "s/op"),
        "core.job.self_s": (self_s("core.job"), "s/op"),
        "engine.job.hash.calls": (calls("engine.job.hash"), "count/op"),
        "engine.job.hash.self_s": (self_s("engine.job.hash"), "s/op"),
        "engine.cache.lookups": (lookups * per_op, "count/op"),
        "engine.cache.hits": (layer.cache_hits * per_op, "count/op"),
        "engine.cache.hit_ratio": (layer.cache_hits / lookups if lookups else 0.0, "ratio"),
        "engine.cache.get_self_s": (self_s("engine.cache.get"), "s/op"),
        "engine.cache.puts": (calls("engine.cache.put"), "count/op"),
        "engine.cache.put_self_s": (self_s("engine.cache.put"), "s/op"),
        "engine.router.calls": (calls("engine.router"), "count/op"),
        "engine.router.self_s": (self_s("engine.router"), "s/op"),
        "engine.scheduler.batches": (report["batches"] * per_op, "count/op"),
        "engine.scheduler.queue_wait_s": (breakdown["queue_wait"] * per_op, "s/op"),
        "engine.scheduler.ipc_s": (breakdown["ipc"] * per_op, "s/op"),
        "engine.scheduler.reduce_s": (breakdown["reduce"] * per_op, "s/op"),
        "engine.scheduler.worker_utilization": (
            split["busy"] / (elapsed * workers) if elapsed > 0 else 0.0,
            "ratio",
        ),
        "engine.costmodel.predicted_s": (predicted * per_op, "s/op"),
        "engine.costmodel.actual_s": (actual * per_op, "s/op"),
        "engine.costmodel.ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "sim.compile.calls": (
            (compile_delta["hits"] + compile_delta["compiles"] + worker_hits + worker_misses)
            * per_op,
            "count/op",
        ),
        "sim.compile.misses": ((compile_delta["compiles"] + worker_misses) * per_op, "count/op"),
        "sim.compile.self_s": (
            self_s("sim.compile") + breakdown["worker_compile"] * per_op,
            "s/op",
        ),
        "sim.batched.execute_s": (split["execute"]["statevector"] * per_op, "s/op"),
        "sim.batched.shots": (split["shots"]["statevector"] * per_op, "count/op"),
        "sim.batched.width_max": (
            max((dense_program(job).num_qubits for job, _ in dense), default=0),
            "count",
        ),
        "sim.batched.amp_ops": (dense_amp_ops * per_op, "count/op"),
        "sim.batched.bytes_computed": (32 * dense_amp_ops * per_op, "B/op"),
        "sim.pauliframe.execute_s": (split["execute"]["pauliframe"] * per_op, "s/op"),
        "census.allocated_qubits": (sum(widths.values()), "count"),
        "census.amp_ops": (
            sum(amp_ops(job) * count for job, count, *_ in layer.packaged) * per_op,
            "count/op",
        ),
        "service.parse_self_s": (self_s("service.parse"), "s/op"),
        "service.submit_self_s": (self_s("service.submit"), "s/op"),
        "service.dedupe_ratio": (service.deduped * per_op if service else 0.0, "ratio"),
        "service.queue_wait_s": (service.queue_wait_s() * per_op if service else 0.0, "s/op"),
        "service.http_errors": (service.http_errors if service else 0, "count"),
    }
    return metrics


def cost_model_check(layer: LayerTrace, scheduler) -> list[dict]:
    """Per computed job shape: the cost model's estimate against the kernel time.

    ``predicted_s`` is the public ``Scheduler.estimate_job_seconds`` for
    the backend the router chose; ``actual_s`` is the mean measured kernel
    seconds (``JobResult.execute_time``) of the shape's jobs.
    """
    backends = {_shape(job): tag for job, _, _, tag in layer.routed}
    rows = []
    for job, count, seconds, _ in layer.computed:
        backend = backends.get(_shape(job), "statevector")
        rows.append({
            "circuit": job.circuit.name,
            "backend": backend,
            "shots": job.shots,
            "jobs": count,
            "predicted_s": scheduler.estimate_job_seconds(job, backend),
            "actual_s": seconds / count,
        })
    return rows


def census(layer: LayerTrace) -> list[str]:
    """One line per distinct packaged circuit: allocated width and size."""
    seen = {}
    for job, *_ in layer.packaged:
        seen.setdefault(job.circuit.content_digest(), job)
    lines = []
    for job in seen.values():
        meta = job.metadata
        lines.append(
            f"census circuit={job.circuit.name} variant={meta.get('variant')} "
            f"k={meta.get('k')} n={meta.get('n')} allocated_qubits={job.circuit.num_qubits} "
            f"instructions={len(job.circuit.instructions)}"
        )
    for width in sorted(layer.ghz_widths):
        lines.append(f"census circuit=ghz allocated_qubits={width}")
    return lines
