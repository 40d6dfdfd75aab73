"""The repository benchmark: one command, two workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload cold_family --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` times it untraced, then again with the
layer shims of :mod:`tracing` installed, and reports the per-layer
metrics plus ``trace_overhead_ratio``.  Metric names, units and bounds
are listed in ``BENCHMARK.json``.  Human-readable lines (environment
fingerprint, every metric with its sample count, failures, the
allocated-width census) come first; the last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark imports ``repro`` from ``src/`` next to this directory and
exits non-zero without a result when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = OUT / "digests"

#: Set-ups per run: one in this process plus this many in fresh processes.
SETUP_CHILDREN = 4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_family", "service_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shot counts and minimum sizes (self-test only)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, tear it down, print the set-up time")
    return parser.parse_args(argv)


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def setup_in_child(args) -> float:
    """One cold set-up (interpreter, imports, workload set-up) in a fresh process."""
    command = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children (pool workers)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    me = str(os.getpid())
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            if stat.rsplit(")", 1)[1].split()[1] != me:
                continue
            for line in (entry / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total_kb / 1024.0


def fingerprint(seed: int, workload: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def end_to_end(m, setups: list[float], rss: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one timed phase, with human-readable lines."""
    p50 = statistics.median(m.latencies) * 1e3
    p99 = statistics.quantiles(m.latencies, n=100, method="inclusive")[-1] * 1e3
    above = sum(1 for x in m.latencies if x * 1e3 > p99)
    rate = statistics.median(m.window_rates)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "experiments_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    n = m.completed
    lines = [
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setups) + ")",
        f"experiments_per_s {rate:.4f} 1/s (median of {len(m.window_rates)} windows; "
        f"{n} operations in {m.elapsed:.2f} s)",
        f"latency_p50_ms {p50:.4f} ms (n={n})",
        f"latency_p99_ms {p99:.4f} ms (n={n}, {above} samples above p99)",
        f"failed_frac {m.failed / max(m.attempted, 1):.6f} ratio "
        f"({m.failed} of {m.attempted} attempted)",
        f"peak_rss_mb {rss:.2f} MB (this process plus its live children)",
    ]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    setups = []
    if not args.setup_only and not args.trace:
        setups = [setup_in_child(args) for _ in range(SETUP_CHILDREN)]

    start = time.perf_counter()
    import_repro()
    import workloads
    from checks import DigestBook

    scale = "smoke" if args.smoke else "full"
    book = DigestBook(
        args.seed, None if args.setup_only else DIGESTS / f"{args.workload}-{scale}.json"
    )
    workload = workloads.make(args.workload, args.seed, args.smoke, book)
    try:
        workload.setup()
        setups.append(time.perf_counter() - start)
        if args.setup_only:
            print(json.dumps({"setup_s": setups[-1]}))
            return 0
        timed = workload.measure(args.seconds)
        if args.trace:
            metrics, lines, traced = traced_phase(workload, args.seconds)
            rate = statistics.median(timed.window_rates)
            traced_rate = statistics.median(traced.window_rates)
            metrics["trace_overhead_ratio"] = (rate / traced_rate, "ratio")
            lines.append(f"trace_overhead_ratio {rate / traced_rate:.4f} ratio "
                         f"(untraced {rate:.4f} vs traced {traced_rate:.4f} 1/s)")
            phases = (timed, traced)
        else:
            metrics, lines = end_to_end(timed, setups, peak_rss_mb())
            phases = (timed,)
    finally:
        workload.teardown()
    book.save()

    attempted = sum(m.attempted for m in phases)
    failed = sum(m.failed for m in phases)
    print("env " + json.dumps(fingerprint(args.seed, args.workload), sort_keys=True))
    for line in lines:
        print(line)
    for m in phases:
        for problem in m.problems:
            print(f"failure {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_phase(workload, seconds: float):
    """Re-time the workload with every layer shim installed."""
    from repro.obs import Observability
    from repro.sim.compile import compile_cache_stats
    from tracing import LayerTrace, census, cost_model_check, layer_metrics

    obs = Observability()
    engine = workload.engine
    previous = engine.obs
    engine.set_observability(obs)
    layer = LayerTrace()
    before = compile_cache_stats()
    layer.install()
    try:
        traced = workload.measure(seconds)
    finally:
        layer.restore()
        engine.set_observability(previous)
    after = compile_cache_stats()
    delta = {key: after[key] - before[key] for key in ("hits", "compiles")}
    metrics = layer_metrics(
        layer, obs, engine.scheduler, traced.completed, traced.elapsed, delta,
        service=workload if workload.name == "service_mixed" else None,
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}.jsonl", "w") as handle:
        for span in layer.recorder.export():
            handle.write(json.dumps(span) + "\n")
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"traced operations {traced.completed} in {traced.elapsed:.2f} s")
    for row in cost_model_check(layer, engine.scheduler):
        lines.append("costmodel " + " ".join(f"{k}={v:.6g}" if isinstance(v, float)
                                             else f"{k}={v}" for k, v in row.items()))
    lines.extend(census(layer))
    return metrics, lines, traced


if __name__ == "__main__":
    sys.exit(main())
