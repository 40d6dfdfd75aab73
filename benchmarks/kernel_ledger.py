"""Kernel ledger: where the dense kernel's time goes, per op kind.

Runs the four dense ``cold_family`` experiments of perfbench (monolithic,
COMPAS, N-state and N-party at its shot counts, built by
``perfbench/workloads.py::family_ops``) and one ``service_mixed`` fresh
compute (the noisy monolithic SWAP test its client posts, parsed by the
service's own ``parse_submission``), serially on a private engine with
no cache.  Each op kind is timed by wrapping the kernel's helpers; the
kernel's loop itself is not copied:

============  ===========================================================
unitary       ``_Rows.apply`` over every row (an unconditioned unitary)
conditioned   ``_Rows.branch`` and ``_Rows.apply`` of a conditioned unitary
collapse      ``_collapse_site`` (p0, draw, branch, collapse, reset flip)
fold          ``_Rows.fold``
fault         ``_inject_faults`` (draws, branch, Pauli words)
tally         ``runners._accumulate_matrix`` (the group's outcome tally)
rng_setup     ``batch_rng`` plus the batch's kernel generator
other         ``run_segments`` minus its timed parts (readout flips,
              conditions, call set-up)
============  ===========================================================

A helper called inside another timed helper counts to the outer one (the
apply of a fault word is fault time).  Every experiment runs once to warm
the compile cache, then ``--runs`` times; each column is the median over
the runs, in milliseconds.  Timings depend on the machine, so nothing
here is a gate.  Writes ``benchmarks/out/kernel_ledger.json``::

    python benchmarks/kernel_ledger.py [--runs 15] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

from workloads import COLD_SHOTS, SMOKE_SHOTS, family_ops  # noqa: E402

from repro.engine import Engine, runners  # noqa: E402
from repro.service.specparse import parse_submission  # noqa: E402
from repro.sim import batched  # noqa: E402
from repro.utils.states import random_pure_state  # noqa: E402

OUT = ROOT / "benchmarks" / "out" / "kernel_ledger.json"

KINDS = ("unitary", "conditioned", "collapse", "fold", "fault", "tally", "rng_setup")
COLUMNS = (*KINDS, "other", "kernel", "wall")

#: The workload seed, as perfbench's ``--seed 1``.
SEED = 1


def dense_experiments(smoke: bool) -> list[tuple[str, object]]:
    """The four dense ``cold_family`` experiments and one ``service_mixed``
    fresh compute, as ``(name, experiment)`` pairs."""
    shots = SMOKE_SHOTS if smoke else COLD_SHOTS
    ops = [(key, exp) for key, exp, _ in family_ops(SEED, shots) if key != "ghz_fidelity"]
    rng = np.random.default_rng(SEED)
    states = [
        [{"__complex__": [float(a.real), float(a.imag)]} for a in random_pure_state(1, rng)]
        for _ in range(2)
    ]
    spec = {
        "tenant": "ledger",
        "experiment": {
            "kind": "swap_test",
            "payload": {"states": states},
            "noise": {"p": 0.002},
            "options": {"shots": 200 if smoke else 2_000, "seed": SEED},
        },
    }
    ops.append(("service_mixed.fresh", parse_submission(spec).experiment))
    return ops


class Ledger:
    """Exclusive per-kind timers installed over the kernel's helpers."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.depth = 0
        self.rng_start: float | None = None
        self.saved: list[tuple[object, str, object]] = []

    def timed(self, kind):
        """Wrap a function; ``kind`` is a name or a function of the call's
        arguments giving one."""

        def wrap(fn):
            def timed_call(*args, **kwargs):
                if self.depth:
                    return fn(*args, **kwargs)
                name = kind if isinstance(kind, str) else kind(*args, **kwargs)
                self.depth += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - start
                    self.calls[name] += 1
                    self.depth -= 1

            return timed_call

        return wrap

    def patch(self, owner, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self.saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def install(self) -> None:
        def apply_kind(self_, matrix, qubits, n, rows=None):
            return "unitary" if rows is None else "conditioned"

        self.patch(batched._Rows, "apply", self.timed(apply_kind))
        self.patch(batched._Rows, "branch", self.timed("conditioned"))
        self.patch(batched._Rows, "fold", self.timed("fold"))
        self.patch(batched, "_collapse_site", self.timed("collapse"))
        self.patch(batched, "_inject_faults", self.timed("fault"))
        self.patch(runners, "_accumulate_matrix", self.timed("tally"))
        self.patch(runners, "run_segments", self.kernel)
        self.patch(runners, "batch_rng", self.batch_rng)
        self.patch(np.random, "default_rng", self.default_rng)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()

    def kernel(self, fn):
        def timed_kernel(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds["kernel"] += time.perf_counter() - start
                self.calls["kernel"] += 1

        return timed_kernel

    def batch_rng(self, fn):
        # The batch's set-up runs from ``batch_rng`` to the ``default_rng``
        # that seeds its kernel generator from it.
        def timed_batch_rng(*args, **kwargs):
            start = time.perf_counter()
            rng = fn(*args, **kwargs)
            self.rng_start = start
            return rng

        return timed_batch_rng

    def default_rng(self, fn):
        def timed_default_rng(*args, **kwargs):
            rng = fn(*args, **kwargs)
            if self.rng_start is not None:
                self.seconds["rng_setup"] += time.perf_counter() - self.rng_start
                self.calls["rng_setup"] += 1
                self.rng_start = None
            return rng

        return timed_default_rng

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        seconds, calls = dict(self.seconds), dict(self.calls)
        self.seconds.clear()
        self.calls.clear()
        self.rng_start = None
        return seconds, calls


def measure(name: str, experiment, engine: Engine, ledger: Ledger, runs: int) -> dict:
    experiment.run(engine=engine)  # warm the compile cache
    ledger.take()
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        experiment.run(engine=engine)
        wall = time.perf_counter() - start
        seconds, calls = ledger.take()
        timed = sum(seconds.get(kind, 0.0) for kind in KINDS if kind not in ("tally", "rng_setup"))
        seconds["other"] = seconds.get("kernel", 0.0) - timed
        seconds["wall"] = wall
        samples.append((seconds, calls))
    row = {
        "experiment": name,
        "runs": runs,
        "ms": {
            column: 1e3 * statistics.median(s.get(column, 0.0) for s, _ in samples)
            for column in COLUMNS
        },
        "calls": {kind: samples[0][1].get(kind, 0) for kind in (*KINDS, "kernel")},
    }
    row["ms"]["unitary+collapse"] = 1e3 * statistics.median(
        s.get("unitary", 0.0) + s.get("conditioned", 0.0) + s.get("collapse", 0.0)
        for s, _ in samples
    )
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--smoke", action="store_true", help="tiny shot counts, 3 runs")
    args = parser.parse_args(argv)
    runs = 3 if args.smoke else args.runs
    ledger = Ledger()
    rows = []
    print(f"{'experiment (ms, median of ' + str(runs) + ')':<32}"
          + "".join(f"{c:>12}" for c in COLUMNS))
    with Engine(workers=1, executor="serial", cache=False) as engine:
        ledger.install()
        try:
            for name, experiment in dense_experiments(args.smoke):
                row = measure(name, experiment, engine, ledger, runs)
                rows.append(row)
                print(f"{name:<32}" + "".join(f"{row['ms'][c]:>12.2f}" for c in COLUMNS))
        finally:
            ledger.uninstall()
    report = {
        "meta": {
            "cpus": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "smoke": args.smoke,
            "runs": runs,
        },
        "rows": rows,
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
