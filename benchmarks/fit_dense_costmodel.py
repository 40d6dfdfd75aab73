"""Predicted / actual seconds of the dense cost model on its fit set.

The dense constants in ``repro.engine.costmodel`` were fitted to the
kernel seconds of 56 serial one-group ``statevector`` jobs: the X-basis
job of monolithic, noisy monolithic, COMPAS (1% link noise, line
topology) and N-state SWAP tests at (k, n) in {(2,1), (2,2), (3,1),
(3,2), (4,1)}, and of N-party Hadamard tests and mixed-input monolithic
SWAP tests (full-rank density matrices) at k·n ≤ 4, each at two shot
budgets.  This script reruns that set: every job is one
``execute_batch_group`` call over all its batches, timed ``--repeats``
times, and its median ``execute_time`` is set against
``CostModel.dense_seconds``.  It prints one line per job and the
median, quartiles and range of predicted / actual.  ``--fit`` also
prints the constants that minimise the squared relative error over the
set (non-negative least squares on the model's six terms).

Timings depend on the machine, so nothing here is a gate.  Run it after
a kernel change to see whether the constants still fit::

    python benchmarks/fit_dense_costmodel.py [--repeats 5] [--fit] [--json fit.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import NetworkSpec, NoiseSpec  # noqa: E402
from repro.core import (  # noqa: E402
    build_compas,
    build_monolithic_swap_test,
    build_nparty_hadamard,
    build_nstate_swap,
    protocol_job,
)
from repro.engine import Scheduler, costmodel  # noqa: E402
from repro.engine.runners import execute_batch_group  # noqa: E402
from repro.utils.states import random_density_matrix, random_pure_state  # noqa: E402

#: (k, n) shapes: every family at k·n ≤ 4, plus k·n = 6 for the first four.
SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]
SMALL = [(k, n) for k, n in SHAPES if k * n <= 4]

#: The dense constants, in the order of their terms.
CONSTANTS = (
    "_DENSE_OP_SECONDS",
    "_FOLD_SECONDS",
    "_SITE_SHOT_SECONDS",
    "_SEGMENT_SECONDS",
    "_ROW_SECONDS",
    "_ROW_AMP_SECONDS",
)

#: Experiment shots at the low budget (the X-basis job gets half); the
#: high budget is 8×.
SHOTS = {
    "mono": 1_000,
    "mono-noisy": 500,
    "compas": 250,
    "nstate": 500,
    "nparty": 50,
    "mono-mixed": 500,
}


#: COMPAS runs over a line with 1% link depolarizing noise.
LINK = NetworkSpec(topology="line", link_depolarizing=0.01)

#: The X-basis job's seed in an experiment run with ``seed=1``.
SEED = int(np.random.default_rng(1).integers(2**63))


def x_basis_job(family: str, k: int, n: int, shots: int, rng):
    """The X-basis job (half of ``shots``) of one experiment of ``family``,
    built as ``Experiment.run`` builds it, with the builders' defaults."""
    if family == "mono-mixed":
        states = [random_density_matrix(n, rng=rng) for _ in range(k)]
    else:
        states = [random_pure_state(n, rng) for _ in range(k)]
    noise = None
    if family in ("mono", "mono-mixed", "mono-noisy"):
        build = build_monolithic_swap_test(k, n, basis="x")
        if family == "mono-noisy":
            noise = NoiseSpec.from_base(0.002).to_model()
    elif family == "compas":
        qpus = [f"qpu{p}" for p in range(k)]
        build = build_compas(k, n, basis="x", topology=LINK.build(qpus))
        noise = LINK.noise_model(None)
    elif family == "nstate":
        build = build_nstate_swap(k, n, basis="x")
    else:
        build = build_nparty_hadamard(k, n, basis="x")
    return protocol_job(build, states, shots // 2, SEED, noise=noise)


def fit_set():
    rng = np.random.default_rng(2025)
    for k, n in SHAPES:
        for family, base in SHOTS.items():
            if family in ("nparty", "mono-mixed") and (k, n) not in SMALL:
                continue
            for shots in (base, 8 * base):
                yield f"{family} k{k}n{n}", x_basis_job(family, k, n, shots, rng)


def terms(job, scheduler: Scheduler) -> list[float]:
    """What each constant multiplies in ``CostModel.dense_seconds`` for ``job``:
    the estimate with that constant set to 1 and the others to 0."""
    saved = {name: getattr(costmodel, name) for name in CONSTANTS}
    values = []
    try:
        for name in CONSTANTS:
            for other in CONSTANTS:
                setattr(costmodel, other, 1.0 if other == name else 0.0)
            values.append(scheduler.estimate_job_seconds(job, "statevector"))
    finally:
        for name, value in saved.items():
            setattr(costmodel, name, value)
    return values


def fit(rows: list[dict]) -> dict[str, float]:
    """Non-negative constants minimising the squared relative error.

    Least squares on the terms scaled by 1 / actual; a term whose
    coefficient comes out negative is dropped and the rest refitted.
    """
    a = np.array([row["terms"] for row in rows]) / np.array(
        [[row["execute_s"]] for row in rows]
    )
    active = list(range(len(CONSTANTS)))
    while True:
        # Scale each column to unit norm so the solve is well conditioned.
        norms = np.linalg.norm(a[:, active], axis=0)
        coef, *_ = np.linalg.lstsq(a[:, active] / norms, np.ones(len(rows)), rcond=None)
        coef /= norms
        if (coef >= 0).all():
            break
        del active[int(np.argmin(coef))]
    fitted = dict.fromkeys(CONSTANTS, 0.0)
    for index, value in zip(active, coef):
        fitted[CONSTANTS[index]] = float(value)
    return fitted


def measure(name: str, job, scheduler: Scheduler, repeats: int) -> dict:
    batches = tuple(scheduler.plan(job))
    runs = [execute_batch_group(job, batches, "statevector") for _ in range(repeats)]
    actual = statistics.median(stats.execute_time for stats in runs)
    predicted = scheduler.estimate_job_seconds(job, "statevector")
    return {
        "job": name,
        "shots": job.shots,
        "batches": len(batches),
        "row_ops": runs[0].row_ops,
        "execute_s": actual,
        "tally_s": statistics.median(stats.tally_time for stats in runs),
        "predicted_s": predicted,
        "ratio": predicted / actual,
        "terms": terms(job, scheduler),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--fit", action="store_true", help="also fit the constants")
    parser.add_argument("--json", help="also write the rows and the summary here")
    args = parser.parse_args(argv)
    scheduler = Scheduler()
    rows = []
    print(f"{'job':<20}{'shots':>6}{'row_ops':>9}{'actual ms':>11}{'pred ms':>9}{'ratio':>7}")
    for name, job in fit_set():
        row = measure(name, job, scheduler, args.repeats)
        rows.append(row)
        print(
            f"{name:<20}{row['shots']:>6}{row['row_ops']:>9}"
            f"{row['execute_s'] * 1e3:>11.2f}{row['predicted_s'] * 1e3:>9.2f}"
            f"{row['ratio']:>7.2f}"
        )
    ratios = sorted(row["ratio"] for row in rows)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    summary = {"jobs": len(rows), "median": median, "q1": q1, "q3": q3,
               "min": ratios[0], "max": ratios[-1]}
    print("predicted / actual: " + ", ".join(f"{k} {v:.3g}" for k, v in summary.items()))
    report = {"constants": {name: getattr(costmodel, name) for name in CONSTANTS},
              "summary": summary, "jobs": rows}
    if args.fit:
        fitted = report["fitted"] = fit(rows)
        refit = sorted(
            sum(c * t for c, t in zip(fitted.values(), row["terms"])) / row["execute_s"]
            for row in rows
        )
        q1, median, q3 = statistics.quantiles(refit, n=4)
        print("fitted: " + ", ".join(f"{k} {v:.2g}" for k, v in fitted.items()))
        print(f"fitted predicted / actual: median {median:.3g}, q1 {q1:.3g}, "
              f"q3 {q3:.3g}, min {refit[0]:.3g}, max {refit[-1]:.3g}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
