"""Protocol validation (implicit in Secs 3, 5): estimate vs exact trace.

Runs the actual estimation pipeline — monolithic Fig-2d circuit and the
fully distributed COMPAS protocol — on random density-matrix workloads and
reports |estimate - exact| in units of the standard error.  A correct,
unbiased protocol keeps every row within a few sigma.

Each workload is a declarative ``Experiment.swap_test`` spec run with
``with_exact=True``, so the persisted JSON carries the full
``ExperimentResult`` envelope per row (specs, recorded seed, exact
reference, engine/cache statistics) alongside the printed table.
"""

import numpy as np
from conftest import FULL_SCALE, emit, make_engine, stopwatch

from repro.api import Experiment
from repro.reporting import Table
from repro.utils import random_density_matrix

SHOTS_MONO = 4000 if FULL_SCALE else 1200
SHOTS_DIST = 1200 if FULL_SCALE else 260


def test_protocol_accuracy(once):
    table = Table(
        "Protocol accuracy — estimate vs exact multivariate trace",
        ["backend", "k", "n", "exact", "estimate", "stderr", "sigmas"],
    )
    rng = np.random.default_rng(2026)
    engine = make_engine()

    def run():
        results = []
        for k, n in ((2, 1), (3, 1), (4, 1), (2, 2)):
            states = [random_density_matrix(n, rng=rng) for _ in range(k)]
            experiment = Experiment.swap_test(
                states, shots=SHOTS_MONO, variant="d", seed=k * 17 + n
            )
            results.append(experiment.run(engine, with_exact=True))
        for k in (2, 3):
            states = [random_density_matrix(1, rng=rng) for _ in range(k)]
            experiment = Experiment.swap_test(
                states,
                shots=SHOTS_DIST,
                seed=k * 31,
                backend="compas",
                design="teledata",
            )
            results.append(experiment.run(engine, with_exact=True))
        return results

    with stopwatch() as elapsed:
        results = once(run)
    for result in results:
        backend = result.specs["protocol"]["backend"]
        label = result.extra["variant_label"] if backend == "compas" else "monolithic-d"
        sigma = abs(result.real - result.exact.real) / max(result.stderr, 1e-9)
        table.add_row(
            backend=label if backend == "compas" else "monolithic-d",
            k=result.extra["k"],
            n=result.extra["n"],
            exact=f"{result.exact:.4f}",
            estimate=f"{result.estimate:.4f}",
            stderr=result.stderr,
            sigmas=f"{sigma:.2f}",
        )
        assert result.within(result.exact, sigmas=5.5)
        im_sigma = abs(result.imag - result.exact.imag) / max(result.extra["stderr_im"], 1e-12)
        assert im_sigma <= 5.5
    emit(
        "protocol_accuracy", table, wall_time=elapsed(), engine=engine, results=results
    )
    engine.close()
