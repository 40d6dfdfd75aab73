"""Protocol family validation: the three new estimators vs exact traces.

Runs the pairwise multistate SWAP test (arXiv:2205.07171), the
single-ancilla N-state SWAP test (arXiv:2110.13261) and the N-Party
Hadamard test (arXiv:2411.10024) through the full Experiment -> Engine
pipeline on random pure-state workloads, reporting |estimate - exact| in
standard errors, and checks the family ranking analysis: every scheme
bounded in (0, 1], per-topology rankings with COMPAS plus at least two
alternatives under one NetworkSpec.
"""

import numpy as np
from conftest import FULL_SCALE, emit, make_engine, stopwatch

from repro.analysis.link_noise import crossover_link_rate, protocol_comparison
from repro.api import Experiment, NetworkSpec
from repro.core import FAMILY
from repro.reporting import Table

# Shot budgets scale with circuit width: the multistate campaign runs
# 4-qubit live-width circuits, nparty at k=3 needs 10 live qubits.
SHOTS = {
    ("multistate_swap", 2): 4000 if FULL_SCALE else 800,
    ("multistate_swap", 3): 4000 if FULL_SCALE else 800,
    ("nstate_swap", 2): 2400 if FULL_SCALE else 600,
    ("nstate_swap", 3): 1200 if FULL_SCALE else 200,
    ("nparty_hadamard", 2): 2400 if FULL_SCALE else 400,
}


def _random_states(k, rng):
    states = []
    for _ in range(k):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        states.append(v / np.linalg.norm(v))
    return states


def test_protocol_family_accuracy(once):
    table = Table(
        "Protocol family accuracy — estimate vs exact overlap",
        ["kind", "k", "exact", "estimate", "stderr", "sigmas"],
    )
    rng = np.random.default_rng(2026)
    engine = make_engine()

    def run():
        results = []
        for (kind, k), shots in SHOTS.items():
            states = _random_states(k, rng)
            experiment = getattr(Experiment, kind)(
                states, shots=shots, seed=k * 13 + len(kind)
            )
            results.append((kind, k, experiment.run(engine, with_exact=True)))
        return results

    with stopwatch() as elapsed:
        results = once(run)
    for kind, k, result in results:
        sigma = abs(result.real - result.exact.real) / max(result.stderr, 1e-9)
        table.add_row(
            kind=kind,
            k=k,
            exact=f"{result.exact:.4f}",
            estimate=f"{result.estimate:.4f}",
            stderr=result.stderr,
            sigmas=f"{sigma:.2f}",
        )
        assert result.within(result.exact, sigmas=5.5)
        im_sigma = abs(result.imag - result.exact.imag) / max(result.extra["stderr_im"], 1e-12)
        assert im_sigma <= 5.5
    emit(
        "protocol_family_accuracy",
        table,
        wall_time=elapsed(),
        engine=engine,
        results=[result for _, _, result in results],
    )
    engine.close()


def test_protocol_family_ranking(once):
    table = Table(
        "Protocol family ranking — Appendix-B bounds at 2% link noise",
        ["topology", "scheme", "rank", "bound", "crossover_vs_naive"],
    )
    network = NetworkSpec(link_depolarizing=0.02)

    def run():
        rows = protocol_comparison(1, 4, network)
        ranking = crossover_link_rate(
            1, 4, schemes=FAMILY, topologies=("line", "ring"), network=network
        )
        return rows, ranking

    with stopwatch() as elapsed:
        rows, ranking = once(run)
    assert {row["scheme"] for row in rows} == set(FAMILY)
    assert all(0.0 < row["bound"] <= 1.0 for row in rows)
    for topology, ranked in ranking.items():
        schemes = {row["scheme"] for row in ranked}
        assert "compas-teledata" in schemes
        assert len(schemes & {"multistate", "nstate", "nparty"}) >= 2
        for row in ranked:
            crossover = row["crossover_vs_naive"]
            table.add_row(
                topology=topology,
                scheme=row["scheme"],
                rank=row["rank"],
                bound=f"{row['bound']:.4f}",
                crossover_vs_naive=(
                    crossover if isinstance(crossover, str) else f"{crossover:.4f}"
                ),
            )
    emit("protocol_family_ranking", table, wall_time=elapsed())
