"""Physical network model: measured accounting + link-infidelity degradation.

Two parts, both beyond the paper's ideal-link evaluation (its Sec 7 names
network topology/quality as the main architecture-side extension):

1. **Measured vs closed-form accounting** — per-QPU ancilla/Bell/depth
   numbers derived from the lowered protocol circuits, side by side with
   the Tables 1-3 closed forms (the per-QPU Bell budgets must match
   exactly on machines with an interior controller).
2. **Link-noise degradation sweep** — a topology x link-infidelity grid of
   distributed swap tests run through ``Experiment.sweep``, recording how
   the sampled estimate (and the COMPAS-vs-naive fidelity-bound advantage)
   degrades as Bell pairs get noisier.
"""

import numpy as np
from conftest import emit, make_engine, scaled, stopwatch

from repro.analysis.link_noise import crossover_link_rate, protocol_comparison
from repro.api import Experiment, NetworkSpec
from repro.network import (
    complete_topology,
    line_topology,
    ring_topology,
    star_topology,
)
from repro.reporting import Table
from repro.resources import measured_scheme_comparison, scheme_comparison

P_LINKS = (0.0, 0.02, 0.1)
TOPOLOGY_BUILDERS = {
    "line": line_topology,
    "ring": ring_topology,
    "star": star_topology,
    "complete": complete_topology,
}
TOPOLOGIES = tuple(TOPOLOGY_BUILDERS)


def test_measured_vs_closed_form_accounting(once):
    k = 6
    table = Table(
        f"Measured (lowered-circuit) vs closed-form per-QPU costs (k = {k})",
        [
            "n", "scheme", "bell_pairs_measured", "bell_pairs_model",
            "ancilla_measured", "ancilla_model", "depth_measured", "depth_model",
            "latency_measured", "max_link_load",
        ],
    )

    def build_rows():
        out = []
        for n in (1, 2, 4):
            measured = {r["scheme"]: r for r in measured_scheme_comparison(n, k)}
            model = {r["scheme"]: r for r in scheme_comparison(n, k)}
            out.append((n, measured, model))
        return out

    for n, measured, model in once(build_rows):
        for scheme in ("telegate", "teledata", "naive"):
            table.add_row(
                n=n,
                scheme=scheme,
                bell_pairs_measured=measured[scheme]["bell_pairs"],
                bell_pairs_model=model[scheme]["bell_pairs"],
                ancilla_measured=measured[scheme]["ancilla"],
                ancilla_model=model[scheme]["ancilla"],
                depth_measured=measured[scheme]["depth"],
                depth_model=model[scheme]["depth"],
                latency_measured=measured[scheme]["latency"],
                max_link_load=measured[scheme]["max_link_load"],
            )
            # Acceptance cross-check: COMPAS per-QPU Bell budgets match the
            # tables exactly at k=6 (interior controller present).
            if scheme in ("telegate", "teledata"):
                assert measured[scheme]["bell_pairs"] == model[scheme]["bell_pairs"]
    emit("network_measured_accounting", table)


def test_link_noise_degradation_sweep(once):
    shots = scaled(20_000, 3000, 800)
    psi = np.array([1.0, 0.0], dtype=complex)
    k = 3  # 3 QPUs: the GHZ fusion link spans 2 hops on a line, 1 on complete
    table = Table(
        f"COMPAS estimate degradation under link noise (k={k}, identical pure inputs)",
        ["topology", "p_link", "estimate", "stderr", "fidelity_bound"],
    )
    base = Experiment.swap_test(
        [psi] * k, shots=shots, seed=1234, backend="compas", variant="d"
    )

    def run_grid():
        points = []
        with make_engine() as engine:
            with stopwatch() as elapsed:
                for topology in TOPOLOGIES:
                    sweep = base.derive(topology=topology).sweep(
                        over="link_depolarizing", values=list(P_LINKS), engine=engine
                    )
                    points.append((topology, sweep))
            return points, elapsed(), engine.stats_dict()

    points, wall, engine_stats = once(run_grid)
    print(f"engine: {engine_stats}")
    results = []
    for topology, sweep in points:
        for point in sweep.points:
            network = NetworkSpec(
                topology=topology, link_depolarizing=point.params["link_depolarizing"]
            )
            table.add_row(
                topology=topology,
                p_link=point.params["link_depolarizing"],
                estimate=point.result.estimate.real,
                stderr=point.result.stderr,
                fidelity_bound=protocol_comparison(
                    1,
                    3,
                    network,
                    topology=TOPOLOGY_BUILDERS[topology]([f"qpu{i}" for i in range(3)]),
                    schemes=("compas-teledata",),
                )[0]["bound"],
            )
            results.append(point.result)
    # Ideal links must reproduce tr(rho^2) = 1; noisy links must bite.
    for topology, sweep in points:
        estimates = [p.result.estimate.real for p in sweep.points]
        assert estimates[0] > 0.97
        assert estimates[-1] < estimates[0]
    emit("network_link_noise_sweep", table, wall_time=wall, results=results)


def test_compas_vs_naive_advantage(once):
    n, k = 4, 8
    table = Table(
        f"COMPAS-vs-naive fidelity-bound advantage vs link infidelity (n={n}, k={k})",
        ["p_link", "compas_bound", "naive_bound", "advantage"],
    )
    schemes = ("compas-teledata", "naive")

    def curve():
        rows = []
        for p_link in (0.0, 0.005, 0.02, 0.05, 0.1, 0.2):
            network = NetworkSpec(link_depolarizing=p_link)
            bounds = {
                row["scheme"]: row["bound"]
                for row in protocol_comparison(n, k, network, schemes=schemes)
            }
            rows.append(
                {
                    "p_link": p_link,
                    "compas_bound": bounds["compas-teledata"],
                    "naive_bound": bounds["naive"],
                    "advantage": bounds["compas-teledata"] / bounds["naive"],
                }
            )
        return rows

    rows = once(curve)
    for row in rows:
        table.add_row(**row)
    [compas] = [
        row
        for row in crossover_link_rate(n, k, schemes=schemes, topologies=("line",))["line"]
        if row["scheme"] == "compas-teledata"
    ]
    crossover = compas["crossover_vs_naive"]
    table.add_row(p_link="crossover", compas_bound="", naive_bound="", advantage=crossover)
    # COMPAS wins at realistic link rates on an 8-QPU machine, and its
    # advantage eventually erodes as link infidelity saturates naive's few
    # long-range events.
    assert rows[1]["advantage"] > 1.0
    assert isinstance(crossover, float)
    emit("network_compas_advantage", table)
