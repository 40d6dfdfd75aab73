"""Link-noise sweep: COMPAS on a physical network, and the naive crossover.

The paper evaluates COMPAS under ideal Bell pairs; this example makes the
network physical (its Sec 7 architecture-side extension):

1. Sweep the per-link depolarizing rate of a 3-QPU line through one
   ``Experiment.sweep`` and watch the sampled purity estimate degrade
   (and recover on better-connected topologies).
2. Show the measured per-QPU accounting (Bell pairs, depth, latency) the
   lowered circuit reports for the same protocol.
3. Reproduce the COMPAS-vs-naive crossover: on an 8-QPU line COMPAS's
   fidelity bound beats naive redistribution at realistic link rates, but
   the advantage erodes — and finally flips — as link fidelity drops,
   because naive's few long-range events saturate while COMPAS's many
   short-range events keep compounding.

Run:  python examples/link_noise_sweep.py
"""

import numpy as np

from repro import Experiment, NetworkSpec
from repro.analysis import crossover_link_rate, protocol_comparison
from repro.resources import measure_scheme_cost

P_LINKS = [0.0, 0.01, 0.03, 0.1]


def main() -> None:
    psi = np.array([1.0, 0.0], dtype=complex)

    print("== Purity of identical pure states under link noise (k = 3) ==")
    base = Experiment.swap_test(
        [psi] * 3, shots=3000, seed=7, backend="compas", variant="d"
    )
    for topology in ("line", "complete"):
        sweep = base.derive(topology=topology).sweep(
            over="link_depolarizing", values=P_LINKS
        )
        row = "  ".join(
            f"p={point.params['link_depolarizing']:.2f}: {point.result.estimate.real:+.3f}"
            for point in sweep
        )
        print(f"   {topology:>8}: {row}")
    print("   (exact value is 1; the line pays an extra hop on the GHZ link)")

    print("\n== Measured per-QPU accounting, teledata k = 6, n = 2 ==")
    cost = measure_scheme_cost("teledata", n=2, k=6, bell_latency=3.0)
    print(
        f"   per-QPU Bell pairs {cost.bell_pairs} (Table 2 says 2+4n = 10), "
        f"ancilla {cost.ancilla}, depth {cost.depth}, latency {cost.latency}"
    )

    print("\n== COMPAS-vs-naive fidelity-bound crossover (n = 4, k = 8) ==")
    schemes = ("compas-teledata", "naive")
    for p_link in (0.005, 0.02, 0.1, 0.2):
        bounds = {
            row["scheme"]: row["bound"]
            for row in protocol_comparison(
                4, 8, NetworkSpec(link_depolarizing=p_link), schemes=schemes
            )
        }
        compas, naive = bounds["compas-teledata"], bounds["naive"]
        print(
            f"   p_link={p_link:.3f}: compas {compas:.4f} "
            f"vs naive {naive:.4f}  (advantage {compas / naive:.2f}x)"
        )
    [row] = [
        row
        for row in crossover_link_rate(4, 8, schemes=schemes, topologies=("line",))["line"]
        if row["scheme"] == "compas-teledata"
    ]
    print(f"   COMPAS keeps its advantage until p_link ~= {row['crossover_vs_naive']:.4f}")


if __name__ == "__main__":
    main()
