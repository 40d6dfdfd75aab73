"""Mini noise study: the Section 5 pipeline end to end on a laptop budget.

1. Sample the Fanout's effective Pauli error distribution (Table 4 method).
2. Estimate distributed GHZ fidelity by frame sampling, as one
   ``Experiment.ghz_fidelity`` sweep over the party count (Fig 9a).
3. Blackboxed classical fidelity of both CSWAP designs (Fig 9b).
4. Compose the overall protocol fidelity bound (Fig 9c).

Run:  python examples/noise_analysis.py
"""

from repro import Experiment
from repro.analysis import PrimitiveErrorModel, cswap_classical_fidelity

P = 0.003  # the paper's middle noise level


def main() -> None:
    print(f"== Fanout error distribution (p = {P}, 4 targets) ==")
    fanout = Experiment.fanout_errors(4, P, shots=30000, seed=1).run()
    for label, prob in fanout.extra["top_errors"][:4]:
        print(f"   {label}: {prob:.2%}")
    print(f"   any error: {fanout.estimate:.2%}")

    print("\n== Distributed GHZ fidelity (frame sampling) ==")
    sweep = Experiment.ghz_fidelity(4, P, shots=8000, seed=4).sweep(
        over="num_parties", values=[4, 8, 12]
    )
    for point in sweep:
        print(f"   r = {point.params['num_parties']:>2}: {point.result.estimate:.4f}")

    print("\n== Two-party CSWAP classical fidelity (blackboxed, Sec 5.2) ==")
    model = PrimitiveErrorModel(P, shots=6000, seed=2)
    cswap_error = {}
    for design in ("teledata", "telegate"):
        for n in (1, 2):
            result = cswap_classical_fidelity(
                design, n, P, shots_per_input=10, max_inputs=24, seed=3, model=model
            )
            cswap_error[(design, n)] = 1.0 - result.fidelity
            print(f"   {design:>8} n={n}: {result.fidelity:.4f}")

    print("\n== Overall fidelity estimate, k = 8 (Sec 5.4) ==")
    for design in ("teledata", "telegate"):
        for n in (1, 2):
            point = Experiment.overall_fidelity(
                design, n, 8, P, ghz_shots=8000, seed=4,
                cswap_error=cswap_error[(design, n)],
            ).run()
            print(f"   {design:>8} n={n}: {point.estimate:.4f}")


if __name__ == "__main__":
    main()
