"""Figure 9b: classical fidelity of the two-party CSWAP designs (Sec 5.2).

Regenerates fidelity vs state width n for teledata and telegate at p2q in
{0.001, 0.003, 0.005}, using the paper's methodology: basis-state inputs
(exhaustive below 300, sampled above), shot-based blackboxed simulation.
Expected shape: decreasing in n, sharper at larger p2q, teledata edging out
telegate on average.
"""

import numpy as np
from conftest import FULL_SCALE, emit, make_engine, stopwatch

from repro.analysis import PrimitiveErrorModel, cswap_classical_fidelity
from repro.reporting import Figure

NS = [1, 2, 3, 4, 5] if FULL_SCALE else [1, 2, 3]
SHOTS_PER_INPUT = 40 if FULL_SCALE else 8
MAX_INPUTS = 300 if FULL_SCALE else 24
PRIMITIVE_SHOTS = 20_000 if FULL_SCALE else 4_000


def test_fig9b_cswap_fidelity(once):
    figure = Figure(
        "Figure 9b — CSWAP classical fidelity vs target width",
        "state width n",
        "classical fidelity",
    )
    engine = make_engine()

    def run():
        out = {}
        for p in (0.001, 0.003, 0.005):
            model = PrimitiveErrorModel(p, shots=PRIMITIVE_SHOTS, seed=17, engine=engine)
            for design in ("teledata", "telegate"):
                for n in NS:
                    result = cswap_classical_fidelity(
                        design,
                        n,
                        p,
                        shots_per_input=SHOTS_PER_INPUT,
                        max_inputs=MAX_INPUTS,
                        seed=29,
                        model=model,
                    )
                    out[(design, p, n)] = result.fidelity
        return out

    with stopwatch() as elapsed:
        results = once(run)
    for design in ("teledata", "telegate"):
        for p in (0.001, 0.003, 0.005):
            series = figure.new_series(f"{design} p2q={p}")
            for n in NS:
                series.add(n, results[(design, p, n)])
    emit("fig9b_cswap_fidelity", figure, wall_time=elapsed(), engine=engine)
    engine.close()

    # Shape: decreasing in n at the highest noise level for both designs.
    for design in ("teledata", "telegate"):
        assert results[(design, 0.005, NS[-1])] < results[(design, 0.005, NS[0])]
    # Noise ordering at fixed n.
    assert results[("teledata", 0.005, 2)] <= results[("teledata", 0.001, 2)]
    # The two designs stay within a few percent (paper: ~0.84% mean gap).
    gaps = [
        results[("teledata", p, n)] - results[("telegate", p, n)]
        for p in (0.001, 0.003, 0.005)
        for n in NS
    ]
    assert abs(float(np.mean(gaps))) < 0.08
