"""Figure 9c: overall COMPAS fidelity estimate (Sec 5.4).

Regenerates F = (1 - p_GHZ(ceil(k/2))) (1 - p_CSWAP(n))^(k-1) vs n for
k in {8, 12} and p2q in {0.001, 0.003, 0.005}, both designs.  Expected
shape: fidelity decreasing in n, k, and p2q; teledata slightly ahead.
"""

from conftest import FULL_SCALE, emit, make_engine, stopwatch

from repro.analysis import PrimitiveErrorModel, compose_overall_fidelity
from repro.reporting import Figure

NS = list(range(1, 6)) if FULL_SCALE else [1, 2, 3]
KS = (8, 12)
GHZ_SHOTS = 50_000 if FULL_SCALE else 5_000
SHOTS_PER_INPUT = 30 if FULL_SCALE else 6
MAX_INPUTS = 300 if FULL_SCALE else 16
PRIMITIVE_SHOTS = 20_000 if FULL_SCALE else 3_000


def test_fig9c_overall_fidelity(once):
    figure = Figure(
        "Figure 9c — overall fidelity estimate", "state width n", "fidelity"
    )
    engine = make_engine()

    def run():
        # The bound depends on n and p only through the CSWAP error, so
        # each (design, p, n) measures it once and every k reuses it; the
        # GHZ term's frames job repeats per k and comes from the cache.
        curves = {}
        for p in (0.001, 0.003, 0.005):
            model = PrimitiveErrorModel(p, shots=PRIMITIVE_SHOTS, seed=5, engine=engine)
            for design in ("teledata", "telegate"):
                cswap_error = {}
                for k in KS:
                    curve = []
                    for n in NS:
                        point = compose_overall_fidelity(
                            design,
                            n,
                            k,
                            p,
                            ghz_shots=GHZ_SHOTS,
                            cswap_shots_per_input=SHOTS_PER_INPUT,
                            cswap_max_inputs=MAX_INPUTS,
                            seed=7,
                            model=model,
                            cswap_error=cswap_error.get(n),
                            engine=engine,
                        )
                        cswap_error[n] = point.cswap_error
                        curve.append(point.fidelity)
                    curves[(design, p, k)] = curve
        return curves

    with stopwatch() as elapsed:
        curves = once(run)
    for (design, p, k), values in sorted(curves.items()):
        series = figure.new_series(f"{design} p2q={p} k={k}")
        for n, f in zip(NS, values):
            series.add(n, f)
    emit("fig9c_overall_fidelity", figure, wall_time=elapsed(), engine=engine)
    engine.close()

    # Shape: decreasing in n; k=12 below k=8; higher p lower fidelity.
    for design in ("teledata", "telegate"):
        curve = curves[(design, 0.005, 8)]
        assert curve[-1] < curve[0]
        assert curves[(design, 0.003, 12)][0] < curves[(design, 0.003, 8)][0] + 0.02
        assert curves[(design, 0.005, 8)][0] < curves[(design, 0.001, 8)][0]
