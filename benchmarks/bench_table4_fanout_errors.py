"""Table 4: Fanout error distributions under circuit-level noise (Sec 5.1).

Regenerates the full grid: p in {0.001, 0.003, 0.005} x targets in {4, 6, 8},
top-4 Pauli errors each.  Expected shape (paper): the leading error is
always Z on the control, the following errors are X blocks on the targets,
and probabilities grow with p and the target count.  Paper anchor:
ZIIII at p=0.003, 4 targets = 1.01%.

The grid is one ``Experiment.fanout_errors(...).sweep(...)`` (zipped axes
keep the per-cell seeds); the persisted JSON carries every cell's
``ExperimentResult`` envelope.
"""

from conftest import FULL_SCALE, emit, make_engine, stopwatch

from repro.api import Experiment
from repro.reporting import Table

SHOTS = 100_000 if FULL_SCALE else 20_000


def test_table4_fanout_errors(once):
    grid = [(p, t) for p in (0.001, 0.003, 0.005) for t in (4, 6, 8)]
    engine = make_engine()

    def run_grid():
        return Experiment.fanout_errors(grid[0][1], grid[0][0], shots=SHOTS).sweep(
            over=("p", "num_targets", "seed"),
            values=[(p, t, hash((p, t)) % 2**31) for p, t in grid],
            engine=engine,
        )

    with stopwatch() as elapsed:
        sweep = once(run_grid)
    cells_by_point = [
        (point.params["p"], point.params["num_targets"], point.result) for point in sweep
    ]
    table = Table(
        f"Table 4 — top Fanout errors ({SHOTS} shots)",
        ["p_phy", "targets", "1st", "2nd", "3rd", "4th"],
    )
    for p, targets, result in cells_by_point:
        tops = result.extra["top_errors"][:4]
        cells = [f"{label}: {prob:.2%}" for label, prob in tops]
        cells += [""] * (4 - len(cells))
        table.add_row(
            p_phy=p, targets=targets,
            **{"1st": cells[0], "2nd": cells[1], "3rd": cells[2], "4th": cells[3]},
        )
    emit(
        "table4_fanout_errors", table, wall_time=elapsed(), engine=engine, results=sweep
    )
    engine.close()

    # Shape assertions from the paper.
    for _, targets, result in cells_by_point:
        top_label, _ = result.extra["top_errors"][0]
        assert top_label == "Z" + "I" * targets
    by_setting = {(p, targets): result.estimate for p, targets, result in cells_by_point}
    assert by_setting[(0.005, 4)] > by_setting[(0.001, 4)]
    assert by_setting[(0.003, 8)] > by_setting[(0.003, 4)]
