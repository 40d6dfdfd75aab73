"""Kernel matrix: the dense kernel's row census on the monolithic SWAP test.

One row, acceptance-gated: the monolithic SWAP test (k=2, n=2) run
auto-routed on the dense statevector kernel, with its history rows held
(``row_ops``) against shots times ops (``shot_ops``).  Its teledata
corrections and ancilla resets send histories back onto the same
amplitudes, and the kernel folds those rows together; folded ``row_ops``
must be at most **1/5** of a run with the fold patched out, with the same
estimate.
"""

import numpy as np
from conftest import cpu_count, emit, scaled, stopwatch

from repro.api import Experiment
from repro.engine import Engine
from repro.reporting import Table
from repro.sim.batched import _Rows
from repro.utils.states import random_pure_state

#: Monolithic SWAP test shot budget for the row-census row.
FOLD_SHOTS = scaled(full=10_000, quick=10_000, smoke=2_000)

#: Acceptance bar: folded ``row_ops`` over no-fold ``row_ops`` on the same
#: job (measured: ~1/30).
FOLD_ROW_SHARE = 1 / 5


def monolithic_swap_test() -> Experiment:
    rng = np.random.default_rng(1)
    states = [random_pure_state(2, rng) for _ in range(2)]
    return Experiment.swap_test(states, shots=FOLD_SHOTS, seed=17)


def test_kernel_matrix(once, monkeypatch):
    table = Table(
        "Dense kernel row census — monolithic SWAP test k=2 n=2",
        ["kernel", "width", "shots", "wall_time_s", "shots_per_s", "note"],
    )

    def run():
        rows = {}
        with Engine(workers=1) as engine:
            with stopwatch() as fold_time:
                rows["fold"] = monolithic_swap_test().run(engine=engine)
            rows["fold_time"] = fold_time()
            with monkeypatch.context() as patch:
                patch.setattr(_Rows, "fold", lambda self: None)
                rows["plain"] = monolithic_swap_test().run(engine=engine)
        return rows

    rows = once(run)
    folded = rows["fold"].extra["resources"]["engine"]
    plain = rows["plain"].extra["resources"]["engine"]
    table.add_row(
        kernel="statevector (auto-routed)",
        width=rows["fold"].extra["resources"]["compiled"]["live_width"],
        shots=FOLD_SHOTS,
        wall_time_s=rows["fold_time"],
        shots_per_s=f"{FOLD_SHOTS / max(rows['fold_time'], 1e-9):,.0f}",
        note=f"monolithic SWAP test k=2 n=2, row_ops/shot_ops "
        f"{folded['row_ops'] / folded['shot_ops']:.4f} "
        f"({plain['row_ops'] / plain['shot_ops']:.4f} without the fold)",
    )
    emit(
        "kernel_matrix",
        table,
        wall_time=rows["fold_time"],
        meta={
            "cpus_visible": cpu_count(),
            "fold_row_ops": folded["row_ops"],
            "no_fold_row_ops": plain["row_ops"],
            "fold_gate": f"<= {FOLD_ROW_SHARE:.2f} of no-fold row_ops",
        },
    )

    # Row fold: reconverged histories share rows and no bit moves.
    assert folded["backend"] == "statevector"
    assert repr(rows["fold"].estimate) == repr(rows["plain"].estimate)
    assert folded["shot_ops"] == plain["shot_ops"]
    assert folded["row_ops"] <= FOLD_ROW_SHARE * plain["row_ops"], (
        f"folded row_ops {folded['row_ops']} above {FOLD_ROW_SHARE:.2f} of "
        f"the no-fold {plain['row_ops']}"
    )
