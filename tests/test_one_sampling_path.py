"""Every sampled number is drawn by an engine job.

The noise analyses (Table 4, Fig 9a-c) and the naive scheme's slice
estimator take an ``engine``: each must run its shots as jobs on that
engine (so a caching engine serves a repeat), and without one it runs
them on a private serial engine.  The per-shot simulators remain only as
cross-validation oracles.  The former tableau and stabilizer routes are
gone: Clifford sample jobs run on the dense kernel and agree with the
per-shot :class:`StatevectorSimulator` oracle, and pinning a removed
route is refused with an error that names its replacement.
"""

import numpy as np
import pytest

from repro.analysis import (
    PrimitiveErrorModel,
    compose_overall_fidelity,
    fanout_error_distribution,
    ghz_fidelity_frames,
)
from repro.circuits import Circuit, Condition
from repro.core.cyclic_shift import multivariate_trace
from repro.core.naive import naive_slice_estimate
from repro.engine import BackendRouter, Engine, Job
from repro.sim import StatevectorSimulator
from repro.utils import random_density_matrix


def draw_primitives(engine: Engine) -> None:
    model = PrimitiveErrorModel(0.005, shots=2000, seed=3, engine=engine)
    model.teleport()
    model.telegate_cnot()
    model.fanout(2)


def slice_factorising_states(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.kron(random_density_matrix(1, rng=rng), random_density_matrix(1, rng=rng))
        for _ in range(2)
    ]


ENTRY_POINTS = {
    "ghz_fidelity_frames": (
        lambda engine: ghz_fidelity_frames(4, 0.005, shots=2000, seed=1, engine=engine),
        "pauliframe",
    ),
    "fanout_error_distribution": (
        lambda engine: fanout_error_distribution(
            0.005, 3, shots=2000, seed=2, engine=engine
        ),
        "pauliframe",
    ),
    "PrimitiveErrorModel": (draw_primitives, "pauliframe"),
    "compose_overall_fidelity": (
        lambda engine: compose_overall_fidelity(
            "teledata",
            1,
            4,
            0.005,
            ghz_shots=2000,
            cswap_shots_per_input=2,
            cswap_max_inputs=4,
            seed=4,
            engine=engine,
        ),
        "pauliframe",
    ),
    "naive_slice_estimate": (
        lambda engine: naive_slice_estimate(
            slice_factorising_states(5), shots=400, seed=5, engine=engine
        ),
        "statevector",
    ),
}


class TestEntryPointsRunOnTheGivenEngine:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_jobs_run_on_the_engine_and_repeat_from_cache(self, name):
        run, backend = ENTRY_POINTS[name]
        with Engine(workers=1, executor="serial", cache=True) as engine:
            first = run(engine)
            stats = engine.stats_dict()
            assert stats["jobs"] > 0
            assert set(stats["backends"]) == {backend}
            assert stats["cached_jobs"] == 0
            second = run(engine)
            repeat = engine.stats_dict()
        assert repeat["cached_jobs"] == stats["jobs"]
        assert repeat["backends"] == stats["backends"]
        if name != "PrimitiveErrorModel":
            assert second == first

    @pytest.mark.parametrize("name", ["ghz_fidelity_frames", "naive_slice_estimate"])
    def test_no_engine_equals_a_serial_engine(self, name):
        run, _ = ENTRY_POINTS[name]
        with Engine(workers=1, executor="serial") as engine:
            assert run(None) == run(engine)


class TestNaiveSliceEstimate:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agrees_with_multivariate_trace(self, seed):
        states = slice_factorising_states(seed)
        estimate = naive_slice_estimate(states, shots=8000, seed=seed)
        assert abs(estimate - multivariate_trace(states)) < 0.1


def conditioned_collapse_circuit() -> Circuit:
    """A reset conditioned on a measurement of a superposed qubit."""
    c = Circuit(2, 2).h(0).h(1).measure(0, 0)
    c.append("reset", [1], condition=Condition((0,), 1))
    return c.measure(1, 1)


def non_pauli_feedback_circuit() -> Circuit:
    """A Hadamard fed forward from a measurement."""
    c = Circuit(2, 2).h(0).measure(0, 0)
    c.h(1, condition=Condition((0,), 1))
    return c.measure(1, 1)


def reference_counts(circuit: Circuit, shots: int, seed: int) -> dict[str, int]:
    simulator = StatevectorSimulator(seed=seed)
    counts: dict[str, int] = {}
    for _ in range(shots):
        key = "".join(map(str, simulator.run(circuit).clbits))
        counts[key] = counts.get(key, 0) + 1
    return counts


def tvd(p: dict, q: dict, shots: int) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys) / shots


class TestFormerTableauRoute:
    @pytest.mark.parametrize(
        "make", [conditioned_collapse_circuit, non_pauli_feedback_circuit]
    )
    def test_routes_to_statevector_and_matches_the_per_shot_oracle(self, make):
        circuit = make()
        shots = 4000
        job = Job(circuit=circuit, shots=shots, seed=21)
        assert BackendRouter().select(job).name == "statevector"
        with Engine(workers=1, executor="serial") as engine:
            result = engine.run(job)
        assert result.backend == "statevector"
        assert tvd(result.counts, reference_counts(circuit, shots, 22), shots) < 0.05

    @pytest.mark.parametrize(
        ("pin", "replacement"),
        [
            ({"backend": "tableau"}, "backend must be one of"),
            ({"backend": "stabilizer"}, "route automatically.*mode='frames'"),
            ({"backend": "density"}, "DensitySimulator for an exact distribution"),
            ({"mode": "exact"}, "DensitySimulator for an exact distribution"),
        ],
        ids=["tableau", "stabilizer", "density", "exact"],
    )
    def test_tableau_pin_is_rejected(self, pin, replacement):
        with pytest.raises(ValueError, match=replacement):
            Job(circuit=non_pauli_feedback_circuit(), shots=10, seed=1, **pin)
