"""Protocol-family tests: the three new estimators through every layer.

Cross-validates each family member against exact overlaps (noiseless and
with link noise, via the density-matrix reference), proves the engine
discipline carries over (content-hashed, cached, pool-bit-identical),
and exercises the extended analysis/accounting surface.
"""

import numpy as np
import pytest

from repro.analysis.link_noise import crossover_link_rate, protocol_comparison
from repro.api import Experiment, NetworkSpec
from repro.circuits import recycle_qubits
from repro.core import (
    FAMILY,
    build_multistate_swap,
    build_nparty_hadamard,
    build_nstate_swap,
    family_builds,
    protocol_job,
)
from repro.resources.measured import SCHEMES, measure_scheme_cost
from repro.sim.density import DensitySimulator
from repro.utils.states import assemble_initial_state

KINDS = ("multistate_swap", "nstate_swap", "nparty_hadamard")
BUILDERS = {
    "multistate_swap": build_multistate_swap,
    "nstate_swap": build_nstate_swap,
    "nparty_hadamard": build_nparty_hadamard,
}


def random_states(k: int, n: int = 1, seed: int = 11) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        states.append(v / np.linalg.norm(v))
    return states


def constructor(kind):
    return getattr(Experiment, kind)


# ----------------------------------------------------------------------
# Builders: structure, locality, GHZ widths
# ----------------------------------------------------------------------
class TestBuilders:
    @pytest.mark.parametrize("member", FAMILY)
    def test_every_member_builds_local_circuits(self, member):
        for build in family_builds(member, 3, 2):
            audit = build.locality()
            assert audit.is_local, audit.describe()

    def test_family_circuit_counts(self):
        assert len(family_builds("multistate", 4, 1)) == 6  # C(4, 2)
        for member in ("compas-teledata", "nstate", "nparty", "naive"):
            assert len(family_builds(member, 4, 1)) == 1

    def test_ghz_widths_span_the_family(self):
        k = 4
        assert build_nstate_swap(k, 1, basis="x").ghz_width == 1
        assert build_nparty_hadamard(k, 1, basis="x").ghz_width == k
        assert build_multistate_swap(k, 1, basis="x").ghz_width == 1

    def test_multistate_rejects_bad_pairs_and_basis(self):
        with pytest.raises(ValueError):
            build_multistate_swap(3, 1, pair=(0, 0), basis="x")
        with pytest.raises(ValueError):
            build_multistate_swap(3, 1, pair=(0, 3), basis="x")
        with pytest.raises(ValueError):
            build_multistate_swap(3, 1, basis="y")  # overlaps are real

    def test_protocol_job_requires_readout(self):
        build = build_nstate_swap(2, 1, basis=None)
        with pytest.raises(ValueError, match="readout basis"):
            protocol_job(build, random_states(2), shots=10, seed=1)

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError, match="member must be one of"):
            family_builds("bogus", 2, 1)


# ----------------------------------------------------------------------
# Noiseless cross-validation against the exact evaluators
# ----------------------------------------------------------------------
class TestNoiselessAccuracy:
    # Shot budgets scale with circuit width: the multistate campaign runs
    # 4-qubit live-width circuits, while nparty at k=3 still needs 10
    # live qubits (15 allocated).
    @pytest.mark.parametrize(
        ("kind", "k", "shots"),
        [
            ("multistate_swap", 2, 1200),
            ("multistate_swap", 3, 1200),
            ("multistate_swap", 4, 1200),
            ("nstate_swap", 2, 1200),
            ("nstate_swap", 3, 500),
            ("nparty_hadamard", 2, 1200),
            ("nparty_hadamard", 3, 400),
        ],
    )
    def test_estimate_matches_exact_within_5_sigma(self, kind, k, shots):
        states = random_states(k, seed=20 + k)
        result = constructor(kind)(states, shots=shots, seed=7).run(with_exact=True)
        assert result.within(result.exact, sigmas=5.0)
        margin_im = 5.0 * max(result.extra["stderr_im"], 1e-12)
        assert abs(result.imag - result.exact.imag) <= margin_im

    def test_multistate_gram_matches_pairwise_overlaps(self):
        states = random_states(3, seed=5)
        result = Experiment.multistate_swap(states, shots=1800, seed=3).run(
            with_exact=True
        )
        gram = np.array(result.extra["gram"])
        assert np.allclose(gram, gram.T)
        assert np.allclose(np.diag(gram), 1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                exact = abs(np.vdot(states[i], states[j])) ** 2
                assert gram[i, j] == pytest.approx(exact, abs=0.12)


# ----------------------------------------------------------------------
# Link-noise cross-validation against the density-matrix reference
# ----------------------------------------------------------------------
class TestLinkNoiseCrossValidation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_noisy_estimate_matches_density_reference(self, kind):
        psi = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([0.6, 0.8], dtype=complex)
        states = [psi, phi]
        network = NetworkSpec(link_depolarizing=0.08)
        result = constructor(kind)(states, shots=2500, seed=17, network=network).run()

        # The reference runs on the live-width circuit the engine samples;
        # tests/test_recycle.py holds it equal to the allocated-width one.
        build = BUILDERS[kind](2, 1, basis="x")
        circuit, registers = recycle_qubits(build.circuit(), build.position_registers)
        placements = {
            registers[p]: states[build.user_of_position[p]]
            for p in range(len(registers))
        }
        init = assemble_initial_state(circuit.num_qubits, placements)
        density = DensitySimulator(noise=network.noise_model(None)).run(
            circuit, initial_state=init
        )
        expected = 0.0
        for bits, p in density.branch_probabilities().items():
            parity = 0
            for clbit in build.readout_clbits:
                parity ^= bits[clbit]
            expected += p * (1.0 - 2.0 * parity)
        assert result.estimate.real == pytest.approx(
            expected, abs=5 * max(result.stderr, 1e-3)
        )
        # The link noise must actually bite: these states overlap 0.36
        # noiselessly, and depolarized links bias the estimator — toward
        # the maximally-mixed overlap (0.5) for the swap tests, toward
        # zero parity for the wide GHZ readout — so the density
        # reference must land measurably away from the exact value.
        exact = abs(np.vdot(psi, phi)) ** 2
        assert abs(expected - exact) > 5e-3


# ----------------------------------------------------------------------
# Engine discipline: hashing, caching, pool bit-identity
# ----------------------------------------------------------------------
class TestEngineDiscipline:
    @pytest.mark.parametrize("kind", KINDS)
    def test_workers_1_vs_4_bit_identical(self, kind):
        states = random_states(2, seed=2)
        base = constructor(kind)(states, shots=600, seed=13)
        serial = base.run()
        pooled = base.with_options(workers=4, executor="process").run()
        assert serial.estimate == pooled.estimate
        assert serial.stderr == pooled.stderr

    def test_second_run_served_from_cache(self, tmp_path):
        states = random_states(2, seed=4)
        exp = Experiment.nstate_swap(states, shots=600, seed=5, cache=str(tmp_path))
        first = exp.run()
        second = exp.run()
        assert first.extra["resources"]["engine"]["from_cache"] is False
        assert second.extra["resources"]["engine"]["from_cache"] is True
        assert first.estimate == second.estimate

    def test_family_kinds_hash_distinctly(self):
        states = random_states(2, seed=6)
        hashes = {
            constructor(kind)(states, shots=100, seed=1).content_hash()
            for kind in KINDS
        }
        assert len(hashes) == 3

    def test_job_hash_is_v5(self):
        build = build_nstate_swap(2, 1, basis="x")
        job = protocol_job(build, random_states(2), shots=16, seed=3)
        assert job.content_hash()  # digest exists and is stable
        import repro.engine.job as job_module
        import inspect

        assert 'repro-job-v5' in inspect.getsource(job_module.Job.content_hash)


# ----------------------------------------------------------------------
# Experiment validation of the new kinds
# ----------------------------------------------------------------------
class TestValidation:
    def test_monolithic_backend_rejected(self):
        states = random_states(2)
        exp = Experiment.nstate_swap(states, shots=100, seed=1)
        with pytest.raises(ValueError, match="distributed"):
            exp.derive(backend="monolithic")

    def test_multistate_needs_two_shots_per_pair(self):
        states = random_states(4)
        exp = Experiment.multistate_swap(states, shots=100, seed=1)
        exp.validate()
        with pytest.raises(ValueError, match="shots"):
            Experiment.multistate_swap(states, shots=4, seed=1).validate()

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError, match="equal width"):
            Experiment.nparty_hadamard(
                [np.array([1.0, 0.0]), np.array([1.0, 0, 0, 0])], shots=100, seed=1
            ).validate()


# ----------------------------------------------------------------------
# Analysis: family ranking and crossover
# ----------------------------------------------------------------------
class TestFamilyAnalysis:
    def test_protocol_comparison_ranks_whole_family(self):
        rows = protocol_comparison(2, 4, NetworkSpec(link_depolarizing=0.02))
        assert [row["scheme"] for row in rows] != []
        assert {row["scheme"] for row in rows} == set(FAMILY)
        bounds = [row["bound"] for row in rows]
        assert bounds == sorted(bounds, reverse=True)
        assert all(0.0 <= b <= 1.0 for b in bounds)
        assert [row["rank"] for row in rows] == list(range(1, len(rows) + 1))
        for row in rows:
            assert row["physical_pairs"] >= row["logical_pairs"]

    def test_crossover_legacy_scalar_path_unchanged(self):
        value = crossover_link_rate(2, 4, grid=[0.05, 0.2, 0.45])
        assert value is None or isinstance(value, float)

    def test_crossover_family_mode_ranks_per_topology(self):
        # Acceptance criterion: a per-topology ranking including COMPAS
        # and at least two family alternatives under the same NetworkSpec.
        comparison = crossover_link_rate(
            1,
            4,
            schemes=FAMILY,
            topologies=("line", "ring"),
            grid=[i / 50 for i in range(1, 26)],
            network=NetworkSpec(link_depolarizing=0.02),
        )
        assert set(comparison) == {"line", "ring"}
        for rows in comparison.values():
            schemes = {row["scheme"] for row in rows}
            assert "compas-teledata" in schemes
            assert len(schemes & {"multistate", "nstate", "nparty"}) >= 2
            assert [row["rank"] for row in rows] == list(range(1, len(rows) + 1))
            for row in rows:
                crossover = row["crossover_vs_naive"]
                assert crossover is None or 0.0 < crossover <= 0.5

    def test_crossover_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            crossover_link_rate(1, 3, schemes=("nstate",), topologies=("moebius",))


# ----------------------------------------------------------------------
# Measured accounting over the family
# ----------------------------------------------------------------------
class TestMeasuredFamily:
    def test_new_schemes_registered(self):
        assert {"multistate", "nstate", "nparty"} <= set(SCHEMES)

    @pytest.mark.parametrize("scheme", ["multistate", "nstate", "nparty"])
    def test_measured_cost_rows(self, scheme):
        cost = measure_scheme_cost(scheme, 1, 3)
        assert cost.total_physical_bells >= cost.total_logical_bells > 0
        assert cost.depth > 0 and cost.latency >= cost.depth

    def test_multistate_campaign_accumulates(self):
        single_pair = measure_scheme_cost("multistate", 1, 2)
        campaign = measure_scheme_cost("multistate", 1, 3)
        # C(3,2) = 3 sequential circuits: consumables accumulate.
        assert campaign.total_logical_bells == 3 * single_pair.total_logical_bells
        assert campaign.depth > single_pair.depth
        assert len(campaign.per_qpu) == 3  # one usage map per circuit
