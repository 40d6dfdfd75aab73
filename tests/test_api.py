"""Tests for the declarative experiment API (repro.api).

Covers the satellite checklist of the API redesign: spec validation
errors, spec hash stability (including pinned digests — the hashes are a
persistence format), ExperimentResult JSON round-trips, bit-identity of
every legacy wrapper against the new path, seed recording for
``seed=None``, keyword-only enforcement, and sweep determinism across
worker counts.
"""

import json
import math

import numpy as np
import pytest

from repro.api import (
    Experiment,
    ExperimentResult,
    NetworkSpec,
    NoiseSpec,
    ProtocolSpec,
    RunOptions,
    SweepResult,
)
from repro.apps import (
    entanglement_spectroscopy,
    estimate_renyi_entropy,
    factor_polynomial,
    parallel_qsp_trace_sampled,
    virtual_expectation,
)
from repro.core import estimate_trace_sum, multiparty_swap_test, multivariate_trace
from repro.engine import Engine
from repro.sim import NoiseModel
from repro.utils import ghz_state, random_density_matrix

RNG = np.random.default_rng(2027)


def two_states():
    return [random_density_matrix(1, rng=np.random.default_rng(s)) for s in (11, 12)]


class TestSpecValidation:
    def test_protocol_rejects_bad_fields(self):
        for bad in (
            ProtocolSpec(variant="z"),
            ProtocolSpec(ghz_mode="spiral"),
            ProtocolSpec(backend="cloud"),
            ProtocolSpec(design="mystery"),
            ProtocolSpec(observable="QQ"),
            ProtocolSpec(observable=""),
            ProtocolSpec(k=1),
        ):
            with pytest.raises(ValueError):
                bad.validate()

    def test_noise_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(p1=-0.1).validate()
        with pytest.raises(ValueError):
            NoiseSpec(p_meas=1.5).validate()

    def test_network_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            NetworkSpec(topology="torus").validate()

    def test_options_reject_bad_fields(self):
        for bad in (
            RunOptions(shots=0),
            RunOptions(seed=-1),
            RunOptions(workers=0),
            RunOptions(executor="fiber"),
            RunOptions(batch_size=0),
        ):
            with pytest.raises(ValueError):
                bad.validate()

    def test_noise_spec_coercions(self):
        assert NoiseSpec.from_base(0.01) == NoiseSpec(p1=0.001, p2=0.01, p_meas=0.01)
        assert NoiseSpec.noiseless().to_model() is None
        model = NoiseModel.from_base(0.01)
        assert NoiseSpec.from_model(model).to_model() == model

    def test_experiment_payload_validation(self):
        rho = random_density_matrix(1, rng=RNG)
        with pytest.raises(ValueError):
            Experiment.swap_test([rho])  # one state
        with pytest.raises(ValueError):
            Experiment.swap_test([rho, random_density_matrix(2, rng=RNG)])
        with pytest.raises(ValueError):
            Experiment.swap_test([np.eye(3) / 3] * 2)  # not a power of two
        with pytest.raises(ValueError):
            Experiment.swap_test(two_states(), shots=1)
        with pytest.raises(ValueError):
            Experiment.swap_test(two_states(), backend="bogus")
        with pytest.raises(ValueError):
            Experiment.renyi(rho, 1)
        with pytest.raises(ValueError):
            Experiment.virtual(rho, "Z", 1)
        with pytest.raises(ValueError):
            Experiment.virtual(rho, "Q", 2)
        with pytest.raises(ValueError):
            Experiment.spectroscopy(ghz_state(2), [5], 2)
        with pytest.raises(ValueError):
            Experiment.trace_sum([], [])
        with pytest.raises(ValueError):
            Experiment.trace_sum([[rho]], [1.0, 2.0])
        with pytest.raises(ValueError):
            Experiment.ghz_fidelity(1, 0.003)
        with pytest.raises(ValueError):
            Experiment.qsp(rho, np.array([1.0, 0.0, 0.25]))  # missing k=

    def test_derive_rejects_unknown_parameter(self):
        experiment = Experiment.swap_test(two_states(), shots=100, seed=1)
        with pytest.raises(ValueError):
            experiment.derive(flux_capacitance=3)

    def test_derive_p_keeps_payload_and_noise_consistent(self):
        experiment = Experiment.overall_fidelity("teledata", 1, 4, 0.001, cswap_error=0.05)
        derived = experiment.derive(p=0.01)
        assert derived.payload["p"] == 0.01
        assert derived.noise == NoiseSpec.from_base(0.01)


class TestOptionPropagation:
    def test_noise_spec_reaches_every_trace_kind(self):
        # A pure state has purity 1; heavy depolarizing noise must push the
        # sampled estimate visibly below it in every kind that runs the
        # SWAP-test pipeline.
        psi = np.array([1.0, 0.0], dtype=complex)
        rho = np.outer(psi, psi)
        clean = Experiment.trace_sum([[psi, psi]], [1.0], shots=4000, seed=1, variant="b")
        noisy = clean.derive(noise=NoiseSpec.from_base(0.2))
        assert clean.run().estimate.real > 0.9
        assert noisy.run().estimate.real < clean.run().estimate.real - 0.05
        v_clean = Experiment.virtual(rho, "Z", 2, shots=4000, seed=2, variant="b").run()
        v_noisy = (
            Experiment.virtual(rho, "Z", 2, shots=4000, seed=2, variant="b")
            .derive(noise=NoiseSpec.from_base(0.2))
            .run()
        )
        assert v_clean.raw.denominator.real > v_noisy.raw.denominator.real + 0.05

    def test_batch_size_changes_partition(self):
        states = two_states()
        base = Experiment.swap_test(states, shots=1000, seed=4, variant="b")
        default = base.run()
        fine = base.derive(batch_size=100).run()
        assert default.extra["resources"]["engine"]["batches"] == 4  # 2x ceil(500/256)
        assert fine.extra["resources"]["engine"]["batches"] == 10  # 2x ceil(500/100)
        assert base.content_hash() != base.derive(batch_size=100).content_hash()


class TestHashing:
    def test_pinned_spec_digests(self):
        # The digests are a persistence format: these literals must never
        # change for existing field values (bump the hash tag if the
        # encoding has to evolve).
        assert (
            ProtocolSpec().content_hash()
            == "0c6dcf16116c3a9ab6d4d3f7028a4007cac6db8eba90f18a26894f46a0fc5340"
        )
        assert (
            NoiseSpec.from_base(0.003).content_hash()
            == "65e79cf6dc10b48a5f2986b79b6773c6b1c385682486d2b718bb2cbbc68a4195"
        )
        assert (
            RunOptions(shots=1000, seed=7).content_hash()
            == "ffd42583543e1854ed128234b6ea62c5c3f9ce3dcfbfafae2701aabbd0c482f5"
        )

    def test_equal_specs_hash_equal(self):
        assert ProtocolSpec(k=3).content_hash() == ProtocolSpec(k=3).content_hash()
        assert NoiseSpec(0.1, 0.2, 0.3).content_hash() == NoiseSpec(0.1, 0.2, 0.3).content_hash()

    def test_any_field_change_changes_hash(self):
        base = ProtocolSpec()
        for other in (
            ProtocolSpec(k=2),
            ProtocolSpec(variant="b"),
            ProtocolSpec(ghz_mode="fused"),
            ProtocolSpec(backend="compas"),
            ProtocolSpec(design="telegate"),
            ProtocolSpec(observable="Z"),
        ):
            assert other.content_hash() != base.content_hash()

    def test_experiment_hash_covers_payload_and_options(self):
        states = two_states()
        a = Experiment.swap_test(states, shots=100, seed=1)
        b = Experiment.swap_test([s.copy() for s in states], shots=100, seed=1)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != a.derive(shots=200).content_hash()
        assert a.content_hash() != a.derive(seed=2).content_hash()
        assert a.content_hash() != a.derive(variant="b").content_hash()
        other_states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        other = Experiment.swap_test(other_states, shots=100, seed=1)
        assert a.content_hash() != other.content_hash()


class TestResultEnvelope:
    def test_round_trip_through_json(self):
        result = Experiment.swap_test(two_states(), shots=300, seed=5).run(with_exact=True)
        payload = result.to_dict()
        rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.to_dict() == payload
        assert rebuilt.estimate == result.estimate
        assert rebuilt.exact == result.exact
        assert rebuilt.seed == result.seed
        assert rebuilt.specs["options"]["shots"] == 300
        assert rebuilt.raw is None  # raw never survives serialization

    def test_round_trip_real_valued_kind(self):
        rho = random_density_matrix(1, rng=np.random.default_rng(3))
        result = Experiment.renyi(rho, 2, shots=300, seed=6).run(with_exact=True)
        payload = result.to_dict()
        rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.to_dict() == payload
        assert rebuilt.kind == "renyi"
        assert isinstance(rebuilt.estimate, float)

    def test_within_uses_exact_reference(self):
        result = Experiment.swap_test(two_states(), shots=4000, seed=9).run(with_exact=True)
        assert result.within(sigmas=6)

    def test_engine_stats_recorded(self):
        result = Experiment.swap_test(two_states(), shots=300, seed=5).run()
        assert result.engine_stats["jobs"] == 2
        assert result.engine_stats["shots"] == 300
        assert result.wall_time > 0


class TestLegacyWrappers:
    def test_swap_test_bit_identity_and_warning(self):
        states = two_states()
        new = Experiment.swap_test(states, shots=600, seed=21, variant="b").run()
        with pytest.warns(DeprecationWarning, match="repro legacy API"):
            old = multiparty_swap_test(states, shots=600, seed=21, variant="b")
        assert old.estimate == new.estimate
        assert old.stderr_re == new.stderr
        assert old.resources["seed"] == 21

    def test_trace_sum_bit_identity_and_warning(self):
        states = two_states()
        groups = [states, [states[0]]]
        new = Experiment.trace_sum(groups, [1.0, 0.5], shots=500, seed=3, variant="b").run()
        with pytest.warns(DeprecationWarning, match="repro legacy API"):
            old = estimate_trace_sum(groups, [1.0, 0.5], shots=500, seed=3, variant="b")
        assert old.estimate == new.estimate
        assert old.stderr == new.stderr
        assert old.seed == 3

    def test_renyi_bit_identity_and_warning(self):
        rho = random_density_matrix(1, rng=np.random.default_rng(8))
        new = Experiment.renyi(rho, 2, shots=500, seed=4, variant="b").run()
        with pytest.warns(DeprecationWarning, match="repro legacy API"):
            old = estimate_renyi_entropy(rho, 2, shots=500, seed=4, variant="b")
        assert old.entropy == new.estimate
        assert old.trace_estimate == new.raw.trace_estimate

    def test_spectroscopy_bit_identity_and_warning(self):
        new = Experiment.spectroscopy(ghz_state(2), [0], 2, shots=500, seed=5, variant="b").run()
        with pytest.warns(DeprecationWarning, match="repro legacy API"):
            old = entanglement_spectroscopy(ghz_state(2), [0], 2, shots=500, seed=5, variant="b")
        assert old.power_sums == new.raw.power_sums
        assert np.array_equal(old.eigenvalues, new.raw.eigenvalues)

    def test_spectroscopy_exact_flag_maps_to_run_exact(self):
        with pytest.warns(DeprecationWarning, match="repro legacy API"):
            old = entanglement_spectroscopy(ghz_state(2), [0], 2, exact=True)
        new = Experiment.spectroscopy(ghz_state(2), [0], 2).run_exact()
        assert np.allclose(old.eigenvalues, [0.5, 0.5], atol=1e-9)
        assert np.array_equal(old.eigenvalues, new.raw.eigenvalues)

    def test_virtual_bit_identity_and_warning(self):
        rho = random_density_matrix(1, rng=np.random.default_rng(9))
        new = Experiment.virtual(rho, "Z", 2, shots=500, seed=6, variant="b").run()
        with pytest.warns(DeprecationWarning, match="repro legacy API"):
            old = virtual_expectation(rho, "Z", 2, shots=500, seed=6, variant="b")
        assert old.value == new.estimate
        assert old.numerator == new.raw.numerator

    def test_qsp_bit_identity_and_warning(self):
        rho = random_density_matrix(1, rng=np.random.default_rng(10))
        factored = factor_polynomial(np.array([1.0, 0.0, 0.5, 0.0, 0.2]), 2)
        new = Experiment.qsp(rho, factored, shots=500, seed=7, variant="b").run()
        with pytest.warns(DeprecationWarning, match="repro legacy API"):
            old_estimate, old_exact = parallel_qsp_trace_sampled(
                rho, factored, shots=500, seed=7, variant="b"
            )
        assert old_estimate == new.estimate
        assert old_exact == new.raw[1] == new.exact

    def test_spec_like_arguments_are_keyword_only(self):
        states = two_states()
        with pytest.raises(TypeError):
            multiparty_swap_test(states, 600)  # shots positionally: rejected
        with pytest.raises(TypeError):
            estimate_renyi_entropy(states[0], 2, 600)


class TestSeedRecording:
    def test_seed_none_draws_and_records(self):
        states = two_states()
        result = Experiment.swap_test(states, shots=200).run()
        assert isinstance(result.seed, int)
        assert result.raw.resources["seed"] == result.seed
        # The recorded seed reproduces the run bit-for-bit.
        replay = Experiment.swap_test(states, shots=200, seed=result.seed).run()
        assert replay.estimate == result.estimate

    def test_legacy_wrapper_records_drawn_seed(self):
        states = two_states()
        with pytest.warns(DeprecationWarning):
            result = multiparty_swap_test(states, shots=200)
        recorded = result.resources["seed"]
        assert isinstance(recorded, int)
        with pytest.warns(DeprecationWarning):
            replay = multiparty_swap_test(states, shots=200, seed=recorded)
        assert replay.estimate == result.estimate


class TestExactPath:
    def test_swap_test_exact_matches_multivariate_trace(self):
        states = [random_density_matrix(1, rng=np.random.default_rng(s)) for s in (1, 2, 3)]
        result = Experiment.swap_test(states).run_exact()
        assert result.estimate == pytest.approx(multivariate_trace(states))
        assert result.shots == 0 and result.stderr == 0.0

    def test_renyi_exact(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        result = Experiment.renyi(rho, 2).run_exact()
        assert result.estimate == pytest.approx(math.log(0.625) / -1)

    def test_no_exact_for_fanout(self):
        with pytest.raises(ValueError):
            Experiment.fanout_errors(4, 0.003).run_exact()


class TestAnalysisKinds:
    def test_ghz_fidelity_runs(self):
        result = Experiment.ghz_fidelity(4, 0.0, shots=200, seed=0).run()
        assert result.estimate == 1.0
        noisy = Experiment.ghz_fidelity(4, 0.01, shots=2000, seed=1).run()
        assert 0.5 < noisy.estimate < 1.0

    def test_fanout_errors_runs(self):
        result = Experiment.fanout_errors(4, 0.003, shots=4000, seed=2).run()
        assert 0.0 < result.estimate < 0.5
        assert result.raw.num_targets == 4

    def test_overall_fidelity_runs(self):
        result = Experiment.overall_fidelity(
            "teledata", 1, 4, 0.001, ghz_shots=1000, cswap_error=0.05, seed=3
        ).run()
        expected = (1.0 - result.extra["ghz_error"]) * 0.95**3
        assert result.estimate == pytest.approx(expected)


class TestSweep:
    def test_sweep_deterministic_across_workers(self):
        states = two_states()
        base = Experiment.swap_test(states, shots=512, seed=13, variant="b")
        with Engine(workers=1) as serial, Engine(workers=4, executor="thread") as pool:
            one = base.sweep(over="shots", values=[256, 512], engine=serial)
            four = base.sweep(over="shots", values=[256, 512], engine=pool)
        assert one.estimates() == four.estimates()
        assert [p.result.stderr for p in one] == [p.result.stderr for p in four]

    def test_grid_row_major_order(self):
        states = two_states()
        sweep = Experiment.swap_test(states, shots=64, seed=1, variant="b").sweep(
            grid={"shots": [64, 128], "variant": ["b", "d"]}
        )
        assert [p.params for p in sweep.points] == [
            {"shots": 64, "variant": "b"},
            {"shots": 64, "variant": "d"},
            {"shots": 128, "variant": "b"},
            {"shots": 128, "variant": "d"},
        ]

    def test_zipped_axes_and_values(self):
        sweep = Experiment.ghz_fidelity(4, 0.003, shots=400, seed=7).sweep(
            over=("num_parties", "seed"), values=[(4, 7), (6, 9)]
        )
        assert sweep.values("num_parties") == [4, 6]
        assert [p.result.seed for p in sweep] == [7, 9]

    def test_sweep_round_trips_through_json(self):
        sweep = Experiment.swap_test(two_states(), shots=128, seed=2, variant="b").sweep(
            over="shots", values=[128, 256]
        )
        payload = json.loads(json.dumps(sweep.to_dict()))
        rebuilt = SweepResult.from_dict(payload)
        assert rebuilt.to_dict() == sweep.to_dict()
        assert rebuilt.estimates() == sweep.estimates()

    def test_sweep_shares_one_cache(self):
        states = two_states()
        with Engine(workers=1, cache=True) as engine:
            base = Experiment.swap_test(states, shots=128, seed=3, variant="b")
            base.sweep(over="shots", values=[128, 128], engine=engine)
            assert engine.cache.stats.hits >= 2  # identical points served from cache
