"""Tests for the Table 4 / Fig 9 noise analyses."""

import pytest

from repro.analysis import (
    PrimitiveErrorModel,
    compose_overall_fidelity,
    cswap_classical_fidelity,
    fanout_error_distribution,
    ghz_fidelity_density,
    ghz_fidelity_frames,
    ghz_fidelity_sweep,
    ghz_label_commutes,
    ideal_cswap_output,
)
from repro.api import Experiment


class TestFanoutErrors:
    def test_noiseless_has_no_errors(self):
        report = fanout_error_distribution(0.0, 4, shots=300, seed=0)
        assert report.error_probability() == 0.0
        assert report.top_errors() == []

    def test_dominant_error_is_z_on_control(self):
        # The paper's headline Table 4 observation.
        report = fanout_error_distribution(0.003, 4, shots=30000, seed=1)
        top_label, top_prob = report.top_errors(1)[0]
        assert top_label == "Z" + "I" * 4
        assert 0.005 < top_prob < 0.02  # paper: 1.01%

    def test_error_probability_grows_with_p(self):
        low = fanout_error_distribution(0.001, 4, shots=8000, seed=2)
        high = fanout_error_distribution(0.005, 4, shots=8000, seed=2)
        assert high.error_probability() > low.error_probability()

    def test_error_probability_grows_with_targets(self):
        small = fanout_error_distribution(0.003, 4, shots=8000, seed=3)
        large = fanout_error_distribution(0.003, 8, shots=8000, seed=3)
        assert large.error_probability() > small.error_probability()

    def test_secondary_errors_are_x_patterns(self):
        report = fanout_error_distribution(0.003, 4, shots=30000, seed=4)
        labels = [label for label, _ in report.top_errors(4)]
        x_only = [l for l in labels if set(l) <= {"I", "X"}]
        assert len(x_only) >= 2  # contiguous X blocks on targets

    def test_counts_sum_to_shots(self):
        report = fanout_error_distribution(0.01, 4, shots=500, seed=5)
        assert sum(report.counts.values()) == 500


class TestGhzFidelity:
    def test_noiseless_fidelity_is_one(self):
        assert ghz_fidelity_frames(4, 0.0, shots=200, seed=0) == 1.0

    def test_frames_match_density(self):
        exact = ghz_fidelity_density(3, 0.03)
        sampled = ghz_fidelity_frames(3, 0.03, shots=20000, seed=1)
        assert abs(exact - sampled) < 0.02

    def test_fidelity_decreases_with_parties(self):
        f4 = ghz_fidelity_frames(4, 0.003, shots=6000, seed=2)
        f10 = ghz_fidelity_frames(10, 0.003, shots=6000, seed=2)
        assert f10 < f4

    def test_fidelity_decreases_with_noise(self):
        f_low = ghz_fidelity_frames(6, 0.001, shots=6000, seed=3)
        f_high = ghz_fidelity_frames(6, 0.005, shots=6000, seed=3)
        assert f_high < f_low

    def test_sweep_has_negative_slope(self):
        sweep = ghz_fidelity_sweep(0.003, parties=[4, 8, 12], shots=4000, seed=4)
        assert sweep.fit.slope < 0

    def test_commutation_predicate(self):
        assert ghz_label_commutes("XXX")
        assert ghz_label_commutes("ZZI")
        assert ghz_label_commutes("III")
        assert not ghz_label_commutes("ZII")
        assert not ghz_label_commutes("XII")


class TestCswapFidelity:
    def test_ideal_output_permutes_on_control(self):
        # control=1: swap x and y blocks.
        n = 2
        idx = 0b1_01_10  # c=1, x=01, y=10
        assert ideal_cswap_output(idx, n) == 0b1_10_01

    def test_ideal_output_identity_without_control(self):
        n = 2
        idx = 0b0_01_10
        assert ideal_cswap_output(idx, n) == idx

    def test_noiseless_blackbox_fidelity_one(self):
        model = PrimitiveErrorModel(0.0, shots=50, seed=0)
        result = cswap_classical_fidelity(
            "teledata", 1, 0.0, shots_per_input=4, seed=1, model=model
        )
        assert result.fidelity == 1.0

    @pytest.mark.parametrize("design", ["teledata", "telegate"])
    def test_noisy_fidelity_below_one(self, design):
        model = PrimitiveErrorModel(0.005, shots=2000, seed=2)
        result = cswap_classical_fidelity(
            design, 1, 0.005, shots_per_input=8, max_inputs=8, seed=3, model=model
        )
        assert 0.3 < result.fidelity < 1.0

    def test_fidelity_decreases_with_n(self):
        model = PrimitiveErrorModel(0.005, shots=2000, seed=4)
        f1 = cswap_classical_fidelity(
            "teledata", 1, 0.005, shots_per_input=10, max_inputs=8, seed=5, model=model
        ).fidelity
        f3 = cswap_classical_fidelity(
            "teledata", 3, 0.005, shots_per_input=10, max_inputs=8, seed=5, model=model
        ).fidelity
        assert f3 < f1

    def test_input_sampling_cap(self):
        model = PrimitiveErrorModel(0.0, shots=50, seed=6)
        result = cswap_classical_fidelity(
            "teledata", 2, 0.0, shots_per_input=1, max_inputs=10, seed=7, model=model
        )
        assert result.inputs_used == 10


class TestOverall:
    def test_composition_formula(self):
        point = compose_overall_fidelity(
            "teledata", 1, 4, 0.001, ghz_shots=2000, seed=1, cswap_error=0.05
        )
        expect = (1 - point.ghz_error) * (1 - 0.05) ** 3
        assert point.fidelity == pytest.approx(expect)

    def test_fidelity_decreases_with_k(self):
        small = compose_overall_fidelity(
            "teledata", 1, 4, 0.003, ghz_shots=3000, seed=2, cswap_error=0.05
        )
        large = compose_overall_fidelity(
            "teledata", 1, 12, 0.003, ghz_shots=3000, seed=2, cswap_error=0.05
        )
        assert large.fidelity < small.fidelity

    def test_fidelity_nonnegative(self):
        point = compose_overall_fidelity(
            "teledata", 1, 50, 0.005, ghz_shots=500, seed=3, cswap_error=0.5
        )
        assert point.fidelity >= 0.0

    @pytest.mark.parametrize("k", [4, 6])
    def test_ghz_term_within_five_sigma_of_density(self, k):
        p = 0.01
        point = compose_overall_fidelity(
            "teledata", 1, k, p, ghz_shots=20000, seed=k, cswap_error=0.05
        )
        exact = ghz_fidelity_density((k + 1) // 2, p)
        assert point.ghz_stderr > 0.0
        assert abs((1.0 - point.ghz_error) - exact) < 5.0 * point.ghz_stderr

    def test_supplied_cswap_error_counts_as_exact(self):
        point = compose_overall_fidelity(
            "teledata", 1, 4, 0.005, ghz_shots=2000, seed=1, cswap_error=0.05
        )
        assert point.cswap_stderr == 0.0
        assert point.stderr == pytest.approx(0.95**3 * point.ghz_stderr)

    def test_sampled_cswap_term_adds_variance(self):
        point = compose_overall_fidelity(
            "teledata",
            1,
            4,
            0.005,
            ghz_shots=2000,
            cswap_shots_per_input=4,
            cswap_max_inputs=8,
            seed=1,
        )
        assert point.cswap_stderr > 0.0
        ghz_only = (1.0 - point.cswap_error) ** 3 * point.ghz_stderr
        assert point.stderr > ghz_only

    def test_experiment_reports_the_propagated_stderr(self):
        result = Experiment.overall_fidelity(
            "teledata", 1, 4, 0.005, ghz_shots=2000, seed=1, cswap_error=0.05
        ).run()
        point = compose_overall_fidelity(
            "teledata", 1, 4, 0.005, ghz_shots=2000, seed=1, cswap_error=0.05
        )
        assert result.estimate == point.fidelity
        assert result.stderr == point.stderr > 0.0
