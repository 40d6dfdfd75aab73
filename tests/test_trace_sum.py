"""Tests for the Sec 7 extension: weighted sums of multivariate traces."""

import numpy as np
import pytest

from repro.api import Experiment
from repro.core import exact_trace_sum
from repro.utils import random_density_matrix

RNG = np.random.default_rng(83)


class TestExact:
    def test_single_term(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        got = exact_trace_sum([states], [2.0])
        want = 2.0 * np.trace(states[0] @ states[1])
        assert np.allclose(got, want)

    def test_two_terms(self):
        a = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        b = [random_density_matrix(1, rng=RNG) for _ in range(3)]
        got = exact_trace_sum([a, b], [1.0, -0.5])
        want = np.trace(a[0] @ a[1]) - 0.5 * np.trace(b[0] @ b[1] @ b[2])
        assert np.allclose(got, want)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            exact_trace_sum([[np.eye(2) / 2]], [1.0, 2.0])


class TestEstimated:
    def test_matches_exact_within_error(self):
        a = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        b = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.trace_sum(
            [a, b], [1.0, 0.5], shots=3000, seed=1, variant="b"
        ).run()
        exact = exact_trace_sum([a, b], [1.0, 0.5])
        assert abs(result.estimate - exact) < 5 * max(result.stderr, 0.01) + 0.05

    def test_singleton_group_costs_no_shots(self):
        rho = random_density_matrix(1, rng=RNG)
        result = Experiment.trace_sum([[rho]], [3.0], shots=100, seed=2).run()
        assert result.estimate == pytest.approx(3.0)
        assert result.extra["term_estimates"] == [None]
        assert result.extra["term_shots"] == [None]
        assert result.stderr == 0.0

    def test_zero_weight_skipped(self):
        a = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        b = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.trace_sum(
            [a, b], [1.0, 0.0], shots=400, seed=3, variant="b"
        ).run()
        assert result.extra["term_estimates"][1] is None

    def test_shot_allocation_prefers_heavy_weights(self):
        a = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        b = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.trace_sum(
            [a, b], [10.0, 1.0], shots=2200, seed=4, variant="b"
        ).run()
        heavy, light = result.extra["term_shots"]
        assert heavy > 4 * light

    def test_validation(self):
        with pytest.raises(ValueError):
            Experiment.trace_sum([], [], shots=10)
        with pytest.raises(ValueError):
            Experiment.trace_sum([[np.eye(2) / 2]], [1.0, 1.0], shots=10)

    def test_mixed_group_sizes(self):
        rho = random_density_matrix(1, rng=RNG)
        pair = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.trace_sum(
            [[rho], pair], [0.5, 1.0], shots=1500, seed=5, variant="b"
        ).run()
        exact = 0.5 + np.trace(pair[0] @ pair[1])
        assert abs(result.estimate - exact) < 0.2
