"""Tests for trace estimation: initial-state assembly and sampling."""

import numpy as np
import pytest

from repro.api import Experiment, ExperimentResult
from repro.core.cyclic_shift import multivariate_trace
from repro.core.estimator import assemble_initial_state, sample_pure_inputs
from repro.utils import random_density_matrix, random_pure_state

RNG = np.random.default_rng(23)


def within_both(result, exact, sigmas=5.0):
    """Whether Re and Im of a trace estimate lie within ``sigmas`` stderrs.

    The envelope's own ``within`` checks the real part; the imaginary
    part's spread is ``extra["stderr_im"]``.
    """
    margin_im = sigmas * max(result.extra["stderr_im"], 1e-12)
    return result.within(exact, sigmas) and abs(result.imag - exact.imag) <= margin_im


class TestAssembleInitialState:
    def test_single_register(self):
        psi = random_pure_state(2, RNG)
        out = assemble_initial_state(2, {(0, 1): psi})
        assert np.allclose(out, psi)

    def test_padding_with_zeros(self):
        psi = random_pure_state(1, RNG)
        out = assemble_initial_state(3, {(1,): psi})
        expect = np.kron(np.kron([1, 0], psi), [1, 0])
        assert np.allclose(out, expect)

    def test_multiple_registers(self):
        a = random_pure_state(1, RNG)
        b = random_pure_state(1, RNG)
        out = assemble_initial_state(3, {(0,): a, (2,): b})
        expect = np.kron(np.kron(a, [1, 0]), b)
        assert np.allclose(out, expect)

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValueError):
            assemble_initial_state(3, {(0, 2): random_pure_state(2, RNG)})

    def test_overlap_rejected(self):
        a = random_pure_state(2, RNG)
        b = random_pure_state(1, RNG)
        with pytest.raises(ValueError):
            assemble_initial_state(2, {(0, 1): a, (1,): b})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_initial_state(2, {(0,): np.ones(4) / 2})


class TestSamplePureInputs:
    def test_pure_state_passthrough(self):
        psi = random_pure_state(1, RNG)
        out = sample_pure_inputs([psi], RNG)
        assert np.allclose(out[0], psi)

    def test_mixed_state_samples_eigenvectors(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        seen = set()
        for _ in range(60):
            (v,) = sample_pure_inputs([rho], RNG)
            seen.add(int(np.argmax(np.abs(v))))
        assert seen == {0, 1}

    def test_sampling_unbiased_mean(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        total = np.zeros((2, 2), dtype=complex)
        trials = 800
        for _ in range(trials):
            (v,) = sample_pure_inputs([rho], RNG)
            total += np.outer(v, v.conj())
        assert np.allclose(total / trials, rho, atol=0.06)


class TestSampledEstimation:
    def test_matches_exact_within_error(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(3)]
        result = Experiment.swap_test(states, shots=3000, variant="b", seed=3).run()
        exact = multivariate_trace(states)
        assert within_both(result, exact, sigmas=5)

    def test_variant_d_with_shots(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.swap_test(states, shots=800, variant="d", seed=4).run()
        exact = multivariate_trace(states)
        assert within_both(result, exact, sigmas=5)

    def test_purity_of_pure_state_is_one(self):
        psi = random_pure_state(1, RNG)
        result = Experiment.swap_test([psi, psi], shots=600, variant="b", seed=5).run()
        assert result.estimate.real > 0.9

    def test_orthogonal_states_give_zero(self):
        a = np.array([1, 0], dtype=complex)
        b = np.array([0, 1], dtype=complex)
        result = Experiment.swap_test([a, b], shots=600, variant="b", seed=6).run()
        assert abs(result.estimate.real) < 0.2

    def test_result_metadata(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.swap_test(states, shots=100, variant="b", seed=7).run()
        assert result.extra["k"] == 2 and result.extra["n"] == 1
        assert result.extra["shots_re"] + result.extra["shots_im"] == 100
        assert "ghz_width" in result.extra["resources"]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            Experiment.swap_test([random_density_matrix(1, rng=RNG)], shots=10)
        with pytest.raises(ValueError):
            Experiment.swap_test(
                [random_density_matrix(1, rng=RNG), random_density_matrix(2, rng=RNG)],
                shots=10,
            )
        with pytest.raises(ValueError):
            Experiment.swap_test([np.eye(2) / 2] * 2, shots=10, backend="bogus")


def envelope(estimate, stderr_re, stderr_im):
    return ExperimentResult(
        kind="swap_test",
        estimate=estimate,
        stderr=stderr_re,
        shots=2,
        seed=None,
        extra={"stderr_im": stderr_im},
    )


class TestResultHelpers:
    def test_within_uses_both_parts(self):
        result = envelope(0.5 + 0.1j, 0.01, 0.01)
        assert within_both(result, 0.52 + 0.08j, sigmas=5)
        assert not within_both(result, 0.8 + 0.1j, sigmas=5)
        # The envelope's own check reads the real part only.
        assert result.within(0.5 + 0.5j, sigmas=5)
        assert not within_both(result, 0.5 + 0.5j, sigmas=5)

    def test_real_imag_accessors(self):
        result = envelope(0.25 - 0.5j, 0.0, 0.0)
        assert result.real == 0.25 and result.imag == -0.5
