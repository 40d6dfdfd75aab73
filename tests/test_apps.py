"""Tests for the Section 6 applications."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment
from repro.apps import (
    cooling_schedule_exact,
    distillation_error_exact,
    factor_polynomial,
    newton_girard_elementary,
    parallel_qsp_trace_exact,
    renyi_entropy_exact,
    spectrum_from_power_sums,
    virtual_expectation_exact,
)
from repro.apps.qsp import apply_polynomial
from repro.utils import (
    ghz_state,
    noisy_pure_state,
    random_density_matrix,
    random_hermitian,
)

RNG = np.random.default_rng(55)


class TestRenyi:
    def test_exact_pure_state_zero_entropy(self):
        psi = np.array([1, 0], dtype=complex)
        rho = np.outer(psi, psi)
        assert renyi_entropy_exact(rho, 2) == pytest.approx(0.0, abs=1e-9)

    def test_exact_maximally_mixed(self):
        rho = np.eye(2) / 2
        assert renyi_entropy_exact(rho, 2) == pytest.approx(math.log(2))

    def test_exact_order_dependence(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        s2 = renyi_entropy_exact(rho, 2)
        s3 = renyi_entropy_exact(rho, 3)
        assert s3 < s2  # Renyi entropies decrease in order

    def test_order_validation(self):
        with pytest.raises(ValueError):
            renyi_entropy_exact(np.eye(2) / 2, 1)

    def test_estimated_matches_exact(self):
        rho = random_density_matrix(1, rng=RNG)
        result = Experiment.renyi(rho, 2, shots=3000, seed=1, variant="b").run()
        assert abs(result.estimate - renyi_entropy_exact(rho, 2)) < 0.15

    def test_estimate_returns_metadata(self):
        rho = random_density_matrix(1, rng=RNG)
        result = Experiment.renyi(rho, 3, shots=400, seed=2, variant="b").run()
        assert result.extra["order"] == 3
        assert result.extra["trace"]["k"] == 3


class TestSpectroscopy:
    def test_newton_girard_two_values(self):
        # lambda = {0.75, 0.25}: p1 = 1, p2 = 0.625.
        e = newton_girard_elementary([1.0, 0.625])
        assert e[0] == pytest.approx(1.0)
        assert e[1] == pytest.approx(0.1875)

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=5
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_from_spectrum(self, raw):
        eigenvalues = np.array(raw) / np.sum(raw)
        # Near-degenerate roots are numerically ill-conditioned for
        # polynomial rooting; require modest separation, as the paper's
        # spectroscopy targets do.
        sorted_vals = np.sort(eigenvalues)
        if len(sorted_vals) > 1 and np.min(np.diff(sorted_vals)) < 0.02:
            return
        power_sums = [float(np.sum(eigenvalues**m)) for m in range(1, len(raw) + 1)]
        recovered = spectrum_from_power_sums(power_sums)
        assert np.allclose(np.sort(recovered), sorted_vals, atol=1e-5)

    def test_ghz_half_spectrum(self):
        result = Experiment.spectroscopy(ghz_state(2), [0], 2).run_exact()
        assert np.allclose(result.extra["eigenvalues"], [0.5, 0.5], atol=1e-9)

    def test_product_state_trivial_spectrum(self):
        psi = np.kron([1, 0], [1, 0]).astype(complex)
        result = Experiment.spectroscopy(psi, [0], 2).run_exact()
        assert result.extra["eigenvalues"][0] == pytest.approx(1.0, abs=1e-9)

    def test_sampled_spectroscopy_close(self):
        # The degenerate GHZ spectrum amplifies shot noise by a square root
        # (lambda = (1 +- sqrt(2 p2 - 1))/2), so the tolerance is loose.
        result = Experiment.spectroscopy(
            ghz_state(2), [0], 2, shots=6000, seed=3, variant="b"
        ).run()
        assert abs(result.extra["eigenvalues"][0] - 0.5) < 0.2

    def test_entanglement_energies(self):
        result = Experiment.spectroscopy(ghz_state(2), [0], 2).run_exact()
        energies = result.extra["entanglement_energies"]
        assert np.allclose(energies, [math.log(2)] * 2, atol=1e-6)


class TestVirtual:
    def test_exact_matches_linear_algebra(self):
        rho = random_density_matrix(1, rng=RNG)
        z = np.diag([1, -1]).astype(complex)
        power = rho @ rho @ rho
        want = float(np.real(np.trace(z @ power) / np.trace(power)))
        assert virtual_expectation_exact(rho, "Z", 3) == pytest.approx(want)

    def test_circuit_path_matches_exact(self):
        rho = random_density_matrix(1, rng=RNG)
        result = Experiment.virtual(rho, "Z", 2, exact_circuit=True).run()
        want = virtual_expectation_exact(rho, "Z", 2)
        assert result.estimate == pytest.approx(want, abs=1e-8)

    def test_sampled_path_close(self):
        rho = random_density_matrix(1, rng=RNG)
        result = Experiment.virtual(rho, "Z", 2, shots=4000, seed=4, variant="b").run()
        want = virtual_expectation_exact(rho, "Z", 2)
        assert abs(result.estimate - want) < 0.15

    def test_cooling_monotone(self):
        h = random_hermitian(2, RNG)
        curve = cooling_schedule_exact(h, 0.4, [1, 2, 4, 8])
        energies = [e for _, e in curve]
        assert all(energies[i + 1] <= energies[i] + 1e-9 for i in range(3))

    def test_cooling_approaches_ground_state(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        curve = cooling_schedule_exact(h, 0.5, [16])
        assert curve[0][1] < 0.1

    def test_distillation_error_shrinks(self):
        psi, noisy = noisy_pure_state(1, 0.3, RNG)
        curve = distillation_error_exact(psi, noisy, "Z", [1, 2, 4])
        errors = [e for _, e in curve]
        assert errors[2] < errors[0]

    def test_copies_validation(self):
        rho = random_density_matrix(1, rng=RNG)
        with pytest.raises(ValueError):
            virtual_expectation_exact(rho, "Z", 0)
        with pytest.raises(ValueError):
            Experiment.virtual(rho, "Z", 1)


class TestParallelQsp:
    def test_factorisation_reconstructs_polynomial(self):
        coeffs = np.array([2.0, -1.0, 0.5, 0.25])
        factored = factor_polynomial(coeffs, 2)
        for x in np.linspace(-1, 1, 7):
            assert factored.evaluate(x) == pytest.approx(
                float(np.polyval(coeffs, x)), abs=1e-7
            )

    def test_factor_degrees_balanced(self):
        coeffs = np.polynomial.polynomial.polyfromroots([0.1, 0.2, 0.3, 0.4])[::-1]
        factored = factor_polynomial(np.array(coeffs), 2)
        assert factored.max_factor_degree == 2

    def test_factors_are_real(self):
        coeffs = np.array([1.0, 0.0, 1.0])  # x^2 + 1, complex roots
        factored = factor_polynomial(coeffs, 1)
        assert all(np.isrealobj(f) for f in factored.factors)

    def test_too_many_factors_rejected(self):
        with pytest.raises(ValueError):
            factor_polynomial(np.array([1.0, 0.0]), 5)

    def test_apply_polynomial(self):
        rho = random_density_matrix(1, rng=RNG)
        out = apply_polynomial(rho, np.array([1.0, 2.0, 3.0]))
        want = rho @ rho + 2 * rho + 3 * np.eye(2)
        assert np.allclose(out, want)

    def test_exact_trace_matches_direct(self):
        rho = random_density_matrix(1, rng=RNG)
        coeffs = np.array([1.0, 0.0, 0.5, 0.0, 0.2])
        factored = factor_polynomial(coeffs, 2)
        got = parallel_qsp_trace_exact(rho, factored)
        eigenvalues = np.linalg.eigvalsh(rho)
        want = float(np.sum(np.polyval(coeffs, eigenvalues)))
        assert got == pytest.approx(want, abs=1e-8)

    def test_sampled_trace_close(self):
        rho = random_density_matrix(1, rng=RNG)
        coeffs = np.array([1.0, 0.0, 0.5, 0.0, 0.2])  # PSD factors
        factored = factor_polynomial(coeffs, 2)
        result = Experiment.qsp(rho, factored, shots=3000, seed=5, variant="b").run()
        assert result.exact == parallel_qsp_trace_exact(rho, factored)
        assert abs(result.estimate - result.exact) < 0.3

    def test_sampled_rejects_non_psd(self):
        rho = random_density_matrix(1, rng=RNG)
        coeffs = np.polynomial.polynomial.polyfromroots([0.3, 0.6])[::-1]
        factored = factor_polynomial(np.array(coeffs), 2)
        with pytest.raises(ValueError):
            Experiment.qsp(rho, factored, shots=10).run()
