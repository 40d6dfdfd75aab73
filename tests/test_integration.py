"""Cross-module integration tests: the paper's claims end to end."""

import numpy as np
import pytest

from repro.api import Experiment
from repro.core import build_compas, exact_swap_test_expectation
from repro.core.cyclic_shift import multivariate_trace
from repro.resources import teledata_cost, telegate_cost
from repro.sim import NoiseModel
from repro.utils import random_density_matrix

RNG = np.random.default_rng(101)


def within_both(result, exact, sigmas=5.0):
    """Whether Re and Im of a trace estimate lie within ``sigmas`` stderrs."""
    margin_im = sigmas * max(result.extra["stderr_im"], 1e-12)
    return result.within(exact, sigmas) and abs(result.imag - exact.imag) <= margin_im


class TestMonolithicVsDistributed:
    def test_both_backends_agree_on_same_states(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        exact = multivariate_trace(states)
        mono = Experiment.swap_test(states, shots=600, variant="b", seed=1).run()
        dist = Experiment.swap_test(
            states, shots=300, seed=1, backend="compas", design="teledata"
        ).run()
        assert within_both(mono, exact, sigmas=5)
        assert within_both(dist, exact, sigmas=5)

    def test_all_variants_agree_exactly(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(3)]
        values = [
            exact_swap_test_expectation(states, variant=v)
            for v in ("hadamard", "b", "c")
        ]
        assert np.allclose(values[0], values[1], atol=1e-8)
        assert np.allclose(values[1], values[2], atol=1e-8)


class TestPaperClaims:
    def test_claim_constant_depth_vs_parties(self):
        """COMPAS's headline: circuit depth independent of k."""
        depths = []
        for k in (4, 8, 12):
            build = build_compas(k, 1, basis="x")
            total = sum(build.stage_depths.values())
            depths.append(total)
        assert max(depths) - min(depths) <= 1

    def test_claim_bell_pairs_linear_in_width(self):
        """Bell consumption is O(n k), not O(n^2) like the naive scheme."""
        b1 = build_compas(4, 1).program.ledger.logical
        b4 = build_compas(4, 4).program.ledger.logical
        b8 = build_compas(4, 8).program.ledger.logical
        # Linear: doubling n doubles the CSWAP Bell cost.
        assert (b8 - b4) == (b4 - b1) / 3 * 4 or b8 - b4 == 2 * (b4 - b1) - (b4 - b1)
        slope1 = (b4 - b1) / 3
        slope2 = (b8 - b4) / 4
        assert slope1 == pytest.approx(slope2)

    def test_claim_teledata_recommended(self):
        """Table 3's bolded recommendation, at the implementation level."""
        dist_teledata = build_compas(4, 2, design="teledata")
        dist_telegate = build_compas(4, 2, design="telegate")
        assert (
            dist_teledata.program.ledger.logical
            < dist_telegate.program.ledger.logical
        )
        assert teledata_cost(2).memory_estimate < telegate_cost(2).memory_estimate

    def test_claim_ghz_width_half_k(self):
        """COMPAS keeps the GHZ width at ceil(k/2) even for n > 1 (Fig 2d)."""
        for k in (4, 5, 8):
            build = build_compas(k, 3)
            assert build.ghz_width == (k + 1) // 2

    def test_noise_degrades_estimate(self):
        """Circuit-level noise must visibly bias/blur the trace estimate."""
        psi = np.array([1, 0], dtype=complex)
        states = [psi, psi]  # tr = 1 exactly
        clean = Experiment.swap_test(states, shots=400, variant="b", seed=3).run()
        noisy = Experiment.swap_test(
            states,
            shots=400,
            variant="b",
            seed=3,
            noise=NoiseModel.from_base(0.05),
        ).run()
        assert clean.estimate.real > noisy.estimate.real

    def test_imaginary_part_recovered(self):
        """The X/Y two-basis readout captures complex traces (Sec 2.3)."""
        states = [random_density_matrix(1, rng=RNG) for _ in range(3)]
        exact = multivariate_trace(states)
        assert abs(exact.imag) > 1e-3  # random states: generically complex
        got = exact_swap_test_expectation(states, variant="b")
        assert got.imag == pytest.approx(exact.imag, abs=1e-8)


class TestWorkloadSweep:
    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 1), (4, 1), (5, 1)])
    def test_exact_protocol_across_sizes(self, k, n):
        states = [random_density_matrix(n, rng=RNG) for _ in range(k)]
        got = exact_swap_test_expectation(states, variant="b")
        want = multivariate_trace(states)
        assert np.allclose(got, want, atol=1e-8)
