"""End-to-end tests for the distributed COMPAS protocol."""

import numpy as np
import pytest

from repro.api import Experiment
from repro.core import build_compas
from repro.core.cyclic_shift import multivariate_trace
from repro.utils import random_density_matrix

RNG = np.random.default_rng(91)


def within_both(result, exact, sigmas=5.0):
    """Whether Re and Im of a trace estimate lie within ``sigmas`` stderrs."""
    margin_im = sigmas * max(result.extra["stderr_im"], 1e-12)
    return result.within(exact, sigmas) and abs(result.imag - exact.imag) <= margin_im


class TestBuildStructure:
    def test_ghz_width(self):
        build = build_compas(5, 1)
        assert build.ghz_width == 3  # ceil(5/2)

    def test_one_register_per_qpu(self):
        build = build_compas(4, 2)
        owners = {
            build.program.machine.owner(q)
            for reg in build.position_registers
            for q in reg
        }
        assert len(owners) == 4

    def test_locality_teledata(self):
        build = build_compas(4, 1, design="teledata")
        assert build.locality().is_local

    def test_locality_telegate(self):
        build = build_compas(4, 1, design="telegate")
        assert build.locality().is_local

    def test_user_of_position_permutation(self):
        build = build_compas(5, 1)
        assert sorted(build.user_of_position) == list(range(5))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_compas(1, 1)
        with pytest.raises(ValueError):
            build_compas(3, 0)
        with pytest.raises(ValueError):
            build_compas(3, 1, design="bogus")
        with pytest.raises(ValueError):
            build_compas(3, 1, basis="q")


class TestResources:
    def test_teledata_bell_count(self):
        # k-1 CSWAPs at 2n each + (ceil(k/2)-1) GHZ links.
        for k, n in [(3, 1), (4, 2), (5, 1)]:
            build = build_compas(k, n, design="teledata")
            expect = 2 * n * (k - 1) + ((k + 1) // 2 - 1)
            assert build.program.ledger.logical == expect

    def test_telegate_bell_count(self):
        for k, n in [(3, 1), (4, 2)]:
            build = build_compas(k, n, design="telegate")
            expect = 3 * n * (k - 1) + ((k + 1) // 2 - 1)
            assert build.program.ledger.logical == expect

    def test_teledata_uses_fewer_bells_than_telegate(self):
        a = build_compas(4, 2, design="teledata").program.ledger.logical
        b = build_compas(4, 2, design="telegate").program.ledger.logical
        assert a < b

    def test_ghz_links_cost_two_hops(self):
        # Controllers sit on every other QPU of the line, so each GHZ Bell
        # pair is stitched across two physical hops.
        build = build_compas(5, 1, design="teledata")
        ledger = build.program.ledger
        ghz_links = (5 + 1) // 2 - 1
        assert ledger.physical == ledger.logical + ghz_links

    def test_resources_dict(self):
        build = build_compas(3, 1)
        res = build.resources()
        assert res["k"] == 3 and res["design"] == "teledata"
        assert res["bell_pairs"]["logical_pairs"] == build.program.ledger.logical

    def test_stage_depths_present(self):
        build = build_compas(4, 1, basis="x")
        assert "ghz_prep" in build.stage_depths
        assert "cswap_round1" in build.stage_depths
        assert "readout" in build.stage_depths


class TestConstantDepthScaling:
    def test_cswap_round_depth_constant_in_k(self):
        depths = [
            build_compas(k, 1).stage_depths["cswap_round1"] for k in (4, 6, 8)
        ]
        assert max(depths) == min(depths)

    def test_ghz_prep_depth_constant_in_k(self):
        depths = [build_compas(k, 1).stage_depths["ghz_prep"] for k in (4, 6, 8)]
        assert max(depths) - min(depths) <= 1

    def test_round_depth_saturates_in_n(self):
        depths = [
            build_compas(3, n).stage_depths["cswap_round1"] for n in (6, 8, 10)
        ]
        assert max(depths) == min(depths)


class TestEndToEndEstimation:
    def test_teledata_estimate_within_error(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.swap_test(
            states, shots=400, seed=1, backend="compas", design="teledata"
        ).run()
        assert within_both(result, multivariate_trace(states), sigmas=5)

    def test_telegate_estimate_within_error(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.swap_test(
            states, shots=300, seed=2, backend="compas", design="telegate"
        ).run()
        assert within_both(result, multivariate_trace(states), sigmas=5)

    def test_three_party_distributed(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(3)]
        result = Experiment.swap_test(
            states, shots=300, seed=3, backend="compas", design="teledata"
        ).run()
        assert within_both(result, multivariate_trace(states), sigmas=5)

    def test_result_reports_compas_backend(self):
        states = [random_density_matrix(1, rng=RNG) for _ in range(2)]
        result = Experiment.swap_test(
            states, shots=60, seed=4, backend="compas", design="teledata"
        ).run()
        assert result.extra["variant_label"] == "compas-teledata"
        assert result.extra["resources"]["backend"] == "compas"
