"""COMPAS core: cyclic shift, GHZ prep, CSWAP designs, protocol, estimator."""

from .compas import CompasBuild, build_compas
from .cswap import DESIGNS, CswapReport, QpuWorkspace, alloc_workspace, two_party_cswap
from .cyclic_shift import (
    cyclic_shift_unitary,
    induced_state_cycle,
    interleaved_arrangement,
    multivariate_trace,
    permutation_unitary,
    round_position_pairs,
    slot_assignment,
    trace_order,
)
from .estimator import (
    assemble_initial_state,
    exact_swap_test_expectation,
    sample_pure_inputs,
    swap_test_job,
)
from .ghz import GhzPlan, distributed_ghz, local_ghz_constant_depth, local_ghz_linear
from .multistate_swap import MultistateSwapBuild, build_multistate_swap
from .nparty_hadamard import NPartyHadamardBuild, build_nparty_hadamard
from .nstate_swap import NStateSwapBuild, build_nstate_swap
from .protocol import FAMILY, ProtocolBuild, family_builds, protocol_job
from .swap_test import VARIANTS, SwapTestBuild, build_monolithic_swap_test
from .trace_sum import exact_trace_sum

__all__ = [
    "CompasBuild",
    "build_compas",
    "DESIGNS",
    "CswapReport",
    "QpuWorkspace",
    "alloc_workspace",
    "two_party_cswap",
    "cyclic_shift_unitary",
    "induced_state_cycle",
    "interleaved_arrangement",
    "multivariate_trace",
    "permutation_unitary",
    "round_position_pairs",
    "slot_assignment",
    "trace_order",
    "assemble_initial_state",
    "exact_swap_test_expectation",
    "sample_pure_inputs",
    "swap_test_job",
    "GhzPlan",
    "distributed_ghz",
    "local_ghz_constant_depth",
    "local_ghz_linear",
    "MultistateSwapBuild",
    "build_multistate_swap",
    "NPartyHadamardBuild",
    "build_nparty_hadamard",
    "NStateSwapBuild",
    "build_nstate_swap",
    "FAMILY",
    "ProtocolBuild",
    "family_builds",
    "protocol_job",
    "VARIANTS",
    "SwapTestBuild",
    "build_monolithic_swap_test",
    "exact_trace_sum",
]
