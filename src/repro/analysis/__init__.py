"""Evaluation-section analyses: Table 4, Figures 9a/9b/9c, Figure 10,
plus the physical-network link-infidelity extension."""

from .blackbox import BlackboxCircuit, ErrorSampler, PrimitiveErrorModel
from .cswap_fidelity import (
    CswapFidelityResult,
    build_blackbox_cswap,
    cswap_classical_fidelity,
    ideal_cswap_output,
)
from .fanout_errors import (
    FanoutErrorReport,
    build_fanout_circuit,
    fanout_error_distribution,
    sample_fanout_error_counts,
)
from .frames import sample_frame_counts
from .ghz_fidelity import (
    GhzSweepResult,
    ghz_fidelity_density,
    ghz_fidelity_density_model,
    ghz_fidelity_frames,
    ghz_fidelity_sweep,
    ghz_label_commutes,
    sample_ghz_fidelity_frames,
)
from .link_noise import (
    crossover_link_rate,
    event_fidelity_floor,
    protocol_comparison,
    protocol_fidelity_bound,
)
from .network import (
    DISTILLATION_CODES,
    QECCode,
    bell_pair_depolarized,
    logical_bell_error_rate,
    max_parties,
    remote_cnot_fidelity,
    remote_cnot_fidelity_floor,
    teleop_count,
    teleop_fidelity_bound,
    teleport_fidelity,
    teleport_fidelity_floor,
    total_fidelity_bound,
)
from .overall import (
    OverallFidelityPoint,
    compose_overall_fidelity,
    overall_fidelity_curve,
)

__all__ = [
    "BlackboxCircuit",
    "ErrorSampler",
    "PrimitiveErrorModel",
    "CswapFidelityResult",
    "build_blackbox_cswap",
    "cswap_classical_fidelity",
    "ideal_cswap_output",
    "FanoutErrorReport",
    "build_fanout_circuit",
    "fanout_error_distribution",
    "sample_fanout_error_counts",
    "sample_frame_counts",
    "GhzSweepResult",
    "ghz_fidelity_density",
    "ghz_fidelity_density_model",
    "ghz_fidelity_frames",
    "ghz_fidelity_sweep",
    "ghz_label_commutes",
    "sample_ghz_fidelity_frames",
    "crossover_link_rate",
    "event_fidelity_floor",
    "protocol_comparison",
    "protocol_fidelity_bound",
    "DISTILLATION_CODES",
    "QECCode",
    "bell_pair_depolarized",
    "logical_bell_error_rate",
    "max_parties",
    "remote_cnot_fidelity",
    "remote_cnot_fidelity_floor",
    "teleop_count",
    "teleop_fidelity_bound",
    "teleport_fidelity",
    "teleport_fidelity_floor",
    "total_fidelity_bound",
    "OverallFidelityPoint",
    "compose_overall_fidelity",
    "overall_fidelity_curve",
]
