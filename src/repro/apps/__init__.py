"""Section 6 applications: Rényi entropy, spectroscopy, virtual cooling/distillation, parallel QSP."""

from .qsp import (
    FactoredPolynomial,
    apply_polynomial,
    factor_polynomial,
    parallel_qsp_trace_exact,
)
from .renyi import renyi_entropy_exact
from .spectroscopy import newton_girard_elementary, spectrum_from_power_sums
from .virtual import (
    cooling_schedule_exact,
    distillation_error_exact,
    virtual_expectation_exact,
)

__all__ = [
    "FactoredPolynomial",
    "apply_polynomial",
    "factor_polynomial",
    "parallel_qsp_trace_exact",
    "renyi_entropy_exact",
    "newton_girard_elementary",
    "spectrum_from_power_sums",
    "cooling_schedule_exact",
    "distillation_error_exact",
    "virtual_expectation_exact",
]
