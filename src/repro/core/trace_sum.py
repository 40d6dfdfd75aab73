"""Weighted sums of multivariate traces (the paper's Sec 7 extension).

The conclusion lists "estimating sums of several multi-party SWAP tests"
(after Quek et al. [50]) as the generalisation that unlocks multivariate
polynomial evaluation for distributed QSP.  This module holds the exact
value of

    S = sum_j  w_j * tr( prod_i rho_{j,i} ) ,

which ``Experiment.trace_sum`` estimates.  Each sampled term runs one
multi-party SWAP test; the shot budget is split across terms
proportionally to |w_j| (the optimal allocation for a fixed-budget linear
combination of independent unbiased estimators with comparable per-shot
variance).  Groups of size one contribute w_j * tr(rho) = w_j directly
without spending shots.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .cyclic_shift import multivariate_trace

__all__ = ["exact_trace_sum"]


def exact_trace_sum(
    groups: Sequence[Sequence[np.ndarray]], weights: Sequence[complex]
) -> complex:
    """Exact sum_j w_j tr(prod groups[j]) — the estimator's ground truth."""
    if len(groups) != len(weights):
        raise ValueError("one weight per group required")
    total = 0.0 + 0.0j
    for group, weight in zip(groups, weights):
        total += weight * multivariate_trace(list(group))
    return complex(total)
