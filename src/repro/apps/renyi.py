"""Rényi entropy estimation (paper Sec 6.1).

For integer order m >= 2, ``S_m(rho) = log(tr(rho^m)) / (1 - m)``; the trace
of the m-th power is exactly what the multi-party SWAP test computes on m
copies of rho.  The distributed protocol therefore extends standard Rényi
entropy measurement [23, 27, 57] to multi-QPU systems unchanged.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["renyi_entropy_exact"]


def renyi_entropy_exact(rho: np.ndarray, order: int) -> float:
    """Exact S_m(rho) = log tr(rho^m) / (1 - m) for integer m >= 2."""
    if order < 2:
        raise ValueError("integer Rényi order must be >= 2")
    eigenvalues = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    moment = float(np.sum(eigenvalues**order))
    return math.log(moment) / (1 - order)
