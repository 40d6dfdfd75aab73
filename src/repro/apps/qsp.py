"""Parallel quantum signal processing via polynomial factorisation (Sec 6.4).

Parallel QSP [42] estimates tr(P(rho)) for a degree-d polynomial P by
factoring P into k real-coefficient factors of degree ~d/k, realising each
factor on its own system, and assembling the product trace with the
multi-party SWAP test — reducing circuit depth from O(d) to O(d/k).

This module implements the algorithm-level pipeline:

* :func:`factor_polynomial` splits P into k conjugate-closed factor
  polynomials (depth = max factor degree, reported);
* :func:`parallel_qsp_trace_exact` evaluates tr(prod_j P_j(rho)) through the
  cyclic-shift identity (valid for arbitrary Hermitian factors);
* ``Experiment.qsp(...).run()`` additionally runs the *actual*
  multi-party SWAP test when every factor matrix is PSD, normalising each
  P_j(rho) to a state and rescaling — exercising the same protocol the
  paper's distributed QSP would run.

Substitution note: the paper realises each factor with a QSP circuit
(block-encodings + phase factors); we realise factors by direct matrix
application, which preserves the assembly step COMPAS contributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cyclic_shift import multivariate_trace

__all__ = [
    "FactoredPolynomial",
    "factor_polynomial",
    "apply_polynomial",
    "parallel_qsp_trace_exact",
]


@dataclass
class FactoredPolynomial:
    """P(x) = scale * prod_j P_j(x), each P_j with real coefficients."""

    scale: float
    factors: list[np.ndarray]
    """Each entry: coefficient array, highest degree first (np.roots style)."""

    @property
    def num_factors(self) -> int:
        """k — the parallelism degree."""
        return len(self.factors)

    @property
    def max_factor_degree(self) -> int:
        """The sequential depth proxy: parallel QSP runs at O(d/k)."""
        return max(len(f) - 1 for f in self.factors)

    def evaluate(self, x: float) -> float:
        """Evaluate P at a scalar."""
        out = self.scale
        for f in self.factors:
            out *= float(np.polyval(f, x))
        return out


def factor_polynomial(coefficients: np.ndarray, k: int) -> FactoredPolynomial:
    """Split a real polynomial into k real-coefficient factors.

    Roots are grouped with conjugate pairs kept together (so every factor is
    real) and spread round-robin to balance degrees — the paper's degree
    O(d/k) requirement.  The leading coefficient is absorbed into ``scale``.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim != 1 or len(coefficients) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if k < 1:
        raise ValueError("k must be positive")
    degree = len(coefficients) - 1
    if k > degree:
        raise ValueError("cannot split into more factors than the degree")
    roots = np.roots(coefficients)
    # Group roots into conjugate-closed units.
    units: list[list[complex]] = []
    used = np.zeros(len(roots), dtype=bool)
    for i, root in enumerate(roots):
        if used[i]:
            continue
        used[i] = True
        if abs(root.imag) < 1e-10:
            units.append([complex(root.real, 0.0)])
            continue
        # Find its conjugate partner.
        partner = None
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - root.conjugate()) < 1e-8:
                partner = j
                break
        if partner is None:
            raise ValueError("complex roots of a real polynomial must pair up")
        used[partner] = True
        units.append([root, roots[partner]])
    # Round-robin units into k buckets, largest first, to balance degrees.
    units.sort(key=len, reverse=True)
    buckets: list[list[complex]] = [[] for _ in range(k)]
    for index, unit in enumerate(units):
        target = min(range(k), key=lambda b: len(buckets[b]))
        buckets[target].extend(unit)
    factors = []
    for bucket in buckets:
        if not bucket:
            factors.append(np.array([1.0]))
            continue
        poly = np.real(np.poly(np.array(bucket)))
        factors.append(poly)
    return FactoredPolynomial(scale=float(coefficients[0]), factors=factors)


def apply_polynomial(rho: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Matrix polynomial P_j(rho) (coefficients highest-degree first)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for c in coefficients:
        out = out @ rho + c * np.eye(rho.shape[0])
    return out


def parallel_qsp_trace_exact(rho: np.ndarray, factored: FactoredPolynomial) -> float:
    """Exact tr(P(rho)) via the factor-product identity (Eq. in Sec 6.4)."""
    matrices = [apply_polynomial(rho, f) for f in factored.factors]
    return float(np.real(factored.scale * multivariate_trace(matrices)))
