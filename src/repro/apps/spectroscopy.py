"""Entanglement spectroscopy via Newton–Girard (paper Sec 6.2).

Power sums p_m = tr(rho^m) for m = 1..d determine the elementary symmetric
polynomials e_j of rho's eigenvalues through the Newton–Girard recurrence

    j * e_j = sum_{i=1}^{j} (-1)^(i-1) e_{j-i} p_i ,

and hence the characteristic polynomial prod_i (x - lambda_i).  Rooting it
recovers the spectrum; the entanglement Hamiltonian H_E = -log(rho) has
eigenvalues -log(lambda_i) [30, 55].  Each power sum is one multi-party SWAP
test, so the distributed protocol performs the whole pipeline across QPUs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["newton_girard_elementary", "spectrum_from_power_sums"]


def newton_girard_elementary(power_sums: Sequence[float]) -> list[float]:
    """Elementary symmetric polynomials e_1..e_d from power sums p_1..p_d."""
    p = [0.0] + [float(v) for v in power_sums]
    d = len(power_sums)
    e = [1.0] + [0.0] * d
    for j in range(1, d + 1):
        total = 0.0
        for i in range(1, j + 1):
            total += (-1) ** (i - 1) * e[j - i] * p[i]
        e[j] = total / j
    return e[1:]


def spectrum_from_power_sums(power_sums: Sequence[float]) -> np.ndarray:
    """Eigenvalues from power sums via the characteristic polynomial.

    ``power_sums[m-1] = tr(rho^m)``; the number of sums bounds the number of
    recoverable eigenvalues.  Returns real parts of the roots, sorted
    descending (tiny imaginary parts from sampling noise are discarded).
    """
    d = len(power_sums)
    elementary = newton_girard_elementary(power_sums)
    # prod (x - l_i) = x^d - e1 x^(d-1) + e2 x^(d-2) - ...
    coefficients = [1.0]
    for j, e_j in enumerate(elementary, start=1):
        coefficients.append((-1) ** j * e_j)
    roots = np.roots(coefficients)
    return np.sort(roots.real)[::-1]
