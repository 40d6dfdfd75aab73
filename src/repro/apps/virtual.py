"""Virtual cooling and virtual distillation (paper Sec 6.3).

Both applications evaluate expectation values in the multiplicative product
state chi = rho^m / tr(rho^m) without ever preparing it:

    <O>_chi = tr(O rho^m) / tr(rho^m)                      (Eq. 10/11)

* **virtual cooling**: rho thermal at inverse temperature beta -> chi is
  thermal at m*beta (Eq. 12) — properties of colder states from hot copies.
* **virtual distillation**: rho a noisy approximation of a pure target ->
  chi converges exponentially (in m) to the dominant eigenvector, mitigating
  errors [26].

The numerator is the multi-party SWAP test with a GHZ-controlled Pauli
observable inserted (Sec 6.3); the denominator is the plain test.
"""

from __future__ import annotations

import numpy as np

from ..sim.pauli import Pauli

__all__ = [
    "virtual_expectation_exact",
    "cooling_schedule_exact",
    "distillation_error_exact",
]


def _observable_matrix(label: str) -> np.ndarray:
    return Pauli.from_label(label).to_matrix()


def virtual_expectation_exact(rho: np.ndarray, observable: str, copies: int) -> float:
    """Exact tr(O rho^m)/tr(rho^m) for a Pauli-string observable."""
    if copies < 1:
        raise ValueError("need at least one copy")
    rho = np.asarray(rho, dtype=complex)
    power = np.linalg.matrix_power(rho, copies)
    numerator = np.trace(_observable_matrix(observable) @ power)
    denominator = np.trace(power)
    return float(np.real(numerator / denominator))


def cooling_schedule_exact(
    hamiltonian: np.ndarray, beta: float, copies_list: list[int]
) -> list[tuple[int, float]]:
    """Exact <H>_chi for chi = rho^m at each m — the virtual cooling curve.

    rho is thermal at beta, so chi is thermal at m*beta (Eq. 12) and the
    energies must decrease monotonically towards the ground state.
    """
    from ..utils.states import thermal_state

    rho = thermal_state(hamiltonian, beta)
    curve = []
    for m in copies_list:
        power = np.linalg.matrix_power(rho, m)
        energy = float(np.real(np.trace(hamiltonian @ power) / np.trace(power)))
        curve.append((m, energy))
    return curve


def distillation_error_exact(
    target: np.ndarray, noisy: np.ndarray, observable: str, copies_list: list[int]
) -> list[tuple[int, float]]:
    """|<O>_chi - <O>_target| vs copy count — the mitigation curve."""
    obs = _observable_matrix(observable)
    ideal = float(np.real(np.vdot(target, obs @ target)))
    curve = []
    for m in copies_list:
        value = virtual_expectation_exact(noisy, observable, m)
        curve.append((m, abs(value - ideal)))
    return curve
