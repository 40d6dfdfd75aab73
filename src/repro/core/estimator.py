"""Trace estimation from SWAP-test measurements.

The readout statistics of the GHZ register determine the multivariate trace
(Sec 2.3): with the joint state (|0...0>|psi> + |1...1> W|psi>)/sqrt(2),

* the X^(x)m parity equals  Re tr(W rho),
* replacing the first X by Y equals  Im tr(W rho).

This module holds the pieces the estimators share: eigenvector sampling
of mixed inputs, :func:`swap_test_job` (a built circuit packaged as a
content-hashed :class:`~repro.engine.Job`), and the shot-free reference
:func:`exact_swap_test_expectation`, which evaluates the same circuits as
unitaries and sums over the input states' eigen-decompositions.

The sampled estimator is ``Experiment.swap_test(...).run()``: its one
trace runner lives in :mod:`repro.api.execution`.  The engine splits each
job's shots into deterministic batches whose RNG substreams depend only on
the job spec, so any worker count gives bit-identical results.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..engine import Job
from ..sim.noisemodel import NoiseModel
from ..sim.statevector import StatevectorSimulator, apply_gate
from ..utils.linalg import kron_all
from ..utils.states import assemble_initial_state
from .protocol import ProtocolBuild, _eigen_ensembles, protocol_job
from .swap_test import SwapTestBuild, build_monolithic_swap_test

__all__ = [
    "assemble_initial_state",
    "sample_pure_inputs",
    "swap_test_job",
    "exact_swap_test_expectation",
]


def sample_pure_inputs(
    states: Sequence[np.ndarray], rng: np.random.Generator
) -> list[np.ndarray]:
    """Draw one pure state per input from each state's eigen-decomposition.

    Density matrices are convex mixtures of their eigenvectors, so sampling
    eigenvectors with eigenvalue weights gives an unbiased trajectory
    unravelling of the mixed-state protocol.
    """
    out = []
    for rho in states:
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim == 1:
            out.append(rho)
            continue
        weights, vectors = np.linalg.eigh(rho)
        weights = np.clip(np.real(weights), 0.0, None)
        weights = weights / weights.sum()
        choice = rng.choice(len(weights), p=weights)
        out.append(vectors[:, choice])
    return out


def swap_test_job(
    build: ProtocolBuild,
    states: Sequence[np.ndarray],
    shots: int,
    seed: int,
    noise: NoiseModel | None = None,
    batch_size: int | None = None,
    backend: str | None = None,
) -> Job:
    """Package a built (readout-carrying) SWAP test as an engine job.

    A thin alias over :func:`repro.core.protocol.protocol_job`, kept under
    its historical name: any :class:`~repro.core.protocol.ProtocolBuild`
    (monolithic, COMPAS, or the newer family members) packages the same
    way.
    """
    return protocol_job(
        build,
        states,
        shots,
        seed,
        noise=noise,
        batch_size=batch_size,
        backend=backend,
    )


def _ghz_observable(build: SwapTestBuild, which: str) -> np.ndarray:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    ops = [y if (which == "y" and i == 0) else x for i in range(build.ghz_width)]
    return kron_all(ops)


def exact_swap_test_expectation(
    states: Sequence[np.ndarray],
    variant: str = "b",
    ghz_mode: str = "linear",
    observable: str | None = None,
) -> complex:
    """Shot-free reference: exact tr(rho_1 ... rho_k) via the circuit itself.

    Builds the measurement-free variant (default 'b': plain CSWAP gates, no
    mid-circuit measurement), evaluates <X...X> and <Y X...X> on the GHZ
    register exactly, and sums over the eigen-decomposition of every mixed
    input.  Used by tests to prove the circuit computes the right quantity.
    """
    k = len(states)
    states = [np.asarray(s, dtype=complex) for s in states]
    n = int(math.log2(states[0].shape[0]))
    build = build_monolithic_swap_test(
        k, n, variant=variant, basis=None, ghz_mode=ghz_mode, observable=observable
    )
    circuit = build.circuit()
    if circuit.num_measurements():
        raise ValueError("exact path requires a measurement-free variant")
    simulator = StatevectorSimulator(seed=0)
    obs_x = _ghz_observable(build, "x")
    obs_y = _ghz_observable(build, "y")
    ensembles = _eigen_ensembles(states)

    def recurse(index: int, weight: float, chosen: list[np.ndarray]) -> complex:
        if index == k:
            placements = {
                build.position_registers[p]: chosen[build.user_of_position[p]]
                for p in range(k)
            }
            init = assemble_initial_state(circuit.num_qubits, placements)
            final = simulator.run(circuit, initial_state=init).statevector
            ghz = list(build.ghz_qubits)
            val_x = np.vdot(final, apply_gate(final.copy(), obs_x, ghz, circuit.num_qubits))
            val_y = np.vdot(final, apply_gate(final.copy(), obs_y, ghz, circuit.num_qubits))
            return weight * complex(val_x.real, val_y.real)
        total = 0.0 + 0.0j
        for w, vector in ensembles[index]:
            total += recurse(index + 1, weight * w, chosen + [vector])
        return total

    return recurse(0, 1.0, [])
