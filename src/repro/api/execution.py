"""Experiment runners: the real estimation pipelines behind the facade.

Each experiment kind has a *sampled* runner (shots through a configured
:class:`~repro.engine.Engine`) and, where a ground truth exists, an *exact*
evaluator.  The legacy per-function entry points in ``repro.core`` and
``repro.apps`` are thin wrappers over these runners, so the new path and
the old one are bit-identical by construction: the seed chains
(``default_rng(seed)`` → per-job sub-seeds) are preserved verbatim from
the pre-API implementations.

All runners receive an already-``resolved()`` :class:`RunOptions` — the
seed is always a concrete integer here and is recorded on both the
:class:`~repro.api.ExperimentResult` and the legacy ``raw`` result.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from functools import reduce

import numpy as np

from ..analysis.fanout_errors import FanoutErrorReport, sample_fanout_error_counts
from ..analysis.ghz_fidelity import (
    ghz_fidelity_density_model,
    sample_ghz_fidelity_frames,
)
from ..analysis.overall import compose_overall_fidelity
from ..apps.qsp import FactoredPolynomial, apply_polynomial, parallel_qsp_trace_exact
from ..apps.renyi import RenyiResult, renyi_entropy_exact
from ..apps.spectroscopy import SpectroscopyResult, spectrum_from_power_sums
from ..apps.virtual import VirtualExpectationResult, virtual_expectation_exact
from ..core.compas import build_compas
from ..core.estimator import (
    MultivariateTraceResult,
    exact_swap_test_expectation,
    swap_test_job,
)
from ..core.multistate_swap import build_multistate_swap
from ..core.nparty_hadamard import build_nparty_hadamard
from ..core.nstate_swap import build_nstate_swap
from ..core.protocol import protocol_job
from ..core.swap_test import build_monolithic_swap_test
from ..core.trace_sum import TraceSumResult, exact_trace_sum
from ..engine import Engine
from ..obs.report import run_report
from ..obs.runtime import NOOP, Observability
from ..sim.pauli import Pauli
from ..utils.fitting import binomial_stderr
from ..utils.linalg import partial_trace
from .result import API_VERSION, ExperimentResult

__all__ = ["execute", "execute_exact", "run_multiparty_swap_test"]


# ----------------------------------------------------------------------
# The shared primitive: one multi-party SWAP test through an engine
# ----------------------------------------------------------------------
def run_multiparty_swap_test(
    states,
    *,
    shots: int,
    seed: int,
    engine: Engine,
    variant: str = "d",
    noise=None,
    ghz_mode: str = "linear",
    backend: str = "monolithic",
    design: str = "teledata",
    observable: str | None = None,
    topology=None,
    network=None,
    batch_size: int | None = None,
) -> MultivariateTraceResult:
    """Estimate tr(rho_1 ... rho_k); the engine-level implementation.

    This is the pipeline every experiment kind builds on: X- and Y-basis
    circuits become content-hashed engine jobs whose seeds derive from
    ``default_rng(seed)``.  The seed is recorded under
    ``result.resources["seed"]``.  Unlike the deprecated
    :func:`repro.core.multiparty_swap_test` wrapper, ``seed`` and
    ``engine`` are required here — resolution and engine construction are
    the API layer's job.

    ``network`` (a :class:`~repro.api.NetworkSpec`) makes the distributed
    backend physical: it supplies the topology, composes hop-weighted link
    noise and per-QPU overrides into the job noise model, and its
    ``bell_latency`` weights the measured latency accounting.  ``topology``
    (a pre-built :class:`~repro.network.Topology`) overrides the network's
    topology when both are given.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    k = len(states)
    if k < 2:
        raise ValueError("need at least two states")
    dim = states[0].shape[0]
    if any(s.shape[0] != dim for s in states):
        raise ValueError("all states must have equal width")
    n = int(math.log2(dim))
    if 2**n != dim:
        raise ValueError("state dimension must be a power of two")
    if shots < 2:
        raise ValueError("need at least two shots (one per readout basis)")
    rng = np.random.default_rng(seed)
    shots_re = shots // 2
    shots_im = shots - shots_re

    if backend == "monolithic":
        if network is not None and not network.is_ideal:
            raise ValueError(
                "a physical network (nonzero link noise or QPU overrides) requires "
                "a distributed backend; the monolithic builder has no links to "
                "degrade"
            )
        build_x = build_monolithic_swap_test(
            k, n, variant=variant, basis="x", ghz_mode=ghz_mode, observable=observable
        )
        build_y = build_monolithic_swap_test(
            k, n, variant=variant, basis="y", ghz_mode=ghz_mode, observable=observable
        )
        label = variant
        resources = {
            "backend": backend,
            "ghz_width": build_x.ghz_width,
            "total_qubits": build_x.total_qubits,
            "stage_depths": build_x.stage_depths,
        }
    elif backend == "compas":
        if network is not None:
            network.validate()
            if topology is None:
                topology = network.build([f"qpu{p}" for p in range(k)])
            else:
                network.check_overrides(topology.nodes)
            noise = network.noise_model(noise)
        build_x = build_compas(k, n, design=design, basis="x", topology=topology)
        build_y = build_compas(k, n, design=design, basis="y", topology=topology)
        label = f"compas-{design}"
        resources = {"backend": backend, **build_x.resources()}
        bell_latency = network.bell_latency if network is not None else 1.0
        resources["lowered"] = build_x.lowered(bell_latency=bell_latency).summary()
        if network is not None:
            resources["network"] = asdict(network)
    else:
        raise ValueError("backend must be 'monolithic' or 'compas'")

    job_x = swap_test_job(
        build_x, states, shots_re, int(rng.integers(2**63)), noise=noise, batch_size=batch_size
    )
    job_y = swap_test_job(
        build_y, states, shots_im, int(rng.integers(2**63)), noise=noise, batch_size=batch_size
    )
    result_x, result_y = engine.run_many([job_x, job_y])
    resources["seed"] = seed
    resources["engine"] = {
        "backend": result_x.backend,
        "batches": result_x.num_batches + result_y.num_batches,
        "from_cache": result_x.from_cache and result_y.from_cache,
        "compile_time": result_x.compile_time + result_y.compile_time,
        "execute_time": result_x.execute_time + result_y.execute_time,
        "row_ops": result_x.row_ops + result_y.row_ops,
        "shot_ops": result_x.shot_ops + result_y.shot_ops,
    }
    resources["compiled"] = job_x.metadata.get("compiled")

    return MultivariateTraceResult(
        estimate=complex(result_x.parity_mean, result_y.parity_mean),
        stderr_re=result_x.parity_stderr,
        stderr_im=result_y.parity_stderr,
        shots_re=shots_re,
        shots_im=shots_im,
        k=k,
        n=n,
        variant=label,
        resources=resources,
    )


def _swap_kwargs(experiment) -> dict:
    """Protocol/noise/network fields of an experiment as runner kwargs."""
    protocol = experiment.protocol
    network = experiment.network if protocol.backend == "compas" else None
    return {
        "variant": protocol.variant,
        "noise": experiment.noise.to_model(),
        "ghz_mode": protocol.ghz_mode,
        "backend": protocol.backend,
        "design": protocol.design,
        "observable": protocol.observable,
        "network": network,
        "batch_size": experiment.options.batch_size,
    }


def _as_matrix(state: np.ndarray) -> np.ndarray:
    """Density matrix of a state given as either a vector or a matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def _trace_extra(result: MultivariateTraceResult) -> dict:
    """Kind-agnostic payload of one multivariate-trace estimate."""
    return {
        "stderr_im": result.stderr_im,
        "shots_re": result.shots_re,
        "shots_im": result.shots_im,
        "k": result.k,
        "n": result.n,
        "variant_label": result.variant,
        "resources": result.resources,
    }


# ----------------------------------------------------------------------
# Sampled runners: kind -> (estimate, stderr, extra, raw)
# ----------------------------------------------------------------------
def _run_swap_test(experiment, options, engine):
    result = run_multiparty_swap_test(
        experiment.payload["states"],
        shots=options.shots,
        seed=options.seed,
        engine=engine,
        **_swap_kwargs(experiment),
    )
    return result.estimate, result.stderr_re, _trace_extra(result), result


# ----------------------------------------------------------------------
# Protocol-family runners: the three estimators that always lower
# through the QPU-tagged distributed IR (backend="distributed")
# ----------------------------------------------------------------------
def _family_states(experiment):
    """States, party count, and qubit width of a protocol-family payload."""
    states = [np.asarray(s, dtype=complex) for s in experiment.payload["states"]]
    k = len(states)
    n = int(math.log2(states[0].shape[0]))
    return states, k, n


def _family_network(experiment, k):
    """Topology and composed noise model from the experiment's network.

    Unlike the ``backend="compas"`` path (where the network is optional),
    family kinds are *always* physical: the spec's topology is built over
    ``qpu0 .. qpu{k-1}`` and its hop-weighted link noise and per-QPU
    overrides compose into the job noise model, so Bell budgets and link
    faults apply identically to every family member.
    """
    network = experiment.network
    network.validate()
    topology = network.build([f"qpu{p}" for p in range(k)])
    noise = network.noise_model(experiment.noise.to_model())
    return network, topology, noise


def _family_engine_resources(resources, network, build, jobs, results, seed) -> None:
    """Fill the seed/engine/compiled keys shared by every family runner."""
    resources["lowered"] = build.lowered(bell_latency=network.bell_latency).summary()
    resources["network"] = asdict(network)
    resources["seed"] = seed
    resources["engine"] = {
        "backend": results[0].backend,
        "batches": sum(r.num_batches for r in results),
        "from_cache": all(r.from_cache for r in results),
        "compile_time": sum(r.compile_time for r in results),
        "execute_time": sum(r.execute_time for r in results),
        "row_ops": sum(r.row_ops for r in results),
        "shot_ops": sum(r.shot_ops for r in results),
    }
    resources["compiled"] = jobs[0].metadata.get("compiled")


def _run_multistate_swap(experiment, options, engine):
    """Pairwise-overlap Gram campaign (arXiv:2205.07171).

    One single-ancilla circuit per unordered state pair; each X-basis
    parity mean is tr(rho_i rho_j) (real, so no Y circuits are needed).
    The scalar estimate is the mean off-diagonal overlap; the full Gram
    matrix rides along in ``extra["gram"]``.
    """
    states, k, n = _family_states(experiment)
    network, topology, noise = _family_network(experiment, k)
    rng = np.random.default_rng(options.seed)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    per_pair = max(options.shots // len(pairs), 1)
    builds = [
        build_multistate_swap(k, n, pair=pair, basis="x", topology=topology)
        for pair in pairs
    ]
    jobs = [
        protocol_job(
            build,
            states,
            per_pair,
            int(rng.integers(2**63)),
            noise=noise,
            batch_size=options.batch_size,
        )
        for build in builds
    ]
    results = engine.run_many(jobs)
    gram = np.eye(k)
    pair_stderrs = []
    for (i, j), res in zip(pairs, results):
        gram[i, j] = gram[j, i] = res.parity_mean
        pair_stderrs.append(res.parity_stderr)
    estimate = complex(float(np.mean([gram[i, j] for i, j in pairs])), 0.0)
    stderr_re = float(np.sqrt(sum(s**2 for s in pair_stderrs)) / len(pairs))

    resources = {"backend": "distributed", **builds[0].resources()}
    resources["circuits"] = len(builds)
    resources["shots_per_pair"] = per_pair
    lowered = [b.lowered(bell_latency=network.bell_latency) for b in builds]
    summaries = [lo.summary() for lo in lowered]
    resources["campaign"] = {
        "logical_bells": sum(s["logical_bells"] for s in summaries),
        "physical_bells": sum(s["physical_bells"] for s in summaries),
        "latency": sum(s["latency"] for s in summaries),
    }
    _family_engine_resources(resources, network, builds[0], jobs, results, options.seed)

    raw = MultivariateTraceResult(
        estimate=estimate,
        stderr_re=stderr_re,
        stderr_im=0.0,
        shots_re=per_pair * len(pairs),
        shots_im=0,
        k=k,
        n=n,
        variant="multistate",
        resources=resources,
    )
    extra = _trace_extra(raw)
    extra["gram"] = [[float(x) for x in row] for row in gram]
    extra["pairs"] = [list(p) for p in pairs]
    extra["pair_stderrs"] = [float(s) for s in pair_stderrs]
    return raw.estimate, raw.stderr_re, extra, raw


def _run_distributed_two_basis(experiment, options, engine, builder, label):
    """Shared X/Y-basis pipeline for the nstate and nparty estimators.

    The mirror of :func:`run_multiparty_swap_test`'s compas branch: two
    content-hashed jobs (Re and Im circuits) with seeds chained from
    ``default_rng(options.seed)``, run through the unmodified engine.
    """
    states, k, n = _family_states(experiment)
    network, topology, noise = _family_network(experiment, k)
    design = experiment.protocol.design
    rng = np.random.default_rng(options.seed)
    shots_re = options.shots // 2
    shots_im = options.shots - shots_re
    build_x = builder(k, n, design=design, basis="x", topology=topology)
    build_y = builder(k, n, design=design, basis="y", topology=topology)
    jobs = [
        protocol_job(
            build,
            states,
            basis_shots,
            int(rng.integers(2**63)),
            noise=noise,
            batch_size=options.batch_size,
        )
        for build, basis_shots in ((build_x, shots_re), (build_y, shots_im))
    ]
    results = engine.run_many(jobs)
    resources = {"backend": "distributed", **build_x.resources()}
    _family_engine_resources(resources, network, build_x, jobs, results, options.seed)
    raw = MultivariateTraceResult(
        estimate=complex(results[0].parity_mean, results[1].parity_mean),
        stderr_re=results[0].parity_stderr,
        stderr_im=results[1].parity_stderr,
        shots_re=shots_re,
        shots_im=shots_im,
        k=k,
        n=n,
        variant=label,
        resources=resources,
    )
    return raw.estimate, raw.stderr_re, _trace_extra(raw), raw


def _run_nstate_swap(experiment, options, engine):
    return _run_distributed_two_basis(
        experiment, options, engine, build_nstate_swap, "nstate"
    )


def _run_nparty_hadamard(experiment, options, engine):
    return _run_distributed_two_basis(
        experiment, options, engine, build_nparty_hadamard, "nparty"
    )


def _run_trace_sum(experiment, options, engine):
    groups = experiment.payload["groups"]
    weights = [complex(w) for w in experiment.payload["weights"]]
    protocol = experiment.protocol
    rng = np.random.default_rng(options.seed)

    needs_shots = [j for j, g in enumerate(groups) if len(g) >= 2]
    weight_mass = sum(abs(weights[j]) for j in needs_shots)
    total = 0.0 + 0.0j
    variance = 0.0
    terms: list[MultivariateTraceResult | None] = []
    for group, weight in zip(groups, weights):
        if len(group) < 2:
            total += weight  # tr(rho) = 1
            terms.append(None)
            continue
        if weight == 0:
            terms.append(None)
            continue
        share = abs(weight) / weight_mass if weight_mass > 0 else 1.0 / len(needs_shots)
        term_shots = max(int(round(options.shots * share)), 64)
        result = run_multiparty_swap_test(
            list(group),
            shots=term_shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
            variant=protocol.variant,
            backend=protocol.backend,
            design=protocol.design,
            noise=experiment.noise.to_model(),
            batch_size=options.batch_size,
        )
        terms.append(result)
        total += weight * result.estimate
        spread = max(result.stderr_re, result.stderr_im)
        variance += (abs(weight) * spread) ** 2
    stderr = float(np.sqrt(variance))
    raw = TraceSumResult(
        estimate=complex(total),
        stderr=stderr,
        weights=tuple(weights),
        terms=terms,
        seed=options.seed,
    )
    extra = {
        "num_terms": len(weights),
        "weights": list(weights),
        "term_estimates": [None if t is None else t.estimate for t in terms],
        "term_shots": [None if t is None else t.shots_re + t.shots_im for t in terms],
    }
    return complex(total), stderr, extra, raw


def _run_renyi(experiment, options, engine):
    order = experiment.payload["order"]
    result = run_multiparty_swap_test(
        [experiment.payload["rho"]] * order,
        shots=options.shots,
        seed=options.seed,
        engine=engine,
        **_swap_kwargs(experiment),
    )
    moment = max(result.estimate.real, 1e-9)
    entropy = math.log(moment) / (1 - order)
    # d/dm log(m)/(1-m): the entropy stderr by first-order propagation.
    stderr = result.stderr_re / (abs(1 - order) * moment)
    raw = RenyiResult(
        order=order,
        entropy=entropy,
        trace_estimate=result.estimate,
        trace_result=result,
    )
    extra = {"order": order, "moment": moment, "trace": _trace_extra(result)}
    extra["trace"]["estimate"] = result.estimate
    return entropy, stderr, extra, raw


def _run_spectroscopy(experiment, options, engine):
    payload = experiment.payload
    rho = partial_trace(
        np.asarray(payload["state"], dtype=complex),
        list(payload["keep"]),
        payload["num_qubits"],
    )
    max_order = payload["max_order"] or rho.shape[0]
    protocol = experiment.protocol
    power_sums: list[float] = [1.0]
    power_stderrs: list[float] = [0.0]
    rng = np.random.default_rng(options.seed)
    for order in range(2, max_order + 1):
        result = run_multiparty_swap_test(
            [rho] * order,
            shots=options.shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
            variant=protocol.variant,
            backend=protocol.backend,
            noise=experiment.noise.to_model(),
            batch_size=options.batch_size,
        )
        power_sums.append(result.estimate.real)
        power_stderrs.append(result.stderr_re)
    return _assemble_spectroscopy(power_sums, power_stderrs, max_order, seed=options.seed)


def _assemble_spectroscopy(power_sums, power_stderrs, max_order, seed):
    eigenvalues = spectrum_from_power_sums(power_sums)
    clipped = np.clip(eigenvalues, 1e-12, None)
    energies = -np.log(clipped)
    raw = SpectroscopyResult(
        power_sums=power_sums,
        eigenvalues=eigenvalues,
        entanglement_energies=energies,
        seed=seed,
    )
    extra = {
        "max_order": max_order,
        "power_sums": list(power_sums),
        "power_sum_stderrs": list(power_stderrs),
        "eigenvalues": [float(v) for v in eigenvalues],
        "entanglement_energies": [float(v) for v in energies],
    }
    return float(eigenvalues[0]), float(max(power_stderrs)), extra, raw


def _run_virtual(experiment, options, engine):
    payload = experiment.payload
    states = [payload["rho"]] * payload["copies"]
    observable = payload["observable"]
    protocol = experiment.protocol
    if payload["exact_circuit"]:
        numerator = exact_swap_test_expectation(states, observable=observable)
        denominator = exact_swap_test_expectation(states)
        stderr = 0.0
    else:
        rng = np.random.default_rng(options.seed)
        num_result = run_multiparty_swap_test(
            states,
            shots=options.shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
            variant=protocol.variant,
            observable=observable,
            noise=experiment.noise.to_model(),
            batch_size=options.batch_size,
        )
        den_result = run_multiparty_swap_test(
            states,
            shots=options.shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
            variant=protocol.variant,
            noise=experiment.noise.to_model(),
            batch_size=options.batch_size,
        )
        numerator = num_result.estimate
        denominator = den_result.estimate
        # Ratio-estimator propagation; guarded like the value itself.
        den_real = max(np.real(denominator), 1e-9)
        stderr = float(
            abs(np.real(numerator) / den_real)
            * math.sqrt(
                (num_result.stderr_re / max(abs(np.real(numerator)), 1e-9)) ** 2
                + (den_result.stderr_re / den_real) ** 2
            )
        )
    value = float(np.real(numerator) / max(np.real(denominator), 1e-9))
    raw = VirtualExpectationResult(
        observable=observable,
        copies=payload["copies"],
        numerator=numerator,
        denominator=denominator,
        value=value,
        seed=options.seed,
    )
    extra = {
        "observable": observable,
        "copies": payload["copies"],
        "numerator": complex(numerator),
        "denominator": complex(denominator),
        "exact_circuit": payload["exact_circuit"],
    }
    return value, stderr, extra, raw


def _qsp_factored(experiment) -> FactoredPolynomial:
    return FactoredPolynomial(
        scale=experiment.payload["scale"],
        factors=[np.asarray(f, dtype=float) for f in experiment.payload["factors"]],
    )


def _run_qsp(experiment, options, engine):
    rho = experiment.payload["rho"]
    factored = _qsp_factored(experiment)
    matrices = [apply_polynomial(rho, f) for f in factored.factors]
    norms = []
    states = []
    for m in matrices:
        if np.linalg.norm(m - m.conj().T) > 1e-8:
            raise ValueError("factor matrix is not Hermitian")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() < -1e-9:
            raise ValueError("factor matrix is not PSD; the sampled path needs PSD factors")
        trace = float(np.real(np.trace(m)))
        if trace <= 1e-12:
            raise ValueError("factor matrix has non-positive trace")
        norms.append(trace)
        states.append(m / trace)
    stderr = 0.0
    if len(states) == 1:
        ratio = 1.0
    else:
        result = run_multiparty_swap_test(
            states,
            shots=options.shots,
            seed=options.seed,
            engine=engine,
            variant=experiment.protocol.variant,
            noise=experiment.noise.to_model(),
            batch_size=options.batch_size,
        )
        ratio = result.estimate.real
        stderr = result.stderr_re
    scale = factored.scale * math.prod(norms)
    estimate = scale * ratio
    exact = parallel_qsp_trace_exact(rho, factored)
    extra = {
        "num_factors": factored.num_factors,
        "max_factor_degree": factored.max_factor_degree,
        "factor_norms": norms,
        "scale": scale,
    }
    return estimate, abs(scale) * stderr, extra, (estimate, exact)


def _run_ghz_fidelity(experiment, options, engine):
    num_parties = experiment.payload["num_parties"]
    fidelity, good = sample_ghz_fidelity_frames(
        num_parties,
        experiment.noise.to_model(),
        shots=options.shots,
        seed=options.seed,
        engine=engine,
        batch_size=options.batch_size,
    )
    extra = {"num_parties": num_parties, "good": good}
    return fidelity, binomial_stderr(good, options.shots), extra, fidelity


def _run_fanout_errors(experiment, options, engine):
    num_targets = experiment.payload["num_targets"]
    counts = sample_fanout_error_counts(
        num_targets,
        experiment.noise.to_model(),
        shots=options.shots,
        seed=options.seed,
        engine=engine,
        batch_size=options.batch_size,
    )
    report = FanoutErrorReport(
        p=experiment.noise.p2,
        num_targets=num_targets,
        shots=options.shots,
        counts=counts,
        seed=options.seed,
    )
    probability = report.error_probability()
    errors = options.shots - counts.get("I" * (num_targets + 1), 0)
    extra = {
        "num_targets": num_targets,
        "top_errors": [[label, prob] for label, prob in report.top_errors(8)],
    }
    return probability, binomial_stderr(errors, options.shots), extra, report


def _run_overall_fidelity(experiment, options, engine):
    payload = experiment.payload
    point = compose_overall_fidelity(
        experiment.protocol.design,
        payload["n"],
        experiment.protocol.k,
        payload["p"],
        ghz_shots=options.shots,
        cswap_shots_per_input=payload["cswap_shots_per_input"],
        cswap_max_inputs=payload["cswap_max_inputs"],
        seed=options.seed,
        cswap_error=payload["cswap_error"],
    )
    extra = {
        "n": point.n,
        "k": point.k,
        "p": point.p,
        "design": point.design,
        "ghz_error": point.ghz_error,
        "cswap_error": point.cswap_error,
    }
    return point.fidelity, 0.0, extra, point


_RUNNERS = {
    "swap_test": _run_swap_test,
    "multistate_swap": _run_multistate_swap,
    "nstate_swap": _run_nstate_swap,
    "nparty_hadamard": _run_nparty_hadamard,
    "trace_sum": _run_trace_sum,
    "renyi": _run_renyi,
    "spectroscopy": _run_spectroscopy,
    "virtual": _run_virtual,
    "qsp": _run_qsp,
    "ghz_fidelity": _run_ghz_fidelity,
    "fanout_errors": _run_fanout_errors,
    "overall_fidelity": _run_overall_fidelity,
}


# ----------------------------------------------------------------------
# Exact evaluators: kind -> (estimate, extra, raw)
# ----------------------------------------------------------------------
def _exact_swap_test(experiment):
    product = reduce(np.matmul, [_as_matrix(s) for s in experiment.payload["states"]])
    observable = experiment.protocol.observable
    if observable is not None:
        product = Pauli.from_label(observable).to_matrix() @ product
    return complex(np.trace(product)), {}, None


def _exact_multistate(experiment):
    """Exact Gram matrix of pairwise overlaps and its mean off-diagonal."""
    states = [_as_matrix(s) for s in experiment.payload["states"]]
    k = len(states)
    gram = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            gram[i, j] = gram[j, i] = float(np.real(np.trace(states[i] @ states[j])))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    mean = float(np.mean([gram[i, j] for i, j in pairs]))
    return complex(mean, 0.0), {"gram": [[float(x) for x in row] for row in gram]}, None


def _exact_multivariate_trace(experiment):
    """Exact tr(rho_1 ... rho_k) for the nstate and nparty estimators."""
    product = reduce(np.matmul, [_as_matrix(s) for s in experiment.payload["states"]])
    return complex(np.trace(product)), {}, None


def _exact_trace_sum(experiment):
    value = exact_trace_sum(experiment.payload["groups"], experiment.payload["weights"])
    return value, {}, None


def _exact_renyi(experiment):
    value = renyi_entropy_exact(experiment.payload["rho"], experiment.payload["order"])
    return value, {"order": experiment.payload["order"]}, None


def _exact_spectroscopy(experiment):
    payload = experiment.payload
    rho = partial_trace(
        np.asarray(payload["state"], dtype=complex),
        list(payload["keep"]),
        payload["num_qubits"],
    )
    max_order = payload["max_order"] or rho.shape[0]
    eigenvalues = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    power_sums = [1.0] + [
        float(np.sum(eigenvalues**order)) for order in range(2, max_order + 1)
    ]
    estimate, _, extra, raw = _assemble_spectroscopy(
        power_sums, [0.0] * len(power_sums), max_order, seed=None
    )
    return estimate, extra, raw


def _exact_virtual(experiment):
    payload = experiment.payload
    value = virtual_expectation_exact(
        payload["rho"], payload["observable"], payload["copies"]
    )
    extra = {"observable": payload["observable"], "copies": payload["copies"]}
    return value, extra, None


def _exact_qsp(experiment):
    value = parallel_qsp_trace_exact(experiment.payload["rho"], _qsp_factored(experiment))
    return value, {}, None


def _exact_ghz_fidelity(experiment):
    num_parties = experiment.payload["num_parties"]
    value = ghz_fidelity_density_model(num_parties, experiment.noise.to_model())
    return value, {"num_parties": num_parties}, None


_EXACTS = {
    "swap_test": _exact_swap_test,
    "multistate_swap": _exact_multistate,
    "nstate_swap": _exact_multivariate_trace,
    "nparty_hadamard": _exact_multivariate_trace,
    "trace_sum": _exact_trace_sum,
    "renyi": _exact_renyi,
    "spectroscopy": _exact_spectroscopy,
    "virtual": _exact_virtual,
    "qsp": _exact_qsp,
    "ghz_fidelity": _exact_ghz_fidelity,
}


# ----------------------------------------------------------------------
# Entry points used by the Experiment facade
# ----------------------------------------------------------------------
def _spec_dicts(experiment, options) -> dict:
    return {
        "protocol": asdict(experiment.protocol),
        "noise": asdict(experiment.noise),
        "network": asdict(experiment.network),
        "options": asdict(options),
    }


def _provenance(experiment) -> dict:
    return {"experiment_hash": experiment.content_hash(), "api_version": API_VERSION}


def execute(
    experiment,
    engine: Engine | None = None,
    *,
    with_exact: bool = False,
    obs: Observability | None = None,
):
    """Run one experiment; see :meth:`repro.api.Experiment.run`.

    With an enabled ``obs`` bundle the run is wrapped in an
    ``experiment.run`` root span (engine/scheduler/worker spans nest
    under it), and the windowed run report — timing breakdown, metrics,
    text timeline — is attached as ``result.observability``.  Tracing is
    observational only: estimates are bit-identical with or without it.
    """
    experiment.validate()
    options = experiment.options.resolved()
    obs = obs if obs is not None else NOOP
    owns_engine = engine is None
    if owns_engine:
        engine = options.make_engine()
    if obs.enabled:
        engine.set_observability(obs)
    mark = obs.tracer.mark()
    start = time.perf_counter()
    try:
        with obs.tracer.span(
            "experiment.run",
            kind=experiment.kind,
            shots=options.shots,
            seed=options.seed,
        ):
            estimate, stderr, extra, raw = _RUNNERS[experiment.kind](
                experiment, options, engine
            )
            wall_time = time.perf_counter() - start
            stats = engine.stats_dict()
    finally:
        if owns_engine:
            engine.close()
    exact = None
    if experiment.kind == "qsp":
        exact = raw[1]  # the QSP runner computes its reference as a byproduct
    elif with_exact and experiment.kind in _EXACTS:
        exact, _, _ = _EXACTS[experiment.kind](experiment)
    observability = None
    if obs.enabled:
        observability = run_report(
            obs, since=mark, extra={"workers": engine.scheduler.workers}
        )
    return ExperimentResult(
        kind=experiment.kind,
        estimate=estimate,
        stderr=float(stderr),
        shots=options.shots,
        seed=options.seed,
        exact=exact,
        specs=_spec_dicts(experiment, options),
        extra=extra,
        wall_time=wall_time,
        engine_stats=stats,
        provenance=_provenance(experiment),
        observability=observability,
        raw=raw,
    )


def execute_exact(experiment) -> ExperimentResult:
    """Shot-free reference run; see :meth:`repro.api.Experiment.run_exact`."""
    experiment.validate()
    if experiment.kind not in _EXACTS:
        raise ValueError(f"no exact reference for kind {experiment.kind!r}")
    start = time.perf_counter()
    estimate, extra, raw = _EXACTS[experiment.kind](experiment)
    return ExperimentResult(
        kind=experiment.kind,
        estimate=estimate,
        stderr=0.0,
        shots=0,
        seed=experiment.options.seed,
        exact=estimate,
        specs=_spec_dicts(experiment, experiment.options),
        extra=extra,
        wall_time=time.perf_counter() - start,
        engine_stats=None,
        provenance=_provenance(experiment),
        raw=raw,
    )
