"""Experiment runners: the estimation pipelines behind the facade.

Each experiment kind has a *sampled* runner (shots through a configured
:class:`~repro.engine.Engine`) that returns ``(estimate, stderr, extra)``
and, where a ground truth exists, an *exact* evaluator.

Every two-basis trace kind (``swap_test``, ``trace_sum``, ``renyi``,
``spectroscopy``, ``virtual``, ``qsp``, ``nstate_swap`` and
``nparty_hadamard``) runs its SWAP tests through one runner,
:func:`_run_trace`.  It reads protocol, noise and network from the
experiment itself, picks the builder from the kind and
``protocol.backend``, and chains the X- and Y-basis job seeds from
``default_rng(seed)``.

All runners receive an already-``resolved()`` :class:`RunOptions`: the
seed is always a concrete integer here and is recorded on the
:class:`~repro.api.ExperimentResult` and under ``resources["seed"]``.
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
from ..apps.renyi import renyi_entropy_exact
from ..apps.spectroscopy import spectrum_from_power_sums
from ..apps.virtual import virtual_expectation_exact
from ..core.compas import build_compas
from ..core.estimator import exact_swap_test_expectation, swap_test_job
from ..core.multistate_swap import build_multistate_swap
from ..core.nparty_hadamard import build_nparty_hadamard
from ..core.nstate_swap import build_nstate_swap
from ..core.protocol import protocol_job
from ..core.swap_test import build_monolithic_swap_test
from ..core.trace_sum import exact_trace_sum
from ..engine import Engine
from ..obs.report import run_report
from ..obs.runtime import NOOP, Observability
from ..sim.pauli import Pauli
from ..utils.fitting import binomial_stderr
from ..utils.linalg import partial_trace
from .result import API_VERSION, ExperimentResult

__all__ = ["execute", "execute_exact"]


# ----------------------------------------------------------------------
# The one trace runner: an X/Y job pair for any two-basis trace kind
# ----------------------------------------------------------------------
def _physical(experiment, k):
    """Network, topology and composed noise model of one run.

    The monolithic builder has no links, so it runs on the bare noise
    model (validation rejects a non-ideal network there).  Every other
    backend is physical: the spec's topology is built over
    ``qpu0 .. qpu{k-1}`` and its hop-weighted link noise and per-QPU
    overrides compose into the job noise model.
    """
    noise = experiment.noise.to_model()
    if experiment.protocol.backend == "monolithic":
        return None, None, noise
    network = experiment.network
    topology = network.build([f"qpu{p}" for p in range(k)])
    return network, topology, network.noise_model(noise)


def _resources(backend, build, network, jobs, results, seed, **campaign) -> dict:
    """The resources every sampled protocol run records, filled in one place.

    Backend, the build's own resources (plus any ``campaign`` keys), the
    lowered Bell/latency summary and the network when the run is
    physical, then the seed, the engine totals and the compiled shape.
    """
    resources = {"backend": backend, **build.resources(), **campaign}
    if network is not None:
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
    return resources


def _trace_builds(experiment, k, n, topology, observable):
    """The X- and Y-basis builds of one trace run, and their label.

    The builder follows the kind and ``protocol.backend``.  Builders are
    read as module globals at call time, so a wrapper installed on this
    module sees every build.
    """
    protocol = experiment.protocol
    if protocol.backend == "monolithic":
        builds = [
            build_monolithic_swap_test(
                k,
                n,
                variant=protocol.variant,
                basis=basis,
                ghz_mode=protocol.ghz_mode,
                observable=observable,
            )
            for basis in ("x", "y")
        ]
        return builds, protocol.variant
    if protocol.backend == "compas":
        builder, label = build_compas, f"compas-{protocol.design}"
    elif experiment.kind == "nstate_swap":
        builder, label = build_nstate_swap, "nstate"
    else:
        builder, label = build_nparty_hadamard, "nparty"
    builds = [
        builder(k, n, design=protocol.design, basis=basis, topology=topology)
        for basis in ("x", "y")
    ]
    return builds, label


def _run_trace(experiment, states, *, shots, seed, engine, observable=None):
    """Estimate tr(O rho_1 ... rho_k) from one X/Y job pair.

    The one runner behind every two-basis trace kind.  Protocol, noise
    and network come from ``experiment``; ``observable`` overrides
    ``protocol.observable`` (virtual's numerator).  The X- and Y-basis
    job seeds chain from ``default_rng(seed)``.  Returns ``(estimate,
    stderr_re, extra)``; the inputs were checked by ``Experiment.validate``.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    k = len(states)
    n = int(math.log2(states[0].shape[0]))
    if observable is None:
        observable = experiment.protocol.observable
    network, topology, noise = _physical(experiment, k)
    builds, label = _trace_builds(experiment, k, n, topology, observable)
    rng = np.random.default_rng(seed)
    shots_re = shots // 2
    shots_im = shots - shots_re
    jobs = [
        swap_test_job(
            build,
            states,
            basis_shots,
            int(rng.integers(2**63)),
            noise=noise,
            batch_size=experiment.options.batch_size,
        )
        for build, basis_shots in zip(builds, (shots_re, shots_im))
    ]
    results = engine.run_many(jobs)
    extra = {
        "stderr_im": results[1].parity_stderr,
        "shots_re": shots_re,
        "shots_im": shots_im,
        "k": k,
        "n": n,
        "variant_label": label,
        "resources": _resources(
            experiment.protocol.backend, builds[0], network, jobs, results, seed
        ),
    }
    estimate = complex(results[0].parity_mean, results[1].parity_mean)
    return estimate, results[0].parity_stderr, extra


def _as_matrix(state: np.ndarray) -> np.ndarray:
    """Density matrix of a state given as either a vector or a matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


# ----------------------------------------------------------------------
# Sampled runners: kind -> (estimate, stderr, extra)
# ----------------------------------------------------------------------
def _run_swap_test(experiment, options, engine):
    """swap_test, nstate_swap and nparty_hadamard: one trace of the states."""
    return _run_trace(
        experiment,
        experiment.payload["states"],
        shots=options.shots,
        seed=options.seed,
        engine=engine,
    )


def _run_multistate_swap(experiment, options, engine):
    """Pairwise-overlap Gram campaign (arXiv:2205.07171).

    One single-ancilla circuit per unordered state pair; each X-basis
    parity mean is tr(rho_i rho_j) (real, so no Y circuits are needed).
    The scalar estimate is the mean off-diagonal overlap; the full Gram
    matrix rides along in ``extra["gram"]``.
    """
    states = [np.asarray(s, dtype=complex) for s in experiment.payload["states"]]
    k = len(states)
    n = int(math.log2(states[0].shape[0]))
    network, topology, noise = _physical(experiment, k)
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

    summaries = [b.lowered(bell_latency=network.bell_latency).summary() for b in builds]
    campaign = {
        "logical_bells": sum(s["logical_bells"] for s in summaries),
        "physical_bells": sum(s["physical_bells"] for s in summaries),
        "latency": sum(s["latency"] for s in summaries),
    }
    resources = _resources(
        "distributed",
        builds[0],
        network,
        jobs,
        results,
        options.seed,
        circuits=len(builds),
        shots_per_pair=per_pair,
        campaign=campaign,
    )
    extra = {
        "stderr_im": 0.0,
        "shots_re": per_pair * len(pairs),
        "shots_im": 0,
        "k": k,
        "n": n,
        "variant_label": "multistate",
        "resources": resources,
        "gram": [[float(x) for x in row] for row in gram],
        "pairs": [list(p) for p in pairs],
        "pair_stderrs": [float(s) for s in pair_stderrs],
    }
    return estimate, stderr_re, extra


def _run_trace_sum(experiment, options, engine):
    groups = experiment.payload["groups"]
    weights = [complex(w) for w in experiment.payload["weights"]]
    rng = np.random.default_rng(options.seed)

    needs_shots = [j for j, g in enumerate(groups) if len(g) >= 2]
    weight_mass = sum(abs(weights[j]) for j in needs_shots)
    total = 0.0 + 0.0j
    variance = 0.0
    terms: list[tuple[complex, int] | None] = []
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
        estimate, stderr_re, trace = _run_trace(
            experiment,
            group,
            shots=term_shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
        )
        terms.append((estimate, term_shots))
        total += weight * estimate
        spread = max(stderr_re, trace["stderr_im"])
        variance += (abs(weight) * spread) ** 2
    extra = {
        "num_terms": len(weights),
        "weights": list(weights),
        "term_estimates": [None if t is None else t[0] for t in terms],
        "term_shots": [None if t is None else t[1] for t in terms],
    }
    return complex(total), float(np.sqrt(variance)), extra


def _run_renyi(experiment, options, engine):
    order = experiment.payload["order"]
    estimate, stderr_re, trace = _run_trace(
        experiment,
        [experiment.payload["rho"]] * order,
        shots=options.shots,
        seed=options.seed,
        engine=engine,
    )
    moment = max(estimate.real, 1e-9)
    entropy = math.log(moment) / (1 - order)
    # d/dm log(m)/(1-m): the entropy stderr by first-order propagation.
    stderr = stderr_re / (abs(1 - order) * moment)
    trace["estimate"] = estimate
    return entropy, stderr, {"order": order, "moment": moment, "trace": trace}


def _reduced_state(payload) -> np.ndarray:
    """The spectroscopy subsystem's density matrix."""
    return partial_trace(
        np.asarray(payload["state"], dtype=complex),
        list(payload["keep"]),
        payload["num_qubits"],
    )


def _run_spectroscopy(experiment, options, engine):
    rho = _reduced_state(experiment.payload)
    max_order = experiment.payload["max_order"] or rho.shape[0]
    power_sums: list[float] = [1.0]
    power_stderrs: list[float] = [0.0]
    rng = np.random.default_rng(options.seed)
    for order in range(2, max_order + 1):
        estimate, stderr_re, _ = _run_trace(
            experiment,
            [rho] * order,
            shots=options.shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
        )
        power_sums.append(estimate.real)
        power_stderrs.append(stderr_re)
    return _assemble_spectroscopy(power_sums, power_stderrs, max_order)


def _assemble_spectroscopy(power_sums, power_stderrs, max_order):
    eigenvalues = spectrum_from_power_sums(power_sums)
    energies = -np.log(np.clip(eigenvalues, 1e-12, None))
    extra = {
        "max_order": max_order,
        "power_sums": list(power_sums),
        "power_sum_stderrs": list(power_stderrs),
        "eigenvalues": [float(v) for v in eigenvalues],
        "entanglement_energies": [float(v) for v in energies],
    }
    return float(eigenvalues[0]), float(max(power_stderrs)), extra


def _run_virtual(experiment, options, engine):
    payload = experiment.payload
    states = [payload["rho"]] * payload["copies"]
    observable = payload["observable"]
    if payload["exact_circuit"]:
        numerator = exact_swap_test_expectation(states, observable=observable)
        denominator = exact_swap_test_expectation(states)
        stderr = 0.0
    else:
        rng = np.random.default_rng(options.seed)
        numerator, num_stderr, _ = _run_trace(
            experiment,
            states,
            shots=options.shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
            observable=observable,
        )
        denominator, den_stderr, _ = _run_trace(
            experiment,
            states,
            shots=options.shots,
            seed=int(rng.integers(2**63)),
            engine=engine,
        )
        # Ratio-estimator propagation; guarded like the value itself.
        den_real = max(np.real(denominator), 1e-9)
        stderr = float(
            abs(np.real(numerator) / den_real)
            * math.sqrt(
                (num_stderr / max(abs(np.real(numerator)), 1e-9)) ** 2
                + (den_stderr / den_real) ** 2
            )
        )
    value = float(np.real(numerator) / max(np.real(denominator), 1e-9))
    extra = {
        "observable": observable,
        "copies": payload["copies"],
        "numerator": complex(numerator),
        "denominator": complex(denominator),
        "exact_circuit": payload["exact_circuit"],
    }
    return value, stderr, extra


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
        estimate, stderr, _ = _run_trace(
            experiment, states, shots=options.shots, seed=options.seed, engine=engine
        )
        ratio = estimate.real
    scale = factored.scale * math.prod(norms)
    extra = {
        "num_factors": factored.num_factors,
        "max_factor_degree": factored.max_factor_degree,
        "factor_norms": norms,
        "scale": scale,
    }
    return scale * ratio, abs(scale) * stderr, extra


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
    return fidelity, binomial_stderr(good, options.shots), extra


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
    errors = options.shots - counts.get("I" * (num_targets + 1), 0)
    extra = {
        "num_targets": num_targets,
        "top_errors": [[label, prob] for label, prob in report.top_errors(8)],
    }
    return report.error_probability(), binomial_stderr(errors, options.shots), extra


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
    return point.fidelity, 0.0, extra


_RUNNERS = {
    "swap_test": _run_swap_test,
    "multistate_swap": _run_multistate_swap,
    "nstate_swap": _run_swap_test,
    "nparty_hadamard": _run_swap_test,
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
# Exact evaluators: kind -> (estimate, extra)
# ----------------------------------------------------------------------
def _exact_swap_test(experiment):
    product = reduce(np.matmul, [_as_matrix(s) for s in experiment.payload["states"]])
    observable = experiment.protocol.observable
    if observable is not None:
        product = Pauli.from_label(observable).to_matrix() @ product
    return complex(np.trace(product)), {}


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
    return complex(mean, 0.0), {"gram": [[float(x) for x in row] for row in gram]}


def _exact_trace_sum(experiment):
    value = exact_trace_sum(experiment.payload["groups"], experiment.payload["weights"])
    return value, {}


def _exact_renyi(experiment):
    value = renyi_entropy_exact(experiment.payload["rho"], experiment.payload["order"])
    return value, {"order": experiment.payload["order"]}


def _exact_spectroscopy(experiment):
    rho = _reduced_state(experiment.payload)
    max_order = experiment.payload["max_order"] or rho.shape[0]
    eigenvalues = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    power_sums = [1.0] + [
        float(np.sum(eigenvalues**order)) for order in range(2, max_order + 1)
    ]
    estimate, _, extra = _assemble_spectroscopy(power_sums, [0.0] * len(power_sums), max_order)
    return estimate, extra


def _exact_virtual(experiment):
    payload = experiment.payload
    value = virtual_expectation_exact(
        payload["rho"], payload["observable"], payload["copies"]
    )
    extra = {"observable": payload["observable"], "copies": payload["copies"]}
    return value, extra


def _exact_qsp(experiment):
    value = parallel_qsp_trace_exact(experiment.payload["rho"], _qsp_factored(experiment))
    return value, {}


def _exact_ghz_fidelity(experiment):
    num_parties = experiment.payload["num_parties"]
    value = ghz_fidelity_density_model(num_parties, experiment.noise.to_model())
    return value, {"num_parties": num_parties}


_EXACTS = {
    "swap_test": _exact_swap_test,
    "multistate_swap": _exact_multistate,
    "nstate_swap": _exact_swap_test,
    "nparty_hadamard": _exact_swap_test,
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
            estimate, stderr, extra = _RUNNERS[experiment.kind](experiment, options, engine)
            wall_time = time.perf_counter() - start
            stats = engine.stats_dict()
    finally:
        if owns_engine:
            engine.close()
    exact = None
    # QSP always records its reference: the exact trace is cheap beside the run.
    if experiment.kind in _EXACTS and (with_exact or experiment.kind == "qsp"):
        exact, _ = _EXACTS[experiment.kind](experiment)
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
    )


def execute_exact(experiment) -> ExperimentResult:
    """Shot-free reference run; see :meth:`repro.api.Experiment.run_exact`."""
    experiment.validate()
    if experiment.kind not in _EXACTS:
        raise ValueError(f"no exact reference for kind {experiment.kind!r}")
    start = time.perf_counter()
    estimate, extra = _EXACTS[experiment.kind](experiment)
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
    )
