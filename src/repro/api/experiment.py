"""The :class:`Experiment` facade: one declarative object per workload.

An experiment is (kind, payload, ProtocolSpec, NoiseSpec, NetworkSpec,
RunOptions) — everything needed to validate, hash, run, serialize, or
sweep it.  Constructors cover the protocol itself and every Section-5/6
workload::

    Experiment.swap_test(states, shots=20_000, seed=7).run()
    Experiment.renyi(rho, 2).run(with_exact=True)
    Experiment.spectroscopy(psi, keep=[0], num_qubits=2).run_exact()
    Experiment.virtual(rho, "Z", copies=3).run(engine=engine)
    Experiment.qsp(rho, coefficients, k=2).run()
    Experiment.trace_sum(groups, weights).run()
    Experiment.ghz_fidelity(8, p=0.003).sweep(over="num_parties", values=[4, 8, 12])

Every ``run`` returns the same :class:`~repro.api.ExperimentResult`
envelope; every construction validates eagerly; ``content_hash()``
fingerprints the full request (a service front-end request is just a
serialized experiment).  All constructor knobs after the data arguments
are keyword-only.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..apps.qsp import FactoredPolynomial, factor_polynomial
from ..engine import Engine
from .execution import execute, execute_exact
from .result import ExperimentResult
from .specs import NetworkSpec, NoiseSpec, ProtocolSpec, RunOptions, stable_hash
from .sweep import SweepResult, iter_experiment_sweep, run_experiment_sweep

__all__ = ["Experiment", "KINDS"]

KINDS = (
    "swap_test",
    "multistate_swap",
    "nstate_swap",
    "nparty_hadamard",
    "trace_sum",
    "renyi",
    "spectroscopy",
    "virtual",
    "qsp",
    "ghz_fidelity",
    "fanout_errors",
    "overall_fidelity",
)

#: Kinds that always lower through the distributed IR (protocol family).
_DISTRIBUTED_KINDS = frozenset({"multistate_swap", "nstate_swap", "nparty_hadamard"})

_PAULI_LETTERS = frozenset("IXYZ")


def _as_noise(noise) -> NoiseSpec:
    """Coerce None / base rate / NoiseModel / NoiseSpec into a NoiseSpec."""
    if noise is None:
        return NoiseSpec()
    if isinstance(noise, NoiseSpec):
        return noise
    if isinstance(noise, (int, float)):
        return NoiseSpec.from_base(float(noise))
    return NoiseSpec.from_model(noise)


def _as_states(states) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(s, dtype=complex) for s in states)


@dataclass(frozen=True)
class Experiment:
    """One fully-specified, hashable, runnable experiment."""

    kind: str
    payload: dict = field(default_factory=dict)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    options: RunOptions = field(default_factory=RunOptions)

    # ------------------------------------------------------------------
    # Validation and hashing
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Validate every spec plus the kind-specific payload."""
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        self.protocol.validate()
        self.noise.validate()
        self.network.validate()
        if not self.network.is_ideal and self.protocol.backend not in (
            "compas",
            "distributed",
        ):
            raise ValueError(
                "a physical network (nonzero link noise or QPU overrides) requires "
                "a distributed backend ('compas' or 'distributed'); "
                f"backend={self.protocol.backend!r} would silently ignore it"
            )
        self.options.validate()
        _PAYLOAD_VALIDATORS[self.kind](self)

    def content_hash(self) -> str:
        """Stable digest composing the spec hashes with the payload."""
        return stable_hash(
            "repro-experiment-v1",
            {
                "kind": self.kind,
                "payload": self.payload,
                "protocol": self.protocol.content_hash(),
                "noise": self.noise.content_hash(),
                "network": self.network.content_hash(),
                "options": self.options.content_hash(),
            },
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_options(self, **changes) -> "Experiment":
        """A copy with some :class:`RunOptions` fields replaced."""
        return replace(self, options=replace(self.options, **changes))

    def derive(self, **changes) -> "Experiment":
        """A copy with payload entries or any spec field replaced.

        Keys resolve in order: whole-spec names (``protocol``, ``noise``,
        ``network``, ``options``), the base-rate shorthand ``p`` (sets the
        noise spec via :meth:`NoiseSpec.from_base` *and* any payload copy
        of ``p``), payload keys, then fields of RunOptions, ProtocolSpec,
        NoiseSpec, and NetworkSpec.
        """
        payload = dict(self.payload)
        protocol, noise, network, options = (
            self.protocol,
            self.noise,
            self.network,
            self.options,
        )
        option_fields = {f.name for f in fields(RunOptions)}
        protocol_fields = {f.name for f in fields(ProtocolSpec)}
        noise_fields = {f.name for f in fields(NoiseSpec)}
        network_fields = {f.name for f in fields(NetworkSpec)}
        for key, value in changes.items():
            if key == "protocol":
                protocol = value
            elif key == "noise":
                noise = _as_noise(value)
            elif key == "network":
                network = value
            elif key == "options":
                options = value
            elif key == "p":
                # Base-rate shorthand: keep the noise spec and any payload
                # copy of p (overall_fidelity) consistent.
                noise = NoiseSpec.from_base(float(value))
                if "p" in payload:
                    payload["p"] = float(value)
            elif key in payload:
                payload[key] = value
            elif key in option_fields:
                options = replace(options, **{key: value})
            elif key in protocol_fields:
                protocol = replace(protocol, **{key: value})
            elif key in noise_fields:
                noise = replace(noise, **{key: value})
            elif key in network_fields:
                network = replace(network, **{key: value})
            else:
                raise ValueError(f"unknown experiment parameter {key!r}")
        derived = Experiment(
            kind=self.kind,
            payload=payload,
            protocol=protocol,
            noise=noise,
            network=network,
            options=options,
        )
        derived.validate()
        return derived

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        engine: Engine | None = None,
        *,
        with_exact: bool = False,
        obs=None,
    ) -> ExperimentResult:
        """Execute through an engine (a private one when none is given).

        ``with_exact`` also computes the shot-free reference and records
        it under ``result.exact``.  ``obs`` (a
        :class:`repro.obs.Observability`) traces the run end to end and
        attaches the run report as ``result.observability``; estimates
        are bit-identical with tracing on or off.
        """
        return execute(self, engine, with_exact=with_exact, obs=obs)

    def run_exact(self) -> ExperimentResult:
        """Shot-free reference evaluation (kinds with a ground truth)."""
        return execute_exact(self)

    def sweep(
        self,
        *,
        over: str | Sequence[str] | None = None,
        values: Sequence | None = None,
        grid: Mapping | None = None,
        engine: Engine | None = None,
        with_exact: bool = False,
        checkpoint=None,
        obs=None,
        progress=None,
    ) -> SweepResult:
        """Run once per grid point through one shared engine.

        ``over=/values=`` sweeps one axis (or zips several when ``over``
        is a tuple of names); ``grid=`` takes the cartesian product in
        row-major key order, exactly like :meth:`repro.engine.Engine.sweep`.
        Worker count never changes the estimates (engine determinism).

        ``checkpoint=dir`` makes the sweep crash-safe: each point's
        envelope is persisted (atomically, keyed by the sweep's base hash
        and the point's parameters) as it lands, and re-running the same
        sweep resumes from the finished points instead of recomputing
        them.

        ``obs`` traces the whole sweep as one coherent trace (resumed
        points show up as events, not recomputed spans); ``progress`` is
        called as ``progress(point, sweep)`` after every point lands.
        """
        return run_experiment_sweep(
            self,
            over=over,
            values=values,
            grid=grid,
            engine=engine,
            with_exact=with_exact,
            checkpoint=checkpoint,
            obs=obs,
            progress=progress,
        )

    def sweep_iter(
        self,
        *,
        over: str | Sequence[str] | None = None,
        values: Sequence | None = None,
        grid: Mapping | None = None,
        engine: Engine | None = None,
        with_exact: bool = False,
        checkpoint=None,
        obs=None,
        progress=None,
    ):
        """Stream the sweep of :meth:`sweep`: yield ``(point, sweep)`` pairs.

        Each grid point is yielded as it completes together with the live
        :class:`~repro.api.SweepResult` (use its ``partial()`` snapshot
        for progress reporting); see
        :func:`repro.api.sweep.iter_experiment_sweep`.
        """
        return iter_experiment_sweep(
            self,
            over=over,
            values=values,
            grid=grid,
            engine=engine,
            with_exact=with_exact,
            checkpoint=checkpoint,
            obs=obs,
            progress=progress,
        )

    # ------------------------------------------------------------------
    # Constructors (one per workload)
    # ------------------------------------------------------------------
    @classmethod
    def swap_test(
        cls,
        states,
        *,
        shots: int = 20_000,
        seed: int | None = None,
        variant: str = "d",
        ghz_mode: str = "linear",
        backend: str = "monolithic",
        design: str = "teledata",
        observable: str | None = None,
        noise=None,
        topology: str = "line",
        network: NetworkSpec | None = None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """The front door: estimate tr(rho_1 ... rho_k) on ``states``.

        ``network`` supplies the full physical model (link noise, swap
        penalty, Bell latency, per-QPU overrides); ``topology`` is the
        ideal-network shorthand used when ``network`` is omitted.
        """
        states = _as_states(states)
        experiment = cls(
            kind="swap_test",
            payload={"states": states},
            protocol=ProtocolSpec(
                k=len(states),
                variant=variant,
                ghz_mode=ghz_mode,
                backend=backend,
                design=design,
                observable=observable,
            ),
            noise=_as_noise(noise),
            network=network if network is not None else NetworkSpec(topology=topology),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def _protocol_family(
        cls,
        kind: str,
        states,
        *,
        shots: int,
        seed: int | None,
        design: str,
        noise,
        topology: str,
        network: NetworkSpec | None,
        workers: int,
        cache: bool | str,
    ) -> "Experiment":
        """Shared constructor body of the distributed protocol-family kinds."""
        states = _as_states(states)
        experiment = cls(
            kind=kind,
            payload={"states": states},
            protocol=ProtocolSpec(k=len(states), backend="distributed", design=design),
            noise=_as_noise(noise),
            network=network if network is not None else NetworkSpec(topology=topology),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def multistate_swap(
        cls,
        states,
        *,
        shots: int = 20_000,
        seed: int | None = None,
        design: str = "teledata",
        noise=None,
        topology: str = "line",
        network: NetworkSpec | None = None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Pairwise-overlap Gram matrix of ``states`` (arXiv:2205.07171).

        One distributed two-state SWAP test per unordered pair; the
        estimate is the mean off-diagonal overlap and the full Gram
        matrix lands in ``result.extra["gram"]``.
        """
        return cls._protocol_family(
            "multistate_swap",
            states,
            shots=shots,
            seed=seed,
            design=design,
            noise=noise,
            topology=topology,
            network=network,
            workers=workers,
            cache=cache,
        )

    @classmethod
    def nstate_swap(
        cls,
        states,
        *,
        shots: int = 20_000,
        seed: int | None = None,
        design: str = "teledata",
        noise=None,
        topology: str = "line",
        network: NetworkSpec | None = None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Single-ancilla N-state test of tr(rho_1 ... rho_k) (arXiv:2110.13261)."""
        return cls._protocol_family(
            "nstate_swap",
            states,
            shots=shots,
            seed=seed,
            design=design,
            noise=noise,
            topology=topology,
            network=network,
            workers=workers,
            cache=cache,
        )

    @classmethod
    def nparty_hadamard(
        cls,
        states,
        *,
        shots: int = 20_000,
        seed: int | None = None,
        design: str = "teledata",
        noise=None,
        topology: str = "line",
        network: NetworkSpec | None = None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """N-Party Hadamard Test of tr(rho_1 ... rho_k) (arXiv:2411.10024)."""
        return cls._protocol_family(
            "nparty_hadamard",
            states,
            shots=shots,
            seed=seed,
            design=design,
            noise=noise,
            topology=topology,
            network=network,
            workers=workers,
            cache=cache,
        )

    @classmethod
    def trace_sum(
        cls,
        groups,
        weights,
        *,
        shots: int = 40_000,
        seed: int | None = None,
        variant: str = "d",
        backend: str = "monolithic",
        design: str = "teledata",
        noise=None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Weighted sum of multivariate traces (Sec 7 extension)."""
        experiment = cls(
            kind="trace_sum",
            payload={
                "groups": tuple(_as_states(group) for group in groups),
                "weights": tuple(complex(w) for w in weights),
            },
            protocol=ProtocolSpec(variant=variant, backend=backend, design=design),
            noise=_as_noise(noise),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def renyi(
        cls,
        rho,
        order: int,
        *,
        shots: int = 20_000,
        seed: int | None = None,
        variant: str = "d",
        backend: str = "monolithic",
        design: str = "teledata",
        noise=None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Order-m Rényi entropy of ``rho`` (paper Sec 6.1)."""
        experiment = cls(
            kind="renyi",
            payload={"rho": np.asarray(rho, dtype=complex), "order": int(order)},
            protocol=ProtocolSpec(k=int(order), variant=variant, backend=backend, design=design),
            noise=_as_noise(noise),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def spectroscopy(
        cls,
        state,
        keep,
        num_qubits: int,
        *,
        max_order: int | None = None,
        shots: int = 20_000,
        seed: int | None = None,
        variant: str = "d",
        backend: str = "monolithic",
        noise=None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Entanglement spectrum of a subsystem of ``state`` (Sec 6.2)."""
        experiment = cls(
            kind="spectroscopy",
            payload={
                "state": np.asarray(state, dtype=complex),
                "keep": tuple(int(q) for q in keep),
                "num_qubits": int(num_qubits),
                "max_order": None if max_order is None else int(max_order),
            },
            protocol=ProtocolSpec(variant=variant, backend=backend),
            noise=_as_noise(noise),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def virtual(
        cls,
        rho,
        observable: str,
        copies: int,
        *,
        shots: int = 30_000,
        seed: int | None = None,
        exact_circuit: bool = False,
        variant: str = "d",
        noise=None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Virtual cooling / distillation expectation <O>_chi (Sec 6.3)."""
        experiment = cls(
            kind="virtual",
            payload={
                "rho": np.asarray(rho, dtype=complex),
                "observable": str(observable),
                "copies": int(copies),
                "exact_circuit": bool(exact_circuit),
            },
            protocol=ProtocolSpec(k=int(copies), variant=variant),
            noise=_as_noise(noise),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def qsp(
        cls,
        rho,
        polynomial,
        *,
        k: int | None = None,
        shots: int = 30_000,
        seed: int | None = None,
        variant: str = "d",
        noise=None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Parallel QSP trace tr(P(rho)) via factorisation (Sec 6.4).

        ``polynomial`` is either a :class:`FactoredPolynomial` or a raw
        coefficient array (highest degree first) factored into ``k``
        parts here.
        """
        if isinstance(polynomial, FactoredPolynomial):
            factored = polynomial
        else:
            if k is None:
                raise ValueError("raw coefficients need k= (the factor count)")
            factored = factor_polynomial(np.asarray(polynomial, dtype=float), k)
        experiment = cls(
            kind="qsp",
            payload={
                "rho": np.asarray(rho, dtype=complex),
                "scale": float(factored.scale),
                "factors": tuple(
                    tuple(float(c) for c in factor) for factor in factored.factors
                ),
            },
            protocol=ProtocolSpec(k=max(factored.num_factors, 2), variant=variant),
            noise=_as_noise(noise),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def ghz_fidelity(
        cls,
        num_parties: int,
        p: float | None = None,
        *,
        noise=None,
        shots: int = 20_000,
        seed: int | None = None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Distributed GHZ preparation fidelity by frame sampling (Fig 9a)."""
        if p is not None and noise is not None:
            raise ValueError("give either the base rate p or a noise spec, not both")
        experiment = cls(
            kind="ghz_fidelity",
            payload={"num_parties": int(num_parties)},
            noise=NoiseSpec.from_base(p) if p is not None else _as_noise(noise),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def fanout_errors(
        cls,
        num_targets: int,
        p: float | None = None,
        *,
        noise=None,
        shots: int = 100_000,
        seed: int | None = None,
        workers: int = 1,
        cache: bool | str = False,
    ) -> "Experiment":
        """Effective Pauli error distribution of the noisy Fanout (Table 4)."""
        if p is not None and noise is not None:
            raise ValueError("give either the base rate p or a noise spec, not both")
        experiment = cls(
            kind="fanout_errors",
            payload={"num_targets": int(num_targets)},
            noise=NoiseSpec.from_base(p) if p is not None else _as_noise(noise),
            options=RunOptions(shots=shots, seed=seed, workers=workers, cache=cache),
        )
        experiment.validate()
        return experiment

    @classmethod
    def overall_fidelity(
        cls,
        design: str,
        n: int,
        k: int,
        p: float,
        *,
        ghz_shots: int = 10_000,
        cswap_shots_per_input: int = 20,
        cswap_max_inputs: int = 60,
        cswap_error: float | None = None,
        seed: int | None = None,
    ) -> "Experiment":
        """The composed Sec 5.4 end-to-end fidelity lower bound (Fig 9c)."""
        experiment = cls(
            kind="overall_fidelity",
            payload={
                "n": int(n),
                "p": float(p),
                "cswap_shots_per_input": int(cswap_shots_per_input),
                "cswap_max_inputs": int(cswap_max_inputs),
                "cswap_error": None if cswap_error is None else float(cswap_error),
            },
            protocol=ProtocolSpec(k=int(k), design=design),
            noise=NoiseSpec.from_base(p),
            options=RunOptions(shots=ghz_shots, seed=seed),
        )
        experiment.validate()
        return experiment


# ----------------------------------------------------------------------
# Kind-specific payload validation
# ----------------------------------------------------------------------
def _check_trace_run(experiment, dims, shots, observable=None) -> None:
    """Reject up front a two-basis trace run the runner cannot honour.

    Every trace kind's validator calls this once per distinct run shape,
    with the dimensions of the run's input states, so the checks live in
    one place and a bad spec fails here (a 4xx at the service), never in
    a worker.  ``shots`` is None where no shot count needs checking: no
    sampled run follows (an exact-circuit virtual run, one QSP factor,
    first-order spectroscopy), or the runner sets it (trace_sum terms get
    at least 64 shots each).
    """
    backend = experiment.protocol.backend
    if experiment.kind in _DISTRIBUTED_KINDS:
        if backend != "distributed":
            raise ValueError(
                f"kind {experiment.kind!r} always lowers through the distributed IR; "
                "set protocol.backend='distributed'"
            )
    elif backend not in ("monolithic", "compas"):
        raise ValueError(
            f"kind {experiment.kind!r} runs the SWAP test: backend must be "
            f"'monolithic' or 'compas', got {backend!r}"
        )
    if len(dims) < 2:
        raise ValueError("need at least two states")
    if any(dim != dims[0] for dim in dims):
        raise ValueError("all states must have equal width")
    n = int(math.log2(dims[0]))
    if 2**n != dims[0]:
        raise ValueError("state dimension must be a power of two")
    if observable is not None:
        if backend != "monolithic":
            raise ValueError(
                f"an observable needs the monolithic backend; backend={backend!r} "
                "has no GHZ-controlled observable stage"
            )
        if len(observable) != n:
            raise ValueError(f"observable {observable!r} needs one Pauli per qubit ({n})")
    if shots is not None and shots < 2:
        raise ValueError("need at least two shots (one per readout basis)")


def _validate_states(experiment) -> None:
    _check_trace_run(
        experiment,
        [len(s) for s in experiment.payload["states"]],
        experiment.options.shots,
        experiment.protocol.observable,
    )


def _validate_multistate_swap(experiment) -> None:
    _validate_states(experiment)
    k = len(experiment.payload["states"])
    pairs = k * (k - 1) // 2
    if experiment.options.shots < 2 * pairs:
        raise ValueError(f"need at least {2 * pairs} shots (two per state pair)")


def _validate_trace_sum(experiment) -> None:
    groups = experiment.payload["groups"]
    weights = experiment.payload["weights"]
    if len(groups) != len(weights):
        raise ValueError("one weight per group required")
    if not groups:
        raise ValueError("need at least one term")
    for group in groups:
        if len(group) >= 2:
            dims = [len(s) for s in group]
            _check_trace_run(experiment, dims, None, experiment.protocol.observable)


def _validate_renyi(experiment) -> None:
    order = experiment.payload["order"]
    if order < 2:
        raise ValueError("integer Rényi order must be >= 2")
    _check_trace_run(
        experiment,
        [len(experiment.payload["rho"])] * order,
        experiment.options.shots,
        experiment.protocol.observable,
    )


def _validate_spectroscopy(experiment) -> None:
    payload = experiment.payload
    if payload["num_qubits"] < 1:
        raise ValueError("num_qubits must be positive")
    if not payload["keep"]:
        raise ValueError("keep must name at least one qubit")
    if any(not 0 <= q < payload["num_qubits"] for q in payload["keep"]):
        raise ValueError("keep indices must lie in range(num_qubits)")
    if payload["max_order"] is not None and payload["max_order"] < 1:
        raise ValueError("max_order must be positive")
    dim = 2 ** len(payload["keep"])
    max_order = payload["max_order"] or dim
    _check_trace_run(
        experiment,
        [dim] * max(max_order, 2),
        experiment.options.shots if max_order >= 2 else None,
        experiment.protocol.observable,
    )


def _validate_virtual(experiment) -> None:
    payload = experiment.payload
    if payload["copies"] < 2:
        raise ValueError("the SWAP-test route needs at least two copies")
    if not payload["observable"] or set(payload["observable"]) - _PAULI_LETTERS:
        raise ValueError("observable must be a non-empty Pauli label (IXYZ)")
    if experiment.protocol.observable is not None:
        raise ValueError("virtual takes its observable in the payload, not the protocol")
    _check_trace_run(
        experiment,
        [len(payload["rho"])] * payload["copies"],
        None if payload["exact_circuit"] else experiment.options.shots,
        payload["observable"],
    )


def _validate_qsp(experiment) -> None:
    factors = len(experiment.payload["factors"])
    if not factors:
        raise ValueError("need at least one polynomial factor")
    _check_trace_run(
        experiment,
        [len(experiment.payload["rho"])] * max(factors, 2),
        experiment.options.shots if factors >= 2 else None,
        experiment.protocol.observable,
    )


def _validate_ghz_fidelity(experiment) -> None:
    if experiment.payload["num_parties"] < 2:
        raise ValueError("need at least two parties")


def _validate_fanout_errors(experiment) -> None:
    if experiment.payload["num_targets"] < 1:
        raise ValueError("need at least one fanout target")


def _validate_overall_fidelity(experiment) -> None:
    payload = experiment.payload
    if experiment.protocol.k is None or experiment.protocol.k < 2:
        raise ValueError("need at least two parties (k >= 2)")
    if payload["n"] < 1:
        raise ValueError("states need at least one qubit")
    if not 0.0 <= payload["p"] <= 1.0:
        raise ValueError("base noise rate p must be in [0, 1]")
    if payload["cswap_error"] is not None and not 0.0 <= payload["cswap_error"] <= 1.0:
        raise ValueError("cswap_error must be in [0, 1]")


_PAYLOAD_VALIDATORS = {
    "swap_test": _validate_states,
    "multistate_swap": _validate_multistate_swap,
    "nstate_swap": _validate_states,
    "nparty_hadamard": _validate_states,
    "trace_sum": _validate_trace_sum,
    "renyi": _validate_renyi,
    "spectroscopy": _validate_spectroscopy,
    "virtual": _validate_virtual,
    "qsp": _validate_qsp,
    "ghz_fidelity": _validate_ghz_fidelity,
    "fanout_errors": _validate_fanout_errors,
    "overall_fidelity": _validate_overall_fidelity,
}
