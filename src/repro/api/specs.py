"""Typed, frozen experiment specifications with stable content hashes.

The declarative API describes *what* to run with four immutable spec
dataclasses:

* :class:`ProtocolSpec` — which SWAP-test circuit family (variant, GHZ
  preparation mode, monolithic vs distributed backend, CSWAP design,
  optional GHZ-controlled observable insertion);
* :class:`NoiseSpec` — the paper's circuit-level noise model, decoupled
  from the simulator-facing :class:`~repro.sim.noisemodel.NoiseModel`;
* :class:`NetworkSpec` — the QPU interconnect topology for distributed
  backends;
* :class:`RunOptions` — *how* to run it (shots, seed, worker pool, cache).

Each spec has a ``validate()`` raising :class:`ValueError` on bad fields and
a ``content_hash()`` — a SHA-256 hex digest over a canonical, type-tagged
field encoding.  The digests are stable across processes and compose with
:meth:`repro.engine.Job.content_hash`: an :class:`~repro.api.Experiment`
hash is a digest over its spec digests plus its payload, so any spec
mutation changes the experiment hash exactly as any job mutation changes
the job hash.

Seeds: ``RunOptions.seed=None`` means "draw one fresh seed from the OS
entropy pool at run time and record it" (see :func:`fresh_seed`), so every
run is reproducible after the fact from its recorded result.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..core.cswap import DESIGNS
from ..core.swap_test import VARIANTS
from ..engine import Engine
from ..network.qpu import validate_qpu_names
from ..network.topology import (
    complete_topology,
    line_topology,
    ring_topology,
    star_topology,
)
from ..sim.noisemodel import NoiseModel, QpuNoiseOverride

__all__ = [
    "BACKENDS",
    "EXECUTORS",
    "GHZ_MODES",
    "TOPOLOGIES",
    "NetworkSpec",
    "NoiseSpec",
    "ProtocolSpec",
    "QpuSpec",
    "RunOptions",
    "fresh_seed",
    "stable_hash",
]

BACKENDS = ("monolithic", "compas", "distributed")
GHZ_MODES = ("linear", "fused")
EXECUTORS = ("auto", "serial", "thread", "process")
TOPOLOGIES = {
    "line": line_topology,
    "ring": ring_topology,
    "star": star_topology,
    "complete": complete_topology,
}

_PAULI_LETTERS = frozenset("IXYZ")


def fresh_seed() -> int:
    """One seed drawn from the OS entropy pool, small enough for any RNG."""
    return int(np.random.SeedSequence().entropy % (2**63))


# ----------------------------------------------------------------------
# Canonical hashing
# ----------------------------------------------------------------------
def _hash_value(h, value) -> None:
    """Feed ``value`` into ``h`` with an unambiguous type-tagged encoding."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, bool):
        h.update(b"B" + (b"1" if value else b"0"))
    elif isinstance(value, int):
        h.update(b"I" + str(value).encode())
    elif isinstance(value, float):
        h.update(b"F" + struct.pack(">d", value))
    elif isinstance(value, complex):
        h.update(b"C" + struct.pack(">dd", value.real, value.imag))
    elif isinstance(value, str):
        h.update(b"S" + str(len(value)).encode() + b":" + value.encode())
    elif isinstance(value, bytes):
        h.update(b"Y" + str(len(value)).encode() + b":" + value)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(b"A" + arr.dtype.str.encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"L" + str(len(value)).encode())
        for item in value:
            _hash_value(h, item)
    elif isinstance(value, dict):
        h.update(b"D" + str(len(value)).encode())
        for key in sorted(value):
            _hash_value(h, str(key))
            _hash_value(h, value[key])
    elif isinstance(value, (np.integer, np.floating, np.complexfloating)):
        _hash_value(h, value.item())
    else:
        raise TypeError(f"cannot hash value of type {type(value).__name__}")


def stable_hash(tag: str, value) -> str:
    """SHA-256 hex digest of ``value`` under the canonical encoding."""
    h = hashlib.sha256()
    h.update(tag.encode())
    _hash_value(h, value)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolSpec:
    """Which multi-party SWAP-test circuit family to run.

    ``k`` is the party count (``None`` means "inferred from the payload",
    e.g. the number of input states or the Rényi order).  ``observable``
    optionally names a Pauli string inserted under GHZ control (the
    Sec 6.3 numerator circuit).
    """

    k: int | None = None
    variant: str = "d"
    ghz_mode: str = "linear"
    backend: str = "monolithic"
    design: str = "teledata"
    observable: str | None = None

    def validate(self) -> None:
        """Raise :class:`ValueError` on any invalid field."""
        if self.k is not None and self.k < 2:
            raise ValueError("need at least two parties (k >= 2)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.ghz_mode not in GHZ_MODES:
            raise ValueError(f"ghz_mode must be one of {GHZ_MODES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if self.observable is not None and (
            not self.observable or set(self.observable) - _PAULI_LETTERS
        ):
            raise ValueError("observable must be a non-empty Pauli label (IXYZ)")

    def content_hash(self) -> str:
        """Stable digest of every field."""
        return stable_hash("repro-protocol-spec-v1", asdict(self))


@dataclass(frozen=True)
class NoiseSpec:
    """The paper's circuit-level noise rates (Sec 5.1), as a pure spec."""

    p1: float = 0.0
    p2: float = 0.0
    p_meas: float = 0.0

    @classmethod
    def from_base(cls, p: float) -> "NoiseSpec":
        """The paper's scaling: p/10 on 1q gates, p on 2q gates and readout."""
        return cls(p1=p / 10.0, p2=p, p_meas=p)

    @classmethod
    def noiseless(cls) -> "NoiseSpec":
        """All rates zero."""
        return cls()

    @classmethod
    def from_model(cls, model: NoiseModel | None) -> "NoiseSpec":
        """Lift a simulator-facing :class:`NoiseModel` into a spec."""
        if model is None:
            return cls()
        return cls(p1=model.p1, p2=model.p2, p_meas=model.p_meas)

    @property
    def is_noiseless(self) -> bool:
        """Whether every rate is exactly zero."""
        return self.p1 == 0.0 and self.p2 == 0.0 and self.p_meas == 0.0

    def to_model(self) -> NoiseModel | None:
        """The simulator-facing model; ``None`` when noiseless (fast path)."""
        if self.is_noiseless:
            return None
        return NoiseModel(p1=self.p1, p2=self.p2, p_meas=self.p_meas)

    def validate(self) -> None:
        """Raise :class:`ValueError` on any invalid field."""
        for name, rate in (("p1", self.p1), ("p2", self.p2), ("p_meas", self.p_meas)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"noise rate {name} must be in [0, 1]")

    def content_hash(self) -> str:
        """Stable digest of every field."""
        return stable_hash("repro-noise-spec-v1", asdict(self))


@dataclass(frozen=True)
class QpuSpec:
    """Heterogeneous-QPU noise overrides for one named processor.

    ``None`` fields inherit the experiment's homogeneous
    :class:`NoiseSpec` rates.
    """

    name: str
    p1: float | None = None
    p2: float | None = None
    p_meas: float | None = None

    def validate(self) -> None:
        """Raise :class:`ValueError` on any invalid field."""
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"QPU override needs a non-empty string name, got {self.name!r}")
        for field_name, rate in (("p1", self.p1), ("p2", self.p2), ("p_meas", self.p_meas)):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"QPU override rate {field_name} for {self.name!r} must be in [0, 1]"
                )


@dataclass(frozen=True)
class NetworkSpec:
    """Physical model of the QPU interconnect (``backend="compas"``).

    Beyond the topology name, the spec models the *quality* of the network:

    * ``link_depolarizing`` — two-qubit depolarizing rate suffered by a
      Bell pair per nearest-neighbour link it crosses (Eq. 6's noisy-pair
      model, hop-weighted);
    * ``swap_penalty`` — extra depolarizing per entanglement-swapping
      station (an ``h``-hop pair passes ``h - 1`` stations, Sec 2.5);
    * ``bell_latency`` — wall-clock cost of one nearest-neighbour pair
      generation in units of a local gate layer (resource accounting only;
      an ``h``-hop generation occupies ``h x bell_latency``);
    * ``qpus`` — per-QPU gate/measure noise overrides for heterogeneous
      machines.

    The all-defaults spec is the ideal-link network of the pre-physical
    pipeline; its hash tag is ``v2`` so results cached under the one-field
    ideal-link spec are never conflated with physical-network runs.
    """

    topology: str = "line"
    link_depolarizing: float = 0.0
    swap_penalty: float = 0.0
    bell_latency: float = 1.0
    qpus: tuple[QpuSpec, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate list/dict inputs from JSON round-trips.
        if not isinstance(self.qpus, tuple):
            object.__setattr__(
                self,
                "qpus",
                tuple(q if isinstance(q, QpuSpec) else QpuSpec(**q) for q in self.qpus),
            )

    def validate(self) -> None:
        """Raise :class:`ValueError` on any invalid field."""
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {tuple(TOPOLOGIES)}")
        for field_name, rate in (
            ("link_depolarizing", self.link_depolarizing),
            ("swap_penalty", self.swap_penalty),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        if self.bell_latency < 0.0:
            raise ValueError("bell_latency must be non-negative")
        seen = set()
        for qpu in self.qpus:
            qpu.validate()
            if qpu.name in seen:
                raise ValueError(f"duplicate QPU override for {qpu.name!r}")
            seen.add(qpu.name)

    @property
    def is_ideal(self) -> bool:
        """Whether links are noiseless and QPUs homogeneous."""
        return (
            self.link_depolarizing == 0.0
            and self.swap_penalty == 0.0
            and all(q.p1 is None and q.p2 is None and q.p_meas is None for q in self.qpus)
        )

    def build(self, names):
        """Instantiate the topology over the given QPU names.

        Names are validated at this boundary (non-empty strings, no
        duplicates — the error names the offender), and every QPU override
        must refer to a QPU that actually exists in the machine.
        """
        names = validate_qpu_names(names)
        self.check_overrides(names)
        return TOPOLOGIES[self.topology](names)

    def check_overrides(self, names) -> None:
        """Reject QPU overrides naming processors absent from ``names``.

        Called from :meth:`build` and from the runner when the caller
        supplies a pre-built topology (which bypasses :meth:`build`), so a
        typo in an override name can never silently drop its noise.
        """
        names = list(names)
        unknown = [q.name for q in self.qpus if q.name not in names]
        if unknown:
            raise ValueError(f"QPU overrides name unknown QPUs {unknown}; machine has {names}")

    def link_error_rate(self, hops: int) -> float:
        """Depolarizing rate of one freshly distributed ``hops``-hop pair.

        Delegates to :meth:`NoiseModel.link_error_rate` so the analysis
        layer's bounds and the simulators' sampled faults share one formula.
        """
        return NoiseModel(
            p1=0.0,
            p2=0.0,
            p_meas=0.0,
            p_link=self.link_depolarizing,
            p_swap=self.swap_penalty,
        ).link_error_rate(hops)

    def noise_model(self, noise: "NoiseSpec | NoiseModel | None") -> NoiseModel | None:
        """Compose the base circuit noise with this network's physics.

        Returns the simulator-facing :class:`NoiseModel` carrying link
        rates and per-QPU overrides, or ``None`` when everything is ideal
        (the engine's fast path).
        """
        if isinstance(noise, NoiseSpec):
            base = noise.to_model()
        else:
            base = noise
        if base is None:
            base = NoiseModel.noiseless()
        if self.is_ideal:
            return None if base.is_noiseless else base
        overrides = tuple(
            QpuNoiseOverride(qpu=q.name, p1=q.p1, p2=q.p2, p_meas=q.p_meas)
            for q in self.qpus
            if q.p1 is not None or q.p2 is not None or q.p_meas is not None
        )
        return NoiseModel(
            p1=base.p1,
            p2=base.p2,
            p_meas=base.p_meas,
            p_link=self.link_depolarizing,
            p_swap=self.swap_penalty,
            qpu_overrides=overrides,
        )

    def content_hash(self) -> str:
        """Stable digest of every field.

        The ``v2`` tag marks the physical-network era: ideal-link ``v1``
        hashes must never collide with physical-model hashes, so cached
        experiment results from before the refactor are never served.
        """
        return stable_hash("repro-network-spec-v2", asdict(self))


@dataclass(frozen=True)
class RunOptions:
    """How to execute: shot budget, seed, worker pool, and result cache.

    ``seed=None`` draws one fresh entropy-pool seed at run time; the
    resolved value is recorded in the :class:`~repro.api.ExperimentResult`
    so the run stays reproducible.  ``executor="auto"`` picks ``serial``
    for one worker and ``thread`` otherwise.
    """

    shots: int = 20_000
    seed: int | None = None
    workers: int = 1
    executor: str = "auto"
    cache: bool | str = False
    batch_size: int | None = None

    def validate(self) -> None:
        """Raise :class:`ValueError` on any invalid field."""
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    def resolved(self) -> "RunOptions":
        """These options with a concrete seed (drawn if ``seed`` is None)."""
        if self.seed is not None:
            return self
        return replace(self, seed=fresh_seed())

    def resolved_executor(self) -> str:
        """The executor the engine will actually use."""
        if self.executor != "auto":
            return self.executor
        return "serial" if self.workers == 1 else "thread"

    def make_engine(self) -> Engine:
        """A fresh :class:`~repro.engine.Engine` configured by these options."""
        return Engine(
            workers=self.workers,
            executor=self.resolved_executor(),
            cache=self.cache,
        )

    def content_hash(self) -> str:
        """Stable digest of every field.

        The ``v3`` tag covers the ``array_api`` field's removal — hashes
        from the array-API era never collide with current ones.
        """
        return stable_hash("repro-run-options-v3", asdict(self))
