"""The single result envelope every experiment returns.

:class:`ExperimentResult` is the one result shape of every kind: a
headline ``estimate`` with a ``stderr``, the ``exact`` reference when one
was computed, the shot budget and *recorded* seed, the full spec
dictionaries, wall time, engine/cache statistics, and provenance
(experiment content hash, API version).  Kind-specific values (entropy,
spectrum, numerator/denominator, top errors, ...) live under ``extra``.

``to_dict()`` / ``from_dict()`` round-trip losslessly through JSON —
complex numbers are encoded as ``{"__complex__": [re, im]}`` — so the
benchmark harness persists envelopes verbatim and a service front-end can
ship them over the wire.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["API_VERSION", "ExperimentResult"]

API_VERSION = 1


def _encode(value):
    """JSON-safe deep copy: complex tagged, numpy/tuples/Counters lowered."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.complexfloating,)):
        return _encode(complex(value))
    if isinstance(value, np.ndarray):
        return [_encode(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _encode(item) for key, item in value.items()}
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _decode(value):
    """Inverse of :func:`_encode` (lists stay lists)."""
    if isinstance(value, dict):
        if set(value) == {"__complex__"}:
            re, im = value["__complex__"]
            return complex(re, im)
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


@dataclass
class ExperimentResult:
    """Generic outcome of one :class:`~repro.api.Experiment` run.

    ``estimate`` is complex for trace-like kinds and float elsewhere;
    ``stderr`` is the standard error of its real part (imaginary-part
    spread, when meaningful, is under ``extra["stderr_im"]``).

    ``observability`` is the optional run report attached when the
    experiment executed with tracing enabled (``run(obs=...)``).  Its
    schema, produced by :func:`repro.obs.run_report`::

        {
          "report": {
            "version": 1,
            "trace_id": str | None,
            "num_spans": int,          # spans in this run's window
            "wall_time": float,        # seconds, root-span envelope
            "workers": int | None,
            "executor": str | None,
            "batches": int,
            "breakdown": {             # seconds per pipeline stage
              "queue_wait": float, "worker_compile": float,
              "worker_execute": float, "ipc": float, "reduce": float,
            },
            "breakdown_shares": {...}, # same keys, fractions of their sum
            "ipc_share": float,        # serialization/IPC share of latency
            "kernel_rows": {           # dense kernel: history rows vs shots
              "row_ops": int, "shot_ops": int, "row_share": float | None,
            },
            "worker_utilization": float | None,
            "by_name": {name: {"count", "total", "max", "mean", "errors"}},
            "errors": int,
            "metrics": {...},          # counters/gauges/histograms (p50/95/99)
          },
          "timeline": str,             # indented text flame summary
        }

    The key is *omitted entirely* from :meth:`to_dict` when None, so
    pre-observability envelopes round-trip byte-identically and job
    hashes are untouched.
    """

    kind: str
    estimate: complex | float
    stderr: float
    shots: int
    seed: int | None
    exact: complex | float | None = None
    specs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    wall_time: float = 0.0
    engine_stats: dict | None = None
    provenance: dict = field(default_factory=dict)
    observability: dict | None = None
    #: Set (in-process only, never serialized) when this envelope was
    #: served from a sweep checkpoint instead of being recomputed.
    resumed: bool = field(default=False, compare=False)

    def resumed_copy(self) -> "ExperimentResult":
        """The same envelope, flagged as restored from a sweep checkpoint."""
        return replace(self, resumed=True)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def real(self) -> float:
        """Real part of the estimate."""
        return float(np.real(self.estimate))

    @property
    def imag(self) -> float:
        """Imaginary part of the estimate (0.0 for real-valued kinds)."""
        return float(np.imag(self.estimate))

    def error(self) -> float:
        """|estimate - exact|; requires an exact reference."""
        if self.exact is None:
            raise ValueError("no exact reference recorded on this result")
        return float(abs(self.estimate - self.exact))

    def within(self, reference: complex | float | None = None, sigmas: float = 5.0) -> bool:
        """Whether the reference's real part lies within ``sigmas`` stderrs.

        ``reference`` defaults to the recorded ``exact`` value.
        """
        if reference is None:
            if self.exact is None:
                raise ValueError("no exact reference recorded on this result")
            reference = self.exact
        margin = sigmas * max(self.stderr, 1e-12)
        return abs(self.real - float(np.real(reference))) <= margin

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict (``resumed`` excluded); inverse of :meth:`from_dict`.

        ``observability`` appears only when a run report was attached, so
        envelopes from untraced runs keep their historical shape.
        """
        payload = {
            "api_version": API_VERSION,
            "kind": self.kind,
            "estimate": _encode(self.estimate),
            "stderr": _encode(self.stderr),
            "shots": self.shots,
            "seed": self.seed,
            "exact": _encode(self.exact),
            "specs": _encode(self.specs),
            "extra": _encode(self.extra),
            "wall_time": _encode(self.wall_time),
            "engine_stats": _encode(self.engine_stats),
            "provenance": _encode(self.provenance),
        }
        if self.observability is not None:
            payload["observability"] = _encode(self.observability)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentResult":
        """Rebuild an envelope from :meth:`to_dict` output."""
        version = payload.get("api_version", API_VERSION)
        if version > API_VERSION:
            raise ValueError(f"unsupported result api_version {version}")
        return cls(
            kind=payload["kind"],
            estimate=_decode(payload["estimate"]),
            stderr=float(payload["stderr"]),
            shots=int(payload["shots"]),
            seed=None if payload.get("seed") is None else int(payload["seed"]),
            exact=_decode(payload.get("exact")),
            specs=_decode(payload.get("specs") or {}),
            extra=_decode(payload.get("extra") or {}),
            wall_time=float(payload.get("wall_time", 0.0)),
            engine_stats=_decode(payload.get("engine_stats")),
            provenance=_decode(payload.get("provenance") or {}),
            observability=_decode(payload.get("observability")),
        )
