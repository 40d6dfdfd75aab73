"""Declarative experiment API: typed specs, one result envelope, sweeps.

The public surface of the repository, redesigned around *what* to run
instead of per-function plumbing:

* :class:`ProtocolSpec` / :class:`NoiseSpec` / :class:`NetworkSpec` /
  :class:`RunOptions` — frozen, validated, content-hashed specifications;
* :class:`Experiment` — the facade with one constructor per workload and
  ``run`` / ``run_exact`` / ``sweep`` methods;
* :class:`ExperimentResult` — the single JSON-round-trippable envelope
  every run returns;
* :class:`SweepResult` — an ordered grid of envelopes, built on the same
  grid machinery as :meth:`repro.engine.Engine.sweep`.
"""

from .experiment import KINDS, Experiment
from .result import API_VERSION, ExperimentResult
from .specs import (
    BACKENDS,
    EXECUTORS,
    GHZ_MODES,
    TOPOLOGIES,
    NetworkSpec,
    NoiseSpec,
    ProtocolSpec,
    QpuSpec,
    RunOptions,
    fresh_seed,
    stable_hash,
)
from .sweep import (
    ExperimentSweepPoint,
    SweepCheckpoint,
    SweepResult,
    iter_experiment_sweep,
    run_experiment_sweep,
)

__all__ = [
    "API_VERSION",
    "BACKENDS",
    "EXECUTORS",
    "GHZ_MODES",
    "KINDS",
    "TOPOLOGIES",
    "Experiment",
    "ExperimentResult",
    "ExperimentSweepPoint",
    "NetworkSpec",
    "NoiseSpec",
    "ProtocolSpec",
    "QpuSpec",
    "RunOptions",
    "SweepCheckpoint",
    "SweepResult",
    "fresh_seed",
    "iter_experiment_sweep",
    "run_experiment_sweep",
    "stable_hash",
]
