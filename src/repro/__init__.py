"""repro — reproduction of COMPAS (ASPLOS 2026).

A from-scratch implementation of the distributed multi-party SWAP test of
Goldstein-Gelb et al., including every substrate the paper relies on:
circuit IR, statevector / density-matrix / stabilizer simulators, a
distributed QPU network model with Bell-pair accounting, teleoperation
primitives, the constant-depth Fanout, the COMPAS protocol itself, the
paper's resource and noise analyses, the Section 6 applications, a
parallel execution engine (batched shot scheduling, backend auto-selection,
result caching), and a declarative experiment API that fronts all of it.

Quickstart::

    import numpy as np
    from repro import Engine, Experiment, random_density_matrix

    states = [random_density_matrix(1) for _ in range(3)]
    with Engine(workers=4, cache=True) as engine:
        result = Experiment.swap_test(states, shots=20_000, seed=7).run(
            engine, with_exact=True
        )
    print(result.estimate, result.exact, result.stderr)

Every workload is an ``Experiment`` constructor — ``swap_test``,
``trace_sum``, ``renyi``, ``spectroscopy``, ``virtual``, ``qsp``,
``ghz_fidelity``, ``fanout_errors``, ``overall_fidelity`` — with ``run``,
``run_exact``, and grid ``sweep`` methods all returning one
``ExperimentResult`` envelope.
"""

from .circuits import Circuit, Condition, Instruction
from .engine import Engine, Job, JobResult, ResultCache
from .sim import (
    DensitySimulator,
    NoiseModel,
    Pauli,
    PauliFrameSimulator,
    StatevectorSimulator,
    TableauSimulator,
)
from .utils import (
    ghz_state,
    random_density_matrix,
    random_pure_state,
    state_fidelity,
    thermal_state,
)

__version__ = "1.1.0"

#: Attributes resolved lazily to avoid circular imports at package init
#: (repro.api imports repro.core, which imports repro.sim / repro.engine).
_LAZY_EXPORTS = {
    # Declarative API.
    "Experiment": ("repro.api", "Experiment"),
    "ExperimentResult": ("repro.api", "ExperimentResult"),
    "ProtocolSpec": ("repro.api", "ProtocolSpec"),
    "NoiseSpec": ("repro.api", "NoiseSpec"),
    "NetworkSpec": ("repro.api", "NetworkSpec"),
    "QpuSpec": ("repro.api", "QpuSpec"),
    "RunOptions": ("repro.api", "RunOptions"),
    "SweepResult": ("repro.api", "SweepResult"),
    "SweepCheckpoint": ("repro.api", "SweepCheckpoint"),
    "iter_experiment_sweep": ("repro.api", "iter_experiment_sweep"),
    "run_experiment_sweep": ("repro.api", "run_experiment_sweep"),
    # Observability (tracing, metrics, run reports, logging).
    "Observability": ("repro.obs", "Observability"),
    "Tracer": ("repro.obs", "Tracer"),
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "run_report": ("repro.obs", "run_report"),
    "render_timeline": ("repro.obs", "render_timeline"),
    "enable_logging": ("repro.obs", "enable_logging"),
    "get_observability": ("repro.obs", "get_observability"),
    "set_observability": ("repro.obs", "set_observability"),
    # Serving layer (the multi-tenant HTTP front door).
    "ExperimentService": ("repro.service", "ExperimentService"),
    "ServiceConfig": ("repro.service", "ServiceConfig"),
    "ServiceServer": ("repro.service", "ServiceServer"),
    "TenantQuota": ("repro.service", "TenantQuota"),
    "SpecLimits": ("repro.service", "SpecLimits"),
    # Analysis sweep entry point (Experiment-backed).
    "ghz_fidelity_sweep": ("repro.analysis.ghz_fidelity", "ghz_fidelity_sweep"),
}

__all__ = [
    "Circuit",
    "Condition",
    "Instruction",
    "Engine",
    "Job",
    "JobResult",
    "ResultCache",
    "DensitySimulator",
    "NoiseModel",
    "Pauli",
    "PauliFrameSimulator",
    "StatevectorSimulator",
    "TableauSimulator",
    "ghz_state",
    "random_density_matrix",
    "random_pure_state",
    "state_fidelity",
    "thermal_state",
    "__version__",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
