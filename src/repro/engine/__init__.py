"""Parallel execution engine: batching, backend routing, result caching.

All shot execution in the repository flows through this package — the
estimator, the Section-6 applications, and the benchmarks submit
:class:`Job` specs and get :class:`JobResult` aggregates back.  See
:mod:`repro.engine.engine` for the layer diagram.
"""

from .cache import CacheStats, ResultCache
from .cancel import CancelToken, JobCancelled
from .costmodel import CostModel, DispatchPlan
from .engine import Engine, EngineStats, grid_points
from .job import DEFAULT_BATCH_SIZE, JOB_BACKENDS, Ensemble, Job, JobResult
from .router import BackendChoice, BackendRouter
from .runners import (
    Batch,
    BatchExecutionError,
    BatchStats,
    WorkerJobMiss,
    batch_rng,
    execute_batch_group,
)
from .scheduler import Scheduler

__all__ = [
    "CacheStats",
    "ResultCache",
    "CancelToken",
    "JobCancelled",
    "CostModel",
    "DispatchPlan",
    "Engine",
    "EngineStats",
    "DEFAULT_BATCH_SIZE",
    "JOB_BACKENDS",
    "Ensemble",
    "Job",
    "JobResult",
    "BackendChoice",
    "BackendRouter",
    "Batch",
    "BatchExecutionError",
    "BatchStats",
    "WorkerJobMiss",
    "batch_rng",
    "execute_batch_group",
    "Scheduler",
    "grid_points",
]
