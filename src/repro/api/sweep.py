"""Sweep-first execution: run one experiment over a parameter grid.

The repository's one sweep API.  Grid points come from
:func:`repro.engine.grid_points` (cartesian product in row-major key
order); each grid point derives a new
:class:`~repro.api.Experiment` via :meth:`~repro.api.Experiment.derive`
and runs it through one shared engine, so the whole sweep benefits from
the engine's worker pool (whose cross-job pipeline keeps every worker
busy across the two basis jobs of each point) and result cache.  Because
engine execution is bit-identical for any worker count, so is an
experiment sweep — the property ``tests/test_api.py`` pins.

The base experiment's seed is resolved *once*, before the first point, so
a sweep with ``seed=None`` is reproducible from the recorded per-point
seeds.  A checkpointed ``seed=None`` sweep additionally records its drawn
seed inside the checkpoint directory and re-uses it on resume, so the
re-run derives the same base hash and actually finds its finished points.

Crash safety: ``checkpoint=dir`` persists each point's
:class:`~repro.api.ExperimentResult` envelope as it lands — atomically,
under the sweep's ``base_hash`` and a per-point parameter digest — and a
re-run of the same sweep resumes by loading the finished points instead
of recomputing them (such envelopes carry ``result.resumed``).  Streaming:
:func:`iter_experiment_sweep` yields each point as it completes together
with the live :class:`SweepResult`, whose :meth:`~SweepResult.partial`
snapshot is safe to persist or report while the sweep continues.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..engine import Engine, grid_points
from ..engine.job import JOB_HASH_TAG
from ..obs.runtime import NOOP, Observability
from ..utils.jsonio import atomic_write_json, load_json_or_discard
from .result import ExperimentResult, _encode
from .specs import fresh_seed, stable_hash

_log = logging.getLogger("repro.api.sweep")

__all__ = [
    "ExperimentSweepPoint",
    "SweepCheckpoint",
    "SweepResult",
    "iter_experiment_sweep",
    "run_experiment_sweep",
]


@dataclass
class ExperimentSweepPoint:
    """One grid point: the derived parameters and the result envelope."""

    params: dict
    result: ExperimentResult


@dataclass
class SweepResult:
    """All points of one sweep, in grid order.

    ``base_hash`` digests the seed-resolved base experiment with
    pool-only options (workers/executor/cache) normalised away — those
    never change the estimates, so two runs of the same sweep on
    different pools share one hash (and one checkpoint namespace).
    ``total`` is the planned number of grid points (``None`` for sweeps
    rebuilt from pre-checkpoint payloads), ``resumed`` counts the points
    served from a checkpoint instead of recomputed.  While a sweep is
    still running (:func:`iter_experiment_sweep`), ``points`` holds the
    finished prefix; :meth:`partial` snapshots it safely.
    """

    base_hash: str
    over: tuple[str, ...]
    points: list[ExperimentSweepPoint] = field(default_factory=list)
    total: int | None = None
    resumed: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def complete(self) -> bool:
        """Whether every planned grid point has a result."""
        return self.total is not None and len(self.points) == self.total

    def partial(self) -> "SweepResult":
        """A snapshot of the finished points, safe to persist mid-sweep.

        The returned object shares the result envelopes but owns its
        points list, so the running sweep appending further points never
        mutates it.
        """
        return SweepResult(
            base_hash=self.base_hash,
            over=self.over,
            points=list(self.points),
            total=self.total,
            resumed=self.resumed,
        )

    def values(self, key: str) -> list:
        """The swept values of one parameter, in grid order."""
        return [point.params[key] for point in self.points]

    def estimates(self) -> list:
        """The per-point estimates, in grid order."""
        return [point.result.estimate for point in self.points]

    def results(self) -> list[ExperimentResult]:
        """The per-point result envelopes, in grid order."""
        return [point.result for point in self.points]

    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {
            "base_hash": self.base_hash,
            "over": list(self.over),
            "total": self.total,
            "resumed": self.resumed,
            "points": [
                {"params": point.params, "result": point.result.to_dict()}
                for point in self.points
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepResult":
        """Rebuild a sweep from :meth:`to_dict` output."""
        return cls(
            base_hash=payload["base_hash"],
            over=tuple(payload["over"]),
            points=[
                ExperimentSweepPoint(
                    params=dict(point["params"]),
                    result=ExperimentResult.from_dict(point["result"]),
                )
                for point in payload["points"]
            ],
            total=payload.get("total"),
            resumed=int(payload.get("resumed", 0)),
        )


class SweepCheckpoint:
    """Per-point persistence of a sweep's result envelopes.

    Files live under ``directory / base_hash`` — one JSON file per grid
    point, named by a digest of the point's parameters, the
    ``with_exact`` flag and the job-hash tag — so two sweeps of different
    base experiments (or the same base after any spec change), exact-less
    envelopes when the re-run asks for the exact reference, and points
    sampled under another job-hash tag can never serve each other's
    points.  Writes are atomic (same-dir temp file + ``os.replace``, the
    disk-cache discipline), and unreadable or corrupt point files are
    treated as "not finished": deleted and recomputed on resume.
    """

    def __init__(
        self,
        directory: str | Path,
        base_hash: str,
        over: Sequence[str],
        with_exact: bool = False,
    ):
        self.root = Path(directory) / base_hash
        self.over = tuple(over)
        self.with_exact = bool(with_exact)

    # ------------------------------------------------------------------
    def load(self, params: Mapping) -> ExperimentResult | None:
        """The stored envelope of one grid point, or None if unfinished."""
        result, _ = load_json_or_discard(
            self.point_path(params),
            lambda payload: ExperimentResult.from_dict(payload["result"]),
        )
        return result

    def store(self, params: Mapping, result: ExperimentResult) -> None:
        """Atomically persist one finished grid point."""
        manifest = self.root / "manifest.json"
        if not manifest.exists():
            atomic_write_json(manifest, {"base_hash": self.root.name, "over": list(self.over)})
        atomic_write_json(
            self.point_path(params),
            {"params": _encode(dict(params)), "result": result.to_dict()},
        )

    # ------------------------------------------------------------------
    def point_path(self, params: Mapping) -> Path:
        """Where one grid point's envelope lives.

        The job-hash tag is part of the name: the experiment hash does
        not move when a job-hash bump changes the sampled bits, and a
        resumed sweep must not mix points from two RNG contracts.
        """
        digest = stable_hash(
            "repro-sweep-point-v1",
            {
                "params": _encode(dict(params)),
                "with_exact": self.with_exact,
                "job_hash": JOB_HASH_TAG,
            },
        )
        return self.root / f"point-{digest[:32]}.json"


def _param_sets(over, values, grid) -> tuple[tuple[str, ...], list[dict]]:
    """Normalise the sweep axes into a list of per-point parameter dicts."""
    if grid is not None:
        if over is not None or values is not None:
            raise ValueError("give either grid= or over=/values=, not both")
        if not grid:
            raise ValueError("grid must name at least one parameter")
        return tuple(grid), list(grid_points(grid))
    if over is None or values is None:
        raise ValueError("sweep needs over= and values= (or grid=)")
    if isinstance(over, str):
        return (over,), [{over: value} for value in values]
    over = tuple(over)
    sets = []
    for value in values:
        if not isinstance(value, Sequence) or len(value) != len(over):
            raise ValueError("with a tuple of field names, each value must be a matching tuple")
        sets.append(dict(zip(over, value)))
    return over, sets


def _canonical(experiment):
    """The experiment with pool-only options normalised away.

    workers/executor/cache never change the estimates (the engine
    determinism contract), so they must not key a sweep or its
    checkpoint: a sweep interrupted at ``workers=2`` resumes on a
    16-worker machine.  Result-affecting options (shots, seed,
    batch_size) stay in the hash.
    """
    return experiment.with_options(workers=1, executor="auto", cache=False)


def _restore_seed(checkpoint, experiment) -> int:
    """The seed a previous run of this ``seed=None`` sweep drew (or a new one).

    Keyed by the canonical experiment hash *at* ``seed=None``, recorded
    atomically in the checkpoint directory — so a re-run of the same
    unseeded sweep derives the same base hash and finds its finished
    points instead of silently starting a fresh namespace.
    """
    key = _canonical(experiment).content_hash()
    path = Path(checkpoint) / f"seed-{key[:32]}.json"
    seed, _ = load_json_or_discard(path, lambda payload: int(payload["seed"]))
    if seed is None:
        seed = fresh_seed()
        atomic_write_json(path, {"seed": seed})
    return seed


def _prepare(experiment, over, values, grid, checkpoint, with_exact):
    """Resolve the base experiment, the grid, and the checkpoint store."""
    over, sets = _param_sets(over, values, grid)
    seed = experiment.options.seed
    if seed is None:
        if checkpoint is not None:
            seed = _restore_seed(checkpoint, experiment)
        else:
            seed = experiment.options.resolved().seed
    base = experiment.with_options(seed=seed)
    base_hash = _canonical(base).content_hash()
    sweep = SweepResult(base_hash=base_hash, over=over, total=len(sets))
    store = None
    if checkpoint is not None:
        store = SweepCheckpoint(checkpoint, base_hash, over, with_exact=with_exact)
    return base, sets, sweep, store


def _drive(base, sets, sweep, store, engine, with_exact, obs=None, progress=None):
    """Run (or resume) each grid point, yielding as results land.

    With an enabled ``obs`` the whole sweep becomes one
    ``experiment.sweep`` root span; every computed point's
    ``experiment.run`` span nests under it, and points served from a
    checkpoint are recorded as zero-duration ``sweep.resume_point``
    events (plus a ``sweep.resumed_points`` counter), so the trace shows
    exactly which work the resume skipped.  ``progress`` is called as
    ``progress(point, sweep)`` after every point (resumed or fresh).
    """
    obs = obs if obs is not None else NOOP
    tracer = obs.tracer
    owns_engine = engine is None
    if owns_engine:
        engine = base.options.make_engine()
    root = tracer.begin(
        "experiment.sweep",
        kind=base.kind,
        points=len(sets),
        over=list(sweep.over),
    )
    error = None
    try:
        for params in sets:
            result = store.load(params) if store is not None else None
            if result is not None:
                result = result.resumed_copy()
                sweep.resumed += 1
                tracer.event("sweep.resume_point", parent_id=root.span_id)
                obs.metrics.counter("sweep.resumed_points").inc()
                _log.debug("sweep point resumed from checkpoint: %s", dict(params))
            else:
                # Only scalar swept values go on the span (grid axes may
                # hold arrays, which are not JSON-safe attrs).
                scalars = {
                    k: v
                    for k, v in params.items()
                    if isinstance(v, (bool, int, float, str))
                }
                with tracer.span("sweep.point", parent_id=root.span_id, **scalars):
                    result = base.derive(**params).run(
                        engine=engine, with_exact=with_exact, obs=obs
                    )
                if store is not None:
                    store.store(params, result)
            point = ExperimentSweepPoint(params=dict(params), result=result)
            sweep.points.append(point)
            if progress is not None:
                progress(point, sweep)
            yield point
    except BaseException as exc:
        error = exc
        raise
    finally:
        tracer.end(root, error=error)
        if owns_engine:
            engine.close()


def iter_experiment_sweep(
    experiment,
    *,
    over=None,
    values=None,
    grid: Mapping | None = None,
    engine: Engine | None = None,
    with_exact: bool = False,
    checkpoint: str | Path | None = None,
    obs: Observability | None = None,
    progress: Callable[[ExperimentSweepPoint, SweepResult], None] | None = None,
) -> Iterator[tuple[ExperimentSweepPoint, SweepResult]]:
    """Stream a sweep: yield ``(point, sweep)`` as each grid point lands.

    ``sweep`` is the live :class:`SweepResult` accumulating the finished
    prefix — call :meth:`SweepResult.partial` on it for a stable snapshot.
    With ``checkpoint=`` the already-finished points of an interrupted run
    are yielded (flagged ``result.resumed``) without recomputation, and
    every fresh point is persisted the moment it completes, so abandoning
    the iterator loses at most the in-flight point.  ``obs`` traces the
    whole sweep under one root span (resumed points become events);
    ``progress`` is called after every point.
    """
    base, sets, sweep, store = _prepare(experiment, over, values, grid, checkpoint, with_exact)
    for point in _drive(
        base, sets, sweep, store, engine, with_exact, obs=obs, progress=progress
    ):
        yield point, sweep


def run_experiment_sweep(
    experiment,
    *,
    over=None,
    values=None,
    grid: Mapping | None = None,
    engine: Engine | None = None,
    with_exact: bool = False,
    checkpoint: str | Path | None = None,
    obs: Observability | None = None,
    progress: Callable[[ExperimentSweepPoint, SweepResult], None] | None = None,
) -> SweepResult:
    """Run the experiment once per grid point; see ``Experiment.sweep``."""
    base, sets, sweep, store = _prepare(experiment, over, values, grid, checkpoint, with_exact)
    for _ in _drive(
        base, sets, sweep, store, engine, with_exact, obs=obs, progress=progress
    ):
        pass
    return sweep
