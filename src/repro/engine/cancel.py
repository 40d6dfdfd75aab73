"""Cooperative job cancellation: the handle a front end hands the engine.

A :class:`CancelToken` is a thread-safe latch shared between whoever
*submitted* a job (a service endpoint, an interactive session) and the
engine executing it.  Cancellation is cooperative and granular to a batch
group (the engine's unit of dispatch): the engine checks the token
between groups — before submitting work to the pool, on every completed
pooled group, and between inline groups — and raises
:class:`JobCancelled` at the first checkpoint after the token trips.  A
group already running finishes (its result is discarded); groups still
queued are cancelled and never computed, which is the point: dropping a
long sweep nobody will read should not keep burning the pool.

Tokens are engine-agnostic: one token can guard a whole multi-job
pipeline (``Engine.run_many(jobs, cancel=token)``) or every engine call
made inside a ``with engine.cancel_scope(token):`` block on the current
thread — the form service workers use, where the engine calls happen
deep inside :meth:`repro.api.Experiment.run`.
"""

from __future__ import annotations

import threading

__all__ = ["CancelToken", "JobCancelled"]


class JobCancelled(RuntimeError):
    """A job was cooperatively cancelled between batches.

    Raised by the engine/scheduler at the first cancellation checkpoint
    after the token tripped; outstanding pool futures are cancelled and
    drained before it propagates, so the pool stays reusable.
    """


class CancelToken:
    """A thread-safe one-way latch requesting that a job stop.

    ``cancel()`` may be called from any thread (an HTTP DELETE handler,
    a signal handler); the executing side observes it via ``cancelled``
    or :meth:`raise_if_cancelled`.  A token never resets.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Trip the latch; idempotent."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        """Raise :class:`JobCancelled` if the latch has tripped."""
        if self._event.is_set():
            raise JobCancelled("job cancelled by its cancel token")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancelToken(cancelled={self.cancelled})"
