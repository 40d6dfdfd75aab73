"""Dispatch cost model: where a job's batch groups run, and how many.

The scheduler's batch partition is a *correctness* contract — RNG
substreams derive from ``(job.seed, batch.index)``, so the partition is
part of the job hash and can never depend on the machine.  How those
batches are *dispatched* is pure policy, and this module is where that
policy lives.  Every job runs as contiguous batch *groups* (several
batches of one job per call, one kernel call and one reduction per
group); the model decides

* **inline vs pooled** — a job whose whole estimated runtime is
  comparable to one pickle/queue/IPC round trip loses by fanning out, no
  matter how many workers exist;
* **group count** — few big groups minimise dispatch overhead and let
  more histories share kernel rows; more smaller groups improve load
  balance and cancellation granularity (the cancel token is checked
  between groups, so no group is estimated to run longer than
  :data:`MAX_GROUP_SECONDS`).

Cost estimates come from ``(shots, n_qubits, stochastic sites, op
count)`` with per-backend constants calibrated against
``benchmarks/out/engine_scaling.json`` on a commodity x86 core.  They
are deliberately coarse — every decision is a threshold comparison
against IPC overheads that are orders of magnitude apart, so a 3x
estimation error does not flip any decision that matters.  None of this
affects results: grouping only changes *where* a batch executes and how
its aggregates travel home, never the substream it consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .job import DEFAULT_BATCH_SIZE

__all__ = ["CostModel", "DispatchPlan"]

#: Backends whose per-shot work is vectorized over the whole batch (cost
#: scales with amplitudes); backends without a branch of their own in
#: ``estimate_job_seconds`` pay Python-level per-op cost.
_VECTORIZED_BACKENDS = ("statevector",)

#: The frames backend's batch costs: a fixed cost per rate group per
#: batch (one block of geometric gap draws and its share of the label
#: tally) and a cost per fired fault (its word draw and effect XOR).
#: Calibrated on GHZ-8 and GHZ-64 frames batches (3 rate groups, 256
#: shots, p = 1e-4 .. 0.05) on 2 vCPUs.
_FRAME_GROUP_SECONDS = 8e-5
_FRAME_FAULT_SECONDS = 2e-7

#: The longest one group may run, by the estimate.  The cancel token is
#: checked between groups and a failed group fails whole, so however long
#: a job is and however few workers run it, a cancel or a failure waits
#: out about this long per running group.  It is a time and not a batch
#: count because a dense group's cost is mostly its history rows, which
#: do not grow with its shots: splitting a short dense job further only
#: recomputes rows.
MAX_GROUP_SECONDS = 0.25


@dataclass(frozen=True)
class DispatchPlan:
    """One job's dispatch decision.

    The job's batches run as ``num_groups`` contiguous batch groups, each
    one :func:`~repro.engine.runners.execute_batch_group` call.
    ``pooled`` only says where the groups run: on the worker pool, or
    inline on the calling thread with the cancel token checked between
    groups.
    """

    pooled: bool
    num_groups: int = 1
    estimated_seconds: float = 0.0
    reason: str = ""

    def split(self, batches: list) -> list[tuple]:
        """Partition ``batches`` into ``num_groups`` contiguous runs.

        Contiguity keeps each group's indices ascending, so a group's
        worker-side reduction and the parent's final index-order sort see
        exactly the serial path's accumulation order.
        """
        count = max(1, min(self.num_groups, len(batches)))
        base, extra = divmod(len(batches), count)
        groups = []
        start = 0
        for i in range(count):
            take = base + (1 if i < extra else 0)
            groups.append(tuple(batches[start : start + take]))
            start += take
        return groups


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the dispatch policy (see module docstring).

    ``group_overhead_seconds`` is the round-trip cost of one batch group:
    pickling the payload, the queue hop, and shipping the reduced
    aggregates back.  ``fanout_gain_floor`` is the minimum relative
    saving the pool must promise before a job leaves the calling thread
    (fanning out for a projected 5% win is all risk, no reward).
    ``target_group_seconds`` sizes groups for long jobs: below it a
    worker gets one group (minimum IPC), above it up to
    ``max_groups_per_worker`` groups so stragglers stay bounded; past
    that, :data:`MAX_GROUP_SECONDS` adds groups so cancellation stays
    bounded too.
    """

    amp_op_seconds: float = 2e-9
    """Per amplitude per (compiled) op, vectorized kernel."""

    vector_op_overhead_seconds: float = 15e-6
    """Fixed numpy dispatch cost per compiled op per batch."""

    shot_op_seconds: float = 27e-6
    """Per instruction per shot, the per-shot ``statevector-ref`` loop: the
    median of twelve 4,096-shot GHZ-3 (6-instruction) runs on 2 vCPUs."""

    stochastic_site_factor: float = 4.0
    """Extra amplitude passes a collapse/fault site costs vs a unitary."""

    tableau_ref_op_seconds: float = 4e-8
    """Per op per qubit, the stabilizer kernel's one-time reference tableau
    pass (O(n^2) rowsums amortize to ~n bit-ops per op per qubit)."""

    frame_shot_op_seconds: float = 1.5e-9
    """Per shot per weighted op, packed-frame propagation (a few boolean
    column ops over a (shots, n) matrix)."""

    group_overhead_seconds: float = 1.5e-3
    fanout_gain_floor: float = 0.25
    target_group_seconds: float = 0.05
    max_groups_per_worker: int = 4

    # ------------------------------------------------------------------
    def estimate_job_seconds(
        self,
        shots: int,
        num_qubits: int,
        num_instructions: int,
        stochastic_sites: int,
        backend: str,
        site_groups: int = 0,
        faults_per_shot: float = 0.0,
    ) -> float:
        """Rough serial runtime of one job on ``backend``.

        ``site_groups`` and ``faults_per_shot`` price the ``pauliframe``
        backend: its number of distinct ``(rate, words)`` site groups and
        the sum of its site rates (see
        :func:`repro.sim.batched_stabilizer.frame_fault_profile`).
        """
        ops = max(num_instructions, 1)
        if backend == "stabilizer":
            # Compile-once O(ops * n^2) reference pass (cached across
            # batches, charged once here) + O(shots * n) frame propagation.
            weighted = ops + self.stochastic_site_factor * max(stochastic_sites, 0)
            ref = ops * float(num_qubits) * self.tableau_ref_op_seconds * num_qubits
            frames = (
                float(shots) * weighted * num_qubits * self.frame_shot_op_seconds
            )
            return ref + frames + weighted * self.vector_op_overhead_seconds
        if backend == "pauliframe":
            # One effect-table compile (an op walk of vectorized column
            # ops, cached across batches) + per-batch gap draws per rate
            # group + the expected fired faults.
            batches = math.ceil(shots / DEFAULT_BATCH_SIZE)
            groups = batches * max(site_groups, 0) * _FRAME_GROUP_SECONDS
            faults = float(shots) * max(faults_per_shot, 0.0) * _FRAME_FAULT_SECONDS
            return ops * self.vector_op_overhead_seconds + groups + faults
        if backend in _VECTORIZED_BACKENDS:
            weighted = ops + self.stochastic_site_factor * max(stochastic_sites, 0)
            amps = float(shots) * float(2**min(num_qubits, 30))
            return weighted * (amps * self.amp_op_seconds + self.vector_op_overhead_seconds)
        return float(shots) * ops * self.shot_op_seconds

    def plan(self, estimated_seconds: float, num_batches: int, workers: int) -> DispatchPlan:
        """Inline-vs-pool and group-count decision for one job."""
        # Critical path with perfect balance: work/W plus one group round trip.
        pooled_seconds = estimated_seconds / max(workers, 1) + self.group_overhead_seconds
        if workers > 1 and pooled_seconds < estimated_seconds * (1.0 - self.fanout_gain_floor):
            return DispatchPlan(
                pooled=True,
                num_groups=self.group_count(estimated_seconds, num_batches, workers),
                estimated_seconds=estimated_seconds,
                reason=f"estimated {estimated_seconds * 1e3:.1f}ms across {workers} workers",
            )
        return DispatchPlan(
            pooled=False,
            num_groups=self.group_count(estimated_seconds, num_batches, 1),
            estimated_seconds=estimated_seconds,
            reason=(
                "single worker"
                if workers <= 1
                else f"estimated {estimated_seconds * 1e3:.2f}ms cannot amortize "
                f"{self.group_overhead_seconds * 1e3:.1f}ms dispatch"
            ),
        )

    def group_count(self, estimated_seconds: float, num_batches: int, workers: int) -> int:
        """How many batch groups a job runs as on ``workers`` workers."""
        per_worker_seconds = estimated_seconds / max(workers, 1)
        per_worker = int(round(per_worker_seconds / self.target_group_seconds))
        per_worker = max(1, min(self.max_groups_per_worker, per_worker))
        # No group is estimated to run longer than MAX_GROUP_SECONDS.
        per_worker = max(per_worker, math.ceil(per_worker_seconds / MAX_GROUP_SECONDS))
        return max(1, min(num_batches, workers * per_worker))
