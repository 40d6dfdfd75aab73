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

Cost estimates come from ``(shots, op count)`` with per-backend
constants.  The dense ``statevector`` kernel
keeps one row per distinct history, so it is priced by **expected
history rows** (:func:`expected_row_ops`), derived from the compiled
program's collapse, fault and fold structure, rather than by shots
times amplitudes.  The dense constants were fitted to the measured
kernel seconds (median of 7 runs) of 56 serial one-group jobs on 2
vCPUs: monolithic, noisy monolithic, COMPAS with 1% link noise and
N-state SWAP tests at k = 2..4, n = 1..2 (k·n ≤ 6), N-party and
mixed-input ones at k·n ≤ 4, two shot budgets each
(``benchmarks/fit_dense_costmodel.py`` reruns the set); they were
refitted when the kernel's row plans cut its fixed cost per op, taking
the one of eight fits nearest the median of each constant.  With the
expected rows, their predicted / actual ratios have a median of
0.78–0.97, quartiles 0.53–0.68 and 0.98–1.07 and a range of 0.23–1.51
over five reruns on a host whose speed drifted between them;
sub-millisecond jobs read lowest.  Every decision is a
threshold comparison against overheads that are orders of magnitude
apart, so such errors do not flip a decision that matters.  None of
this affects results: grouping only changes *where* a batch executes and
how its aggregates travel home, never the substream it consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.batched import MAX_CHUNK_AMPLITUDES
from .job import DEFAULT_BATCH_SIZE

__all__ = ["CostModel", "DispatchPlan", "expected_row_ops"]

#: The frames backend's costs: a fixed cost per rate group per batch
#: (its block of geometric gap draws, which every batch draws from its
#: own generator) and a cost per fired fault (its word draw, and its
#: share of the group's one tally over the shots that fired).  The
#: effect table compiles once per process and is not charged.  Fitted
#: (least squares on relative error, near the median of nine fits) to
#: the execute seconds of 26 serial one-group jobs on 2 vCPUs: GHZ with
#: 16, 32 and 64 parties at p = 0.002 and 0.01 over 5k-40k shots, and
#: Fanout to 4 and 16 targets at p = 0.003 and 0.01 over 20k and 100k
#: shots.  The host's speed moved ~25% between runs, so predicted /
#: actual read a median of 1.23 on a fast rerun and 0.77 on a slow one.
#: GHZ-64 (3 rate groups, p = 0.002) ran 4.1-6.0 / 9.9-20 / 21-38 ms at
#: 5k / 20k / 40k shots, against 3.5 / 14.0 / 28.0 ms predicted.
_FRAME_GROUP_SECONDS = 3.5e-5
_FRAME_FAULT_SECONDS = 4.3e-7

#: The dense kernel's costs (module docstring: how they were fitted):
#: per amplitude of a held history row per compiled op, per held row per
#: op on top of its amplitudes (branch copies, fold hashing), per
#: compiled op and per fold point per kernel call (numpy dispatch, the
#: fold's bookkeeping), per shot per stochastic op (draws, outcome
#: columns), and per segment (a batch's share of one input state: its
#: generator's draw calls and its input draw).
_ROW_AMP_SECONDS = 1.1e-8
_ROW_SECONDS = 7.0e-7
_DENSE_OP_SECONDS = 2.9e-5
_FOLD_SECONDS = 1.7e-5
_SITE_SHOT_SECONDS = 2.7e-8
_SEGMENT_SECONDS = 5.6e-5

#: How much longer a group runs beside busy workers than alone: two
#: side-by-side 3,000-shot mixed-input dense groups on 2 vCPUs ran
#: 0.96-1.57x their lone time (medians of 20 pairs, six runs).
_CONCURRENT_SLOWDOWN = 1.3

#: The longest one group may run, by the estimate.  The cancel token is
#: checked between groups and a failed group fails whole, so however long
#: a job is and however few workers run it, a cancel or a failure waits
#: out about this long per running group.  It is a time and not a batch
#: count because a dense group's cost is mostly its history rows, which
#: do not grow with its shots: splitting a short dense job further only
#: recomputes rows.
MAX_GROUP_SECONDS = 0.25


def expected_row_ops(program, shots: float, noise=None) -> float:
    """Expected dense-kernel history rows held, summed over the ops of one
    kernel call of ``shots`` shots that start on one input row (compare
    ``JobResult.row_ops``).

    It walks the compiled program once, counting the qubits that hold a
    random collapse outcome:

    * a measure or reset of a qubit not already holding one doubles the
      clean histories (at most one row per shot);
    * a reset returns its qubit to |0>; at a fold point the two branches
      it split merge again, so it halves them;
    * a gate- or link-fault site with rate ``p`` sends about ``shots * p``
      shots onto rows of their own, which stay apart.
    """
    if shots <= 0:
        return 0.0
    held: set[int] = set()
    clean = 1.0
    faulted = 0.0
    total = 0.0
    for op in program.ops:
        total += min(shots, clean + faulted)
        if op.kind != "unitary":
            qubit = op.qubits[0]
            if qubit not in held:
                clean = min(shots, 2.0 * clean)
                held.add(qubit)
            if op.kind == "reset":
                held.discard(qubit)
                if op.fold:
                    clean = max(1.0, clean / 2.0)
            continue
        if noise is not None:
            rate = 0.0
            if op.sample_fault:
                rate += noise.gate_error_rate(len(op.qubits), op.qpu)
            if op.link_hops:
                rate += noise.link_error_rate(op.link_hops)
            faulted = min(shots, faulted + shots * rate)
    return total


@dataclass(frozen=True)
class DispatchPlan:
    """One job's dispatch decision.

    The job's batches run as ``num_groups`` contiguous batch groups, each
    one :func:`~repro.engine.runners.execute_batch_group` call.
    ``pooled`` only says where the groups run: on the worker pool, or
    inline on the calling thread with the cancel token checked between
    groups.  ``compile_time`` is the compiling that pricing the job took
    (a dense job is priced from its compiled program); it counts toward
    the job's compile time.
    """

    pooled: bool
    num_groups: int = 1
    estimated_seconds: float = 0.0
    reason: str = ""
    compile_time: float = 0.0

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

    shot_op_seconds: float = 27e-6
    """Per instruction per shot, the per-shot ``statevector-ref`` loop: the
    median of twelve 4,096-shot GHZ-3 (6-instruction) runs on 2 vCPUs."""

    group_overhead_seconds: float = 1.5e-3
    fanout_gain_floor: float = 0.25
    target_group_seconds: float = 0.05
    max_groups_per_worker: int = 4

    # ------------------------------------------------------------------
    def estimate_job_seconds(
        self,
        shots: int,
        num_instructions: int,
        backend: str,
        site_groups: int = 0,
        faults_per_shot: float = 0.0,
    ) -> float:
        """Rough serial runtime of one job on a backend other than the
        dense ``statevector`` kernel (see :meth:`dense_seconds`).

        ``site_groups`` and ``faults_per_shot`` price the ``pauliframe``
        backend: its number of distinct ``(rate, words)`` site groups and
        the sum of its site rates (see
        :func:`repro.sim.pauliframe.frame_fault_profile`); the per-shot
        ``statevector-ref`` loop is priced by shots and instructions.
        """
        if backend == "statevector":
            raise ValueError("dense statevector jobs are priced by dense_seconds")
        ops = max(num_instructions, 1)
        if backend == "pauliframe":
            # Per-batch gap draws per rate group + the expected fired
            # faults (the effect table is compiled once per process).
            batches = math.ceil(shots / DEFAULT_BATCH_SIZE)
            groups = batches * max(site_groups, 0) * _FRAME_GROUP_SECONDS
            faults = float(shots) * max(faults_per_shot, 0.0) * _FRAME_FAULT_SECONDS
            return groups + faults
        return float(shots) * ops * self.shot_op_seconds

    def dense_seconds(
        self, program, shots: int, batch_size: int, combos: int = 1, noise=None
    ) -> float:
        """Rough serial runtime of one dense ``statevector`` job, run as one
        group, priced by the history rows its kernel calls hold.

        ``program`` is the job's compiled program, ``combos`` the number
        of component combinations its input ensembles can draw (1 for a
        fixed input state) and ``noise`` its live noise model, or None.
        A batch whose ensembles draw several combinations splits into one
        segment per combination, and segments of one batch run in
        successive kernel calls; so do the memory chunks of a wide
        circuit.  Each call holds its share of the shots, starting from
        one input row (:func:`expected_row_ops`).
        """
        batches = max(1, math.ceil(shots / batch_size))
        combos = min(combos, batch_size)
        calls = max(combos, math.ceil(shots * program.dim / MAX_CHUNK_AMPLITUDES))
        ops = max(len(program.ops), 1)
        fold_points = sum(op.fold for op in program.ops)
        sites = sum(op.is_stochastic for op in program.ops)
        rows = calls * expected_row_ops(program, shots / calls, noise)
        dim = float(2 ** min(program.num_qubits, 30))
        return (
            calls * (ops * _DENSE_OP_SECONDS + fold_points * _FOLD_SECONDS)
            + float(shots) * sites * _SITE_SHOT_SECONDS
            + batches * combos * _SEGMENT_SECONDS
            + rows * (_ROW_SECONDS + dim * _ROW_AMP_SECONDS)
        )

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

    def group_count(
        self,
        estimated_seconds: float,
        num_batches: int,
        workers: int,
        split: float | None = None,
        pooled: bool = False,
    ) -> int:
        """How many batch groups a job runs as on ``workers`` workers.

        ``split`` prices the longest group of the job split evenly over the
        workers; each group pays its own kernel calls and history rows.  If
        that group, run beside the others, plus one round trip does not beat
        the job run whole by ``fanout_gain_floor``, the job is grouped as on
        one worker.  ``pooled`` says the whole job would run on the pool
        too (an explicit executor), so it also pays its round trip; else it
        would run inline.
        """
        if workers > 1 and split is not None:
            split = split * _CONCURRENT_SLOWDOWN + self.group_overhead_seconds
            whole = estimated_seconds + (self.group_overhead_seconds if pooled else 0.0)
            if split >= whole * (1.0 - self.fanout_gain_floor):
                workers = 1
        per_worker_seconds = estimated_seconds / max(workers, 1)
        per_worker = int(round(per_worker_seconds / self.target_group_seconds))
        per_worker = max(1, min(self.max_groups_per_worker, per_worker))
        # No group is estimated to run longer than MAX_GROUP_SECONDS.
        per_worker = max(per_worker, math.ceil(per_worker_seconds / MAX_GROUP_SECONDS))
        return max(1, min(num_batches, workers * per_worker))
