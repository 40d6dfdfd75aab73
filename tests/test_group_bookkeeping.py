"""A dense batch group pays its bookkeeping once, and no bit moves.

* the group's outcomes are reduced in one pass, with the label order the
  per-segment folds gave;
* pure inputs are assembled once per group, with no draw;
* the kernel's row fold groups rows by their bytes in a dict, with the
  survivors and row map the byte sort gave;
* a one-batch job beside other jobs goes to the pool.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.ghz_fidelity import build_distributed_ghz_circuit
from repro.api import Experiment
from repro.circuits import Circuit
from repro.engine import Engine, Ensemble, Job, Scheduler
from repro.engine.runners import BatchStats, _accumulate_matrix, _ensemble_groups
from repro.obs import Observability
from repro.sim import DensitySimulator, NoiseModel
from repro.sim.batched import _Rows
from repro.utils.states import random_pure_state


def stats() -> BatchStats:
    return BatchStats(indices=(0,), shots=0)


def readout_job(ncols: int) -> Job:
    circuit = Circuit(1, ncols)
    circuit.measure(0, 0)
    return Job(circuit=circuit, shots=1, seed=0, readout=tuple(range(0, ncols, 2)))


class TestGroupReduce:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_pass_equals_per_segment_folds(self, seed):
        rng = np.random.default_rng(seed)
        ncols = int(rng.integers(1, 6))
        shots = int(rng.integers(1, 400))
        # A skewed bit distribution, so later segments bring new labels.
        clbits = (rng.random((shots, ncols)) < rng.uniform(0.05, 0.5)).astype(np.uint8)
        parts = int(rng.integers(1, 9))
        sizes = rng.multinomial(shots, np.full(parts, 1.0 / parts)).tolist()
        job = readout_job(ncols)

        per_segment = stats()
        start = 0
        for size in sizes:
            _accumulate_matrix(per_segment, clbits[start : start + size], job)
            start += size
        group = stats()
        _accumulate_matrix(group, clbits, job, sizes)

        assert list(group.counts.items()) == list(per_segment.counts.items())
        assert group.parity_total == per_segment.parity_total
        assert group.parity_total_sq == per_segment.parity_total_sq

    def test_labels_keep_first_segment_order(self):
        clbits = np.array([[1], [1], [0], [1]], dtype=np.uint8)
        group = stats()
        _accumulate_matrix(group, clbits, readout_job(1), [2, 2])
        assert list(group.counts.items()) == [("1", 3), ("0", 1)]

    def test_no_clbits(self):
        group = stats()
        job = Job(circuit=Circuit(1, 0), shots=5, seed=0)
        _accumulate_matrix(group, np.zeros((5, 0), dtype=np.uint8), job, [2, 3])
        assert group.counts == Counter({"": 5})


def bytes_keyed_accumulate(stats, clbits, job, sizes=None):
    """The bytes-keyed tally the integer keys replaced (reference)."""
    shots, ncols = clbits.shape
    if ncols:
        chars = np.ascontiguousarray(clbits, dtype=np.uint8) + np.uint8(48)
        keys = np.ascontiguousarray(chars).view(np.dtype((np.bytes_, ncols))).ravel()
        unique_keys, first, row_counts = np.unique(keys, return_index=True, return_counts=True)
        if sizes is not None and len(sizes) > 1:
            order = np.argsort(np.searchsorted(np.cumsum(sizes), first, "right"), kind="stable")
            unique_keys, row_counts = unique_keys[order], row_counts[order]
        for key, count in zip(unique_keys.tolist(), row_counts.tolist()):
            stats.counts[key.decode("ascii")] += count
    else:
        stats.counts[""] += shots
    if job.readout:
        parity = np.zeros(shots, dtype=np.uint8)
        for c in job.readout:
            parity ^= clbits[:, c]
        values = 1.0 - 2.0 * parity.astype(np.float64)
        stats.parity_total += float(values.sum())
        stats.parity_total_sq += float(shots)


class TestIntegerKeys:
    """Integer outcome keys keep the bytes-keyed tally's labels, counts and
    insertion order, in one word and in several."""

    @pytest.mark.parametrize("ncols", [0, 1, 9, 40, 64, 70])
    @pytest.mark.parametrize("segments", [1, 3])
    def test_matches_bytes_keyed_tally(self, ncols, segments):
        rng = np.random.default_rng(ncols * 10 + segments)
        # Few distinct rows, repeated, with pairs that differ only in the
        # first or only in the last column, so every word decides an order.
        pool = (rng.random((12, ncols)) < 0.5).astype(np.uint8)
        if ncols:
            pool[1], pool[3] = pool[0], pool[2]
            pool[1, 0] ^= 1
            pool[3, -1] ^= 1
        clbits = pool[rng.integers(len(pool), size=300)]
        sizes = [300] if segments == 1 else [40, 200, 60]
        job = readout_job(ncols) if ncols else Job(circuit=Circuit(1, 0), shots=1, seed=0)
        got, want = stats(), stats()
        # The second fold adds to a Counter that already holds labels.
        for rows in (clbits, clbits[::-1]):
            _accumulate_matrix(got, rows, job, sizes)
            bytes_keyed_accumulate(want, rows, job, sizes)
            assert list(got.counts.items()) == list(want.counts.items())
            assert got.parity_total == want.parity_total
            assert got.parity_total_sq == want.parity_total_sq

    @pytest.mark.parametrize("ncols", [0, 3])
    def test_no_shots(self, ncols):
        job = readout_job(ncols) if ncols else Job(circuit=Circuit(1, 0), shots=1, seed=0)
        got, want = stats(), stats()
        _accumulate_matrix(got, np.zeros((0, ncols), dtype=np.uint8), job, [0])
        bytes_keyed_accumulate(want, np.zeros((0, ncols), dtype=np.uint8), job, [0])
        assert list(got.counts.items()) == list(want.counts.items())


class TestPureInputs:
    def test_deterministic_ensembles_draw_nothing(self):
        rng = np.random.default_rng(0)
        states = [random_pure_state(1, rng) for _ in range(2)]
        circuit = Circuit(2, 1)
        circuit.measure(0, 0)
        job = Job(
            circuit=circuit, shots=50, seed=1,
            ensembles=tuple(Ensemble.from_states((q,), [(1.0, s)]) for q, s in enumerate(states)),
        )
        draws = np.random.default_rng(9)
        before = draws.bit_generator.state
        inputs: dict = {}
        first = _ensemble_groups(job, 50, draws, inputs)
        again = _ensemble_groups(job, 30, draws, inputs)
        assert draws.bit_generator.state == before
        assert [count for _, count in first] == [50]
        assert [count for _, count in again] == [30]
        assert again[0][0] is first[0][0]
        assert np.allclose(first[0][0], np.kron(states[0], states[1]))


def void_sort_fold(rows: _Rows) -> None:
    """The byte-sort fold the dict fold replaced, as the reference."""
    held = np.flatnonzero(np.bincount(rows.row_of, minlength=rows.count))
    live = rows.buf[held]
    keys = live.view(np.dtype((np.void, live.shape[1] * live.itemsize))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == rows.count:
        return
    keep = np.sort(first)
    new_row = np.empty(rows.count, dtype=np.intp)
    new_row[held] = np.searchsorted(keep, first)[inverse]
    rows.buf[: keep.size] = live[keep]
    rows.count = keep.size
    rows.row_of = new_row[rows.row_of]


def make_rows(distinct: np.ndarray, picks, row_of) -> _Rows:
    rows = _Rows([(None, distinct[picks], 0, len(picks))], distinct.shape[1])
    rows.row_of = np.asarray(row_of, dtype=np.intp)
    return rows


class TestDictFold:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_byte_sort(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(2 ** rng.integers(1, 6))
        distinct = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
        count = int(rng.integers(1, 30))
        picks = rng.integers(0, 5, size=count)
        row_of = rng.integers(0, count, size=int(rng.integers(1, 60)))
        dict_rows = make_rows(distinct, picks, row_of)
        sort_rows = make_rows(distinct, picks, row_of)
        dict_rows.fold()
        void_sort_fold(sort_rows)
        assert dict_rows.count == sort_rows.count
        assert dict_rows.live.tobytes() == sort_rows.live.tobytes()
        assert np.array_equal(dict_rows.row_of, sort_rows.row_of)

    def test_signed_zeros_stay_apart(self):
        distinct = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]], dtype=complex)
        rows = make_rows(distinct, [0, 1, 2, 1], [0, 1, 2, 3])
        reference = make_rows(distinct, [0, 1, 2, 1], [0, 1, 2, 3])
        rows.fold()
        void_sort_fold(reference)
        assert rows.count == reference.count == 2
        assert np.array_equal(rows.row_of, [0, 1, 0, 1])
        assert np.array_equal(rows.row_of, reference.row_of)
        assert np.signbit(rows.live[1, 0].real) and not np.signbit(rows.live[0, 0].real)

    def test_all_distinct_rows_are_left_alone(self):
        distinct = np.eye(4, dtype=complex)
        rows = make_rows(distinct, [0, 1, 2, 3], [3, 2, 1, 0])
        rows.fold()
        assert rows.count == 4 and np.array_equal(rows.row_of, [3, 2, 1, 0])


def one_batch_job(seed: int) -> Job:
    circuit = Circuit(3, 3)
    circuit.h(0).t(0).cx(0, 1).rx(0.4, 2).cx(1, 2)
    for q in range(3):
        circuit.measure(q, q)
    return Job(
        circuit=circuit, shots=100, seed=seed, readout=(0, 2), backend="statevector",
        noise=NoiseModel(p1=0.01, p2=0.02, p_meas=0.03),
    )


class TestOneBatchDispatch:
    def test_pooled_beside_other_jobs(self):
        job = one_batch_job(1)
        for executor in ("thread", "process"):
            scheduler = Scheduler(workers=2, executor=executor)
            assert scheduler.decide(job, "statevector", 1, jobs=2).pooled
            lone = scheduler.decide(job, "statevector", 1)
            assert not lone.pooled and lone.num_groups == 1

    def test_inline_without_a_pool(self):
        job = one_batch_job(1)
        for scheduler in (Scheduler(workers=1), Scheduler(workers=2, executor="serial")):
            assert not scheduler.decide(job, "statevector", 1, jobs=2).pooled

    def test_same_bits_on_every_engine(self):
        # Dense sample jobs, a per-shot reference job and a frames job:
        # every one-batch kind that now crosses to an explicit pool.
        reference = replace(one_batch_job(3), backend="statevector-ref")
        frames_circuit, members = build_distributed_ghz_circuit(4)
        frames = Job(
            circuit=frames_circuit, shots=200, seed=4, noise=NoiseModel.from_base(0.02),
            frame_qubits=tuple(members), mode="frames",
        )
        jobs = [one_batch_job(1), one_batch_job(2), reference, frames]
        results = {}
        for executor in ("serial", "thread", "process"):
            with Engine(workers=2, executor=executor, cache=False) as engine:
                for job in jobs:
                    backend = engine.router.select(job).name
                    assert len(engine.scheduler.plan(job)) == 1
                    plan = engine.scheduler.decide(job, backend, 1, jobs=len(jobs))
                    assert plan.pooled == (executor != "serial"), (executor, backend)
                results[executor] = [
                    (
                        r.backend,
                        list((r.counts or {}).items()),
                        r.parity_mean,
                        r.parity_stderr,
                    )
                    for r in engine.run_many(jobs)
                ]
        assert [row[0] for row in results["serial"]] == [
            "statevector", "statevector", "statevector-ref", "pauliframe"
        ]
        assert results["thread"] == results["serial"]
        assert results["process"] == results["serial"]
        # The exact reference: every sampled register has weight there.
        exact = DensitySimulator(noise=reference.noise).run(reference.circuit)
        support = {
            "".join(map(str, bits)) for bits, p in exact.branch_probabilities().items() if p > 0
        }
        for row in results["serial"][:3]:
            assert {label for label, _ in row[1]} <= support


class TestTallyTime:
    def test_reported_on_spans_and_resources(self):
        rng = np.random.default_rng(4)
        pair = [random_pure_state(1, rng) for _ in range(2)]
        obs = Observability()
        with Engine(workers=1, executor="serial", obs=obs) as engine:
            result = Experiment.swap_test(pair, shots=600, seed=3).run(engine=engine)
        engine_resources = result.extra["resources"]["engine"]
        assert 0.0 < engine_resources["tally_time"] < engine_resources["execute_time"]
        executes = [s for s in obs.tracer.span_dicts() if s["name"] == "worker.execute"]
        assert executes and all(s["attrs"]["tally_time"] > 0.0 for s in executes)
        total = sum(s["attrs"]["tally_time"] for s in executes)
        assert total == pytest.approx(engine_resources["tally_time"])
