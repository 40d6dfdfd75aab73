"""A frames batch group tallies once, over the shots its faults touch.

* every batch still draws its faults from its own substream, so the
  group tally equals the per-batch tallies for any grouping, label order
  included;
* shots whose faults cancel join the never-touched shots' identity;
* the run report, the spans and the envelopes show the tally's time;
* GHZ-64's pooled split still pays after the frames refit.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.fanout_errors import build_fanout_circuit
from repro.analysis.ghz_fidelity import build_distributed_ghz_circuit
from repro.api import Experiment
from repro.engine import CostModel, DispatchPlan, Engine, Job, Scheduler
from repro.engine.runners import batch_rng, execute_batch_group
from repro.obs import Observability
from repro.obs.report import build_run_report
from repro.sim import NoiseModel
from repro.sim.pauliframe import FrameProgram, get_frame_program
from repro.sim.pauliframe import sample_error_counts, tally_error_counts


def frames_job(kind: str, shots: int) -> Job:
    if kind == "ghz64":
        circuit, data = build_distributed_ghz_circuit(64)
        noise = NoiseModel.from_base(0.002)
    else:
        # Table 4: Fanout to four targets at p = 0.003.
        circuit, data = build_fanout_circuit(4)
        noise = NoiseModel.from_base(0.003)
    return Job(
        circuit=circuit.freeze(),
        shots=shots,
        seed=1234,
        noise=noise,
        frame_qubits=tuple(data),
        mode="frames",
    )


def kernel_rng(job: Job, index: int) -> np.random.Generator:
    return np.random.default_rng(int(batch_rng(job.seed, index).integers(2**63)))


def label_oracle(bits: np.ndarray) -> Counter:
    """Bare labels of an (X bits, Z bits) matrix, one row at a time."""
    k = bits.shape[1] // 2
    return Counter(
        "".join("IXZY"[int(x) + 2 * int(z)] for x, z in zip(row[:k], row[k:]))
        for row in bits
    )


def grouped(job: Job, num_groups: int) -> Counter:
    """The job's counts with its batches run as ``num_groups`` groups,
    reduced in index order as the engine does."""
    batches = Scheduler().plan(job)
    counts: Counter = Counter()
    for group in DispatchPlan(pooled=False, num_groups=num_groups).split(batches):
        counts.update(execute_batch_group(job, group, "pauliframe").counts)
    return counts


class TestGroupTallyBits:
    @pytest.mark.parametrize("kind", ["ghz64", "fanout4"])
    def test_every_grouping_gives_the_per_batch_tally(self, kind):
        job = frames_job(kind, 3000)
        batches = Scheduler().plan(job)
        program = get_frame_program(job.circuit, job.noise, job.frame_qubits)
        # Per batch, the bool matrix of ``FrameProgram.sample`` counted row
        # by row: the same draws, tallied by an independent oracle.
        oracle: Counter = Counter()
        for batch in batches:
            oracle.update(label_oracle(program.sample(batch.shots, kernel_rng(job, batch.index))))
        assert sum(oracle.values()) == job.shots and len(oracle) > 1
        per_batch = grouped(job, len(batches))
        assert per_batch == oracle
        for num_groups in (2, 1):
            counts = grouped(job, num_groups)
            assert counts == per_batch
            assert list(counts.items()) == list(per_batch.items())

    @pytest.mark.parametrize("kind", ["ghz64", "fanout4"])
    def test_engine_groupings_agree(self, kind):
        job = frames_job(kind, 2000)
        one_per_batch = CostModel(target_group_seconds=1e-9, max_groups_per_worker=64)
        with Engine(workers=1, executor="serial", cache=False) as whole, Engine(
            workers=1, executor="serial", cache=False, cost_model=one_per_batch
        ) as split:
            a, b = whole.run(job), split.run(job)
        assert a.counts == b.counts and list(a.counts) == list(b.counts)

    def test_sample_error_counts_is_the_one_segment_tally(self):
        job = frames_job("fanout4", 500)
        program = get_frame_program(job.circuit, job.noise, job.frame_qubits)
        bits = program.sample(500, np.random.default_rng(9))
        assert sample_error_counts(program, 500, np.random.default_rng(9)) == label_oracle(bits)


def toy_program(frames: list[list[int]]) -> FrameProgram:
    """A program whose effect row ``i`` is the frame ``frames[i]``."""
    bits = np.array(frames, dtype=bool)
    packed = np.pad(np.packbits(bits, axis=1), ((0, 0), (0, 8 - -(-bits.shape[1] // 8))))
    return FrameProgram(num_outputs=bits.shape[1], groups=(), effects=packed.view(np.uint64))


class TestIdentity:
    # Rows: X on qubit 0, Z on qubit 1 (two qubits: X bits then Z bits).
    PROGRAM = toy_program([[1, 0, 0, 0], [0, 0, 0, 1]])

    def test_cancelled_faults_join_the_untouched_identity(self):
        # Shot 1 fires row 0 twice (cancels), shot 3 fires rows 0 and 1.
        hits, rows = np.array([1, 3, 1, 3]), np.array([0, 0, 0, 1])
        counts = tally_error_counts(self.PROGRAM, hits, rows, [5])
        assert counts == Counter({"II": 4, "XZ": 1})

    def test_identity_takes_its_first_segment_place(self):
        # Segment 0 (shots 0-1) holds only X; segment 1 (shots 2-3) an
        # untouched shot and a cancelled one.  One tally per segment would
        # insert "XI", then "II", then "XZ".
        hits = np.array([0, 1, 2, 2, 3, 3])
        rows = np.array([0, 0, 1, 1, 0, 1])
        counts = tally_error_counts(self.PROGRAM, hits, rows, [2, 3])
        assert list(counts.items()) == [("XI", 2), ("II", 2), ("XZ", 1)]

    def test_no_fired_cell_is_all_identity(self):
        empty = np.zeros(0, dtype=np.int64)
        assert tally_error_counts(self.PROGRAM, empty, empty, [7, 4]) == {"II": 11}
        job = Job(
            circuit=frames_job("fanout4", 1).circuit,
            shots=600,
            seed=5,
            noise=NoiseModel.from_base(1e-12),
            frame_qubits=frames_job("fanout4", 1).frame_qubits,
            mode="frames",
        )
        stats = execute_batch_group(job, tuple(Scheduler().plan(job)), "pauliframe")
        assert stats.counts == {"I" * len(job.frame_qubits): 600}


class TestTallyLedger:
    def test_spans_report_and_envelope_show_the_tally(self):
        obs = Observability()
        with Engine(workers=1, executor="serial", obs=obs) as engine:
            result = Experiment.ghz_fidelity(8, p=0.01, shots=3000, seed=3).run(
                engine=engine
            )
        engine_block = result.extra["resources"]["engine"]
        assert engine_block["backend"] == "pauliframe"
        assert 0.0 < engine_block["tally_time"] < engine_block["execute_time"]
        executes = [s for s in obs.tracer.span_dicts() if s["name"] == "worker.execute"]
        total = sum(s["attrs"]["tally_time"] for s in executes)
        assert total == pytest.approx(engine_block["tally_time"])
        report = build_run_report(obs)
        assert report["worker_tally"] == pytest.approx(total)
        assert 0.0 < report["worker_tally"] < report["breakdown"]["worker_execute"]
        assert "worker_tally" not in report["breakdown"]
        assert sum(report["breakdown_shares"].values()) == pytest.approx(1.0)

    def test_frames_envelopes_carry_the_engine_block(self):
        swap = Experiment.swap_test([np.array([1.0, 0.0])] * 2, shots=100, seed=1).run()
        keys = set(swap.extra["resources"]["engine"])
        with Engine(workers=1, executor="serial", cache=False) as engine:
            ghz = Experiment.ghz_fidelity(8, p=0.01, shots=20000, seed=3).run(engine=engine)
            fanout = Experiment.fanout_errors(4, p=0.003, shots=2000, seed=1).run(
                engine=engine
            )
        # The envelope's estimate is the golden GHZ-8 value of the frames path.
        assert ghz.estimate == 0.7205
        for result, batches in ((ghz, 79), (fanout, 8)):
            block = result.extra["resources"]["engine"]
            assert set(block) == keys
            assert block["batches"] == batches
            assert block["predicted_s"] > 0.0 and block["route_reason"]
        noiseless = Experiment.ghz_fidelity(4, p=0.0, shots=100, seed=3).run()
        assert noiseless.estimate == 1.0
        assert noiseless.extra["resources"] == {"engine": None}


class TestGhzPlan:
    def test_pooled_ghz64_keeps_its_split(self):
        # 14 ms estimated: half of it beside the other half, plus a round
        # trip, beats the whole job pooled (which pays a round trip too)
        # by more than the gain floor; inline under "auto" it stays whole.
        job = frames_job("ghz64", 20000)
        pooled = Scheduler(workers=2, executor="process").decide(job, "pauliframe", 79)
        assert pooled.pooled and pooled.num_groups == 2
        auto = Scheduler(workers=2, executor="auto").decide(job, "pauliframe", 79)
        assert not auto.pooled and auto.reason == "split does not pay"

    def test_one_pooled_group_pays_a_round_trip_too(self):
        model = CostModel()
        # Split cost 1.3 * 6 + 1.5 = 9.3 ms against 0.75 * 12 ms inline
        # or 0.75 * 13.5 ms pooled.
        assert model.group_count(0.012, 40, 2, split=0.006) == 1
        assert model.group_count(0.012, 40, 2, split=0.006, pooled=True) == 2
