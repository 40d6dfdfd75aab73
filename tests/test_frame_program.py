"""Compile-once Pauli-frame sampling (``FrameProgram``).

The golden values below were recorded from the per-batch instruction walk
that ``FrameProgram`` replaced.  Sampling a compiled program makes exactly
the draws that walk made, in the same order and of the same sizes, and the
XOR of precomputed effects is exact, so every frames-mode result must stay
bit-identical at equal seed.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.analysis.ghz_fidelity import (
    build_distributed_ghz_circuit,
    ghz_error_commutes,
    ghz_label_commutes,
)
from repro.api import Experiment
from repro.circuits import Circuit, Condition
from repro.core.ghz import distributed_ghz
from repro.engine import Batch, CostModel, Engine, Job
from repro.engine.runners import _init_pool_worker, execute_batch_group, worker_cache_info
from repro.network.program import DistributedProgram
from repro.network.topology import line_topology
from repro.sim import NoiseModel, Pauli, PauliFrameSimulator
from repro.sim.batched_stabilizer import (
    clear_stabilizer_cache,
    compile_frame_program,
    frame_cache_stats,
    get_frame_program,
    run_batched_frames,
)


def counts_digest(counts) -> str:
    items = sorted((str(label), int(count)) for label, count in counts.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def ghz_job(num_parties: int, p: float, shots: int, seed: int, **kwargs) -> Job:
    """The frames job ``Experiment.ghz_fidelity`` builds."""
    circuit, members = build_distributed_ghz_circuit(num_parties)
    return Job(
        circuit=circuit,
        shots=shots,
        seed=int(np.random.default_rng(seed).integers(2**63)),
        noise=NoiseModel.from_base(p),
        frame_qubits=tuple(members),
        mode="frames",
        **kwargs,
    )


def linked_ghz_circuit(num_parties: int = 5) -> Circuit:
    """Distributed GHZ: hop-tagged Bell sites, measurements, Pauli feedback."""
    names = [f"qpu{i}" for i in range(num_parties)]
    program = DistributedProgram(line_topology(names))
    distributed_ghz(program, names, reset_ancillas=True)
    return program.build(name=f"ghz{num_parties}")


LINK_NOISE = NoiseModel(p1=0.01, p2=0.03, p_meas=0.05, p_link=0.04, p_swap=0.02)

GHZ8_COUNTS_DIGEST = "187ce59b87b11a6db4b610c857889b97088a9772014e2b968ef27da77b417f90"

FANOUT4_COUNTS = {
    "IIIII": 17746, "IIIIX": 16, "IIIIY": 12, "IIIIZ": 8, "IIIXI": 305,
    "IIIXZ": 1, "IIIYI": 30, "IIIZI": 21, "IIXII": 66, "IIXXI": 286,
    "IIXXY": 1, "IIXYI": 1, "IIYII": 21, "IIYXI": 1, "IIZII": 23,
    "IIZXI": 1, "IXIII": 10, "IXIIX": 1, "IXIXI": 1, "IYIII": 19,
    "IYXXI": 1, "IZIII": 9, "XIIII": 20, "XIIIX": 24, "XIIIY": 11,
    "XIIIZ": 4, "XIIXI": 1, "XIIXX": 1, "XIIXZ": 1, "XIXXX": 1,
    "XIZII": 1, "XXIIX": 41, "XXIXX": 1, "XXXIX": 3, "XXXXX": 26,
    "XYIIX": 8, "XYXXX": 1, "XZIIX": 12, "YIIII": 15, "YIIIX": 19,
    "YIIIY": 14, "YIIIZ": 6, "YIIXI": 1, "YIXXX": 1, "YIYIX": 2,
    "YXIIX": 46, "YXIXX": 1, "YXXIX": 1, "YXXXX": 24, "YYIIX": 9,
    "YZIIX": 11, "ZIIII": 653, "ZIIIX": 13, "ZIIIY": 6, "ZIIIZ": 13,
    "ZIIXI": 108, "ZIIXX": 1, "ZIIYI": 22, "ZIIZI": 22, "ZIXII": 55,
    "ZIXIZ": 1, "ZIXXI": 119, "ZIXZI": 1, "ZIYII": 32, "ZIZII": 27,
    "ZIZXI": 2, "ZXIII": 15, "ZXIIY": 1, "ZYIII": 8, "ZYIXI": 2,
    "ZYXXI": 1, "ZZIII": 12,
}


class TestGoldenBits:
    @pytest.mark.parametrize(
        "engine_kwargs",
        [{"workers": 1, "executor": "serial"}, {"workers": 2, "executor": "process"}],
        ids=["serial", "process"],
    )
    def test_ghz_fidelity_counts(self, engine_kwargs):
        with Engine(cache=False, **engine_kwargs) as engine:
            result = Experiment.ghz_fidelity(8, p=0.01, shots=20000, seed=3).run(
                engine=engine
            )
            counts = engine.run(ghz_job(8, 0.01, 20000, 3)).counts
        assert result.estimate == 0.7173
        assert result.extra["good"] == 14346
        assert len(counts) == 264
        assert counts_digest(counts) == GHZ8_COUNTS_DIGEST

    def test_fanout_errors_counts(self):
        with Engine(workers=1, executor="serial", cache=False) as engine:
            report = (
                Experiment.fanout_errors(4, 0.01, shots=20000, seed=11)
                .run(engine=engine)
                .raw
            )
        assert dict(report.counts) == FANOUT4_COUNTS

    def test_run_batched_frames_links_readout_and_feedback(self):
        circuit = linked_ghz_circuit()
        assert any(inst.hops for inst in circuit.instructions)
        assert sum(inst.condition is not None for inst in circuit.instructions) == 5
        fx, fz, flips = run_batched_frames(
            circuit, LINK_NOISE, 1000, np.random.default_rng(2024)
        )
        assert fx.shape == fz.shape == (1000, 13)
        assert flips.shape == (1000, 8)
        h = hashlib.sha256()
        for a in (fx, fz, flips):
            h.update(str(a.shape).encode())
            h.update(np.ascontiguousarray(a, dtype=np.uint8).tobytes())
        assert h.hexdigest() == (
            "5a8417995207d4edfc265c4caec8cd8d968ed0f8d152a2a0b9e04f03cbb1d699"
        )

    def test_direct_simulator_tallies(self):
        from repro.analysis.fanout_errors import fanout_error_distribution

        report = fanout_error_distribution(0.01, 3, shots=5000, seed=5)
        assert counts_digest(report.counts) == (
            "1a9aaf6929e431d1c9d6fbb5f50d84970fce399480a4b944cb314a31e17e3ae7"
        )
        sim = PauliFrameSimulator(linked_ghz_circuit(), LINK_NOISE, seed=77)
        assert counts_digest(sim.sample_error_distribution([0, 3, 6], 3000)) == (
            "913856af94958f39fc11c05fe41edbf4356ebcec5bd3003c7bd315fccdc83884"
        )


class TestFrameProgram:
    def test_single_fault_effects_follow_the_frame_rules(self):
        circuit = Circuit(2, 1)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        noise = NoiseModel(p1=0.0, p2=0.5, p_meas=0.25)
        program = compile_frame_program(circuit, noise, (1,), records=True)
        # The cx fault (4**2 words) and the readout flip; p1 = 0 adds none.
        assert [(rate, words) for rate, words, _ in program.sites] == [
            (0.5, 16),
            (0.25, 0),
        ]
        assert program.num_outputs == 3  # X on qubit 1, Z on qubit 1, record
        bits = np.unpackbits(program.effects.view(np.uint8), axis=1)[:, :3]
        offset = program.sites[0][2]

        def effect(word):
            return bits[offset + word - 1].tolist()

        # Word digits: control (qubit 0) in bits 3-2, target in bits 1-0;
        # 1 = X, 2 = Y, 3 = Z.  A fault after the cx does not spread, and
        # X support on the measured control flips the record.
        assert effect(0b0100) == [0, 0, 1]  # X on the control
        assert effect(0b1000) == [0, 0, 1]  # Y on the control
        assert effect(0b1100) == [0, 0, 0]  # Z on the control: unobservable
        assert effect(0b0001) == [1, 0, 0]  # X on the target
        assert effect(0b0010) == [1, 1, 0]  # Y on the target
        assert effect(0b0111) == [0, 1, 1]  # X control, Z target
        # The readout flip only flips the record.
        assert bits[program.sites[1][2]].tolist() == [0, 0, 1]

    def test_conditioned_pauli_takes_record_parity(self):
        circuit = Circuit(2, 1)
        circuit.measure(0, 0)
        circuit.x(1, condition=_cond((0,)))
        noise = NoiseModel(p1=0.0, p2=0.0, p_meas=0.5)
        program = compile_frame_program(circuit, noise, (1,))
        bits = np.unpackbits(program.effects.view(np.uint8), axis=1)[:, :2]
        # A flipped record mis-fires the correction: X on qubit 1.
        assert bits.tolist() == [[1, 0]]

    def test_rejects_non_clifford_and_non_pauli_feedback(self):
        noise = NoiseModel.from_base(0.01)
        with pytest.raises(ValueError, match="non-Clifford"):
            compile_frame_program(Circuit(1).t(0), noise, (0,))
        circuit = Circuit(2, 1).measure(0, 0)
        circuit.h(1, condition=_cond((0,)))
        with pytest.raises(ValueError, match="not a Pauli"):
            compile_frame_program(circuit, noise, (1,))

    def test_program_is_picklable(self):
        import pickle

        circuit = linked_ghz_circuit(3)
        program = compile_frame_program(circuit, LINK_NOISE, (0, 3))
        clone = pickle.loads(pickle.dumps(program))
        a = program.sample(300, np.random.default_rng(4))
        b = clone.sample(300, np.random.default_rng(4))
        assert np.array_equal(a, b)


class TestCompileOnce:
    def test_serial_job_compiles_once(self):
        clear_stabilizer_cache()
        job = ghz_job(6, 0.01, shots=10 * 64, seed=21, batch_size=64)
        with Engine(workers=1, executor="serial", cache=False) as engine:
            result = engine.run(job)
        assert result.num_batches == 10
        stats = frame_cache_stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 9
        assert worker_cache_info()["frames"]["compiles"] == 1

    def test_group_looks_up_its_program_once(self):
        clear_stabilizer_cache()
        _init_pool_worker()
        job = ghz_job(5, 0.01, shots=10 * 32, seed=8, batch_size=32)
        batches = tuple(Batch(i, 32) for i in range(10))
        execute_batch_group(job, job.content_hash(), batches, "pauliframe")
        execute_batch_group(job, job.content_hash(), batches, "pauliframe")
        stats = frame_cache_stats()
        assert (stats["compiles"], stats["hits"]) == (1, 1)

    def test_process_pool_compiles_once_per_worker(self):
        clear_stabilizer_cache()  # forked workers must not inherit a program
        job = ghz_job(7, 0.01, shots=10 * 64, seed=5, batch_size=64)
        with Engine(workers=2, executor="process", cache=False) as engine:
            engine.prewarm()
            pooled = engine.run(job)
            pool = engine.scheduler._ensure_pool()
            infos = [pool.submit(worker_cache_info).result() for _ in range(8)]
        with Engine(workers=1, executor="serial", cache=False) as serial:
            assert serial.run(job).counts == pooled.counts
        by_pid = {info["pid"]: info["frames"]["compiles"] for info in infos}
        assert max(by_pid.values()) == 1
        assert all(count <= 1 for count in by_pid.values())
        assert {"compile", "stabilizer", "frames"} <= set(infos[0])

    def test_cache_key_separates_noise_and_outputs(self):
        clear_stabilizer_cache()
        circuit = linked_ghz_circuit(3)
        a = get_frame_program(circuit, LINK_NOISE, (0, 3))
        assert get_frame_program(circuit, LINK_NOISE, (0, 3)) is a
        assert get_frame_program(circuit, NoiseModel.from_base(0.01), (0, 3)) is not a
        assert get_frame_program(circuit, LINK_NOISE, (0,)) is not a
        assert frame_cache_stats()["compiles"] == 3


class TestGhzLabelPredicate:
    def test_all_four_party_labels(self):
        for letters in itertools.product("IXYZ", repeat=4):
            label = "".join(letters)
            assert ghz_label_commutes(label) == ghz_error_commutes(
                Pauli.from_label(label)
            ), label

    def test_every_label_of_a_ghz64_tally(self):
        circuit, members = build_distributed_ghz_circuit(64)
        sim = PauliFrameSimulator(circuit, NoiseModel.from_base(0.002), seed=64)
        counts = sim.sample_error_distribution(members, 2000)
        assert len(counts) > 50
        for label in counts:
            assert ghz_label_commutes(label) == ghz_error_commutes(
                Pauli.from_label(label)
            ), label


class TestFramesCost:
    def test_ghz64_frames_estimate_is_per_batch_draws(self):
        model = CostModel()
        estimate = model.estimate_job_seconds(
            shots=20000,
            num_qubits=190,
            num_instructions=632,
            stochastic_sites=506,
            backend="pauliframe",
        )
        # 79 batches x 506 site draws at ~6 us plus one compile; the old
        # per-shot loop costing predicted ~76 s.
        assert 0.1 < estimate < 0.6
        doubled = model.estimate_job_seconds(
            shots=40000,
            num_qubits=190,
            num_instructions=632,
            stochastic_sites=506,
            backend="pauliframe",
        )
        assert doubled > 1.8 * estimate - 0.02


def _cond(clbits):
    return Condition(tuple(clbits), 1)
