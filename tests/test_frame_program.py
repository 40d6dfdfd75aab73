"""Compile-once Pauli-frame sampling (``FrameProgram``).

The golden values below were recorded from the geometric-gap sampler
(job hash ``repro-job-v6``; ``v7`` and ``v8`` left frames bits alone):
each ``(rate, words)`` site group draws the gaps between its fired
``(site, shot)`` cells, then one word per fired depolarizing cell, and
XORs the precomputed effects.  They pin that RNG contract, so any
change to a frames-mode result at equal seed fails here;
``TestGeometricSampler`` checks the law the draws follow.
"""

import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from repro.analysis.fanout_errors import build_fanout_circuit
from repro.analysis.ghz_fidelity import (
    build_distributed_ghz_circuit,
    ghz_label_commutes,
)
from repro.api import Experiment
from repro.circuits import Circuit, Condition
from repro.core.ghz import distributed_ghz
from repro.engine import Batch, CostModel, Engine, Job
from repro.engine.runners import execute_batch_group, worker_cache_info
from repro.network.program import DistributedProgram
from repro.network.topology import line_topology
from repro.sim import NoiseModel, Pauli, PauliFrameSimulator
from repro.sim.pauliframe import (
    FrameProgram,
    clear_frame_caches,
    compile_frame_program,
    frame_cache_stats,
    frame_fault_profile,
    get_frame_program,
    run_batched_frames,
    sample_error_counts,
    tally_error_counts,
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

GHZ8_COUNTS_DIGEST = "59286b748d4446ece228ed93c035c82ae55f5be570ddbe1990a3256770363b40"

FANOUT4_COUNTS = {
    "IIIII": 17834, "IIIIX": 10, "IIIIY": 16, "IIIIZ": 14, "IIIXI": 295,
    "IIIXZ": 1, "IIIYI": 24, "IIIZI": 25, "IIXII": 67, "IIXXI": 258,
    "IIYII": 26, "IIYXI": 1, "IIZII": 30, "IIZXI": 1, "IXIII": 15,
    "IXXXI": 1, "IXXXX": 1, "IYIII": 10, "IZIII": 12, "IZIXI": 3,
    "IZZII": 1, "XIIII": 19, "XIIIX": 21, "XIIIY": 12, "XIIIZ": 16,
    "XIIXX": 2, "XIIXY": 1, "XIXXX": 1, "XXIIX": 30, "XXXIX": 1,
    "XXXXX": 19, "XXZIX": 1, "XYIIX": 12, "XYIXX": 1, "XYIYX": 1,
    "XZIIX": 10, "XZXXX": 1, "YIIII": 14, "YIIIX": 21, "YIIIY": 11,
    "YIIIZ": 16, "YIIXI": 1, "YIXIX": 1, "YIXXX": 1, "YIXXY": 1,
    "YXIIX": 50, "YXIZX": 1, "YXXXX": 26, "YYIIX": 14, "YZIIX": 9,
    "YZIXX": 1, "ZIIII": 601, "ZIIIX": 13, "ZIIIY": 10, "ZIIIZ": 9,
    "ZIIXI": 119, "ZIIXY": 1, "ZIIYI": 19, "ZIIZI": 27, "ZIIZY": 1,
    "ZIXII": 53, "ZIXXI": 97, "ZIXYI": 1, "ZIXZI": 2, "ZIYII": 26,
    "ZIYXI": 1, "ZIZII": 22, "ZIZXI": 1, "ZXIII": 15, "ZXIXZ": 1,
    "ZXXXI": 1, "ZYIII": 9, "ZYIIX": 1, "ZYXII": 2, "ZYXXI": 1, "ZZIII": 7,
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
        assert result.estimate == 0.7205
        assert result.extra["good"] == 14410
        assert len(counts) == 259
        assert counts_digest(counts) == GHZ8_COUNTS_DIGEST

    def test_fanout_errors_counts(self):
        from repro.analysis.fanout_errors import fanout_error_distribution

        with Engine(workers=1, executor="serial", cache=False) as engine:
            report = fanout_error_distribution(0.01, 4, shots=20000, seed=11, engine=engine)
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
            "f8cb7f35f3f1c2464c1662d37c173a181454326a63fe9ff4c71f2a92101b97aa"
        )

    def test_direct_simulator_tallies(self):
        program = get_frame_program(linked_ghz_circuit(), LINK_NOISE, (0, 3, 6))
        counts = sample_error_counts(program, 3000, np.random.default_rng(77))
        assert counts_digest(counts) == (
            "401c4676c3c4ca16dd1e7a40976953f1a98d5c14abed1338bb2a7c72da506b52"
        )


class TestFrameProgram:
    def test_single_fault_effects_follow_the_frame_rules(self):
        circuit = Circuit(2, 1)
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        noise = NoiseModel(p1=0.0, p2=0.5, p_meas=0.25)
        program = compile_frame_program(circuit, noise, (1,), records=True)
        # The cx fault (4**2 words) and the readout flip; p1 = 0 adds none.
        assert [(rate, words, len(offsets)) for rate, words, offsets in program.groups] == [
            (0.5, 16, 1),
            (0.25, 0, 1),
        ]
        assert program.num_outputs == 3  # X on qubit 1, Z on qubit 1, record
        bits = np.unpackbits(program.effects.view(np.uint8), axis=1)[:, :3]
        offset = program.groups[0][2][0]

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
        assert bits[program.groups[1][2][0]].tolist() == [0, 0, 1]

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


def ghz_circuit(width: int) -> Circuit:
    """Clifford GHZ prep + full Z readout."""
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def tvd(p: Counter, q: Counter, shots: int) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys) / shots


class TestFramesVectorization:
    """The compiled sampler against the per-shot reference loop."""

    def test_tally_labels_encoding(self):
        # Identity outputs: each fired row of ``effects`` is one shot's
        # frame, X bits then Z bits, so labels read off the fired rows.
        frames = np.array(
            [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0]], dtype=bool
        )
        program = FrameProgram(
            num_outputs=6,
            groups=(),
            effects=np.pad(np.packbits(frames, axis=1), ((0, 0), (0, 7))).view(np.uint64),
        )
        hits, rows = np.array([0, 1, 2]), np.array([0, 1, 2])
        assert tally_error_counts(program, hits, rows, [4]) == Counter(
            {"XIZ": 1, "IYI": 1, "III": 2}
        )
        empty = FrameProgram(num_outputs=0, groups=(), effects=np.zeros((1, 0), np.uint64))
        assert tally_error_counts(empty, np.array([0]), np.array([0]), [5]) == Counter(
            {"": 5}
        )

    def test_vectorized_distribution_matches_per_shot_reference(self):
        circuit, data = build_fanout_circuit(3)
        noise = NoiseModel.from_base(0.05)
        shots = 6000
        program = get_frame_program(circuit, noise, tuple(data))
        vec = sample_error_counts(program, shots, np.random.default_rng(77))
        slow = PauliFrameSimulator(circuit, noise, seed=78)
        ref = slow.sample_error_distribution_reference(data, shots)
        assert sum(vec.values()) == sum(ref.values()) == shots
        assert tvd(vec, ref, shots) < 0.05
        # The dominant no-error entry agrees tightly.
        identity = "I" * len(data)
        assert abs(vec[identity] - ref[identity]) / shots < 0.03

    def test_run_batched_frames_record_flips_match_reference_model(self):
        # Readout-noise-only GHZ: each record flips independently at p_meas.
        circuit = ghz_circuit(3)
        noise = NoiseModel(p1=0.0, p2=0.0, p_meas=0.1)
        fx, fz, flips = run_batched_frames(circuit, noise, 20000, np.random.default_rng(9))
        assert not fx.any() and not fz.any()
        assert np.allclose(flips.mean(axis=0), 0.1, atol=0.01)


class TestCompileOnce:
    def test_serial_job_compiles_once(self):
        clear_frame_caches()
        job = ghz_job(6, 0.01, shots=10 * 64, seed=21, batch_size=64)
        with Engine(workers=1, executor="serial", cache=False) as engine:
            result = engine.run(job)
        assert result.num_batches == 10
        stats = frame_cache_stats()
        # The engine resolves the program once per job, not per batch.
        assert stats["compiles"] == 1
        assert stats["hits"] == 0
        assert worker_cache_info()["frames"]["compiles"] == 1

    def test_group_looks_up_its_program_once(self):
        clear_frame_caches()
        job = ghz_job(5, 0.01, shots=10 * 32, seed=8, batch_size=32)
        batches = tuple(Batch(i, 32) for i in range(10))
        execute_batch_group(job, batches, "pauliframe")
        execute_batch_group(job, batches, "pauliframe")
        stats = frame_cache_stats()
        assert (stats["compiles"], stats["hits"]) == (1, 1)

    def test_process_pool_compiles_once_per_worker(self):
        clear_frame_caches()  # forked workers must not inherit a program
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
        assert {"compile", "frames"} <= set(infos[0])
        assert "stabilizer" not in infos[0]

    def test_cache_key_separates_noise_and_outputs(self):
        clear_frame_caches()
        circuit = linked_ghz_circuit(3)
        a = get_frame_program(circuit, LINK_NOISE, (0, 3))
        assert get_frame_program(circuit, LINK_NOISE, (0, 3)) is a
        assert get_frame_program(circuit, NoiseModel.from_base(0.01), (0, 3)) is not a
        assert get_frame_program(circuit, LINK_NOISE, (0,)) is not a
        assert frame_cache_stats()["compiles"] == 3


def commutes_with_ghz_stabilizers(label: str) -> bool:
    """The definition: E commutes with X^r and every Z_i Z_{i+1}."""
    r = len(label)
    generators = ["X" * r] + ["I" * i + "ZZ" + "I" * (r - i - 2) for i in range(r - 1)]
    error = Pauli.from_label(label)
    return all(error.commutes_with(Pauli.from_label(g)) for g in generators)


class TestGhzLabelPredicate:
    def test_all_four_party_labels(self):
        for letters in itertools.product("IXYZ", repeat=4):
            label = "".join(letters)
            assert ghz_label_commutes(label) == commutes_with_ghz_stabilizers(label), label

    def test_every_label_of_a_ghz64_tally(self):
        circuit, members = build_distributed_ghz_circuit(64)
        program = get_frame_program(circuit, NoiseModel.from_base(0.002), tuple(members))
        counts = sample_error_counts(program, 2000, np.random.default_rng(64))
        assert len(counts) > 50
        for label in counts:
            assert ghz_label_commutes(label) == commutes_with_ghz_stabilizers(label), label


class TestFramesCost:
    def test_ghz64_frames_estimate_is_per_group_and_fault(self):
        model = CostModel()
        kwargs = dict(
            num_instructions=632,
            backend="pauliframe",
            site_groups=3,
            faults_per_shot=0.6682,
        )
        estimate = model.estimate_job_seconds(shots=20000, **kwargs)
        # One compile, 79 batches x 3 rate groups and ~13k fired faults:
        # the serial job measured 0.013-0.017 s of kernel time on 2 vCPUs.
        assert 0.007 < estimate < 0.03
        doubled = model.estimate_job_seconds(shots=40000, **kwargs)
        assert doubled > 1.8 * estimate - 0.02

    def test_scheduler_prices_the_compiled_groups(self):
        from repro.engine.scheduler import Scheduler

        job = ghz_job(64, 0.002, 20000, 7)
        program = get_frame_program(job.circuit, job.noise, job.frame_qubits)
        groups, faults = frame_fault_profile(job.circuit, job.noise)
        assert groups == len(program.groups) == 3
        assert faults == pytest.approx(
            sum(rate * len(offsets) for rate, _, offsets in program.groups)
        )
        assert faults == pytest.approx(191 * 2e-4 + (189 + 126) * 2e-3)
        estimate = Scheduler().estimate_job_seconds(job, "pauliframe")
        assert estimate == CostModel().estimate_job_seconds(
            shots=20000,
            num_instructions=len(job.circuit.instructions),
            backend="pauliframe",
            site_groups=3,
            faults_per_shot=faults,
        )


class TestGeometricSampler:
    """The law of the geometric-gap draws, read off the sampled outputs.

    ``law_program`` gives every site an observable, distinct effect per
    word: each 1-qubit site's X/Z frame is an output, each cx fault lands
    after its gate on two output qubits, and each readout flip is the
    only deviation of its record.  Its four rate groups cover a sparse
    rate, numpy's search-based geometric (rate >= 1/3) and rate 1.0.
    """

    RATES = {"p1": 0.4, "p1_b": 0.003, "p2": 0.05, "p_meas": 1.0}

    @classmethod
    def law_program(cls):
        from repro.sim.noisemodel import QpuNoiseOverride

        circuit = Circuit(14, 2)
        for q in range(4):
            circuit.h(q)
        for q in range(4, 8):
            circuit.append("h", (q,), qpu="b")
        circuit.cx(8, 9)
        circuit.cx(10, 11)
        circuit.measure(12, 0)
        circuit.measure(13, 1)
        noise = NoiseModel(
            p1=cls.RATES["p1"],
            p2=cls.RATES["p2"],
            p_meas=cls.RATES["p_meas"],
            qpu_overrides=(QpuNoiseOverride("b", p1=cls.RATES["p1_b"]),),
        )
        return compile_frame_program(circuit, noise, tuple(range(12)), records=True)

    @staticmethod
    def site_words(bits):
        """Per-site ``(shots,)`` fired word (0 = did not fire), in site order."""
        x, z, records = bits[:, :12], bits[:, 12:24], bits[:, 24:]
        digit = np.where(x, np.where(z, 2, 1), np.where(z, 3, 0))
        words = [digit[:, q] for q in range(8)]
        words += [4 * digit[:, a] + digit[:, a + 1] for a in (8, 10)]
        words += [records[:, c].astype(int) for c in (0, 1)]
        return words

    def test_groups_follow_rate_and_words(self):
        program = self.law_program()
        assert [(rate, words, len(offsets)) for rate, words, offsets in program.groups] == [
            (0.4, 4, 4),
            (0.003, 4, 4),
            (0.05, 16, 2),
            (1.0, 0, 2),
        ]

    def test_site_fire_counts_are_binomial(self):
        program = self.law_program()
        shots = 20000
        words = self.site_words(program.sample(shots, np.random.default_rng(31)))
        rates = [self.RATES["p1"]] * 4 + [self.RATES["p1_b"]] * 4
        rates += [self.RATES["p2"]] * 2 + [self.RATES["p_meas"]] * 2
        for site, (word, rate) in enumerate(zip(words, rates)):
            fired = int(np.count_nonzero(word))
            sigma = np.sqrt(shots * rate * (1 - rate))
            assert abs(fired - shots * rate) <= 5 * sigma, (site, fired, rate)

    def test_fired_words_are_uniform(self):
        from scipy.stats import chisquare

        program = self.law_program()
        words = self.site_words(program.sample(20000, np.random.default_rng(32)))
        for sites, size in ((range(0, 4), 4), (range(8, 10), 16)):
            fired = np.concatenate([words[s][words[s] > 0] for s in sites])
            observed = np.bincount(fired, minlength=size)[1:]
            assert observed.sum() > 1000
            assert chisquare(observed).pvalue > 1e-6, observed

    def test_single_shot_batches(self):
        program = self.law_program()
        rng = np.random.default_rng(33)
        samples = np.concatenate([program.sample(1, rng) for _ in range(3000)])
        assert samples.shape == (3000, program.num_outputs)
        words = self.site_words(samples)
        assert all(np.count_nonzero(w) == 3000 for w in words[-2:])  # rate 1.0
        fired = sum(np.count_nonzero(w) for w in words[:4])
        expect, sigma = 4 * 3000 * 0.4, np.sqrt(4 * 3000 * 0.4 * 0.6)
        assert abs(fired - expect) <= 5 * sigma

    def test_program_without_sites_draws_nothing(self):
        circuit = Circuit(2, 1).h(0).cx(0, 1).measure(1, 0)
        # Link noise only, and no hop-tagged instruction: no site exists.
        program = compile_frame_program(
            circuit, NoiseModel(p1=0.0, p2=0.0, p_meas=0.0, p_link=0.1), (0, 1)
        )
        assert program.groups == ()
        rng = np.random.default_rng(34)
        before = rng.bit_generator.state
        bits = program.sample(5, rng)
        assert bits.shape == (5, 4) and not bits.any()
        assert rng.bit_generator.state == before

    #: ``ghz_fidelity_density_model(4, NoiseModel.from_base(0.05))``.  Its
    #: 10-qubit density run branches on every mid-circuit measurement and
    #: takes ~38 s and ~2.2 GB, so the value is recorded here; r = 3 runs
    #: the model live.
    GHZ4_DENSITY = 0.5098655902747027

    @pytest.mark.parametrize("r", [3, 4])
    def test_ghz_fidelity_matches_density_model(self, r):
        from repro.analysis.ghz_fidelity import ghz_fidelity_density_model

        p, shots = 0.05, 20000
        if r == 4:
            exact = self.GHZ4_DENSITY
        else:
            exact = ghz_fidelity_density_model(r, NoiseModel.from_base(p))
        result = Experiment.ghz_fidelity(r, p=p, shots=shots, seed=40 + r).run()
        sigma = np.sqrt(exact * (1 - exact) / shots)
        assert abs(result.estimate - exact) <= 5 * sigma, (result.estimate, exact)


def _cond(clbits):
    return Condition(tuple(clbits), 1)
