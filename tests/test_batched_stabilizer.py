"""Cross-validation of the batched stabilizer kernel.

The correctness argument for the compile-once/sample-many stabilizer path:

* the **batched stabilizer kernel** against the per-shot
  :class:`TableauSimulator`, the pinned ``statevector-ref`` interpreter and
  :class:`DensitySimulator` exact branch probabilities — on GHZ, fanout and
  teleportation circuits, noiseless and under Pauli/link noise;
* the **router matrix**: one regression test pinning the selected backend
  per (circuit class, noise class) cell, so routing changes are deliberate;
* the compiled ``sample_error_counts`` against the retained per-shot
  reference loop (same fault model, different RNG consumption order);
* engine results on the stabilizer backend across worker counts and
  executors (bit identity — the engine's determinism contract);
* the dense kernel's segment packing: a segment's bits do not depend on
  which other segments share its kernel call.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.fanout_errors import build_fanout_circuit
from repro.analysis.ghz_fidelity import build_distributed_ghz_circuit
from repro.circuits import Circuit, Condition
from repro.engine import BackendRouter, Engine, Job
from repro.sim import (
    NoiseModel,
    compile_circuit,
    PauliFrameSimulator,
    TableauSimulator,
    compile_stabilizer,
    get_stabilizer,
    run_batched_frames,
    run_batched_stabilizer,
)
from repro.sim.batched import Segment, run_segments
from repro.sim.batched_stabilizer import (
    FrameProgram,
    clear_stabilizer_cache,
    get_frame_program,
    prime_stabilizer,
    stabilizer_cache_stats,
)
from repro.sim.pauliframe import sample_error_counts, tally_error_counts
from repro.utils import random_pure_state

RNG = np.random.default_rng(2026)


# ----------------------------------------------------------------------
# Circuit zoo
# ----------------------------------------------------------------------
def ghz_circuit(width: int = 3) -> Circuit:
    """Clifford GHZ prep + full Z readout."""
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(1, width):
        circuit.cx(q - 1, q)
    for q in range(width):
        circuit.measure(q, q)
    return circuit


def teleport_circuit() -> Circuit:
    """Teleport |0> through a Bell pair with Pauli feedback, then verify."""
    c = Circuit(3, 3)
    c.h(1).cx(1, 2)
    c.cx(0, 1).h(0)
    c.measure(0, 0).measure(1, 1)
    c.x(2, condition=Condition((1,), 1))
    c.z(2, condition=Condition((0,), 1))
    c.measure(2, 2)
    return c


def conditioned_collapse_circuit() -> Circuit:
    """Clifford, Pauli feedback, but a *conditioned reset* (shot-dependent
    collapse structure — outside the frame kernel's contract)."""
    c = Circuit(2, 2)
    c.h(0).measure(0, 0)
    c.append("reset", [1], condition=Condition((0,), 1))
    c.measure(1, 1)
    return c


def magic_circuit() -> Circuit:
    c = Circuit(2, 2)
    c.h(0).t(0).cx(0, 1)
    c.measure(0, 0).measure(1, 1)
    return c


def counts_to_probs(counts: dict, shots: int) -> dict:
    return {k: v / shots for k, v in counts.items()}


def tvd(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ----------------------------------------------------------------------
# Direct tableau sdg (satellite: one-pass sdg vs the s;s;s decomposition)
# ----------------------------------------------------------------------
class TestTableauSdg:
    @pytest.mark.parametrize("seed", range(6))
    def test_sdg_matches_triple_s_after_random_clifford_prefix(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        direct, reference = TableauSimulator(n), TableauSimulator(n)
        one_q = ["h", "s", "sdg", "x_gate", "z_gate", "y_gate"]
        for _ in range(30):
            if rng.random() < 0.6:
                gate = str(rng.choice(one_q))
                q = int(rng.integers(n))
                getattr(direct, gate)(q)
                getattr(reference, gate)(q)
            else:
                a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                gate = str(rng.choice(["cx", "cz", "swap"]))
                getattr(direct, gate)(a, b)
                getattr(reference, gate)(a, b)
            q = int(rng.integers(n))
            direct.sdg(q)
            reference.s(q)
            reference.s(q)
            reference.s(q)
            assert np.array_equal(direct.x, reference.x)
            assert np.array_equal(direct.z, reference.z)
            assert np.array_equal(direct.r, reference.r)

    def test_sdg_inverts_s(self):
        sim = TableauSimulator(1)
        sim.h(0)
        x, z, r = sim.x.copy(), sim.z.copy(), sim.r.copy()
        sim.s(0)
        sim.sdg(0)
        assert np.array_equal(sim.x, x)
        assert np.array_equal(sim.z, z)
        assert np.array_equal(sim.r, r)


# ----------------------------------------------------------------------
# Compilation: reference pass, contract violations, program cache
# ----------------------------------------------------------------------
class TestCompileStabilizer:
    def test_ghz_reference_pass_marks_one_random_site(self):
        # The first GHZ measurement is a fair coin; every later one is then
        # fixed by the stabilizer group relative to it.
        program = compile_stabilizer(ghz_circuit(4))
        measures = [op for op in program.ops if op.kind == "measure"]
        assert [op.random for op in measures] == [True, False, False, False]
        assert program.num_random_sites == 1
        assert program.ref_clbits == (0, 0, 0, 0)

    def test_deterministic_circuit_has_no_random_sites(self):
        circuit = Circuit(2, 2).x(0).cx(0, 1).measure(0, 0).measure(1, 1)
        program = compile_stabilizer(circuit)
        assert program.num_random_sites == 0
        assert program.ref_clbits == (1, 1)

    def test_reference_pass_resolves_feedback(self):
        # The reference teleport run measures 0/0, so neither correction
        # fires in the reference — but both ops stay in the program for the
        # per-shot deviation parity.
        program = compile_stabilizer(teleport_circuit())
        conditioned = [op for op in program.ops if op.cond_clbits is not None]
        assert len(conditioned) == 2
        assert all(not op.ref_fires for op in conditioned)

    def test_contract_violations_raise(self):
        with pytest.raises(ValueError, match="non-Clifford"):
            compile_stabilizer(magic_circuit())
        with pytest.raises(ValueError, match="conditioned measure/reset"):
            compile_stabilizer(conditioned_collapse_circuit())
        nonpauli = Circuit(2, 1).h(0).measure(0, 0)
        nonpauli.h(1, condition=Condition((0,), 1))
        with pytest.raises(ValueError, match="not a Pauli"):
            compile_stabilizer(nonpauli)

    def test_cache_and_priming(self):
        clear_stabilizer_cache()
        circuit = ghz_circuit(3)
        first = get_stabilizer(circuit)
        assert get_stabilizer(ghz_circuit(3)) is first
        stats = stabilizer_cache_stats()
        assert stats["compiles"] == 1 and stats["hits"] == 1

        clear_stabilizer_cache()
        assert prime_stabilizer(circuit, first)
        assert not prime_stabilizer(circuit, first)  # resident entry wins
        assert get_stabilizer(circuit) is first


# ----------------------------------------------------------------------
# Sampling semantics: cross-validation against the other simulators
# ----------------------------------------------------------------------
class TestSampleCrossValidation:
    def test_noiseless_ghz_support_and_fair_coin(self):
        program = get_stabilizer(ghz_circuit(5))
        shots = 4000
        res = run_batched_stabilizer(program, shots, np.random.default_rng(7))
        rows = {"".join(map(str, row)) for row in res.clbits}
        assert rows == {"00000", "11111"}
        ones = res.clbits[:, 0].mean()
        assert abs(ones - 0.5) < 0.03

    def test_deterministic_outcomes_are_exact(self):
        circuit = Circuit(3, 3).x(0).cx(0, 1).measure(0, 0).measure(1, 1).measure(2, 2)
        res = run_batched_stabilizer(get_stabilizer(circuit), 64, np.random.default_rng(0))
        assert np.array_equal(res.clbits, np.tile([1, 1, 0], (64, 1)))

    def test_reset_rerandomizes_measurement(self):
        # measure; reset; h; measure — the second bit must be a fresh coin
        # regardless of the first (exercises fz re-randomization at reset).
        circuit = Circuit(1, 2)
        circuit.h(0).measure(0, 0).reset(0).h(0).measure(0, 1)
        res = run_batched_stabilizer(get_stabilizer(circuit), 4000, np.random.default_rng(3))
        first, second = res.clbits[:, 0], res.clbits[:, 1]
        assert abs(second.mean() - 0.5) < 0.03
        # Independence: the conditional means match the marginal.
        assert abs(second[first == 1].mean() - second[first == 0].mean()) < 0.06

    @pytest.mark.parametrize("width", [2, 4])
    def test_agrees_with_tableau_backend(self, width):
        shots = 3000
        job = lambda backend, seed: Job(  # noqa: E731
            circuit=ghz_circuit(width), shots=shots, seed=seed, backend=backend
        )
        with Engine(workers=1) as engine:
            stab = engine.run(job("stabilizer", 11))
            ref = engine.run(job("statevector-ref", 12))
        assert stab.backend == "stabilizer"
        d = tvd(
            counts_to_probs(stab.counts, shots), counts_to_probs(ref.counts, shots)
        )
        assert d < 0.05

    def test_teleport_matches_density_exact_marginal(self):
        # Teleporting |0> must land qubit 2 in |0> for every feedback branch;
        # the Bell-measurement record is two fair coins.
        shots = 4000
        with Engine(workers=1) as engine:
            res = engine.run(Job(circuit=teleport_circuit(), shots=shots, seed=5))
        assert res.backend == "stabilizer"
        probs = counts_to_probs(res.counts, shots)
        assert all(key[2] == "0" for key in probs)
        expected = {"000": 0.25, "010": 0.25, "100": 0.25, "110": 0.25}
        assert tvd(probs, expected) < 0.05

    def test_noisy_ghz_matches_density_exact(self):
        shots = 20000
        circuit = ghz_circuit(2)
        noise = NoiseModel.from_base(0.05)
        with Engine(workers=1) as engine:
            res = engine.run(Job(circuit=circuit, shots=shots, seed=21, noise=noise))
            exact = engine.run(
                Job(circuit=circuit, shots=1, seed=0, noise=noise, mode="exact")
            )
        assert res.backend == "stabilizer"
        assert exact.backend == "density"
        assert tvd(counts_to_probs(res.counts, shots), exact.probabilities) < 0.02

    def test_link_noisy_distributed_ghz_matches_density_exact(self):
        # Distributed GHZ: Bell links with hop weights, reset + feedback.
        circuit, _members = build_distributed_ghz_circuit(3)
        noise = NoiseModel(p1=0.002, p2=0.01, p_meas=0.01, p_link=0.03, p_swap=0.01)
        shots = 20000
        with Engine(workers=1) as engine:
            res = engine.run(Job(circuit=circuit, shots=shots, seed=31, noise=noise))
            exact = engine.run(
                Job(circuit=circuit, shots=1, seed=0, noise=noise, mode="exact")
            )
        assert res.backend == "stabilizer"
        assert tvd(counts_to_probs(res.counts, shots), exact.probabilities) < 0.03

    def test_fanout_sampling_matches_statevector(self):
        circuit, data = build_fanout_circuit(2)
        noise = NoiseModel.from_base(0.02)
        shots = 6000
        with Engine(workers=1) as engine:
            stab = engine.run(Job(circuit=circuit, shots=shots, seed=41, noise=noise))
            dense = engine.run(
                Job(
                    circuit=circuit,
                    shots=shots,
                    seed=42,
                    noise=noise,
                    backend="statevector",
                )
            )
        assert stab.backend == "stabilizer"
        d = tvd(
            counts_to_probs(stab.counts, shots), counts_to_probs(dense.counts, shots)
        )
        assert d < 0.05


# ----------------------------------------------------------------------
# Router matrix (satellite: backend regression per circuit/noise class)
# ----------------------------------------------------------------------
class TestRouterMatrix:
    NOISE = NoiseModel.from_base(0.01)

    @pytest.mark.parametrize(
        ("label", "make_job", "expected"),
        [
            ("clifford+noiseless", lambda n: Job(circuit=ghz_circuit(), shots=10, seed=1), "stabilizer"),
            ("clifford+pauli-noise", lambda n: Job(circuit=ghz_circuit(), shots=10, seed=1, noise=n), "stabilizer"),
            ("pauli-feedback+noise", lambda n: Job(circuit=teleport_circuit(), shots=10, seed=1, noise=n), "stabilizer"),
            ("cond-collapse+noiseless", lambda n: Job(circuit=conditioned_collapse_circuit(), shots=10, seed=1), "statevector"),
            ("cond-collapse+noise", lambda n: Job(circuit=conditioned_collapse_circuit(), shots=10, seed=1, noise=n), "statevector"),
            ("magic+noiseless", lambda n: Job(circuit=magic_circuit(), shots=10, seed=1), "statevector"),
            ("magic+noise", lambda n: Job(circuit=magic_circuit(), shots=10, seed=1, noise=n), "statevector"),
            ("clifford+state-input", lambda n: Job(circuit=ghz_circuit(), shots=10, seed=1, initial_state=random_pure_state(3, np.random.default_rng(0))), "statevector"),
            ("exact-mode", lambda n: Job(circuit=ghz_circuit(), shots=10, seed=1, noise=n, mode="exact"), "density"),
            ("frames-mode", lambda n: Job(circuit=teleport_circuit(), shots=10, seed=1, noise=n, frame_qubits=(2,), mode="frames"), "pauliframe"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_backend_matrix(self, label, make_job, expected):
        choice = BackendRouter().select(make_job(self.NOISE))
        assert choice.name == expected, label

    def test_non_pauli_feedback_falls_back_to_statevector(self):
        circuit = Circuit(2, 2).h(0).measure(0, 0)
        circuit.h(1, condition=Condition((0,), 1))
        circuit.measure(1, 1)
        assert BackendRouter().select(Job(circuit=circuit, shots=10, seed=1)).name == "statevector"

    def test_stabilizer_pin_validation(self):
        with pytest.raises(ValueError, match="stabilizer backend"):
            BackendRouter().select(
                Job(
                    circuit=conditioned_collapse_circuit(),
                    shots=10,
                    seed=1,
                    backend="stabilizer",
                )
            )
        with pytest.raises(ValueError, match="backend must be one of"):
            Job(circuit=ghz_circuit(), shots=10, seed=1, backend="tableau")


# ----------------------------------------------------------------------
# Frames mode: vectorized distribution vs the per-shot reference loop
# ----------------------------------------------------------------------
class TestFramesVectorization:
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
        assert tvd(counts_to_probs(vec, shots), counts_to_probs(ref, shots)) < 0.05
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


# ----------------------------------------------------------------------
# Engine integration: determinism across workers and executors
# ----------------------------------------------------------------------
class TestEngineDeterminism:
    def test_worker_count_bit_identity_through_process_pool(self):
        circuit = ghz_circuit(10)
        noise = NoiseModel.from_base(0.02)
        job = lambda: Job(  # noqa: E731
            circuit=circuit, shots=2048, seed=99, noise=noise, batch_size=512
        )
        with Engine(workers=1) as serial, Engine(workers=4, executor="process") as pool:
            a = serial.run(job())
            b = pool.run(job())
        assert a.backend == b.backend == "stabilizer"
        assert a.counts == b.counts

    def test_thread_executor_bit_identity(self):
        circuit = ghz_circuit(6)
        job = lambda: Job(circuit=circuit, shots=1024, seed=5, batch_size=256)  # noqa: E731
        with Engine(workers=1) as serial, Engine(workers=3, executor="thread") as pool:
            assert serial.run(job()).counts == pool.run(job()).counts

    def test_64_qubit_ghz_completes_via_automatic_routing(self):
        circuit = ghz_circuit(64)
        with Engine(workers=1) as engine:
            res = engine.run(Job(circuit=circuit, shots=256, seed=3))
        assert res.backend == "stabilizer"
        assert set(res.counts) <= {"0" * 64, "1" * 64}
        assert sum(res.counts.values()) == 256


# ----------------------------------------------------------------------
# Dense kernel: segment packing leaves every segment's bits unchanged
# ----------------------------------------------------------------------
class TestPackedKernelPath:
    """A segment packed into one kernel call with another segment must be
    bit-identical to the same segment run alone: each segment draws from
    its own generator in its own order and sizes, and rows shared across
    segments carry the same arithmetic as rows held by one segment."""

    SHOTS = 512

    @staticmethod
    def _program(circuit, noise):
        return compile_circuit(
            circuit,
            gate_noise=noise is not None and noise.has_gate_noise,
            link_noise=noise is not None and noise.has_link_noise,
        )

    def _compare(self, circuit, noise=None):
        program = self._program(circuit, noise)
        alone = run_segments(
            program, [Segment(np.random.default_rng(1234), self.SHOTS)], noise=noise
        )
        companion = run_segments(
            program, [Segment(np.random.default_rng(99), 300)], noise=noise
        )
        packed = run_segments(
            program,
            [
                Segment(np.random.default_rng(99), 300),
                Segment(np.random.default_rng(1234), self.SHOTS),
            ],
            noise=noise,
        )
        assert np.array_equal(packed.clbits[300:], alone.clbits)
        assert np.array_equal(packed.clbits[:300], companion.clbits)
        assert 0 < packed.row_ops <= packed.shot_ops
        return alone

    def test_noiseless_ghz(self):
        alone = self._compare(ghz_circuit(4))
        assert set(alone.clbit_strings()) == {"0000", "1111"}
        # The deterministic prefix runs on one row: far fewer rows than shots.
        assert alone.row_ops < alone.shot_ops // 10

    def test_feedback_and_reset(self):
        circuit = teleport_circuit()
        circuit.reset(0)
        circuit.h(0)
        alone = self._compare(circuit)
        # Teleporting |0> with Pauli feedback always verifies as 0.
        assert not alone.clbits[:, 2].any()

    def test_non_clifford(self):
        alone = self._compare(magic_circuit())
        # T commutes with the Z readout: the two clbits always agree.
        assert np.array_equal(alone.clbits[:, 0], alone.clbits[:, 1])

    def test_noisy_ghz(self):
        alone = self._compare(ghz_circuit(3), noise=NoiseModel.from_base(0.05))
        # Faults leave GHZ's two-outcome support.
        assert set(alone.clbit_strings()) - {"000", "111"}
