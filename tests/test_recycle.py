"""Live-width compilation: the qubit-recycling pass and its equivalence gates.

Unit checks of :func:`repro.circuits.recycle_qubits` on hand-built
circuits, then the gates on every distributed family member: at equal
seed a recycled job samples exactly the counts of its allocated-width
twin (kernel chunking disabled, since chunk sizes depend on the width),
and the density-matrix reference gives both circuits the same branch
distribution under link noise.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.sim.batched as batched
from repro.api import Experiment, NetworkSpec
from repro.circuits import Circuit, Condition, recycle_qubits
from repro.core import (
    build_compas,
    build_monolithic_swap_test,
    build_multistate_swap,
    build_nparty_hadamard,
    build_nstate_swap,
    protocol_job,
)
from repro.engine import Engine
from repro.sim.density import DensitySimulator
from repro.utils.states import assemble_initial_state

BUILDERS = {
    "compas": lambda k: build_compas(k, 1, basis="x"),
    "nstate": lambda k: build_nstate_swap(k, 1, basis="x"),
    "nparty": lambda k: build_nparty_hadamard(k, 1, basis="x"),
    "multistate": lambda k: build_multistate_swap(k, 1, pair=(0, k - 1)),
}


def random_states(k: int, seed: int = 3, n: int = 1) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        states.append(v / np.linalg.norm(v))
    return states


def qubit_layout(circuit: Circuit) -> list[tuple[int, ...]]:
    return [inst.qubits for inst in circuit.instructions]


# ----------------------------------------------------------------------
# The pass itself
# ----------------------------------------------------------------------
class TestRecyclePass:
    def test_slot_is_reused_only_after_a_reset(self):
        circuit = Circuit(4, 2)
        circuit.h(1).h(2)  # 1 -> slot 1, 2 -> slot 2
        circuit.measure(1, 0).reset(1)  # slot 1 frees here, not at the measure
        circuit.cx(3, 2)  # 3 takes the freed slot 1
        circuit.measure(2, 1)
        narrow, registers = recycle_qubits(circuit, [(0,)])
        assert narrow.num_qubits == 3
        assert registers == ((0,),)
        assert qubit_layout(narrow) == [(1,), (2,), (1,), (1,), (1, 2), (2,)]

    def test_measurement_alone_frees_nothing(self):
        circuit = Circuit(3, 1)
        circuit.h(1).measure(1, 0)
        circuit.h(2)
        narrow, registers = recycle_qubits(circuit, [(0,)])
        assert narrow is circuit
        assert registers == ((0,),)

    def test_conditioned_reset_frees_nothing(self):
        circuit = Circuit(3, 1)
        circuit.h(1).measure(1, 0)
        circuit.append("reset", [1], condition=Condition((0,), 1))
        circuit.h(2)
        narrow, _ = recycle_qubits(circuit, [(0,)])
        assert narrow is circuit

    def test_preloaded_registers_take_the_first_slots_in_order(self):
        circuit = Circuit(6, 2)
        circuit.h(0).cx(0, 4).measure(0, 0).reset(0)
        circuit.h(1).cx(1, 2).measure(1, 1).reset(1)
        circuit.cx(4, 5)
        narrow, registers = recycle_qubits(circuit, [(4, 5), (2,)])
        assert registers == ((0, 1), (2,))
        assert narrow.num_qubits == 4
        assert qubit_layout(narrow)[:5] == [(3,), (3, 0), (3,), (3,), (3,)]
        assert qubit_layout(narrow)[-1] == (0, 1)

    def test_everything_but_qubits_passes_through(self):
        circuit = Circuit(4, 3)
        circuit.append("h", [1], qpu="qpu1")
        circuit.append("cx", [1, 0], hops=2)
        circuit.append("measure", [1], clbits=[2], qpu="qpu1")
        circuit.reset(1)
        circuit.append("rz", [2], params=[0.3], qpu="qpu0")
        circuit.append("x", [2], condition=Condition((2,), 1))
        circuit.append("measure", [2], clbits=[0])
        narrow, _ = recycle_qubits(circuit, [(0,)])
        assert narrow is not circuit
        assert narrow.num_clbits == circuit.num_clbits
        assert narrow.name == circuit.name
        assert len(narrow) == len(circuit)
        for before, after in zip(circuit, narrow):
            assert after == replace(before, qubits=after.qubits)

    def test_barriers_keep_only_live_qubits(self):
        circuit = Circuit(3, 1)
        circuit.barrier()  # only the preloaded qubit is live yet
        circuit.h(1).measure(1, 0).reset(1)
        circuit.barrier()
        circuit.h(2)
        circuit.barrier()
        narrow, _ = recycle_qubits(circuit, [(0,)])
        barriers = [i.qubits for i in narrow if i.name == "barrier"]
        assert barriers == [(0,), (0,), (0, 1)]

    def test_overlapping_preloaded_registers_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            recycle_qubits(Circuit(2), [(0, 1), (1,)])
        with pytest.raises(IndexError):
            recycle_qubits(Circuit(2), [(2,)])

    def test_nothing_to_recycle_keeps_the_job_unchanged(self):
        build = build_monolithic_swap_test(2, 2, basis="x")
        circuit = build.circuit()
        narrow, registers = recycle_qubits(circuit, build.position_registers)
        assert narrow is circuit
        assert registers == build.position_registers
        job = protocol_job(build, random_states(2, n=2), shots=8, seed=1)
        compiled = job.metadata["compiled"]
        assert compiled["allocated_width"] == compiled["live_width"] == 7
        assert job.circuit.content_digest() == circuit.content_digest()
        assert [e.qubits for e in job.ensembles] == list(build.position_registers)


# ----------------------------------------------------------------------
# Family members: narrower, and sampling the same bits
# ----------------------------------------------------------------------
def allocated_twin(job, build):
    """``job`` on the build's allocated-width circuit and registers."""
    ensembles = tuple(
        replace(ens, qubits=register)
        for ens, register in zip(job.ensembles, build.position_registers)
    )
    return replace(job, circuit=build.circuit(), ensembles=ensembles)


@pytest.mark.parametrize(
    ("member", "allocated", "live"),
    [("compas", 12, 7), ("nstate", 11, 7), ("nparty", 15, 10), ("multistate", 6, 4)],
)
def test_family_circuits_narrow_at_k3(member, allocated, live):
    build = BUILDERS[member](3)
    job = protocol_job(build, random_states(3), shots=8, seed=1)
    assert job.metadata["compiled"]["allocated_width"] == allocated
    assert job.metadata["compiled"]["live_width"] == live
    assert job.circuit.num_qubits == live


@pytest.mark.parametrize(
    ("make", "allocated", "live"),
    [
        (lambda s: Experiment.nparty_hadamard(s, shots=20, seed=2), 15, 10),
        (lambda s: Experiment.multistate_swap(s, shots=20, seed=2), 6, 4),
        (lambda s: Experiment.swap_test(s, shots=20, seed=2, backend="compas"), 12, 7),
        (lambda s: Experiment.swap_test(s, shots=20, seed=2), 5, 5),
    ],
)
def test_widths_reach_the_result_envelope(make, allocated, live):
    result = make(random_states(3)).run()
    compiled = result.extra["resources"]["compiled"]
    assert (compiled["allocated_width"], compiled["live_width"]) == (allocated, live)


@pytest.mark.parametrize("link", [0.0, 0.05])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("member", sorted(BUILDERS))
def test_recycled_counts_equal_allocated_counts(monkeypatch, member, k, link):
    monkeypatch.setattr(batched, "MAX_CHUNK_AMPLITUDES", 1 << 40)
    build = BUILDERS[member](k)
    noise = NetworkSpec(link_depolarizing=link).noise_model(None)
    job = protocol_job(build, random_states(k), shots=24, seed=11, noise=noise)
    twin = allocated_twin(job, build)
    assert job.circuit.num_qubits < twin.circuit.num_qubits
    with Engine(workers=1, executor="serial") as engine:
        narrow, wide = engine.run(job), engine.run(twin)
    assert narrow.backend == wide.backend == "statevector"
    assert narrow.counts == wide.counts
    assert narrow.parity_mean == wide.parity_mean


# nparty is left out: its 9-qubit allocated-width density run alone takes
# ~17 s.  Its trajectories are held bit-identical to the allocated-width
# circuit's under the same link noise above.
@pytest.mark.parametrize("member", ["compas", "multistate", "nstate"])
def test_density_reference_unchanged_by_recycling(member):
    states = random_states(2, seed=8)
    build = BUILDERS[member](2)
    noise = NetworkSpec(link_depolarizing=0.05).noise_model(None)
    circuit = build.circuit()
    narrow, registers = recycle_qubits(circuit, build.position_registers)
    assert narrow.num_qubits < circuit.num_qubits

    def branches(c, regs):
        placements = {
            regs[p]: states[build.user_of_position[p]] for p in range(len(regs))
        }
        init = assemble_initial_state(c.num_qubits, placements)
        return DensitySimulator(noise=noise).run(c, initial_state=init).branch_probabilities()

    wide = branches(circuit, build.position_registers)
    slim = branches(narrow, registers)
    assert wide.keys() == slim.keys()
    for bits, p in wide.items():
        assert slim[bits] == pytest.approx(p, abs=1e-12)
