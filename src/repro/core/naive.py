"""Naive distributed implementation (paper Sec 2.5, Fig 3).

Every state rho_i starts on its own QPU.  The scheme re-slices the problem:
for each qubit index j, all k qubits rho_i^(j) are teleported to one QPU,
which then runs a k-party SWAP test *locally* on that slice.  On a line
topology the worst-case redistribution costs O(n^2) Bell pairs (each hop of
a long-range teleport consumes one nearest-neighbour pair), which is the
cost the COMPAS designs beat with their O(n) per-party consumption.

The per-slice estimator multiplies slice traces, which reproduces
tr(rho_1 ... rho_k) exactly when every input factorises across qubit slices
(rho_i = tensor_j rho_i^(j)) — the regime the paper's Fig 3 example depicts.
For entangled inputs the slice product is a different functional; COMPAS has
no such restriction, which is part of its advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..engine import Engine
from ..network.topology import Topology, line_topology
from ..network.program import DistributedProgram
from ..teleport.teledata import teleport_qubit
from .cyclic_shift import interleaved_arrangement, round_position_pairs, slot_assignment
from .ghz import local_ghz_linear
from .protocol import ProtocolBuild, protocol_job

__all__ = ["NaiveBuild", "build_naive_distribution", "naive_slice_estimate"]


@dataclass
class NaiveBuild(ProtocolBuild):
    """Constructed naive-distribution protocol for one readout basis.

    The slice-wise estimator reads each slice's GHZ parity separately
    (``slice_readout``), so the flattened ``readout_clbits`` is metadata
    only — a single joint parity over all slices is *not* this scheme's
    estimator (see :func:`naive_slice_estimate`).
    """

    slice_owner: tuple[int, ...] = ()
    slice_registers: tuple[tuple[int, ...], ...] = ()
    slice_readout: tuple[tuple[int, ...], ...] = ()

    def circuit_name(self) -> str:
        return "naive_distribution"


def build_naive_distribution(
    k: int, n: int, basis: str | None = "x", topology: Topology | None = None
) -> NaiveBuild:
    """Build the naive scheme: redistribute slices, test each locally.

    QPU i initially holds rho_i; slice j is assigned to QPU ``j % k``.
    Teleports hop-by-hop Bell pairs (ledger-accounted) and then runs a local
    k-party SWAP test per slice with a local GHZ register.  ``topology``
    defaults to a line over ``qpu0 .. qpu{k-1}`` (the paper's worst case);
    alternative topologies change only the physical hop-weighted cost.
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 parties and n >= 1 qubits")
    qpu_names = [f"qpu{i}" for i in range(k)]
    if topology is None:
        topology = line_topology(qpu_names)
    elif set(topology.nodes) != set(qpu_names):
        raise ValueError(
            f"topology must connect QPUs {qpu_names}, got {sorted(topology.nodes)}"
        )
    program = DistributedProgram(topology)

    # Original data placement: state of position i lives on QPU i.
    home_registers = [program.alloc(qpu_names[i], "state", n) for i in range(k)]
    arrangement = interleaved_arrangement(k)
    assignment = slot_assignment(k)
    user_of_position = tuple(assignment[arrangement[p]] for p in range(k))

    slice_owner = tuple(j % k for j in range(n))
    mark = program.cursor()

    # ------------------------------------------------------------------
    # Stage 1: redistribute slice j to its owner QPU.
    # ------------------------------------------------------------------
    slice_registers: list[tuple[int, ...]] = []
    for j in range(n):
        owner = slice_owner[j]
        collected: list[int] = []
        for i in range(k):
            if i == owner:
                collected.append(home_registers[i][j])
                continue
            (local_half,) = program.alloc(qpu_names[i], f"tp_l_{i}_{j}", 1)
            (remote_half,) = program.alloc(qpu_names[owner], f"tp_r_{i}_{j}", 1)
            program.create_bell_pair(local_half, remote_half, purpose="naive-redistribute")
            record = teleport_qubit(
                program, home_registers[i][j], local_half, remote_half
            )
            collected.append(record.destination)
        slice_registers.append(tuple(collected))
    stage_depths = {"redistribute": program.build_range(mark, program.cursor()).depth()}
    mark = program.cursor()

    # ------------------------------------------------------------------
    # Stage 2: local k-party SWAP test on every slice.
    # ------------------------------------------------------------------
    round1, round2 = round_position_pairs(k)
    slice_ghz: list[list[int]] = []
    for j in range(n):
        owner = qpu_names[slice_owner[j]]
        ghz = program.alloc(owner, f"ghz_slice{j}", (k + 1) // 2)
        local_ghz_linear(program, ghz)
        slice_ghz.append(ghz)
        regs = slice_registers[j]
        for round_index, pairs in enumerate((round1, round2)):
            for a, b in pairs:
                host = a if round_index == 0 else b
                program.cswap(ghz[host // 2], regs[a], regs[b])
    stage_depths["local_tests"] = program.build_range(mark, program.cursor()).depth()
    mark = program.cursor()

    # ------------------------------------------------------------------
    # Stage 3: readout per slice.
    # ------------------------------------------------------------------
    slice_readout: list[tuple[int, ...]] = []
    if basis is not None:
        for j in range(n):
            ghz = slice_ghz[j]
            if basis == "y":
                program.sdg(ghz[0])
            clbits = []
            for g in ghz:
                program.h(g)
                clbits.append(program.measure(g))
            slice_readout.append(tuple(clbits))
        stage_depths["readout"] = program.build_range(mark, program.cursor()).depth()
    return NaiveBuild(
        program=program,
        k=k,
        n=n,
        variant="naive",
        basis=basis,
        position_registers=tuple(tuple(r) for r in home_registers),
        readout_clbits=tuple(c for clbits in slice_readout for c in clbits),
        slice_owner=slice_owner,
        slice_registers=tuple(slice_registers),
        slice_readout=tuple(slice_readout),
        user_of_position=user_of_position,
        stage_depths=stage_depths,
    )


def naive_slice_estimate(
    states: Sequence[np.ndarray],
    shots: int = 8000,
    seed: int | None = None,
    engine: Engine | None = None,
) -> complex:
    """Estimate tr(prod rho_i) for slice-factorising inputs.

    Runs X- and Y-basis copies of the naive protocol as two engine jobs
    (``shots // 2`` each, on a private serial engine when ``engine`` is
    None); each slice's complex trace is estimated from its own GHZ
    parity in the job's counts, and the slice estimates are multiplied.
    Exact in expectation when the inputs factorise across slices.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    k = len(states)
    n = int(math.log2(states[0].shape[0]))
    rng = np.random.default_rng(seed)
    count = shots // 2
    builds = [build_naive_distribution(k, n, basis=basis) for basis in ("x", "y")]
    jobs = [
        protocol_job(build, states, count, int(rng.integers(2**63))) for build in builds
    ]
    with Engine.or_serial(engine) as runner:
        results = runner.run_many(jobs)
    per_basis = []
    for build, result in zip(builds, results):
        sums = [0.0] * n
        for key, hits in result.counts.items():
            for j, clbits in enumerate(build.slice_readout):
                parity = sum(key[c] == "1" for c in clbits) % 2
                sums[j] += hits * (1.0 - 2.0 * parity)
        per_basis.append([total / count for total in sums])
    product = 1.0 + 0.0j
    for x, y in zip(*per_basis):
        product *= complex(x, y)
    return product
