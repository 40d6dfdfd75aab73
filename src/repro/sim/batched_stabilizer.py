"""Compile-once / sample-many batched stabilizer kernel.

The per-shot :class:`~repro.sim.tableau.TableauSimulator` re-runs the full
O(n^2)-per-measurement CHP algorithm for every shot, and the dense batched
kernel pays O(shots * 2**n) amplitudes per gate.  For the paper's Clifford
workloads (GHZ distribution, constant-depth fanout, teleportation frames)
neither is necessary: one **reference tableau pass** over the circuit fixes
every deterministic measurement outcome and identifies the random-measurement
sites, and all per-shot variation — measurement randomness, Pauli gate
faults, hop-weighted link faults, readout flips, reset, parity-conditioned
Pauli feedback — propagates as packed ``(shots, n)`` X/Z deviation frames
under numpy bitwise ops.  Total cost: O(gates * n^2) once at compile time
plus O(shots * n) per gate at sampling time, which scales to hundreds of
qubits.

This is the sampling strategy Stim introduced (Gidney, Quantum 5, 497):

* the reference pass forces every random measurement to outcome 0 (the
  determinism structure of stabilizer measurements depends only on the X/Z
  parts of the tableau, never on the sign column, so forcing signs cannot
  change which later sites are random);
* each shot's deviation from the reference is a Pauli frame; Clifford gates
  conjugate it column-wise, measurement records flip where the frame has X
  support;
* measurement randomness comes from **frame randomization**: ``|0..0>`` is
  Z-stabilized, so seeding each shot's frame with a uniformly random Z on
  every qubit (and re-randomizing Z after every measurement and reset) is
  physically undetectable at deterministic sites — the injected operator is
  always an element of the instantaneous stabilizer group — while at random
  sites it makes the recorded bit a fair coin, exactly the Born rule;
* a Pauli correction conditioned on a parity of classical bits diverges
  between the noisy and ideal runs exactly when the parity of the record
  *deviations* is odd, in which case the correction Pauli joins the frame
  (paper Sec 5.1's effective-error calculus).

Programs are cached per process by circuit content digest
(:func:`get_stabilizer`), and the warm-worker protocol can ship a parent's
program to pool workers (:func:`prime_stabilizer`), mirroring
:mod:`repro.sim.compile` for the dense kernel.

Two compiled programs share the frame rules:

* :class:`StabilizerProgram` / :func:`run_batched_stabilizer` —
  ``mode="sample"`` semantics: absolute classical registers (reference
  bits XOR per-shot deviations), matching the dense kernel's output
  distribution-for-distribution;
* :class:`FrameProgram` / :func:`run_batched_frames` — ``mode="frames"``
  semantics: deviation-only frames over a raw circuit, the same fault
  model as :meth:`repro.sim.pauliframe.PauliFrameSimulator.sample`
  (including its unconditional noise draw at conditioned Pauli sites, so
  the per-shot API remains a valid cross-check reference).  With no
  measurement randomization the final frame is linear over GF(2) in the
  faults that fire, so :func:`compile_frame_program` propagates one basis
  row per fault component through the circuit once, and sampling only
  draws the faults that fire and XORs their precomputed effects
  (:func:`get_frame_program` caches the table per process).  Sites that
  share a rate share one stream of geometric gaps between fired faults,
  as Stim samples them, so a batch costs a few draws per rate group and
  per fired fault instead of one uniform per site per shot.
"""

from __future__ import annotations

import math
import time
from collections import Counter, OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from threading import Lock

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import GATES
from .noisemodel import NoiseModel
from .tableau import TableauSimulator

__all__ = [
    "StabilizerOp",
    "StabilizerProgram",
    "StabilizerRunResult",
    "FrameProgram",
    "compile_stabilizer",
    "compile_frame_program",
    "get_stabilizer",
    "get_frame_program",
    "prime_stabilizer",
    "run_batched_frames",
    "run_batched_stabilizer",
    "stabilizer_cache_stats",
    "frame_cache_stats",
    "frame_fault_profile",
    "clear_stabilizer_cache",
]

#: Gate names the tableau reference pass (and frame conjugation) supports.
_CLIFFORD_GATES = frozenset(
    name for name, spec in GATES.items() if spec.clifford
)

_PAULI_FEEDBACK = ("x", "y", "z")


@dataclass(frozen=True)
class StabilizerOp:
    """One executable step of a stabilizer program.

    ``kind`` is ``"gate"``, ``"measure"``, or ``"reset"``.  The reference
    pass bakes its per-site results in at compile time: ``random`` marks a
    measurement/reset whose outcome is not determined by the stabilizer
    group (the reference forces it to 0), ``ref_outcome`` is the reference
    outcome actually taken, and ``ref_fires`` records whether a conditioned
    Pauli fired in the reference run.  ``qpu``/``hops`` are the site tags
    heterogeneous noise and link faults resolve through.
    """

    kind: str
    name: str
    qubits: tuple[int, ...]
    clbit: int = -1
    cond_clbits: tuple[int, ...] | None = None
    cond_value: int = 1
    qpu: str | None = None
    hops: int = 0
    random: bool = False
    ref_outcome: int = 0
    ref_fires: bool = False


@dataclass(frozen=True)
class StabilizerProgram:
    """A frozen Clifford circuit lowering plus its reference-pass results.

    The reference pass runs exactly once, at compile time; sampling any
    number of shots afterwards touches only the packed frame matrices.
    Picklable by construction so the warm-worker protocol can ship it.
    """

    num_qubits: int
    num_clbits: int
    ops: tuple[StabilizerOp, ...]
    ref_clbits: tuple[int, ...]
    num_random_sites: int
    source_ops: int


@dataclass
class StabilizerRunResult:
    """Outcome of one batched stabilizer invocation (sample semantics)."""

    clbits: np.ndarray
    """(shots, num_clbits) uint8 matrix of final classical registers."""


def compile_stabilizer(circuit: Circuit) -> StabilizerProgram:
    """Lower a Clifford circuit and run its reference tableau pass.

    Raises :class:`ValueError` when the circuit leaves the kernel's
    contract: non-Clifford gates, non-Pauli classical feedback, or
    conditioned measure/reset (the frame formalism requires the noisy and
    ideal runs to execute the same collapse sites).

    The reference pass is RNG-free: random measurement sites are forced to
    outcome 0 (see the module docstring for why that is sound) and resets
    collapse through the same forced path, so compiling never consumes
    entropy and the program is a pure function of the circuit.
    """
    n = circuit.num_qubits
    sim = TableauSimulator(n)
    ref_clbits = [0] * circuit.num_clbits
    ops: list[StabilizerOp] = []
    num_random = 0
    source_ops = 0

    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        source_ops += 1
        if inst.name in ("measure", "reset"):
            if inst.condition is not None:
                raise ValueError(
                    "conditioned measure/reset makes the collapse structure "
                    "shot-dependent; the stabilizer kernel cannot serve it"
                )
            q = inst.qubits[0]
            random = bool(np.any(sim.x[n : 2 * n, q]))
            outcome, _ = sim.measure(q, forced=0 if random else None)
            if inst.name == "reset":
                if outcome == 1:
                    sim.x_gate(q)
                ops.append(
                    StabilizerOp(
                        kind="reset",
                        name="reset",
                        qubits=(q,),
                        random=random,
                        ref_outcome=outcome,
                    )
                )
            else:
                ref_clbits[inst.clbits[0]] = outcome
                ops.append(
                    StabilizerOp(
                        kind="measure",
                        name="measure",
                        qubits=(q,),
                        clbit=inst.clbits[0],
                        qpu=inst.qpu,
                        random=random,
                        ref_outcome=outcome,
                    )
                )
            if random:
                num_random += 1
            continue
        if inst.name not in _CLIFFORD_GATES:
            raise ValueError(
                f"non-Clifford gate {inst.name!r}; the stabilizer kernel "
                "handles the Clifford fragment only"
            )
        if inst.condition is not None:
            if inst.name not in _PAULI_FEEDBACK:
                raise ValueError(
                    f"conditioned gate {inst.name!r} is not a Pauli; "
                    "frame propagation is undefined for it"
                )
            fires = inst.condition.evaluate(ref_clbits)
            if fires:
                _apply_reference_gate(sim, inst.name, inst.qubits)
            ops.append(
                StabilizerOp(
                    kind="gate",
                    name=inst.name,
                    qubits=inst.qubits,
                    cond_clbits=inst.condition.clbits,
                    cond_value=inst.condition.value,
                    qpu=inst.qpu,
                    hops=inst.hops,
                    ref_fires=fires,
                )
            )
            continue
        _apply_reference_gate(sim, inst.name, inst.qubits)
        ops.append(
            StabilizerOp(
                kind="gate",
                name=inst.name,
                qubits=inst.qubits,
                qpu=inst.qpu,
                hops=inst.hops,
            )
        )

    return StabilizerProgram(
        num_qubits=n,
        num_clbits=circuit.num_clbits,
        ops=tuple(ops),
        ref_clbits=tuple(ref_clbits),
        num_random_sites=num_random,
        source_ops=source_ops,
    )


_REFERENCE_DISPATCH = {
    "h": "h",
    "s": "s",
    "sdg": "sdg",
    "x": "x_gate",
    "y": "y_gate",
    "z": "z_gate",
    "cx": "cx",
    "cz": "cz",
    "swap": "swap",
}


def _apply_reference_gate(sim: TableauSimulator, name: str, qubits: tuple[int, ...]) -> None:
    if name == "id":
        return
    method = _REFERENCE_DISPATCH.get(name)
    if method is None:  # pragma: no cover - guarded by the Clifford check
        raise ValueError(f"gate {name!r} has no tableau lowering")
    getattr(sim, method)(*qubits)


# ----------------------------------------------------------------------
# Per-process program caches (mirror sim.compile's compiled-program cache)
# ----------------------------------------------------------------------
class _ProgramCache:
    """A bounded, thread-safe LRU of compiled programs with counters."""

    def __init__(self, limit: int):
        self._limit = limit
        self._lock = Lock()
        self._entries: OrderedDict = OrderedDict()
        self._stats = {"compiles": 0, "hits": 0, "primed": 0, "compile_time": 0.0}

    def get(self, key, compile_program):
        with self._lock:
            program = self._entries.get(key)
            if program is not None:
                self._entries.move_to_end(key)
                self._stats["hits"] += 1
                return program
        start = time.perf_counter()
        program = compile_program()
        elapsed = time.perf_counter() - start
        with self._lock:
            self._stats["compiles"] += 1
            self._stats["compile_time"] += elapsed
            self._insert(key, program)
        return program

    def prime(self, key, program) -> bool:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            self._stats["primed"] += 1
            self._insert(key, program)
        return True

    def stats(self) -> dict:
        with self._lock:
            return dict(self._stats, cached_programs=len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stats.update({"compiles": 0, "hits": 0, "primed": 0, "compile_time": 0.0})

    def _insert(self, key, program) -> None:
        self._entries[key] = program
        while len(self._entries) > self._limit:
            self._entries.popitem(last=False)


_stabilizer_cache = _ProgramCache(256)
_frame_cache = _ProgramCache(64)
_profile_cache = _ProgramCache(64)


def get_stabilizer(circuit: Circuit) -> StabilizerProgram:
    """Compile-once accessor, keyed by the circuit's content digest.

    The program embeds no noise information — fault sites resolve their
    rates at run time from the job's :class:`NoiseModel` — so one cache
    entry serves every noise configuration of a circuit.
    """
    return _stabilizer_cache.get(
        circuit.content_digest(), lambda: compile_stabilizer(circuit)
    )


def prime_stabilizer(circuit: Circuit, program: StabilizerProgram) -> bool:
    """Seed the cache with a program compiled by another process.

    Same contract as :func:`repro.sim.compile.prime_compiled`: the key is
    re-derived from the circuit, the resident entry wins, and the return
    value says whether this call inserted anything.
    """
    return _stabilizer_cache.prime(circuit.content_digest(), program)


def stabilizer_cache_stats() -> dict:
    """Snapshot of the process-wide stabilizer compile counters."""
    return _stabilizer_cache.stats()


def get_frame_program(
    circuit: Circuit,
    noise: NoiseModel,
    qubits: tuple[int, ...],
    *,
    records: bool = False,
) -> "FrameProgram":
    """Compile-once accessor for :func:`compile_frame_program`.

    Keyed by the circuit's content digest, the noise model and the
    outputs: the effect table bakes in which sites exist and the groups
    their rates, so unlike :func:`get_stabilizer` one entry serves one
    noise configuration.
    """
    key = (circuit.content_digest(), noise, tuple(qubits), records)
    return _frame_cache.get(
        key, lambda: compile_frame_program(circuit, noise, qubits, records=records)
    )


def frame_cache_stats() -> dict:
    """Snapshot of the process-wide frame-program compile counters."""
    return _frame_cache.stats()


def clear_stabilizer_cache() -> None:
    """Drop all cached stabilizer and frame programs and reset counters
    (tests only)."""
    _stabilizer_cache.clear()
    _frame_cache.clear()
    _profile_cache.clear()


# ----------------------------------------------------------------------
# Sampling (mode="sample"): reference bits XOR propagated deviations
# ----------------------------------------------------------------------
def run_batched_stabilizer(
    program: StabilizerProgram,
    shots: int,
    rng: np.random.Generator,
    *,
    noise: NoiseModel | None = None,
) -> StabilizerRunResult:
    """Sample ``shots`` classical registers of a compiled Clifford circuit.

    Every shot starts on the computational basis state ``|0..0>``.  The
    noise model may carry gate depolarizing, readout flips, and
    hop-weighted link faults — all Pauli channels, which is every channel
    a :class:`NoiseModel` can express — or be ``None``/noiseless for pure
    measurement sampling.

    RNG consumption is a fixed function of ``(program, noise flags)``:
    frame seeding, one draw block per stochastic site in program order.
    Results therefore depend only on the generator handed in, never on
    worker count or batch interleaving (the engine's determinism
    contract).
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if noise is not None and noise.is_noiseless:
        noise = None
    n = program.num_qubits
    gate_noise = noise is not None and noise.has_gate_noise
    link_noise = noise is not None and noise.has_link_noise

    fx = np.zeros((shots, n), dtype=bool)
    # |0..0> is stabilized by every Z, so a uniformly random Z frame per
    # qubit is invisible now and supplies the Born-rule coin at whatever
    # random measurement sites the circuit reaches (module docstring).
    fz = rng.random((shots, n)) < 0.5
    flips = np.zeros((shots, program.num_clbits), dtype=bool)

    for op in program.ops:
        if op.kind == "measure":
            q = op.qubits[0]
            column = fx[:, q].copy()
            rate = noise.meas_flip_rate(op.qpu) if noise is not None else 0.0
            if rate > 0.0:
                column ^= rng.random(shots) < rate
            flips[:, op.clbit] = column
            fz[:, q] = rng.random(shots) < 0.5
            continue
        if op.kind == "reset":
            # Both the reference and every shot re-prepare |0> here, so the
            # X deviation dies; Z is re-randomized like after a measurement.
            q = op.qubits[0]
            fx[:, q] = False
            fz[:, q] = rng.random(shots) < 0.5
            continue
        if op.cond_clbits is not None:
            odd = _flip_parity(flips, op.cond_clbits)
            q = op.qubits[0]
            if op.name in ("x", "y"):
                fx[:, q] ^= odd
            if op.name in ("y", "z"):
                fz[:, q] ^= odd
            # Faults fire only on shots that physically execute the gate
            # (reference firing XOR deviation parity), matching the dense
            # kernel's conditioned-site semantics.
            if gate_noise or (link_noise and op.hops):
                fires = odd ^ op.ref_fires
                if gate_noise:
                    _inject_frame_faults(
                        fx, fz, fires, op.qubits,
                        noise.gate_error_rate(len(op.qubits), op.qpu), rng,
                    )
                if link_noise and op.hops:
                    _inject_frame_faults(
                        fx, fz, fires, op.qubits,
                        noise.link_error_rate(op.hops), rng,
                    )
            continue
        _conjugate_frames(op.name, op.qubits, fx, fz)
        if gate_noise:
            _inject_frame_faults(
                fx, fz, None, op.qubits,
                noise.gate_error_rate(len(op.qubits), op.qpu), rng,
            )
        if link_noise and op.hops:
            _inject_frame_faults(
                fx, fz, None, op.qubits, noise.link_error_rate(op.hops), rng
            )

    if program.num_clbits:
        ref = np.asarray(program.ref_clbits, dtype=np.uint8)
        clbits = ref[None, :] ^ flips.astype(np.uint8)
    else:
        clbits = np.zeros((shots, 0), dtype=np.uint8)
    return StabilizerRunResult(clbits=clbits)


# ----------------------------------------------------------------------
# Frames mode: compile-once GF(2) effect tables over a raw circuit
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class FrameProgram:
    """A noisy Clifford circuit compiled to the effects of its faults.

    Deviation-frame propagation is linear over GF(2) in the fault
    components that fire — Clifford conjugation, copying X support into a
    record, clearing at reset and parity-conditioned corrections are all
    XOR-linear — so a shot's outputs are the XOR of the precomputed effects
    of its fired faults.

    ``groups`` partitions the stochastic sites by ``(rate, words)``, in
    order of first appearance, as ``(rate, words, offsets)`` with the
    member sites' offsets in circuit order.  A depolarizing site
    (``words == 4**k``) draws one non-identity word ``w`` in ``[1,
    words)`` per firing shot and XORs row ``offset + w - 1`` of
    ``effects``; a readout-flip site (``words == 0``) XORs row
    ``offset``.  Each row packs ``num_outputs`` bits big-endian into
    ``uint64`` words.
    """

    num_outputs: int
    groups: tuple[tuple[float, int, np.ndarray], ...]
    effects: np.ndarray

    def fire(
        self, segments: Sequence[tuple[np.random.Generator, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The faults that fire in consecutive shot segments, as ``(shot,
        row)`` pairs: the shot's index in the concatenated segments and the
        ``effects`` row it XORs (a shot may appear many times).

        Each ``(rng, shots)`` segment draws from its own generator.  RNG
        contract, group by group in ``groups`` order: the group's
        ``(site, shot)`` cells are flattened site-major into positions
        ``site * shots + shot``, and :func:`_fired_cells` draws
        ``geometric(rate)`` gaps between fired positions until they pass
        the last cell; then, for a depolarizing group with any fired cell,
        ``integers(1, words, size=fired)`` picks each fired cell's word.
        Every cell fires independently with its site's rate, exactly as
        one ``random(shots) < rate`` draw per site would have it, but only
        the fired cells cost draws.
        """
        hits, rows = [], []
        start = 0
        for rng, shots in segments:
            if shots < 1:
                raise ValueError("need at least one shot")
            for rate, words, offsets in self.groups:
                fired = _fired_cells(len(offsets) * shots, rate, rng)
                if not fired.size:
                    continue
                site, shot = np.divmod(fired, shots)
                row = offsets[site]
                if words:
                    row += rng.integers(1, words, size=fired.size) - 1
                hits.append(shot + start)
                rows.append(row)
            start += shots
        if not hits:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(hits), np.concatenate(rows)

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """``(shots, num_outputs)`` bool matrix of sampled output deviations:
        :meth:`fire` on one segment, each shot's fired effects XORed."""
        hits, rows = self.fire([(rng, shots)])
        # One unbuffered XOR: a shot may fire at many sites.
        acc = np.zeros((shots, self.effects.shape[1]), dtype=np.uint64)
        np.bitwise_xor.at(acc, hits, self.effects[rows])
        bits = np.unpackbits(acc.view(np.uint8), axis=1, count=self.num_outputs)
        return bits.view(bool)


def _fired_cells(cells: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending positions in ``[0, cells)`` of independent Bernoulli(rate)
    cells, drawn as geometric gaps between successive fired positions.

    Gaps come in blocks sized from the remaining cells — the mean fired
    count plus four times its square root, plus two for the gap that
    passes the end — so one block nearly always suffices; a short block
    is followed by another from the last fired position.  The block sizes
    depend only on ``(cells, rate)`` and the draws, so the stream is
    reproducible.
    """
    blocks = []
    last = -1
    while True:
        mean = (cells - 1 - last) * rate
        size = int(mean + 4.0 * math.sqrt(mean)) + 2
        positions = last + np.cumsum(rng.geometric(rate, size=size))
        if positions[-1] >= cells:
            blocks.append(positions[: np.searchsorted(positions, cells)])
            break
        blocks.append(positions)
        last = int(positions[-1])
    return np.concatenate(blocks)


def compile_frame_program(
    circuit: Circuit,
    noise: NoiseModel,
    qubits: tuple[int, ...],
    *,
    records: bool = False,
) -> FrameProgram:
    """Compile ``circuit`` under ``noise`` to its fault-effect table.

    Outputs are the final X frame on ``qubits``, then the Z frame on
    ``qubits``, then (with ``records``) every record deviation.  One
    forward pass propagates a basis row per fault component — X and Z per
    qubit of each depolarizing site, one per readout-flip site — through
    the frame rules of :meth:`repro.sim.pauliframe.PauliFrameSimulator.sample`:
    readout flips, reset clears the frame, and a conditioned Pauli site
    takes its gate (and link) fault unconditionally.  A site exists where
    its rate is positive, which is exactly where the per-shot
    :meth:`~repro.sim.pauliframe.PauliFrameSimulator.sample` draws.
    """
    # Sites as (rate, words, instruction index, first component row).
    sites: list[tuple[float, int, int, int]] = []
    rows = 0
    for index, inst in enumerate(circuit.instructions):
        for rate, words in _fault_sites(inst, noise):
            sites.append((rate, words, index, rows))
            rows += 2 * len(inst.qubits) if words else 1

    # Qubit-major (n, rows) storage; the shared frame helpers index
    # columns, so they work on the transposed views.
    fx = np.zeros((circuit.num_qubits, rows), dtype=bool)
    fz = np.zeros_like(fx)
    flips = np.zeros((circuit.num_clbits, rows), dtype=bool)
    pending = iter(sites)
    site = next(pending, None)
    for index, inst in enumerate(circuit.instructions):
        name = inst.name
        if name == "measure":
            q, c = inst.qubits[0], inst.clbits[0]
            flips[c] = fx[q]
            # The Z component on a measured qubit is unobservable and the
            # post-measurement state is an eigenstate, so clear it.
            fz[q] = False
        elif name == "reset":
            fx[inst.qubits[0]] = False
            fz[inst.qubits[0]] = False
        elif inst.condition is not None:
            odd = _flip_parity(flips.T, inst.condition.clbits)
            q = inst.qubits[0]
            if name in ("x", "y"):
                fx[q] ^= odd
            if name in ("y", "z"):
                fz[q] ^= odd
        elif name != "barrier":
            _conjugate_frames(name, inst.qubits, fx.T, fz.T)
        # Gate fault, then link fault: each component enters as a basis row.
        while site is not None and site[2] == index:
            _, words, _, row = site
            if words:
                for i, q in enumerate(inst.qubits):
                    fx[q, row + 2 * i] = True
                    fz[q, row + 2 * i + 1] = True
            else:
                flips[inst.clbits[0], row] = True
            site = next(pending, None)

    outputs = [fx[list(qubits)], fz[list(qubits)]]
    if records:
        outputs.append(flips)
    return _effect_table(np.concatenate(outputs).T, sites)


def run_batched_frames(
    circuit: Circuit,
    noise: NoiseModel,
    shots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``shots`` Pauli-frame deviations of a noisy Clifford circuit.

    Semantics match :meth:`repro.sim.pauliframe.PauliFrameSimulator.sample`
    exactly — deviation-only frames, no measurement-outcome randomization,
    reset clears the frame, and the noise draw at a conditioned Pauli site
    is unconditional — so the per-shot API remains the cross-check
    reference.  Only the RNG *consumption* differs (geometric gaps per
    rate group instead of one scalar draw per shot per site), so equal
    seeds give different, equally valid samples of the same distribution.

    Returns ``(fx, fz, flips)``: the final ``(shots, n)`` X/Z frame
    matrices and the ``(shots, num_clbits)`` record-deviation matrix,
    sampled from the cached :class:`FrameProgram` whose outputs are every
    qubit and every record.
    """
    n = circuit.num_qubits
    program = get_frame_program(circuit, noise, tuple(range(n)), records=True)
    bits = program.sample(shots, rng)
    return bits[:, :n], bits[:, n : 2 * n], bits[:, 2 * n :]


def frame_fault_profile(circuit: Circuit, noise: NoiseModel) -> tuple[int, float]:
    """``(rate groups, expected fired faults per shot)`` of the frames
    program of ``circuit`` under ``noise``, without compiling it — what
    the cost model prices a ``pauliframe`` job by.  Kept per circuit
    digest and noise model."""

    def profile() -> tuple[int, float]:
        groups = Counter(
            site for inst in circuit.instructions for site in _fault_sites(inst, noise)
        )
        return len(groups), sum(rate * count for (rate, _), count in groups.items())

    return _profile_cache.get((circuit.content_digest(), noise), profile)


def _fault_sites(inst, noise: NoiseModel) -> list[tuple[float, int]]:
    """``(rate, words)`` of each stochastic site at one instruction.

    ``words`` is ``4**k`` for a depolarizing fault on the ``k`` gate
    qubits and 0 for a readout flip.  Only positive rates are sites.
    """
    name = inst.name
    if name in ("barrier", "reset"):
        return []
    if name == "measure":
        rate = noise.meas_flip_rate(inst.qpu)
        return [(rate, 0)] if rate > 0.0 else []
    if name not in _CLIFFORD_GATES:
        raise ValueError(f"non-Clifford gate {name!r}; frame sim unsupported")
    if inst.condition is not None and name not in _PAULI_FEEDBACK:
        raise ValueError(
            f"conditioned gate {name!r} is not a Pauli; frame sim unsupported"
        )
    rates = []
    if noise.has_gate_noise:
        rates.append(noise.gate_error_rate(len(inst.qubits), inst.qpu))
    if noise.has_link_noise and inst.hops:
        rates.append(noise.link_error_rate(inst.hops))
    return [(rate, 4 ** len(inst.qubits)) for rate in rates if rate > 0.0]


def _effect_table(
    components: np.ndarray, sites: list[tuple[float, int, int, int]]
) -> FrameProgram:
    """Pack per-component effect rows and combine them into per-word rows.

    ``components`` is the ``(rows, outputs)`` effect of each basis
    component.  A depolarizing site's word ``w`` puts ``X`` on its ``i``-th
    qubit when digit ``(w >> 2*(k-1-i)) & 3`` is 1 or 2 (X, Y) and ``Z``
    when it is 2 or 3 (Y, Z) — the dense kernel's word encoding — so its
    effect is the XOR of those components' rows.  Combining packed rows
    keeps the table at one bit per output.
    """
    num_outputs = components.shape[1]
    width = -(-num_outputs // 64)
    packed = np.zeros((len(components), 8 * width), dtype=np.uint8)
    packed[:, : -(-num_outputs // 8)] = np.packbits(components, axis=1)
    packed = packed.view(np.uint64)
    offsets = [0] * len(sites)
    blocks = [np.zeros((0, width), dtype=np.uint64)]
    total = 0
    for words in sorted({site[1] for site in sites}):
        members = [i for i, site in enumerate(sites) if site[1] == words]
        starts = np.array([sites[i][3] for i in members], dtype=np.int64)
        if words:
            k = (words.bit_length() - 1) // 2
            digits = (np.arange(1, words)[:, None] >> (2 * (k - 1 - np.arange(k)))) & 3
            basis = np.empty((words - 1, 2 * k), dtype=np.uint64)
            basis[:, 0::2] = (digits == 1) | (digits == 2)
            basis[:, 1::2] = (digits == 2) | (digits == 3)
            parts = packed[starts[:, None] + np.arange(2 * k)]
            block = np.zeros((len(members), words - 1, width), dtype=np.uint64)
            for j in range(2 * k):
                block ^= basis[None, :, j, None] * parts[:, None, j, :]
            per_site = words - 1
        else:
            block = packed[starts]
            per_site = 1
        for m, i in enumerate(members):
            offsets[i] = total + m * per_site
        blocks.append(block.reshape(-1, width))
        total += len(members) * per_site
    groups: dict[tuple[float, int], list[int]] = {}
    for (rate, words, _, _), offset in zip(sites, offsets):
        groups.setdefault((rate, words), []).append(offset)
    return FrameProgram(
        num_outputs=num_outputs,
        groups=tuple(
            (rate, words, np.array(members, dtype=np.int64))
            for (rate, words), members in groups.items()
        ),
        effects=np.concatenate(blocks),
    )


# ----------------------------------------------------------------------
# Shared frame machinery
# ----------------------------------------------------------------------
def _flip_parity(flips: np.ndarray, clbits: tuple[int, ...]) -> np.ndarray:
    """Per-shot XOR of the selected record-deviation columns."""
    acc = flips[:, clbits[0]].copy()
    for c in clbits[1:]:
        acc ^= flips[:, c]
    return acc


def _conjugate_frames(
    name: str, qubits: tuple[int, ...], fx: np.ndarray, fz: np.ndarray
) -> None:
    """Conjugate every shot's frame through one Clifford gate, in place.

    Paulis commute with any Pauli frame up to a global phase frames do not
    track, so they are no-ops here (their effect on *reference* outcomes
    lives in the compile-time tableau pass).
    """
    if name in ("x", "y", "z", "id"):
        return
    if name == "h":
        q = qubits[0]
        tmp = fx[:, q].copy()
        fx[:, q] = fz[:, q]
        fz[:, q] = tmp
        return
    if name in ("s", "sdg"):
        q = qubits[0]
        fz[:, q] ^= fx[:, q]
        return
    if name == "cx":
        c, t = qubits
        fx[:, t] ^= fx[:, c]
        fz[:, c] ^= fz[:, t]
        return
    if name == "cz":
        a, b = qubits
        fz[:, b] ^= fx[:, a]
        fz[:, a] ^= fx[:, b]
        return
    if name == "swap":
        a, b = qubits
        tmp = fx[:, a].copy()
        fx[:, a] = fx[:, b]
        fx[:, b] = tmp
        tmp = fz[:, a].copy()
        fz[:, a] = fz[:, b]
        fz[:, b] = tmp
        return
    raise AssertionError(f"unreachable gate {name!r}")


def _inject_frame_faults(
    fx: np.ndarray,
    fz: np.ndarray,
    mask: np.ndarray | None,
    qubits: tuple[int, ...],
    rate: float,
    rng: np.random.Generator,
) -> None:
    """One depolarizing draw over all shots, XORed into the frames.

    Draws the firing vector for the whole batch (a fixed-size draw keeps
    RNG consumption independent of ``mask``), then one uniform
    non-identity Pauli word per firing shot — the same ``[1, 4**k)``
    encoding as the dense kernel's ``_inject_faults`` — and XORs each
    word's X/Z bits into the firing shots' frame columns.
    """
    if rate <= 0.0:
        return
    fires = rng.random(fx.shape[0]) < rate
    if mask is not None:
        fires &= mask
    hit = np.nonzero(fires)[0]
    if hit.size == 0:
        return
    k = len(qubits)
    words = rng.integers(1, 4**k, size=hit.size)
    for i, q in enumerate(qubits):
        w = (words >> (2 * (k - 1 - i))) & 3
        # Word digits follow _PAULI_NAMES: 1 -> X, 2 -> Y, 3 -> Z.
        fx[hit, q] ^= (w == 1) | (w == 2)
        fz[hit, q] ^= (w == 2) | (w == 3)
