"""Pauli-frame sampling for Clifford circuits with Pauli feedback.

This is the same strategy Stim uses for bulk sampling, and it is exactly what
the paper's Table 4 experiment needs: model the noisy circuit as the *ideal*
circuit followed by a Pauli error, and sample that error's distribution.

Per shot we track a Pauli *frame* F — the deviation between the noisy and the
ideal run.  Faults XOR Paulis into the frame; Clifford gates conjugate it;
a Z-basis measurement's recorded outcome deviates from the reference exactly
when the frame has an X component on the measured qubit (plus any readout
flip); and a Pauli correction conditioned on a parity of classical bits
differs between the noisy and ideal runs exactly when the parity of the
*deviations* is 1, in which case the correction Pauli itself joins the frame.
The frame at the end of the circuit, restricted to the data qubits, is the
effective error E with ``E . U_ideal = U_noisy`` (paper Sec 5.1).

Only Clifford gates and Pauli feedback are supported — which covers GHZ
preparation, Fanout, and all teleportation corrections.

:class:`PauliFrameSimulator` is the per-shot cross-validation oracle.
Engine frames jobs run over the compiled :class:`FrameProgram`.  With no
measurement randomization the final frame is linear over GF(2) in the
faults that fire, so :func:`compile_frame_program` propagates one basis
row per fault component through the circuit once, and sampling only draws
the faults that fire and XORs their precomputed effects
(:func:`get_frame_program` caches the table per process).  Sites that
share a rate share one stream of geometric gaps between fired faults, as
Stim samples them, so a batch costs a few draws per rate group and per
fired fault instead of one uniform per site per shot.  Each batch draws
its fired faults with :meth:`FrameProgram.fire` from its own generator,
and :func:`tally_error_counts` counts a whole batch group's labels in one
pass over only the shots those faults touch, so a shot that no fault
touched costs nothing.  :func:`sample_error_counts` is the one-batch case.
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
from .compile import _PAULI_FEEDBACK
from .noisemodel import NoiseModel
from .pauli import Pauli

__all__ = [
    "FrameProgram",
    "FrameSample",
    "PauliFrameSimulator",
    "clear_frame_caches",
    "compile_frame_program",
    "frame_cache_stats",
    "frame_fault_profile",
    "get_frame_program",
    "run_batched_frames",
    "sample_error_counts",
    "tally_error_counts",
]

#: Gate names frame conjugation supports.
_CLIFFORD_GATES = frozenset(
    name for name, spec in GATES.items() if spec.clifford
)



@dataclass
class FrameSample:
    """One sampled deviation: final frame plus measurement-record flips."""

    frame: Pauli
    record_flips: list[int]

    def error_on(self, qubits: Sequence[int]) -> Pauli:
        """Frame restricted to a subset of qubits."""
        return self.frame.restricted(qubits)


class PauliFrameSimulator:
    """Sample effective Pauli errors of a noisy Clifford circuit."""

    def __init__(self, circuit: Circuit, noise: NoiseModel, seed: int | None = None):
        self.circuit = circuit
        self.noise = noise
        self.rng = np.random.default_rng(seed)
        self._validate()

    def _validate(self) -> None:
        for inst in self.circuit.instructions:
            if inst.name in ("barrier", "measure", "reset"):
                continue
            if inst.condition is not None and inst.name not in _PAULI_FEEDBACK:
                raise ValueError(
                    f"conditioned gate {inst.name!r} is not a Pauli; frame sim unsupported"
                )
            if inst.name not in _CLIFFORD_GATES:
                raise ValueError(f"non-Clifford gate {inst.name!r}; frame sim unsupported")

    # ------------------------------------------------------------------
    def sample(self) -> FrameSample:
        """Sample one shot's deviation frame."""
        n = self.circuit.num_qubits
        fx = np.zeros(n, dtype=bool)
        fz = np.zeros(n, dtype=bool)
        flips = [0] * self.circuit.num_clbits

        for inst in self.circuit.instructions:
            name = inst.name
            if name == "barrier":
                continue
            if name == "measure":
                qubit, clbit = inst.qubits[0], inst.clbits[0]
                flip = int(fx[qubit])
                if self.noise.sample_measurement_flip(self.rng, qpu=inst.qpu):
                    flip ^= 1
                flips[clbit] = flip
                # The Z component on a measured qubit is unobservable and the
                # post-measurement state is an eigenstate, so clear it.
                fz[qubit] = False
                continue
            if name == "reset":
                fx[inst.qubits[0]] = False
                fz[inst.qubits[0]] = False
                continue
            if inst.condition is not None:
                # Noisy and ideal runs disagree on whether the correction
                # fires exactly when the parity of record deviations is odd.
                parity = 0
                for c in inst.condition.clbits:
                    parity ^= flips[c]
                if parity:
                    q = inst.qubits[0]
                    if name in ("x", "y"):
                        fx[q] ^= True
                    if name in ("z", "y"):
                        fz[q] ^= True
                # A conditioned Pauli never transforms the frame, so the gate
                # itself needs no further propagation; still inject gate noise.
                self._inject_noise(inst, fx, fz)
                continue
            self._propagate(name, inst.qubits, fx, fz)
            self._inject_noise(inst, fx, fz)
        return FrameSample(Pauli(fx, fz, 0), flips)

    # ------------------------------------------------------------------
    def _propagate(
        self, name: str, qubits: tuple[int, ...], fx: np.ndarray, fz: np.ndarray
    ) -> None:
        if name in ("x", "y", "z", "id"):
            return  # Paulis commute with the frame up to phase.
        if name == "h":
            q = qubits[0]
            fx[q], fz[q] = fz[q], fx[q]
            return
        if name == "s" or name == "sdg":
            q = qubits[0]
            fz[q] ^= fx[q]
            return
        if name == "cx":
            c, t = qubits
            fx[t] ^= fx[c]
            fz[c] ^= fz[t]
            return
        if name == "cz":
            a, b = qubits
            fz[b] ^= fx[a]
            fz[a] ^= fx[b]
            return
        if name == "swap":
            a, b = qubits
            fx[a], fx[b] = fx[b], fx[a]
            fz[a], fz[b] = fz[b], fz[a]
            return
        raise AssertionError(f"unreachable gate {name!r}")

    def _inject_noise(self, inst, fx: np.ndarray, fz: np.ndarray) -> None:
        """Gate fault, then the hop-weighted link fault at Bell sites.

        Same fixed fault order as the statevector paths; Pauli faults XOR
        straight into the frame.
        """
        faults = self.noise.sample_gate_fault(inst.qubits, self.rng, qpu=inst.qpu)
        if inst.hops:
            faults = faults + self.noise.sample_link_fault(
                inst.qubits, inst.hops, self.rng
            )
        for qubit, pauli in faults:
            if pauli in ("X", "Y"):
                fx[qubit] ^= True
            if pauli in ("Z", "Y"):
                fz[qubit] ^= True

    # ------------------------------------------------------------------
    def sample_error_distribution_reference(
        self, data_qubits: Sequence[int], shots: int
    ) -> Counter:
        """Per-shot tally loop: the cross-check of :func:`tally_error_counts`."""
        counts: Counter = Counter()
        for _ in range(shots):
            sample = self.sample()
            counts[sample.error_on(data_qubits).bare_label()] += 1
        return counts



# ----------------------------------------------------------------------
# Per-process program caches (mirror sim.compile's compiled-program cache)
# ----------------------------------------------------------------------
class _ProgramCache:
    """A bounded, thread-safe LRU of compiled programs with counters."""

    def __init__(self, limit: int):
        self._limit = limit
        self._lock = Lock()
        self._entries: OrderedDict = OrderedDict()
        self._stats = {"compiles": 0, "hits": 0, "compile_time": 0.0}

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
            self._entries[key] = program
            while len(self._entries) > self._limit:
                self._entries.popitem(last=False)
        return program

    def stats(self) -> dict:
        with self._lock:
            return dict(self._stats, cached_programs=len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stats.update({"compiles": 0, "hits": 0, "compile_time": 0.0})


_frame_cache = _ProgramCache(64)
_profile_cache = _ProgramCache(64)


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
    their rates, so one entry serves one noise configuration.
    """
    key = (circuit.content_digest(), noise, tuple(qubits), records)
    return _frame_cache.get(
        key, lambda: compile_frame_program(circuit, noise, qubits, records=records)
    )


def frame_cache_stats() -> dict:
    """Snapshot of the process-wide frame-program compile counters."""
    return _frame_cache.stats()


def clear_frame_caches() -> None:
    """Drop all cached frame programs and fault profiles and reset
    counters (tests only)."""
    _frame_cache.clear()
    _profile_cache.clear()


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
    track, so they are no-ops here.
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


def sample_error_counts(
    program: FrameProgram, shots: int, rng: np.random.Generator
) -> Counter:
    """Tally the bare Pauli labels of ``shots`` samples of ``program``:
    the one-segment case of :func:`tally_error_counts`."""
    hits, rows = program.fire([(rng, shots)])
    return tally_error_counts(program, hits, rows, [shots])


#: ASCII codes of the bare Pauli letters by ``x + 2z``: I X Z Y.
_LETTERS = np.array([73, 88, 90, 89], dtype=np.uint8)


def tally_error_counts(
    program: FrameProgram, hits: np.ndarray, rows: np.ndarray, sizes: Sequence[int]
) -> Counter:
    """Count the bare Pauli labels of consecutive shot segments of
    ``sizes`` shots, whose fired faults are ``(hits, rows)`` as
    :meth:`FrameProgram.fire` returns them; the program's outputs are the
    X then the Z frame of the data qubits.

    Only shots that fired are accumulated: one ``bitwise_xor.at`` over
    their distinct indices, then a ``lexsort`` of the packed rows finds
    the distinct frames, and only those are unpacked into labels (qubit 0
    leftmost, ``(x, z)`` = (0,0)->I, (1,0)->X, (0,1)->Z, (1,1)->Y as
    :attr:`Pauli._SINGLE` has it).  Shots that never fired join the
    identity count without being built, as do shots whose faults cancel.
    Labels enter the Counter as one tally per segment would insert them:
    by the first segment that holds them, then by label.
    """
    k = program.num_outputs // 2
    total = int(sum(sizes))
    if not hits.size or not k:
        return Counter({"I" * k: total})
    shots, inverse = np.unique(hits, return_inverse=True)
    acc = np.zeros((shots.size, program.effects.shape[1]), dtype=np.uint64)
    np.bitwise_xor.at(acc, inverse, program.effects[rows])
    order = np.lexsort(acc.T)
    acc, shots = acc[order], shots[order]
    starts = np.flatnonzero(np.r_[True, (acc[1:] != acc[:-1]).any(axis=1)])
    distinct = acc[starts]
    counts = np.diff(np.r_[starts, acc.shape[0]])
    bounds = np.cumsum(sizes)
    first = np.searchsorted(bounds, np.minimum.reduceat(shots, starts), "right")
    bits = np.unpackbits(distinct.view(np.uint8), axis=1, count=2 * k)
    labels = _LETTERS[bits[:, :k] + 2 * bits[:, k:]]
    labels = np.ascontiguousarray(labels).view(np.dtype((np.bytes_, k))).ravel()
    untouched = total - shots.size
    if untouched:
        touched = np.bincount(np.searchsorted(bounds, shots, "right"), minlength=len(sizes))
        idle = int(np.flatnonzero(touched < np.asarray(sizes))[0])
        # The sort puts an all-zero (cancelled) frame first.
        if not distinct[0].any():
            counts[0] += untouched
            first[0] = min(first[0], idle)
        else:
            labels = np.r_[labels, np.array([b"I" * k])]
            counts = np.r_[counts, untouched]
            first = np.r_[first, idle]
    order = np.lexsort((labels, first))
    return Counter(
        {
            label.decode("ascii"): count
            for label, count in zip(labels[order].tolist(), counts[order].tolist())
        }
    )
