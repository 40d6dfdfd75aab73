"""Vectorized batched-trajectory statevector kernel with shot branching.

Circuits full of mid-circuit measurements and resets send thousands of
shots down a few hundred measurement histories.  The kernel therefore
keeps a **row set** instead of one statevector per shot:

* ``state`` is ``(rows, 2**n)``, one row per distinct history;
* ``row_of`` maps every shot to its row;
* classical bits stay per shot, ``(shots, num_clbits)``.

Every shot starts on the row of its input state, so a batch with a shared
input evolves its deterministic prefix on one row.  Unitaries act once per
row.  At each stochastic site the shots draw exactly what a per-shot kernel
would draw, and then they are re-keyed by ``(row, outcome)`` or ``(row,
fault word)``: only the distinct keys get rows of their own, copied from
their parent row.

* **collapse** — ``random(m) >= p0`` per active shot, with ``p0`` read
  from the shot's row; each kept row has its dead branch zeroed and is
  renormalised;
* **readout flips** — ``random(m) < flip_rate`` per measured shot, which
  touches only the classical bits;
* **faults** — ``random(m) < rate`` per shot, then ``integers(1, 4**k)``
  for the shots that fired, gate fault before link fault; each distinct
  Pauli word is applied to its rows;
* **conditional feedback** — parity conditions are evaluated per shot on
  the classical bits; satisfying shots are split off their rows and the
  gate is applied to those rows;
* **fold** — corrections and resets send different histories back onto
  byte-identical amplitudes.  After each op the compiler marks as a fold
  point (a collapse, reset or conditioned unitary that some op other than
  a terminal measurement follows) the call's rows are merged by their
  bytes and rows no shot holds are dropped, so reconverged histories
  share one row and rows never outnumber the distinct states held.
  Byte-identical rows give identical results under every later op, so
  the fold moves no bit.

A kernel *call* may hold several **segments**, each with its own
generator: the engine packs the batches of one group into as few calls as
memory allows, so histories are shared across batches too.  Each segment
makes its draws in its own order and of its own sizes, and each row
carries the same arithmetic a per-shot row of that history would, so the
sampled bits do not depend on how segments are packed.  Two segments that
share a generator never sit in one call: they run in successive calls, in
order.

Memory is bounded by :data:`MAX_CHUNK_AMPLITUDES`.  A segment larger than
``MAX_CHUNK_AMPLITUDES // 2**n`` shots runs in chunks of that size (chunk
boundaries depend only on the segment's shots and the width), and a call
packs segments while ``shots * 2**n`` stays within the bound.  Rows never
outnumber a call's shots, and the row buffer grows by doubling.

Sampling semantics match the per-shot reference interpreter
(:class:`repro.sim.statevector.StatevectorSimulator`) distribution-for-
distribution; its RNG *consumption order* differs, so equal seeds give
different (equally valid) trajectories.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..utils.linalg import kron_all
from .compile import CompiledProgram
from .noisemodel import PAULI_MATRICES, NoiseModel

__all__ = ["BatchRunResult", "Segment", "run_batched", "run_segments", "MAX_CHUNK_AMPLITUDES"]

#: Upper bound on simultaneously held amplitudes per chunk (~32 MB complex128).
MAX_CHUNK_AMPLITUDES = 1 << 21

_PAULI_NAMES = ("I", "X", "Y", "Z")


@dataclass
class BatchRunResult:
    """Outcome of one batched kernel invocation."""

    clbits: np.ndarray
    """(shots, num_clbits) uint8 matrix of final classical registers."""

    states: np.ndarray | None = None
    """(shots, dim) final statevectors, only when requested."""

    row_ops: int = 0
    """Rows held, summed over the ops of every kernel call."""

    shot_ops: int = 0
    """Shots times ops: what a kernel with one row per shot would hold."""

    def clbit_strings(self) -> list[str]:
        """Classical registers as bit strings, clbit 0 first."""
        return ["".join(str(int(b)) for b in row) for row in self.clbits]


@dataclass(frozen=True)
class Segment:
    """Shots driven by one generator from one input.

    ``initial_state`` is ``None`` (|0...0>), a shared ``(dim,)`` vector or a
    per-shot ``(shots, dim)`` array.
    """

    rng: np.random.Generator
    shots: int
    initial_state: np.ndarray | None = None


def run_batched(
    program: CompiledProgram,
    shots: int,
    rng: np.random.Generator,
    *,
    noise: NoiseModel | None = None,
    initial_state: np.ndarray | None = None,
    return_states: bool = False,
) -> BatchRunResult:
    """Run ``shots`` trajectories of a compiled program as one batch.

    ``initial_state`` may be ``None`` (|0...0>), a shared ``(dim,)`` vector,
    or a per-shot ``(shots, dim)`` array.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    return run_segments(
        program,
        [Segment(rng, shots, initial_state)],
        noise=noise,
        return_states=return_states,
    )


def run_segments(
    program: CompiledProgram,
    segments: Sequence[Segment],
    *,
    noise: NoiseModel | None = None,
    return_states: bool = False,
) -> BatchRunResult:
    """Run several segments, packed into as few kernel calls as memory allows.

    Rows of the result follow the segments' order.
    """
    if noise is not None and noise.is_noiseless:
        noise = None
    if noise is not None and noise.has_gate_noise and not program.gate_noise:
        raise ValueError(
            "program was compiled without fault sites; recompile with gate_noise=True"
        )
    if (
        noise is not None
        and noise.has_link_noise
        and program.capabilities.num_link_events
        and not program.link_noise
    ):
        raise ValueError(
            "program has Bell-generation sites but was compiled without link-fault "
            "sites; recompile with link_noise=True"
        )
    dim = program.dim
    offsets = np.cumsum([0] + [seg.shots for seg in segments])
    total = int(offsets[-1])
    clbits = np.zeros((total, program.num_clbits), dtype=np.uint8)
    states = np.empty((total, dim), dtype=complex) if return_states else None
    result = BatchRunResult(clbits=clbits, states=states)
    for call in _plan_calls(segments, offsets, dim):
        _run_call(program, call, noise, result)
    return result


def _plan_calls(
    segments: Sequence[Segment], offsets: np.ndarray, dim: int
) -> list[list[tuple]]:
    """Cut segments into chunks and pack the chunks into calls.

    A chunk is ``(rng, initial rows, first result row, shots)``.  The
    chunks of one generator run in successive rounds, in order; each round
    packs one chunk per generator while the call's amplitudes fit.
    """
    by_rng: dict[int, list[tuple]] = {}
    for seg, offset in zip(segments, offsets):
        _check_input(seg.initial_state, seg.shots, dim)
        chunk = seg.shots
        if seg.shots > 1 and seg.shots * dim > MAX_CHUNK_AMPLITUDES:
            chunk = max(1, MAX_CHUNK_AMPLITUDES // dim)
        for lo in range(0, seg.shots, chunk):
            take = min(chunk, seg.shots - lo)
            init = seg.initial_state
            if init is not None and np.ndim(init) == 2:
                init = init[lo : lo + take]
            by_rng.setdefault(id(seg.rng), []).append(
                (seg.rng, init, int(offset) + lo, take)
            )
    calls: list[list[tuple]] = []
    queues = list(by_rng.values())
    for round_index in range(max(len(q) for q in queues)):
        current: list[tuple] = []
        held = 0
        for queue in queues:
            if round_index >= len(queue):
                continue
            piece = queue[round_index]
            if current and (held + piece[3]) * dim > MAX_CHUNK_AMPLITUDES:
                calls.append(current)
                current, held = [], 0
            current.append(piece)
            held += piece[3]
        calls.append(current)
    return calls


def _check_input(initial_state: np.ndarray | None, shots: int, dim: int) -> None:
    """Reject an input whose shape fits neither a shared nor a per-shot state."""
    if initial_state is None:
        return
    shape = np.shape(initial_state)
    if len(shape) == 1:
        if shape != (dim,):
            raise ValueError("initial state dimension mismatch")
    elif shape != (shots, dim):
        raise ValueError("per-shot initial states must have shape (shots, dim)")


# ----------------------------------------------------------------------
# The row set
# ----------------------------------------------------------------------
class _Rows:
    """Distinct-history statevectors plus the shot → row map of one call."""

    def __init__(self, pieces: list[tuple], dim: int):
        initial: list[np.ndarray] = []
        index_of: dict[bytes, int] = {}
        row_of = []
        for _, init, _, take in pieces:
            if init is not None and np.ndim(init) == 2:
                row_of.append(np.arange(len(initial), len(initial) + take))
                initial.extend(np.asarray(init, dtype=complex))
                continue
            vector = np.zeros(dim, dtype=complex)
            if init is None:
                vector[0] = 1.0
            else:
                vector[:] = init
            key = vector.tobytes()
            if key not in index_of:
                index_of[key] = len(initial)
                initial.append(vector)
            row_of.append(np.full(take, index_of[key]))
        self.count = len(initial)
        self.limit = sum(piece[3] for piece in pieces)
        self.buf = np.empty((self.count, dim), dtype=complex)
        self.buf[:] = initial
        self.row_of = np.concatenate(row_of).astype(np.intp)

    @property
    def live(self) -> np.ndarray:
        return self.buf[: self.count]

    def _grow(self, extra: int) -> int:
        """Reserve ``extra`` rows at the end; returns the first new index."""
        need = self.count + extra
        if need > len(self.buf):
            size = min(self.limit, max(need, 2 * len(self.buf)))
            buf = np.empty((size, self.buf.shape[1]), dtype=complex)
            buf[: self.count] = self.live
            self.buf = buf
        start = self.count
        self.count = need
        return start

    def branch(
        self, shots: np.ndarray | None, labels: np.ndarray, bound: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Give each distinct ``(row, label)`` of ``shots`` a row of its own.

        ``shots=None`` means every shot; ``labels`` lie in ``[0, bound)``.
        A key keeps its parent row when it is the parent's first key and
        no other shot holds that row; the other keys get copies.  Returns
        the row and the label of every key.
        """
        parents = self.row_of if shots is None else self.row_of[shots]
        keys = parents * bound + labels
        span = self.count * bound
        if 8 * keys.size < span:
            present, inverse = np.unique(keys, return_inverse=True)
        else:
            present = np.flatnonzero(np.bincount(keys, minlength=span))
            inverse = None
        rows, kinds = np.divmod(present, bound)
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        if shots is not None:
            held = np.bincount(self.row_of, minlength=self.count)
            moving = np.bincount(parents, minlength=self.count)
            first &= held[rows] == moving[rows]
        fresh = np.flatnonzero(~first)
        if not fresh.size:
            return rows, kinds
        dest = rows.copy()
        start = self._grow(fresh.size)
        dest[fresh] = np.arange(start, start + fresh.size)
        self.buf[start : self.count] = self.buf[rows[fresh]]
        if inverse is None:
            lookup = np.empty(span, dtype=np.intp)
            lookup[present] = np.arange(present.size)
            inverse = lookup[keys]
        if shots is None:
            self.row_of = dest[inverse]
        else:
            self.row_of[shots] = dest[inverse]
        return dest, kinds

    def fold(self) -> None:
        """Merge byte-identical rows that shots hold; drop rows none holds.

        Two byte-identical rows give identical results under every later
        op, so their shots can share one row without moving a bit.  Held
        rows are grouped by their bytes in a dict, in buffer order, so the
        survivors (each group's first row) keep their order in the buffer;
        ``+0.0`` and ``-0.0`` differ in their bytes and stay apart.
        """
        held = np.flatnonzero(np.bincount(self.row_of, minlength=self.count))
        index_of: dict[bytes, int] = {}
        keep: list[int] = []
        slots = []
        for row in held.tolist():
            slot = index_of.setdefault(self.buf[row].tobytes(), len(keep))
            if slot == len(keep):
                keep.append(row)
            slots.append(slot)
        if len(keep) == self.count:
            return
        new_row = np.empty(self.count, dtype=np.intp)
        new_row[held] = slots
        self.buf[: len(keep)] = self.buf[keep]
        self.count = len(keep)
        self.row_of = new_row[self.row_of]

    def apply(self, matrix: np.ndarray, qubits: Sequence[int], n: int, rows=None) -> None:
        """Apply a unitary to every live row, or to the selected rows."""
        if rows is None or rows.size == self.count:
            _apply_matrix(self.live, matrix, qubits, n, out=self.live)
        else:
            self.buf[rows] = _apply_matrix(self.buf[rows], matrix, qubits, n)


# ----------------------------------------------------------------------
# One kernel call
# ----------------------------------------------------------------------
def _run_call(
    program: CompiledProgram,
    pieces: list[tuple],
    noise: NoiseModel | None,
    result: BatchRunResult,
) -> None:
    """Evolve the pieces of one call and write their rows into ``result``."""
    n = program.num_qubits
    ops = program.ops
    shots = sum(piece[3] for piece in pieces)
    gens = [piece[0] for piece in pieces]
    starts = np.cumsum([0] + [piece[3] for piece in pieces]).tolist()
    clbits = np.zeros((shots, program.num_clbits), dtype=np.uint8)
    rows = _Rows(pieces, program.dim)

    for op in ops:
        result.row_ops += rows.count
        active = None
        if op.condition is not None:
            mask = _parity(clbits, op.condition.clbits) == op.condition.value
            active = np.flatnonzero(mask)
            if active.size == 0:
                continue
            if active.size == shots:
                active = None
        edges = starts if active is None else np.searchsorted(active, starts).tolist()
        if op.kind in ("measure", "reset"):
            outcomes = _collapse_site(rows, op, n, gens, edges, active)
            if op.kind == "measure":
                flip_rate = noise.meas_flip_rate(op.qpu) if noise is not None else 0.0
                if flip_rate > 0.0:
                    flips = _uniforms(gens, edges) < flip_rate
                    outcomes = outcomes ^ flips.astype(np.uint8)
                if active is None:
                    clbits[:, op.clbit] = outcomes
                else:
                    clbits[active, op.clbit] = outcomes
            if op.fold and rows.count > 1:
                rows.fold()
            continue
        # Unitary (possibly conditioned, possibly a gate- or link-fault site).
        if active is None:
            rows.apply(op.matrix, op.qubits, n)
        else:
            targets, _ = rows.branch(active, np.zeros(active.size, dtype=np.intp), 1)
            rows.apply(op.matrix, op.qubits, n, targets)
            if op.fold and rows.count > 1:
                rows.fold()
        if noise is not None:
            # The gate-fault draw precedes the link-fault draw at sites
            # carrying both (a Bell-generation CX under gate noise).
            if op.sample_fault:
                rate = noise.gate_error_rate(len(op.qubits), op.qpu)
                _inject_faults(rows, op.qubits, n, rate, gens, edges, active)
            if op.link_hops:
                rate = noise.link_error_rate(op.link_hops)
                _inject_faults(rows, op.qubits, n, rate, gens, edges, active)

    result.shot_ops += shots * len(ops)
    for (_, _, first, take), lo in zip(pieces, starts):
        result.clbits[first : first + take] = clbits[lo : lo + take]
        if result.states is not None:
            result.states[first : first + take] = rows.buf[rows.row_of[lo : lo + take]]


def _uniforms(gens: list, edges: list[int]) -> np.ndarray:
    """One ``random(m)`` per generator over its ``m`` active shots, in order."""
    parts = [rng.random(hi - lo) for rng, lo, hi in zip(gens, edges, edges[1:]) if hi > lo]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _collapse_site(
    rows: _Rows,
    op,
    num_qubits: int,
    gens: list,
    edges: list[int],
    active: np.ndarray | None,
) -> np.ndarray:
    """Sample a Z-basis collapse and split rows by outcome.

    Returns the uint8 outcome of every active shot.  A reset then flips
    the rows that collapsed onto |1>.
    """
    qubit = op.qubits[0]
    if active is None:
        p0 = _zero_probability(rows.live, qubit, num_qubits)[rows.row_of]
    else:
        parents = rows.row_of[active]
        held = np.unique(parents)
        p0 = _zero_probability(rows.buf[held], qubit, num_qubits)
        p0 = p0[np.searchsorted(held, parents)]
    outcomes = (_uniforms(gens, edges) >= p0).astype(np.uint8)
    targets, kept = rows.branch(active, outcomes, 2)
    if targets.size == rows.count:
        by_row = np.empty(rows.count, dtype=np.uint8)
        by_row[targets] = kept
        _collapse_rows(rows.live, by_row, qubit, num_qubits)
        flipped = np.flatnonzero(by_row)
    else:
        collapsed = rows.buf[targets]
        _collapse_rows(collapsed, kept, qubit, num_qubits)
        rows.buf[targets] = collapsed
        flipped = targets[kept == 1]
    if op.kind == "reset" and flipped.size:
        _flip_qubit(rows.live, flipped, qubit, num_qubits)
    return outcomes


def _zero_probability(state: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Probability of outcome 0 on ``qubit``, per row."""
    amp0 = _qubit_view(state, qubit, num_qubits)[:, :, 0].reshape(state.shape[0], -1)
    return np.einsum("ij,ij->i", amp0, amp0.conj()).real


def _collapse_rows(
    state: np.ndarray, outcomes: np.ndarray, qubit: int, num_qubits: int
) -> None:
    """Zero each row's dead branch and renormalise, in place.

    The norms are ``np.linalg.norm(state, axis=1)``'s own formula, without
    its wrapper.
    """
    view = _qubit_view(state, qubit, num_qubits)
    view[np.arange(state.shape[0]), :, 1 - outcomes] = 0.0
    norms = np.sqrt(np.add.reduce((state.conj() * state).real, axis=1))
    if np.any(norms < 1e-15):
        raise RuntimeError("collapse onto zero-probability branch")
    state /= norms[:, None]


def _inject_faults(
    rows: _Rows,
    qubits: Sequence[int],
    num_qubits: int,
    rate: float,
    gens: list,
    edges: list[int],
    active: np.ndarray | None,
) -> None:
    """Vectorized depolarizing fault injection at one stochastic site.

    Each generator draws the firing mask over its active shots and then
    one uniform non-identity Pauli word per firing shot — the batched
    equivalent of :meth:`NoiseModel.sample_gate_fault` /
    :meth:`NoiseModel.sample_link_fault`.  Faulted shots are split off by
    word and each distinct word is applied to its rows.  The site's
    ``rate`` is resolved by the caller (arity + QPU override for gate
    sites, hop-weighted link rate for Bell-generation sites).
    """
    if rate <= 0.0:
        return
    k = len(qubits)
    hits, words = [], []
    for rng, lo, hi in zip(gens, edges, edges[1:]):
        if hi == lo:
            continue
        fired = lo + np.flatnonzero(rng.random(hi - lo) < rate)
        if fired.size:
            hits.append(fired)
            words.append(rng.integers(1, 4**k, size=fired.size))
    if not hits:
        return
    hit = np.concatenate(hits)
    if active is not None:
        hit = active[hit]
    targets, kinds = rows.branch(hit, np.concatenate(words), 4**k)
    for word in np.unique(kinds).tolist():
        rows.apply(_fault_matrix(word, k), qubits, num_qubits, targets[kinds == word])


#: Pauli-word matrices by ``(word, k)``, built once per process.
_FAULT_MATRICES: dict[tuple[int, int], np.ndarray] = {}


def _fault_matrix(word: int, k: int) -> np.ndarray:
    """The read-only matrix of fault ``word`` on ``k`` qubits.

    The word's base-4 digits name the Paulis, first qubit most significant.
    """
    matrix = _FAULT_MATRICES.get((word, k))
    if matrix is None:
        # A copy: for k = 1, ``kron_all`` hands back the shared Pauli itself.
        matrix = np.array(
            kron_all(
                [PAULI_MATRICES[_PAULI_NAMES[(word >> (2 * (k - 1 - i))) & 3]] for i in range(k)]
            )
        )
        matrix.flags.writeable = False
        _FAULT_MATRICES[word, k] = matrix
    return matrix


# ----------------------------------------------------------------------
# Row kernels
# ----------------------------------------------------------------------
#: Transpose plans of :func:`_apply_matrix` by ``(qubits, width)``.  They
#: live in this process only: compiled programs, which are pickled to
#: pool workers with their jobs, never carry them.
_ROW_PLANS: dict[tuple[tuple[int, ...], int], tuple] = {}


def _row_plan(qubits: Sequence[int], num_qubits: int) -> tuple:
    """``(forward, inverse, axes, block)`` for a unitary on ``qubits``.

    ``forward`` moves the qubits' axes of the ``(m, 2, ..., 2)`` row tensor
    to positions 1..k, in the order given, and keeps the other axes in
    order; ``inverse`` puts them back; ``axes`` is ``(2,) * num_qubits``
    and ``block`` is ``2**k``.
    """
    key = (tuple(qubits), num_qubits)
    plan = _ROW_PLANS.get(key)
    if plan is None:
        moved = [1 + q for q in key[0]]
        forward = (0, *moved, *(a for a in range(1, num_qubits + 1) if a not in moved))
        inverse = tuple(np.argsort(forward).tolist())
        plan = _ROW_PLANS[key] = (forward, inverse, (2,) * num_qubits, 1 << len(moved))
    return plan


def _apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a k-qubit unitary to every row of a (m, 2**n) batch.

    The rows are transposed into one contiguous ``(m, 2**k, rest)`` block
    with the qubits' axes first, multiplied, and transposed back.  With
    ``out`` (which may be ``state`` itself) the result is written there
    instead of into a new array.
    """
    forward, inverse, axes, block = _row_plan(qubits, num_qubits)
    m = state.shape[0]
    tensor = state.reshape((m, *axes)).transpose(forward)
    product = np.matmul(matrix, tensor.reshape(m, block, -1))
    tensor = product.reshape((m, *axes)).transpose(inverse)
    if out is None:
        return np.ascontiguousarray(tensor).reshape(m, -1)
    out.reshape((m, *axes))[...] = tensor
    return out


def _qubit_view(state: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """(m, 2**qubit, 2, rest) view of the batch; axis 2 is ``qubit`` (writable)."""
    return state.reshape(state.shape[0], 1 << qubit, 2, 1 << (num_qubits - qubit - 1))


def _flip_qubit(
    state: np.ndarray, rows: np.ndarray, qubit: int, num_qubits: int
) -> None:
    """Apply X on ``qubit`` to the selected rows, in place."""
    view = _qubit_view(state, qubit, num_qubits)
    view[rows] = view[rows][:, :, ::-1]


def _parity(clbits: np.ndarray, cond_clbits: Sequence[int]) -> np.ndarray:
    """XOR of the selected classical-bit columns, per shot."""
    acc = np.zeros(clbits.shape[0], dtype=np.uint8)
    for c in cond_clbits:
        acc ^= clbits[:, c]
    return acc
