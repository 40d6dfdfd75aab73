"""Circuit compilation: lower the IR into frozen, executable programs.

The per-shot interpreters re-derive gate matrices, re-scan for Clifford-ness,
and re-walk the instruction list for every trajectory.  This module does all
of that exactly once per circuit:

* every gate matrix is resolved up front;
* runs of unconditional gates are **fused** into segment unitaries (bounded
  support, so the fused matrices stay tiny) when no gate noise is active;
* the program records where its **stochastic sites** are — measurements,
  resets, conditioned gates, and (with gate noise) fault-injection points —
  which delimit the deterministic prefix the batched kernel can evolve once
  and share across a whole batch of shots;
* **capability flags** (Clifford-ness, frame compatibility, measurement
  census) are computed once so the backend router never re-scans the IR.

Programs are cached per process, keyed by the circuit's content digest, so
repeated jobs over the same circuit (the normal engine workload) compile
exactly once per worker.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from threading import Lock

import numpy as np

from ..circuits.circuit import Circuit, Condition
from ..circuits.gates import GATES, cached_gate_matrix, gate_matrix
from ..obs.runtime import get_observability
from ..utils.linalg import embed_operator

__all__ = [
    "CircuitCapabilities",
    "CompiledOp",
    "CompiledProgram",
    "analyze_circuit",
    "compile_circuit",
    "get_capabilities",
    "get_compiled",
    "prime_compiled",
    "compile_cache_stats",
    "clear_compile_cache",
]

#: Largest qubit support of a fused segment unitary (matrices stay <= 8x8).
FUSION_MAX_QUBITS = 3

#: Gate names allowed under a classical condition by the frame simulator.
_PAULI_FEEDBACK = ("x", "y", "z")


@dataclass(frozen=True)
class CircuitCapabilities:
    """What a circuit needs from a simulator, computed in one scan."""

    num_qubits: int
    num_clbits: int
    is_clifford: bool
    is_frame_compatible: bool
    num_measurements: int
    has_reset: bool
    has_conditional: bool
    num_link_events: int = 0
    """Bell-generation ops tagged with a hop distance (link-noise sites)."""

    has_conditioned_collapse: bool = False
    """A measure or reset sits under a classical condition — the collapse
    structure is then shot-dependent, which rules out frame-based sampling
    even when the gate set is otherwise Clifford."""

    @property
    def is_deterministic(self) -> bool:
        """No measurement, reset, or feedback: one trajectory fits all shots."""
        return (
            self.num_measurements == 0
            and not self.has_reset
            and not self.has_conditional
        )


@dataclass(frozen=True)
class CompiledOp:
    """One executable step: a (possibly fused) unitary, measure, or reset.

    ``kind`` is ``"unitary"``, ``"measure"``, or ``"reset"``.  A unitary op
    with ``sample_fault=True`` is a stochastic Pauli-fault site: the kernel
    draws a depolarizing fault over ``qubits`` after applying the matrix
    (compiled only when gate noise is active, which also disables fusion so
    every fault site matches one source gate).

    Site metadata is resolved at compile time: ``qpu`` names the processor
    executing the op (heterogeneous noise overrides resolve through it) and
    ``link_hops > 0`` marks a Bell-generation link-fault site — the kernel
    draws one extra hop-weighted depolarizing fault over ``qubits`` there
    (compiled only when link noise is active, so ideal-link programs carry
    no link sites and execute bit-identically to the pre-network pipeline).

    ``fold=True`` marks a **fold point**: after this op the dense kernel
    merges byte-identical history rows.  Only a collapse, a reset or a
    conditioned unitary can send two histories onto the same state, and
    only a later op other than a terminal measurement can reuse the merge.
    """

    kind: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None
    clbit: int = -1
    condition: Condition | None = None
    sample_fault: bool = False
    qpu: str | None = None
    link_hops: int = 0
    fold: bool = False

    @property
    def is_stochastic(self) -> bool:
        """Whether executing this op can diverge across shots."""
        return (
            self.kind != "unitary"
            or self.condition is not None
            or self.sample_fault
            or self.link_hops > 0
        )


@dataclass(frozen=True)
class CompiledProgram:
    """A frozen, directly executable lowering of one circuit.

    ``prefix_len`` counts the leading deterministic ops: with a shared input
    state the kernel evolves them on a single statevector and broadcasts to
    the batch only at the first stochastic site.
    """

    num_qubits: int
    num_clbits: int
    ops: tuple[CompiledOp, ...]
    capabilities: CircuitCapabilities
    gate_noise: bool
    prefix_len: int
    source_ops: int
    link_noise: bool = False

    @property
    def dim(self) -> int:
        """Hilbert-space dimension."""
        return 2**self.num_qubits


def analyze_circuit(circuit: Circuit) -> CircuitCapabilities:
    """One-pass capability scan (no matrix work)."""
    is_clifford = True
    is_frame_compatible = True
    num_measurements = 0
    has_reset = False
    has_conditional = False
    has_conditioned_collapse = False
    num_link_events = 0
    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        if inst.name == "measure":
            num_measurements += 1
            if inst.condition is not None:
                has_conditional = True
                has_conditioned_collapse = True
            continue
        if inst.name == "reset":
            has_reset = True
            if inst.condition is not None:
                has_conditional = True
                has_conditioned_collapse = True
            continue
        if inst.hops:
            num_link_events += 1
        if inst.condition is not None:
            has_conditional = True
            if inst.name not in _PAULI_FEEDBACK:
                is_frame_compatible = False
        if not GATES[inst.name].clifford:
            is_clifford = False
            is_frame_compatible = False
    return CircuitCapabilities(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        is_clifford=is_clifford,
        is_frame_compatible=is_frame_compatible,
        num_measurements=num_measurements,
        has_reset=has_reset,
        has_conditional=has_conditional,
        num_link_events=num_link_events,
        has_conditioned_collapse=has_conditioned_collapse,
    )


def _resolve_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    if params:
        return gate_matrix(name, params)
    return cached_gate_matrix(name)


def _fuse_group(gates: list[tuple[np.ndarray, tuple[int, ...]]]) -> CompiledOp:
    """Collapse a run of unconditional gates into one segment unitary."""
    if len(gates) == 1:
        matrix, qubits = gates[0]
        return CompiledOp(kind="unitary", qubits=qubits, matrix=matrix)
    support = sorted({q for _, qs in gates for q in qs})
    width = len(support)
    position = {q: i for i, q in enumerate(support)}
    fused = np.eye(2**width, dtype=complex)
    for matrix, qubits in gates:
        fused = embed_operator(matrix, [position[q] for q in qubits], width) @ fused
    return CompiledOp(kind="unitary", qubits=tuple(support), matrix=fused)


def compile_circuit(
    circuit: Circuit,
    gate_noise: bool = False,
    fuse: bool = True,
    link_noise: bool = False,
) -> CompiledProgram:
    """Lower ``circuit`` into a :class:`CompiledProgram`.

    ``gate_noise=True`` compiles for execution under a stochastic Pauli
    noise model: every gate becomes its own fault site (no fusion, so the
    kernel can draw one depolarizing fault per source gate, exactly like the
    reference interpreter).

    ``link_noise=True`` compiles Bell-generation sites (instructions tagged
    with a hop distance) as standalone link-fault ops carrying their hop
    count, so the kernel can draw one hop-weighted depolarizing fault per
    distributed pair.  Link sites break fusion locally but — unlike gate
    noise — leave the rest of the circuit fusable.
    """
    ops: list[CompiledOp] = []
    pending: list[tuple[np.ndarray, tuple[int, ...]]] = []
    pending_support: set[int] = set()
    source_ops = 0

    def flush() -> None:
        if pending:
            ops.append(_fuse_group(pending))
            pending.clear()
            pending_support.clear()

    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        source_ops += 1
        if inst.name == "measure":
            flush()
            ops.append(
                CompiledOp(
                    kind="measure",
                    qubits=inst.qubits,
                    clbit=inst.clbits[0],
                    condition=inst.condition,
                    qpu=inst.qpu,
                )
            )
            continue
        if inst.name == "reset":
            flush()
            ops.append(
                CompiledOp(
                    kind="reset", qubits=inst.qubits, condition=inst.condition
                )
            )
            continue
        matrix = _resolve_matrix(inst.name, inst.params)
        link_hops = inst.hops if (link_noise and inst.hops) else 0
        if inst.condition is not None or gate_noise or link_hops:
            flush()
            ops.append(
                CompiledOp(
                    kind="unitary",
                    qubits=inst.qubits,
                    matrix=matrix,
                    condition=inst.condition,
                    sample_fault=gate_noise,
                    qpu=inst.qpu,
                    link_hops=link_hops,
                )
            )
            continue
        if not fuse:
            ops.append(
                CompiledOp(
                    kind="unitary", qubits=inst.qubits, matrix=matrix, qpu=inst.qpu
                )
            )
            continue
        union = pending_support | set(inst.qubits)
        if pending and len(union) > FUSION_MAX_QUBITS:
            flush()
            union = set(inst.qubits)
        pending.append((matrix, inst.qubits))
        pending_support.update(union)
    flush()
    _mark_fold_points(ops)

    prefix_len = 0
    for op in ops:
        if op.is_stochastic:
            break
        prefix_len += 1

    return CompiledProgram(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        ops=tuple(ops),
        capabilities=analyze_circuit(circuit),
        gate_noise=gate_noise,
        prefix_len=prefix_len,
        source_ops=source_ops,
        link_noise=link_noise,
    )


def _mark_fold_points(ops: list[CompiledOp]) -> None:
    """Set ``fold`` on every collapse, reset or conditioned unitary that
    some op other than a plain measure follows."""
    last = max(
        (i for i, op in enumerate(ops) if op.kind != "measure" or op.condition is not None),
        default=-1,
    )
    for i in range(last):
        op = ops[i]
        if op.kind != "unitary" or op.condition is not None:
            ops[i] = replace(op, fold=True)


# ----------------------------------------------------------------------
# Per-process caches
# ----------------------------------------------------------------------
_CACHE_MAX = 256

_program_cache: OrderedDict[tuple[bytes, bool, bool], CompiledProgram] = OrderedDict()
_caps_cache: OrderedDict[bytes, CircuitCapabilities] = OrderedDict()
_cache_lock = Lock()
_stats = {"compiles": 0, "hits": 0, "primed": 0, "compile_time": 0.0}


def get_compiled(
    circuit: Circuit, gate_noise: bool = False, link_noise: bool = False
) -> CompiledProgram:
    """Compile-once accessor, keyed by the circuit's content digest.

    Thread-safe; the cache is per process, so every pool worker compiles a
    given circuit at most once no matter how many batches it executes.  The
    noise-compilation flags are part of the key: the same circuit compiled
    for ideal links and for link-aware execution are distinct programs.

    Hit/miss counts also land on the process-wide observability bundle
    (:func:`repro.obs.get_observability`) as ``compile.cache`` counters —
    a no-op unless one has been installed via ``set_observability``.
    """
    key = (circuit.content_digest(), gate_noise, link_noise)
    with _cache_lock:
        program = _program_cache.get(key)
        if program is not None:
            _program_cache.move_to_end(key)
            _stats["hits"] += 1
    if program is not None:
        get_observability().metrics.counter("compile.cache", outcome="hit").inc()
        return program
    start = time.perf_counter()
    program = compile_circuit(circuit, gate_noise=gate_noise, link_noise=link_noise)
    elapsed = time.perf_counter() - start
    with _cache_lock:
        _stats["compiles"] += 1
        _stats["compile_time"] += elapsed
        _program_cache[key] = program
        _caps_cache[key[0]] = program.capabilities
        while len(_program_cache) > _CACHE_MAX:
            _program_cache.popitem(last=False)
        while len(_caps_cache) > _CACHE_MAX:
            _caps_cache.popitem(last=False)
    metrics = get_observability().metrics
    metrics.counter("compile.cache", outcome="miss").inc()
    metrics.histogram("compile.time").observe(elapsed)
    return program


def prime_compiled(circuit: Circuit, program: CompiledProgram) -> bool:
    """Seed the cache with a program compiled by another process.

    The warm-worker path ships the parent's already-compiled program with
    the first batch group so pool workers skip the recompile entirely;
    the cache key is re-derived here from the circuit digest plus the
    program's own noise-compilation flags, so a primed entry can never be
    served for the wrong compilation mode.  Returns ``True`` when the
    program was inserted, ``False`` when an entry already existed (the
    resident entry wins — it is byte-equivalent by construction).
    """
    key = (circuit.content_digest(), program.gate_noise, program.link_noise)
    with _cache_lock:
        if key in _program_cache:
            _program_cache.move_to_end(key)
            return False
        _stats["primed"] += 1
        _program_cache[key] = program
        _caps_cache[key[0]] = program.capabilities
        while len(_program_cache) > _CACHE_MAX:
            _program_cache.popitem(last=False)
        while len(_caps_cache) > _CACHE_MAX:
            _caps_cache.popitem(last=False)
    get_observability().metrics.counter("compile.cache", outcome="primed").inc()
    return True


def get_capabilities(circuit: Circuit) -> CircuitCapabilities:
    """Cached capability flags (scan only; no matrices are resolved)."""
    key = circuit.content_digest()
    with _cache_lock:
        caps = _caps_cache.get(key)
        if caps is not None:
            _caps_cache.move_to_end(key)
            return caps
    caps = analyze_circuit(circuit)
    with _cache_lock:
        _caps_cache[key] = caps
        while len(_caps_cache) > _CACHE_MAX:
            _caps_cache.popitem(last=False)
    return caps


def compile_cache_stats() -> dict:
    """Snapshot of the process-wide compile cache counters."""
    with _cache_lock:
        return dict(_stats, cached_programs=len(_program_cache))


def clear_compile_cache() -> None:
    """Drop all cached programs and reset counters (tests only)."""
    with _cache_lock:
        _program_cache.clear()
        _caps_cache.clear()
        _stats.update({"compiles": 0, "hits": 0, "primed": 0, "compile_time": 0.0})
