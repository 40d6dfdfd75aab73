"""Simulators: statevector (per-shot reference + vectorized batch kernel),
density matrix, stabilizer tableau, batched stabilizer frames, Pauli frame —
plus the circuit compiler that lowers the IR into frozen, executable
programs."""

from .batched import BatchRunResult, run_batched
from .batched_stabilizer import (
    StabilizerProgram,
    StabilizerRunResult,
    compile_stabilizer,
    get_stabilizer,
    run_batched_frames,
    run_batched_stabilizer,
)
from .compile import (
    CircuitCapabilities,
    CompiledProgram,
    analyze_circuit,
    compile_circuit,
    get_capabilities,
    get_compiled,
)
from .density import DensityResult, DensitySimulator
from .noisemodel import NoiseModel, QpuNoiseOverride, depolarizing_kraus
from .pauli import Pauli
from .pauliframe import FrameSample, PauliFrameSimulator
from .statevector import StatevectorSimulator, TrajectoryResult, simulate_statevector
from .tableau import TableauSimulator

__all__ = [
    "BatchRunResult",
    "run_batched",
    "StabilizerProgram",
    "StabilizerRunResult",
    "compile_stabilizer",
    "get_stabilizer",
    "run_batched_frames",
    "run_batched_stabilizer",
    "CircuitCapabilities",
    "CompiledProgram",
    "analyze_circuit",
    "compile_circuit",
    "get_capabilities",
    "get_compiled",
    "DensityResult",
    "DensitySimulator",
    "NoiseModel",
    "QpuNoiseOverride",
    "depolarizing_kraus",
    "Pauli",
    "FrameSample",
    "PauliFrameSimulator",
    "StatevectorSimulator",
    "TrajectoryResult",
    "simulate_statevector",
    "TableauSimulator",
]
