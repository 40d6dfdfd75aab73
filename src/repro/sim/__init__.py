"""Simulators: statevector (per-shot reference + vectorized batch kernel),
density matrix, Pauli frame (per-shot oracle + compiled frame programs) —
plus the circuit compiler that lowers the IR into frozen, executable
programs."""

from .batched import BatchRunResult, run_batched
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
from .pauliframe import FrameSample, PauliFrameSimulator, run_batched_frames
from .statevector import StatevectorSimulator, TrajectoryResult, simulate_statevector

__all__ = [
    "BatchRunResult",
    "run_batched",
    "run_batched_frames",
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
]
