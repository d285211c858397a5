"""GPU back end.

When targeting NVIDIA GPUs, HPVM-HDC lowers HDC primitives directly to
cuBLAS calls, Thrust calls, or CUDA kernels instead of generic HPVM IR
(Section 4.3).  Offline we have no GPU, so this back end substitutes the
:class:`~repro.backends.kernelsets.LibraryKernelSet` — the ``library``
column of the primitive table, whole-hypermatrix "library routine"
kernels — and an analytical :class:`GPUDeviceModel` that
accounts for the host/device transfers of the program inputs and outputs
and the per-primitive kernel-launch overhead.  The substitution preserves
the properties the paper's evaluation rests on: stage primitives execute as
a handful of coarse batched routines over device-resident data, and the
approximation transforms shrink both the data transferred and the work per
routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import Backend, CompiledProgram, ExecutionReport
from repro.backends.executor import HostStageExecutor, OpInterpreter
from repro.backends.kernelsets import LibraryKernelSet
from repro.hdcpp.program import Program
from repro.hdcpp.types import HyperMatrixType, HyperVectorType
from repro.ir.dataflow import DataflowGraph, Target
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["GPUBackend"]


@dataclass(frozen=True)
class GPUDeviceModel:
    """Analytical model of the discrete GPU used for accounting.

    Defaults approximate the RTX 2080 Ti of the paper's evaluation setup:
    PCIe 3.0 x16 transfers and a fixed launch overhead per lowered kernel.
    Only the *modeled* quantities in the execution report come from this
    class; wall-clock time is measured on the host.
    """

    pcie_bytes_per_second: float = 12e9
    kernel_launch_seconds: float = 5e-6
    device_power_watts: float = 250.0

    def transfer_seconds(self, num_bytes: float) -> float:
        return num_bytes / self.pcie_bytes_per_second

    def launch_seconds(self, launches: int) -> float:
        return launches * self.kernel_launch_seconds


class GPUBackend(Backend):
    """Compile HDC++ programs to batched library-routine execution."""

    target = Target.GPU
    name = "gpu"
    kernel_set = LibraryKernelSet

    def __init__(self, seed: int = 0, device_model: GPUDeviceModel | None = None):
        self.seed = seed
        self.device_model = device_model or GPUDeviceModel()

    def prepare(self, program: Program, graph: DataflowGraph, config: ApproximationConfig) -> None:
        return None

    # -- data movement accounting -----------------------------------------------------
    def _value_bytes(self, value, array) -> float:
        if isinstance(value.type, HyperMatrixType):
            # A row-mapped input (and what it yields) may hold fewer rows
            # than declared: an unpadded serving batch moves only its own.
            rows = np.shape(array)[0]
            if rows != value.type.rows:
                return value.type.num_bytes * rows / value.type.rows
        if isinstance(value.type, (HyperMatrixType, HyperVectorType)):
            return value.type.num_bytes
        return 8.0

    def execute(
        self, compiled: CompiledProgram, env: dict[int, np.ndarray], report: ExecutionReport,
        verdicts: dict,
    ) -> dict[str, object]:
        stages = HostStageExecutor(verdicts)
        run = OpInterpreter(stages, self.seed)

        # Program inputs are copied to the device once, before execution —
        # the binarized inputs of Section 5.3 therefore cost 32x less here.
        for param in compiled.entry.params:
            report.bytes_to_device += self._value_bytes(param, env[param.id])

        run.run_steps(compiled.resolved(self.kernel_set).steps, env)

        for result in compiled.entry.results:
            report.bytes_from_device += self._value_bytes(result, env[result.id])

        report.kernel_launches = run.launches
        report.transfer_seconds = self.device_model.transfer_seconds(
            report.bytes_to_device + report.bytes_from_device
        )
        report.device_seconds = report.transfer_seconds + self.device_model.launch_seconds(
            run.launches
        )
        report.energy_joules = report.device_seconds * self.device_model.device_power_watts
        report.notes["kernel_set"] = self.kernel_set.name
        report.record_stage_counters(stages)
        return self.collect_outputs(compiled.entry, env)
