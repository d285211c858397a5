"""HPVM-HDC back ends (Section 4.3 of the paper).

Four back ends are provided, mirroring the paper's targets:

* :class:`~repro.backends.cpu.CPUBackend` — lowers HDC primitives into
  the reference kernels, each row-map stage run once over its block of rows
  where that equals its per-row loop (the analogue of expanding primitives
  into data-parallel HPVM IR sub-graphs and compiling them for the host
  CPU).
* :class:`~repro.backends.gpu.GPUBackend` — lowers HDC primitives into
  batched "library routine" kernels (the analogue of cuBLAS / Thrust /
  CUDA-kernel lowering) with a device model accounting for transfers and
  kernel launches.
* :class:`~repro.backends.accelerator.DigitalASICBackend` — offloads the
  stage primitives to the digital HDC ASIC simulator through its
  functional interface, generating the call sequence of Listing 6.
* :class:`~repro.backends.accelerator.ReRAMBackend` — the same for the
  ReRAM HDC accelerator simulator.  Both accelerator back ends are one
  module (:mod:`repro.backends.accelerator`) and differ only in the
  target and device type they declare.

:func:`compile` is the user-facing entry point: it clones the traced
program, runs the approximation passes requested by the
:class:`~repro.transforms.ApproximationConfig`, lowers to HPVM-HDC IR,
verifies it and hands it to the selected back end.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.backends.accelerator import DigitalASICBackend, ReRAMBackend
from repro.backends.base import (
    Backend,
    BoundProgram,
    CompiledProgram,
    ExecutionReport,
    ExecutionResult,
)
from repro.backends.cpu import CPUBackend
from repro.backends.gpu import GPUBackend
from repro.hdcpp.program import Program
from repro.ir.dataflow import Target
from repro.transforms.pipeline import ApproximationConfig

__all__ = [
    "Backend",
    "BoundProgram",
    "CompiledProgram",
    "ExecutionReport",
    "ExecutionResult",
    "CPUBackend",
    "GPUBackend",
    "DigitalASICBackend",
    "ReRAMBackend",
    "compile",
    "backend_for_target",
]

_BACKENDS = {
    Target.CPU: CPUBackend,
    Target.GPU: GPUBackend,
    Target.HDC_ASIC: DigitalASICBackend,
    Target.HDC_RERAM: ReRAMBackend,
}


def backend_for_target(target: Union[str, Target], **kwargs) -> Backend:
    """Instantiate the back end responsible for ``target``."""
    target = Target(target) if not isinstance(target, Target) else target
    return _BACKENDS[target](**kwargs)


def compile(
    program: Program,
    target: Union[str, Target] = Target.CPU,
    config: Optional[ApproximationConfig] = None,
    **backend_kwargs,
) -> CompiledProgram:
    """Compile a traced HDC++ program for a hardware target.

    Args:
        program: The traced application.
        target: ``"cpu"``, ``"gpu"``, ``"hdc_asic"`` or ``"hdc_reram"``
            (or a :class:`~repro.ir.dataflow.Target`).
        config: Optional approximation configuration (automatic
            binarization and/or reduction perforation).
        **backend_kwargs: Extra arguments forwarded to the back end
            constructor (e.g. a custom device simulator instance).

    Returns:
        A :class:`CompiledProgram` ready to execute with concrete inputs.
    """
    backend = backend_for_target(target, **backend_kwargs)
    return backend.compile(program, config=config)
