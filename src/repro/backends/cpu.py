"""CPU back end.

When targeting the CPU, HPVM-HDC translates HDC primitives into HPVM IR
sub-graphs containing data-level parallelism and compiles them with the
host code generator (Section 4.3).  In this reproduction the equivalent is
the :class:`~repro.backends.kernelsets.ReferenceKernelSet`: every HDC
primitive executes as the reference kernel its row of the primitive table
names (the ``kernel`` column).  The row-map stages (``encoding_loop``,
``inference_loop``, ``parallel_map``) are data-parallel loops over rows,
and run as one: the user's implementation is invoked once over the whole
block of rows, on the same reference kernels, where that equals the loop
by construction — every kernel the implementation reads is row-separable
(element-wise ops, ``sign``, Hamming counts, arg-reductions, a ``matmul``
read through its certified sign).  A stage that reads a kernel whose
float arithmetic depends on the row count (the table's ``reassociates``
column: ``cossim``, a ``matmul`` read unsigned) keeps the per-row loop
(:class:`~repro.backends.executor.HostStageExecutor`).  A traced stage
whose every op the primitive table marks ``exact`` is proven
(:mod:`repro.transforms.plan`) and runs no boundary-row gate; the gate
still checks every other block.  A ``training_loop`` whose traced rule the
plan proves (one ``retrain`` of the rows) runs once per epoch over its
block too: the reference ``retrain`` takes the rows in order.  One fusion
keeps the reference bits at a float32 price: a ``matmul`` that is only signed — a random-projection
encode, traced or in an eager implementation — runs the row's certified
``signed`` column (a float32 GEMV, or a GEMM over a block, the few
coordinates inside its error bound recomputed in float64), not a float64
product over a float64 copy of the projection.

The CPU back end performs no host/device data movement, so the execution
report only carries wall-clock time and kernel invocation counts.

An eager stage call — a stage primitive or ``parallel_map`` on concrete
operands — is a one-stage program run on ``CPUBackend()``, so it takes
exactly this route (:mod:`repro.hdcpp.stages`).

For the serving runtime the back end additionally offers a *batched* host
mode (``CPUBackend(batched=True)``): stage primitives execute once over the
whole query hypermatrix using the vectorized library-routine kernels (the
table's ``library`` column, through the same
:class:`~repro.backends.kernelsets.LibraryKernelSet` the GPU back end uses:
a float32 GEMM where the reference accumulates in float64, and cosine
stages included), and training runs per mini-batch.  Batched mode is the
default for serving workers because bit-compatibility is *gated*, not
assumed: every batched stage result the plan does not prove must pass
the boundary-row bit-identity check against the per-row reference,
falling back to the per-row loop (and recording why in
``ExecutionReport.notes``) otherwise.
The stage executor reads which of the two routes it runs from the kernel
set's column.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, CompiledProgram, ExecutionReport
from repro.backends.executor import HostStageExecutor, OpInterpreter
from repro.backends.kernelsets import KernelSet, LibraryKernelSet, ReferenceKernelSet
from repro.hdcpp.program import Program
from repro.ir.dataflow import DataflowGraph, Target
from repro.transforms.pipeline import ApproximationConfig

__all__ = ["CPUBackend"]


class CPUBackend(Backend):
    """Compile HDC++ programs to host execution on the reference kernels."""

    target = Target.CPU
    name = "cpu"

    def __init__(self, seed: int = 0, batched: bool = False):
        self.seed = seed
        #: Execute stage primitives over whole hypermatrices with the
        #: vectorized ``library`` kernels and train per mini-batch (used by
        #: serving workers); the default runs the reference kernels.
        self.batched = batched
        self.kernel_set: type[KernelSet] = LibraryKernelSet if batched else ReferenceKernelSet

    def prepare(self, program: Program, graph: DataflowGraph, config: ApproximationConfig) -> None:
        # Nothing to pre-build: the program's steps are resolved per kernel
        # column on its first run, and there is no device session.
        return None

    def execute(
        self, compiled: CompiledProgram, env: dict[int, np.ndarray], report: ExecutionReport,
        verdicts: dict,
    ) -> dict[str, object]:
        stages = HostStageExecutor(verdicts)
        run = OpInterpreter(stages, self.seed)
        run.run_steps(compiled.resolved(self.kernel_set).steps, env)
        report.kernel_launches = run.launches
        report.notes["kernel_set"] = self.kernel_set.name
        report.stages = stages.record
        return self.collect_outputs(compiled.entry, env)
