"""Hetero-C++ style generic parallel constructs.

HDC++ is built on top of Hetero-C++ (Section 2.4 of the paper): besides the
HDC-specific primitives, applications can express *generic* task and data
parallelism that is not captured by an HDC primitive.  The canonical example
from the paper is HyperOMS' level-ID encoding, whose outer loop over spectra
is a generic parallel loop.

The reproduction provides :func:`parallel_map`, which applies a per-row
implementation function to every row of a hypermatrix.  When traced it
records a ``hetero.parallel_map`` operation; the IR builder turns that
operation into an *internal* dataflow node whose child leaf node has one
dynamic instance per row — the HPVM representation of a parallel loop.
The CPU and GPU back ends run it like a row-map stage
(:class:`~repro.backends.executor.HostStageExecutor`), and called on
concrete rows it runs as a one-stage CPU program, like the stage
primitives of :mod:`repro.hdcpp.stages`.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.hdcpp.program import TracedFunction
from repro.hdcpp.stages import _impl_attrs, _stage
from repro.hdcpp.types import ElementType, float32
from repro.ir.ops import Opcode

__all__ = ["parallel_map"]


def parallel_map(
    impl: Union[TracedFunction, Callable],
    inputs,
    extra=None,
    output_dim: Optional[int] = None,
    element: ElementType = float32,
    batch_impl: Optional[Callable] = None,
):
    """Apply ``impl`` to every row of ``inputs`` in parallel.

    Args:
        impl: Per-row implementation (traced function or Python callable).
            It receives one row of ``inputs`` as a hypervector plus, when
            supplied, the ``extra`` operand (e.g. a shared codebook
            hypermatrix), and returns one output hypervector.
        inputs: Hypermatrix whose rows are processed independently.
        extra: Optional additional operand shared by every instance.
        output_dim: Length of the produced rows (defaults to the input
            row length).
        element: Element type of the produced hypermatrix.
        batch_impl: Optional whole-hypermatrix formulation of the same
            per-row algorithm, taking ``(inputs[, extra])`` and returning
            one output row per input row.  Recorded as an operation
            attribute, so traced programs carry *both* routes: the CPU
            and GPU try ``batch_impl`` (or, failing that,
            auto-vectorization of ``impl``) under a boundary-row
            bit-identity gate, and ``impl`` stays the reference the gate
            checks against.

    Returns:
        A hypermatrix with one output row per input row.
    """
    attrs = _impl_attrs(impl, batch_impl, what="parallel_map")
    if output_dim is not None:
        attrs["output_dim"] = int(output_dim)
    attrs["element"] = element
    return _stage(Opcode.PARALLEL_MAP, [inputs] if extra is None else [inputs, extra], attrs)

