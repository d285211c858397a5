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
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.hdcpp.arrays import HyperMatrix, HyperVector, as_numpy
from repro.hdcpp.primitives import _emit
from repro.hdcpp.program import TracedFunction, TracingError, Value
from repro.hdcpp.stages import _impl_attrs
from repro.hdcpp.types import ElementType, float32
from repro.ir.ops import Opcode

__all__ = ["parallel_map", "boundary_row_mismatch"]


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
            attribute, so traced programs carry *both* routes: batched
            back ends try ``batch_impl`` (or, failing that,
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
    if isinstance(inputs, Value):
        return _emit(Opcode.PARALLEL_MAP, [inputs] if extra is None else [inputs, extra], attrs)
    return _eager_parallel_map(impl, inputs, extra, element, batch_impl=batch_impl, output_dim=output_dim)


#: Errors that indicate an implementation function is not batchable (it was
#: written for a single row and chokes on a whole hypermatrix); anything
#: else — a genuine implementation bug — must propagate.  Extends the
#: batched-strategy set of :class:`repro.backends.executor
#: .HostStageExecutor` with AttributeError/KeyError because the eager
#: probe is *speculative*: a row impl touching HyperVector-only surface
#: (``.dim``, ``len(row)``, ``row[i]``) must fall back, not crash code
#: that worked before vectorization.
_BATCH_FALLBACK_ERRORS = (TypeError, ValueError, IndexError, AttributeError, KeyError)


def boundary_row_mismatch(
    out: np.ndarray, n_rows: int, row_result: Callable[[int], np.ndarray]
) -> Optional[str]:
    """The boundary-row bit-identity gate: why ``out`` is rejected, or ``None``.

    ``out`` is a whole-batch result claiming to equal the per-row reference
    applied to each of ``n_rows`` rows; ``row_result(i)`` computes reference
    row ``i``.  The claim is checked where a batched formulation that
    reduces or scans across the row axis goes wrong first: rank and shape,
    then dtype, then *exact* equality on the first and the last row.  The
    reason reads as a predicate of the batched route ("returned shape ...").
    Used by the batched stage executor and by eager :func:`parallel_map`.
    """
    first = np.asarray(row_result(0))
    if out.ndim != first.ndim + 1 or out.shape[0] != n_rows or out.shape[1:] != first.shape:
        return f"returned shape {out.shape}, expected ({n_rows},) + {first.shape}"
    if out.dtype != first.dtype:
        # Bit identity includes the byte representation: a value-equal
        # result in a different dtype would make the program's output
        # depend on which route ran it.
        return f"returned dtype {out.dtype}, per-row reference is {first.dtype}"
    last = first if n_rows == 1 else np.asarray(row_result(n_rows - 1))
    if not (np.array_equal(out[0], first) and np.array_equal(out[-1], last)):
        return "is not bit-identical to the per-row reference on the boundary rows"
    return None


def _apply_row(impl, row, extra):
    return impl(row) if extra is None else impl(row, extra)


def _eager_parallel_map(impl, inputs, extra, element: ElementType, batch_impl=None, output_dim=None):
    """Eager execution: one vectorized pass when possible, per-row otherwise.

    The hot path hands the *whole* hypermatrix to ``batch_impl`` (when
    declared) or to ``impl`` itself in a single call, so row-wise NumPy
    implementations (every elementwise primitive, and encoders written to
    broadcast) run as one library call instead of ``rows`` Python
    iterations — the ROADMAP-flagged eager-encoder bottleneck.  The
    batched result is accepted only when it is **bit-identical** to the
    per-row loop on the boundary rows (:func:`boundary_row_mismatch`),
    which rejects implementations whose matrix semantics differ from
    row-at-a-time application (reductions or scans across the row axis).
    On a shape mismatch, a fallback error or a boundary-row mismatch, the
    original per-row loop runs instead, so results never change — only the
    number of Python-level iterations does.
    """
    if isinstance(impl, TracedFunction):
        raise TracingError(
            "eager parallel_map requires a Python callable implementation; "
            "traced implementations are executed by compiled programs"
        )
    inputs_hm = inputs if isinstance(inputs, HyperMatrix) else HyperMatrix(as_numpy(inputs))
    n_rows = inputs_hm.rows
    if n_rows == 0:
        cols = inputs_hm.cols if output_dim is None else int(output_dim)
        if batch_impl is not None:
            try:
                empty = as_numpy(_apply_row(batch_impl, inputs_hm, extra))
                if empty.ndim >= 2 and empty.shape[0] == 0:
                    return HyperMatrix(empty, element)
            except _BATCH_FALLBACK_ERRORS:
                pass
        return HyperMatrix(np.zeros((0, cols), dtype=element.numpy_dtype), element)
    first = _apply_row(impl, inputs_hm.row(0), extra)
    out_element = first.element if isinstance(first, (HyperVector, HyperMatrix)) else element
    rows = {0: as_numpy(first)}

    def row_result(i: int) -> np.ndarray:
        if i not in rows:
            rows[i] = as_numpy(_apply_row(impl, inputs_hm.row(i), extra))
        return rows[i]

    for candidate in (batch_impl, impl):
        if candidate is None:
            continue
        try:
            batched = _apply_row(candidate, inputs_hm, extra)
        except _BATCH_FALLBACK_ERRORS:
            continue
        batched_arr = as_numpy(batched)
        if boundary_row_mismatch(batched_arr, n_rows, row_result) is None:
            if isinstance(batched, (HyperVector, HyperMatrix)):
                out_element = batched.element
            return HyperMatrix(batched_arr, out_element)
    return HyperMatrix(np.stack([row_result(i) for i in range(n_rows)]), out_element)
