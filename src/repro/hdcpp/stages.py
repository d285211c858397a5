"""High-level HDC algorithmic stage primitives (Section 3.1 of the paper).

HDC++ provides three stage primitives — ``encoding_loop``, ``training_loop``
and ``inference_loop`` — that describe a whole algorithmic stage over an
entire dataset.  Each takes an *implementation function* describing the
per-sample algorithm with granular HDC primitives:

* when compiling for **CPU or GPU**, the back end executes the
  implementation function through one stage executor
  (:class:`~repro.backends.executor.HostStageExecutor`): a row-map stage
  runs once over its whole block of rows where the plan proves that equal
  or it passes the boundary-row gate, per row otherwise; a traced training
  rule the plan proves runs per mini-batch on the GPU and once per epoch
  over its block on the CPU, any other per row;
* when compiling for an **HDC accelerator** (digital ASIC / ReRAM), the
  stage is lowered to the accelerator's coarse-grain functional interface
  and the implementation function is ignored — the device implements its
  own fixed encoding / training / inference algorithms.

This split is exactly the design of the paper: it makes whole applications
portable across CPUs, GPUs and accelerators while letting accelerators
consume coarse-grained operations they can actually execute.

The implementation function can be either a :class:`TracedFunction` defined
in the same program (preferred — it appears in the IR, so approximation
transforms and the plan's proofs apply to it) or a Python callable of
eager HDC++ executed by CPU/GPU back ends: a row-map stage's over its
block behind the gate, a ``training_loop``'s per row.

Called on concrete operands, a stage (and :func:`repro.hdcpp.hetero
.parallel_map`) is a one-stage program run on the CPU back end: the same
route, gate and fallback as a compiled CPU stage, and a result of the
stage's declared type.  The program is compiled once per (opcode, operand
types, attrs), and every call runs its own gate.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.hdcpp.arrays import HyperMatrix, HyperVector
from repro.hdcpp.primitives import _bounded_memo, _eager_type, _emit, _wrap_result
from repro.hdcpp.program import FunctionBuilder, Program, TracedFunction, TracingError, Value
from repro.hdcpp.types import HDType, IndexVectorType, float32
from repro.ir.ops import Opcode, infer_result_type

__all__ = ["encoding_loop", "training_loop", "inference_loop"]

ImplFunction = Union[TracedFunction, Callable]


def _impl_attrs(
    impl: ImplFunction, batch_impl: Optional[Callable] = None, what: str = "stage"
) -> dict:
    """Encode the implementation function references as op attributes.

    ``batch_impl`` — the optional whole-hypermatrix formulation of the
    same per-sample algorithm — is recorded alongside the per-row route,
    so traced programs carry both: the CPU and GPU try the declared
    batched route first (bit-identity gated against ``impl``), the
    accelerators ignore it.  Shared with :func:`repro.hdcpp.hetero.parallel_map`.
    """
    if isinstance(impl, TracedFunction):
        attrs = {"impl": impl.name}
    elif callable(impl):
        attrs = {"impl_callable": impl}
    else:
        raise TracingError(
            f"{what} implementation must be a traced function or callable, got {impl!r}"
        )
    if batch_impl is not None:
        if not callable(batch_impl):
            raise TracingError(f"{what} batch_impl must be callable, got {batch_impl!r}")
        attrs["batch_impl"] = batch_impl
    return attrs


def _operand_type(value) -> HDType:
    """The declared type of a concrete stage operand: an integer vector
    (``training_loop``'s labels) is an index vector."""
    if not isinstance(value, (HyperVector, HyperMatrix)):
        arr = np.asarray(value)
        if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
            return IndexVectorType(arr.shape[0])
    return _eager_type(value)


#: Eager stage calls' compiled one-stage programs by (opcode, operand
#: types, attrs — the implementation included), bounded like the eager
#: result types (:func:`repro.hdcpp.primitives._bounded_memo`).  Each call
#: binds its own handle, so its gate verdicts are its own.
_STAGES: dict = {}
_STAGES_MAX = 64


def _compile_stage(opcode: Opcode, types: tuple, attrs: dict):
    from repro.backends.cpu import CPUBackend  # repro.backends imports repro.hdcpp

    program = Program(opcode.value)
    builder = FunctionBuilder(program, "stage")
    params = [builder.add_param(t, f"x{i}") for i, t in enumerate(types)]
    result_type = infer_result_type(opcode, list(types), attrs)
    result = builder.emit(opcode, params, attrs, result_type)
    program.functions["stage"] = builder.finish([result])
    return CPUBackend().compile(program), result_type


def _stage(opcode: Opcode, operands: list, attrs: dict):
    """Record the stage when traced; on concrete operands run it as a
    one-stage program on the CPU back end and return its result with the
    stage's declared type."""
    if isinstance(operands[0], Value):
        return _emit(opcode, operands, attrs)
    if "impl" in attrs:
        raise TracingError(
            f"eager {opcode.value} requires a Python callable implementation; "
            "traced implementation functions are executed by compiled programs"
        )
    types = tuple(_operand_type(v) for v in operands)
    key = (opcode, types, tuple(attrs.items()))
    compiled, result_type = _bounded_memo(
        _STAGES, _STAGES_MAX, key, lambda: _compile_stage(opcode, types, attrs)
    )
    run = compiled.bind().run(**{f"x{i}": v for i, v in enumerate(operands)})
    return _wrap_result(run.output, result_type)


def encoding_loop(
    impl: ImplFunction,
    queries,
    encoder,
    encoded_dim: Optional[int] = None,
    element=float32,
    batch_impl: Optional[Callable] = None,
):
    """Apply HDC encoding over an entire dataset.

    Args:
        impl: Implementation function mapping one feature hypervector and
            the encoder hypermatrix to an encoded hypervector (used on
            CPU/GPU targets).
        queries: Hypermatrix of input feature vectors (one row per sample).
        encoder: Encoder hypermatrix, e.g. a random projection matrix.
        encoded_dim: Dimensionality of the encoded hypervectors; inferred
            from ``encoder`` (its row count) when omitted.
        element: Element type of the encoded hypermatrix.
        batch_impl: Optional whole-hypermatrix formulation of the same
            per-sample encoder, taking ``(queries, encoder)`` and
            returning one encoded row per sample.  The CPU and GPU
            try it first, under the boundary-row bit-identity gate.

    Returns:
        A hypermatrix of encoded hypervectors (one row per sample).
    """
    attrs = _impl_attrs(impl, batch_impl)
    if encoded_dim is not None:
        attrs["encoded_dim"] = int(encoded_dim)
    attrs["element"] = element
    return _stage(Opcode.ENCODING_LOOP, [queries, encoder], attrs)


def inference_loop(
    impl: ImplFunction,
    queries,
    classes,
    encoder=None,
    batch_impl: Optional[Callable] = None,
):
    """Apply HDC inference over an entire dataset.

    ``queries`` are the (already encoded or raw, depending on the chosen
    implementation function) input vectors to classify and ``classes``
    contains one representative hypervector per class.  The result is an
    index vector with one predicted label per query.

    ``encoder`` optionally passes the encoder hypermatrix (e.g. the random
    projection matrix) through to the implementation function; on the HDC
    accelerators it is what gets programmed into the device's base memory,
    so the same source line serves every target.

    ``batch_impl`` optionally declares the whole-hypermatrix formulation
    of the same search, taking ``(queries, classes[, encoder])`` and
    returning one label per query; the CPU and GPU try it first, under the
    boundary-row bit-identity gate.
    """
    attrs = _impl_attrs(impl, batch_impl)
    operands = [queries, classes]
    if encoder is not None:
        operands.append(encoder)
        attrs["has_encoder"] = True
    return _stage(Opcode.INFERENCE_LOOP, operands, attrs)


def training_loop(impl: ImplFunction, queries, labels, classes, epochs: int = 1, encoder=None):
    """Apply HDC training over an entire dataset for ``epochs`` epochs.

    ``impl`` implements one iteration of training given a single data point
    (query hypervector, integer label and the current class hypermatrix) and
    returns the updated class hypermatrix.  The stage result is the trained
    class hypermatrix.  ``encoder`` behaves as in :func:`inference_loop`.

    A traced ``impl`` the plan proves one ordered :func:`~repro.hdcpp.retrain`
    of row ops (:func:`~repro.ir.ops.proven_rule`) is its own block form:
    the GPU and ``CPUBackend(batched=True)`` run it per mini-batch (the
    CUDA baselines' structure), the reference CPU once per epoch over the
    block.  Any other ``impl`` runs per row; the accelerators ignore it.
    """
    attrs = _impl_attrs(impl)
    attrs["epochs"] = int(epochs)
    operands = [queries, labels, classes]
    if encoder is not None:
        operands.append(encoder)
        attrs["has_encoder"] = True
    return _stage(Opcode.TRAINING_LOOP, operands, attrs)
