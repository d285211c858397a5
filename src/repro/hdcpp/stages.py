"""High-level HDC algorithmic stage primitives (Section 3.1 of the paper).

HDC++ provides three stage primitives — ``encoding_loop``, ``training_loop``
and ``inference_loop`` — that describe a whole algorithmic stage over an
entire dataset.  Each takes an *implementation function* describing the
per-sample algorithm with granular HDC primitives:

* when compiling for **CPU or GPU**, the back end executes the
  implementation function (per sample on the CPU, batched over the whole
  query hypermatrix on the GPU);
* when compiling for an **HDC accelerator** (digital ASIC / ReRAM), the
  stage is lowered to the accelerator's coarse-grain functional interface
  and the implementation function is ignored — the device implements its
  own fixed encoding / training / inference algorithms.

This split is exactly the design of the paper: it makes whole applications
portable across CPUs, GPUs and accelerators while letting accelerators
consume coarse-grained operations they can actually execute.

The implementation function can be either a :class:`TracedFunction` defined
in the same program (preferred — it appears in the IR, so approximation
transforms apply to it) or an opaque Python callable executed eagerly by
CPU/GPU back ends (useful for data-dependent update rules, e.g. the
training update of HD-Classification).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.hdcpp.arrays import HyperMatrix, HyperVector, as_numpy
from repro.hdcpp.primitives import _emit
from repro.hdcpp.program import TracedFunction, TracingError, Value
from repro.hdcpp.types import float32
from repro.ir.ops import Opcode

__all__ = ["encoding_loop", "training_loop", "inference_loop"]

ImplFunction = Union[TracedFunction, Callable]


def _impl_attrs(
    impl: ImplFunction, batch_impl: Optional[Callable] = None, what: str = "stage"
) -> dict:
    """Encode the implementation function references as op attributes.

    ``batch_impl`` — the optional whole-hypermatrix formulation of the
    same per-sample algorithm — is recorded alongside the per-row route,
    so traced programs carry both: batched back ends prefer the declared
    batched route (bit-identity gated against ``impl``), everything else
    ignores it.  Shared with :func:`repro.hdcpp.hetero.parallel_map`.
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
            returning one encoded row per sample.  Batched back ends
            prefer it under the boundary-row bit-identity gate.

    Returns:
        A hypermatrix of encoded hypervectors (one row per sample).
    """
    attrs = _impl_attrs(impl, batch_impl)
    if encoded_dim is not None:
        attrs["encoded_dim"] = int(encoded_dim)
    attrs["element"] = element
    if isinstance(queries, Value):
        return _emit(Opcode.ENCODING_LOOP, [queries, encoder], attrs)
    return _eager_encoding_loop(impl, queries, encoder)


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
    returning one label per query; batched back ends prefer it under the
    boundary-row bit-identity gate.
    """
    attrs = _impl_attrs(impl, batch_impl)
    if isinstance(queries, Value):
        operands = [queries, classes]
        if encoder is not None:
            operands.append(encoder)
            attrs["has_encoder"] = True
        return _emit(Opcode.INFERENCE_LOOP, operands, attrs)
    return _eager_inference_loop(impl, queries, classes, encoder)


def training_loop(
    impl: ImplFunction,
    queries,
    labels,
    classes,
    epochs: int = 1,
    encoder=None,
    batch_impl: Optional[Callable] = None,
):
    """Apply HDC training over an entire dataset for ``epochs`` epochs.

    ``impl`` implements one iteration of training given a single data point
    (query hypervector, integer label and the current class hypermatrix) and
    returns the updated class hypermatrix.  The stage result is the trained
    class hypermatrix.  ``encoder`` behaves as in :func:`inference_loop`.

    ``batch_impl`` optionally supplies a mini-batched formulation of the
    same update rule, taking ``(queries_batch, labels_batch, classes[,
    encoder])`` and returning the updated class hypermatrix.  Back ends
    whose stage lowering is batched (the GPU) use it to train one mini-batch
    per library call — the exact structure of the hand-written CUDA
    baselines — while the CPU back end and the accelerators ignore it.
    """
    attrs = _impl_attrs(impl, batch_impl)
    attrs["epochs"] = int(epochs)
    if isinstance(queries, Value):
        operands = [queries, labels, classes]
        if encoder is not None:
            operands.append(encoder)
            attrs["has_encoder"] = True
        return _emit(Opcode.TRAINING_LOOP, operands, attrs)
    return _eager_training_loop(impl, queries, labels, classes, epochs, encoder)


# ---------------------------------------------------------------------------
# Eager execution (host-side prototyping path)
# ---------------------------------------------------------------------------


def _eager_rows(impl: ImplFunction, queries, stage: str) -> tuple[Callable, HyperMatrix]:
    """The callable implementation and the queries as a hypermatrix."""
    if isinstance(impl, TracedFunction):
        raise TracingError(
            f"eager {stage} requires a Python callable implementation; "
            "traced implementation functions are executed by compiled programs"
        )
    return impl, queries if isinstance(queries, HyperMatrix) else HyperMatrix(as_numpy(queries))


def _eager_encoding_loop(impl, queries, encoder):
    impl, queries_hm = _eager_rows(impl, queries, "encoding_loop")
    results = [impl(queries_hm.row(i), encoder) for i in range(queries_hm.rows)]
    out = np.stack([as_numpy(r) for r in results])
    first = results[0]
    element = first.element if isinstance(first, (HyperVector, HyperMatrix)) else float32
    return HyperMatrix(out, element)


def _eager_inference_loop(impl, queries, classes, encoder=None):
    impl, queries_hm = _eager_rows(impl, queries, "inference_loop")
    shared = (classes,) if encoder is None else (classes, encoder)
    labels = [int(impl(queries_hm.row(i), *shared)) for i in range(queries_hm.rows)]
    return np.asarray(labels, dtype=np.int64)


def _eager_training_loop(impl, queries, labels, classes, epochs: int, encoder=None):
    impl, queries_hm = _eager_rows(impl, queries, "training_loop")
    labels_arr = np.asarray(labels, dtype=np.int64)
    shared = () if encoder is None else (encoder,)
    current = classes
    for _ in range(int(epochs)):
        for i in range(queries_hm.rows):
            current = impl(queries_hm.row(i), int(labels_arr[i]), current, *shared)
    return current
