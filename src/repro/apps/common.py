"""Shared result types and helpers for the HDC++ applications."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro import hdcpp as H
from repro.backends.base import CompiledProgram, ExecutionReport
from repro.serving.servable import Servable, ShardSpec

__all__ = [
    "AppResult",
    "cold_path",
    "merge_reports",
    "bipolar_random",
    "corrective_class_update",
    "search_servable",
]


@dataclass
class AppResult:
    """The outcome of running one application end to end on one target.

    Attributes:
        app: Application name (e.g. ``"hd-classification"``).
        target: Hardware target the application was compiled for.
        quality: Application-level quality of service (accuracy, recall,
            purity, ... — higher is better).
        quality_metric: Name of the quality metric.
        wall_seconds: Measured wall-clock time of the HDC work: the
            compiled programs' runs and the host work between them, not
            tracing or compiling.
        report: Merged execution report across all compiled-program calls.
        outputs: Application-specific extra outputs (predictions, trained
            class hypervectors, ...).
        trace_seconds: Seconds spent tracing every program the run
            compiled (see :func:`cold_path`).
        compile_seconds: Seconds of ``Backend.compile``'s five phases
            (clone, passes, lower, verify, prepare), summed over the same
            programs.
    """

    app: str
    target: str
    quality: float
    quality_metric: str
    wall_seconds: float
    report: ExecutionReport
    outputs: dict = field(default_factory=dict)
    trace_seconds: float = 0.0
    compile_seconds: float = 0.0

    def __repr__(self) -> str:
        return (
            f"AppResult({self.app}, target={self.target}, "
            f"{self.quality_metric}={self.quality:.3f}, wall={self.wall_seconds * 1e3:.1f}ms)"
        )


def cold_path(*compiled: CompiledProgram) -> dict:
    """``AppResult``'s ``trace_seconds`` / ``compile_seconds``, summed over
    the programs a run compiled."""
    return {
        "trace_seconds": sum(c.trace_seconds for c in compiled),
        "compile_seconds": sum(sum(c.compile_seconds.values()) for c in compiled),
    }


def merge_reports(target: str, reports: list[ExecutionReport]) -> ExecutionReport:
    """Accumulate the execution reports of several compiled-program calls."""
    merged = ExecutionReport(target=target)
    for report in reports:
        merged.merge(report)
    return merged


def bipolar_random(rows: int, cols: int, seed: int) -> np.ndarray:
    """A deterministic bipolar {+1, -1} matrix (random projection / item memory)."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(rows, cols)) * 2 - 1).astype(np.float32)


def corrective_class_update(
    class_hvs: np.ndarray,
    encoded: np.ndarray,
    labels: np.ndarray,
    predicted: np.ndarray,
    name: str = "update",
) -> np.ndarray:
    """The shared HDC corrective training rule over a mini-batch.

    Bundle each encoding into its labelled class accumulator and subtract
    it from the class it was mistaken for — the single definition used by
    the online ``update_batch`` rules (classification, RelHD), so the
    corrective arithmetic stays bit-identical across applications.

    Args:
        class_hvs: ``(n_classes, D)`` class memories (not modified).
        encoded: ``(n, D)`` encodings to bundle.
        labels: ``(n,)`` true class indices (validated against n_classes).
        predicted: ``(n,)`` classes the serving path would have predicted.
        name: Model name for error messages.
    """
    class_hvs = np.asarray(class_hvs, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and int(labels.max()) >= class_hvs.shape[0]:
        raise ValueError(
            f"{name}: update label {int(labels.max())} out of range for "
            f"{class_hvs.shape[0]} classes"
        )
    updated = np.array(class_hvs, copy=True)
    np.add.at(updated, labels, encoded)
    wrong = np.asarray(predicted) != labels
    np.add.at(updated, np.asarray(predicted)[wrong], -encoded[wrong])
    return updated.astype(np.float32)


def _named(fn: Callable, names: Sequence[str]) -> Callable:
    """``fn`` presented to the tracer under ``names``: traced parameters
    are named from the Python signature, and an entry parameter's name is
    what ``bind`` / ``run``, ``ShardSpec.param`` and update-log replay key
    on — so the helper's generic functions appear under the adapter's."""
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    fn.__signature__ = inspect.Signature([inspect.Parameter(n, kind) for n in names])
    return fn


def search_servable(
    name: str,
    *,
    query: tuple,
    memory: tuple,
    targets: tuple,
    encode=None,
    encoder: Optional[tuple] = None,
    similarity: str = "hamming",
    bipolar: bool = False,
    trainable: bool = False,
    grow: Optional[tuple] = None,
    signature_extra: str = "",
) -> Servable:
    """The one served search: *encode the query, score it against the rows
    of one constant, arg-reduce*.

    An adapter states what it serves; the served program family, the shard
    partials and the update / append / rebuild rules are derived from that
    one statement, so they cannot drift apart.

    Args:
        name: Served model name.
        query: ``(entry parameter, sample shape[, element type])`` of a
            request (``float32`` unless stated, e.g. ``int64`` reads).
        memory: ``(constant name, (rows, D) array)`` — the searched
            constant, and the one a sharded deployment splits by rows.
        targets: Targets the deployment may be registered on.
        encode: How a query becomes a hypervector — ``None`` (requests
            arrive encoded), a row function ``(features, encoder) -> hv``
            written with HDC++ primitives over the bound ``encoder``, or
            the declared ``(per_row, batch_impl)`` host pair of a
            ``parallel_map``.
        encoder: ``(constant name, array)`` bound for a row ``encode``.
        similarity: ``"hamming"`` (arg-min of distances to the signed
            rows) or ``"cosine"`` (arg-max of similarities to the raw rows).
        bipolar: The row ``encode`` ends in ``sign``.
        trainable: Carry the online-update rule.
        grow: ``(append row shape, rows -> new memory rows)``: how a batch
            of appended entries becomes rows of ``memory`` (``None``: the
            index is frozen).
        signature_extra: Configuration the constants do not capture.

    **Programs.**  One program is traced per micro-batch bucket.  Every
    primitive used broadcasts over whole hypermatrices, so the batched
    execution plane runs each stage as one pass, verified per (program,
    bucket) by the boundary-row bit-identity gate.  A row ``encode`` is
    *fused* into the served stage — one ``inference_loop(search_one,
    queries, rows, encoder=...)`` — because that operand is what the
    accelerators program into base memory (they run their own encoder and
    ignore ``search_one``).  A shard's partial returns raw scores, so it
    cannot be that stage; a ``bipolar`` encoder goes through an
    ``encoding_loop`` *stage* instead, which offloads to that same device
    encoder — shards answer like the unsharded model on every target —
    and keeps the base memory resident per shard worker.  An unsigned
    projection never goes through a stage: GEMM and per-row matvec differ
    in the low bits, so the gate would reject every batch and run it per
    row.  Only raw *cosine* needs one (under Hamming a raw encoding is the
    same function of the query as a signed one — state it signed), and its
    partial encodes inline on the host.  That leaves one cell where shards
    differ from the unsharded model: cosine on the accelerators, whose
    unsharded stage is the device's binarized Hamming search while shards
    score host cosine.

    **Rules.**  ``update_batch`` is the mini-batched corrective training
    step (:func:`corrective_class_update`) over the bound memory: it
    bundles the *signed* encoding and predicts with the ``score`` the
    served program traces, so the class a correction targets is the class
    this deployment would have predicted, by construction (``H.sign`` maps
    zero to +1, ``np.sign`` does not, and aggregated encodings contain
    exact zeros).  ``append_batch`` concatenates ``grow(rows)`` under the
    memory and ``rebuild`` re-invokes this helper on the grown constants,
    so growth equals an offline rebuild from the full entry set.  Rules
    build fresh arrays: :meth:`Servable.updated` / ``appended`` hand them
    read-only views of state the old deployment is still serving.
    """
    query_param, sample_shape, element = (*query, H.float32)[:3]
    param, stored = memory[0], np.asarray(memory[1], dtype=np.float32)
    # The closures below outlive every update of the state, so they keep
    # shapes, never the arrays.
    n_stored, dim = stored.shape
    constants = {param: stored}
    names, encoder_types = (query_param, param), []
    row_encoder = callable(encode)
    if row_encoder:
        constants[encoder[0]] = np.asarray(encoder[1], dtype=np.float32)
        names += (encoder[0],)
        encoder_types = [H.hm(*constants[encoder[0]].shape)]
    cosine = similarity == "cosine"
    reduce = H.arg_max if cosine else H.arg_min

    def score(encoded, rows):
        """Traced inside the programs, eager inside the update rule."""
        if cosine:
            return H.cossim(encoded, rows)
        return H.hamming_distance(encoded if bipolar else H.sign(encoded), H.sign(rows))

    def build(batch_size: int, n_rows: Optional[int] = None) -> H.Program:
        """The served program, or with ``n_rows`` one shard's partial: the
        raw ``(batch, n_rows)`` scores instead of arg-reduced labels."""
        partial = n_rows is not None
        if partial:
            prog = H.Program(f"{name}_shard{n_rows}_b{batch_size}")
        else:
            prog, n_rows = H.Program(f"{name}_serve_b{batch_size}"), n_stored
        shared = [H.hm(n_rows, dim), *encoder_types]
        row_type = H.hv(*sample_shape, element) if row_encoder else H.hv(dim)

        def encode_one(query_row, enc):
            return encode(query_row, enc)

        def search_one(query_row, rows, *enc):
            return reduce(score(encode(query_row, *enc) if row_encoder else query_row, rows))

        def main(batch, rows, *enc):
            if row_encoder and not partial:
                return H.inference_loop(search_fn, batch, rows, encoder=enc[0])
            if row_encoder:
                encoded = H.encoding_loop(encode_fn, batch, *enc) if bipolar else encode(batch, *enc)
            elif encode is not None:
                encoded = H.parallel_map(encode[0], batch, output_dim=dim, batch_impl=encode[1])
            else:
                encoded = batch
            return score(encoded, rows) if partial else H.inference_loop(search_fn, encoded, rows)

        if not partial:
            search_fn = prog.define(row_type, *shared)(_named(search_one, names))
        elif row_encoder and bipolar:
            encode_fn = prog.define(row_type, shared[1])(_named(encode_one, (names[0], names[2])))
        prog.entry(H.hm(batch_size, *sample_shape, element), *shared)(_named(main, names))
        return prog

    def update_batch(bound: dict, samples: np.ndarray, labels: np.ndarray) -> dict:
        encoded = np.asarray(samples, dtype=np.float32)
        if row_encoder:
            encoded = encode(encoded, bound[encoder[0]])
        predicted = np.asarray(reduce(score(encoded, bound[param])))
        signed = np.asarray(encoded if bipolar else H.sign(encoded), dtype=np.float32)
        updated = corrective_class_update(bound[param], signed, labels, predicted, name=name)
        return {**bound, param: updated}

    def append_batch(bound: dict, new_rows: np.ndarray) -> dict:
        grown = np.asarray(grow[1](new_rows), dtype=np.float32)
        return {**bound, param: np.concatenate([np.asarray(bound[param]), grown], axis=0)}

    def rebuild(grown: dict) -> Servable:
        return search_servable(
            name, query=query, memory=(param, grown[param]), targets=targets, encode=encode,
            encoder=encoder and (encoder[0], grown[encoder[0]]), similarity=similarity,
            bipolar=bipolar, trainable=trainable, grow=grow, signature_extra=signature_extra,
        )

    return Servable(
        name=name,
        build_program=build,
        constants=constants,
        query_param=query_param,
        sample_shape=tuple(sample_shape),
        # signature_extra, not an explicit signature: the content hash keeps
        # independently built (and grown) servables apart in the cache.
        signature_extra=signature_extra,
        supported_targets=tuple(targets),
        shard_spec=ShardSpec(param=param, build_partial=build, reduce="argmax" if cosine else "argmin"),
        update_batch=update_batch if trainable else None,
        append_batch=append_batch if grow else None,
        growable=(param,) if grow else (),
        rebuild=rebuild if grow else None,
        append_row_shape=grow[0] if grow else None,
        description=f"{similarity} search over {n_stored} rows, D={dim}",
    )
