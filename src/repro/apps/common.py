"""Shared result types and helpers for the HDC++ applications, and the one
search statement (:class:`Search`) every application's programs, served
programs and training rule are derived from."""

from __future__ import annotations

import inspect
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro import hdcpp as H
from repro.backends.base import CompiledProgram, ExecutionReport
from repro.serving.servable import Servable, ShardSpec

__all__ = [
    "AppResult",
    "cold_path",
    "merge_reports",
    "bipolar_random",
    "Search",
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
        compile_seconds: Seconds of ``Backend.compile``'s six phases
            (clone, passes, plan, lower, verify, prepare), summed over the
            same programs.
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


#: Byte budget of :func:`bipolar_random`'s table of packed sign bits (one
#: bit per element: ~40 KB for 512 x 617, ~0.8 MB for 10240 x 617).  The
#: least recently used draws are dropped past it; a draw larger than the
#: whole budget is not kept.
_DRAW_CACHE_BYTES = 1 << 20
_draws: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_draws_lock = threading.Lock()

#: Row ``b`` is byte ``b``'s eight bits as ±1, most significant first
#: (``np.packbits``' order).
_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.float32) * 2 - 1


def _sign_bits(rows: int, cols: int, seed: int) -> np.ndarray:
    """The packed sign bits of ``bipolar_random(rows, cols, seed)``, drawn on
    a table miss."""
    key = (operator.index(rows), operator.index(cols), operator.index(seed))
    with _draws_lock:
        bits = _draws.get(key)
        if bits is not None:
            _draws.move_to_end(key)
            return bits
    n = key[0] * key[1]
    raw = np.random.default_rng(key[2]).bit_generator.random_raw(-(-n // 2))
    bits = np.packbits(raw.astype("<u8", copy=False).view("<i4")[:n] < 0)
    if bits.nbytes <= _DRAW_CACHE_BYTES:
        with _draws_lock:
            _draws[key] = bits
            while sum(kept.nbytes for kept in _draws.values()) > _DRAW_CACHE_BYTES:
                _draws.popitem(last=False)
    return bits


def bipolar_random(rows: int, cols: int, seed: int) -> np.ndarray:
    """A deterministic bipolar {+1, -1} matrix (random projection / item memory).

    Byte for byte ``(default_rng(seed).integers(0, 2, (rows, cols)) * 2 -
    1).astype(np.float32)``, read from the generator's sign bits.  On a
    fresh generator ``integers(0, 2)`` is the top bit of each 32-bit half
    of the raw PCG64 stream, low half first: NumPy's Lemire path for a
    range of 2 never rejects, and the generator's 32-bit buffer starts
    empty.  ``tests/test_apps.py`` pins the equality, so a change to
    NumPy's stream fails there.

    A projection is a model constant, so each ``(rows, cols, seed)`` is
    drawn once a process: a thread-safe LRU table keeps the draw's packed
    sign bits, one bit per element, within ``_DRAW_CACHE_BYTES``.  Every
    call expands them into a new float32 array, one ``np.take`` through a
    byte -> eight ±1 table (~10x cheaper than the draw at 512 x 617).
    Callers mutate, bind and memoise their projections by identity, so
    none may alias another's; and one shared read-only array would keep
    every projection resident as float32, 32x its bits.
    """
    n = rows * cols
    out = np.take(_SIGNS, _sign_bits(rows, cols, seed), axis=0)
    return out.reshape(-1)[:n].reshape(rows, cols)


def _named(fn: Callable, names: Sequence[str]) -> Callable:
    """``fn`` presented to the tracer under ``names``: traced parameters
    are named from the Python signature, and an entry parameter's name is
    what ``bind`` / ``run``, ``ShardSpec.param`` and update-log replay key
    on — so the helper's generic functions appear under the adapter's."""
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    fn.__signature__ = inspect.Signature([inspect.Parameter(n, kind) for n in names])
    return fn


@dataclass(frozen=True)
class Search:
    """An application's search and training, stated once: *encode a query,
    score it against the rows of one memory, arg-reduce*.  Programs trace
    the per-row search (:meth:`define`) and the training rule (:meth:`rule`);
    :func:`search_servable` derives the served programs from the same
    statement — so what the figures measure is what serving serves.

    Attributes:
        query: ``(entry parameter[, sample shape[, element type]])`` of a
            served request (``float32`` unless stated); a row ``encode``'s
            queries are its encoder's columns wide, so only a statement
            without one states the shape.
        memory: Name of the searched ``(rows, D)`` constant.
        encode: ``None`` (queries arrive encoded), a row function
            ``(features, encoder) -> hv`` written with HDC++ primitives, or
            the ``(per_row, batch_impl)`` host pair of a ``parallel_map``.
        encoder: Name of the constant a row ``encode`` takes.
        similarity: ``"hamming"`` (arg-min of distances to the signed
            rows) or ``"cosine"`` (arg-max of similarities to the raw rows).
        bipolar: The row ``encode`` ends in ``sign``.
    """

    query: tuple
    memory: str
    encode: Any = None
    encoder: Optional[str] = None
    similarity: str = "hamming"
    bipolar: bool = False

    def score(self, encoded, rows, signed: bool = False):
        """Traced in the programs and the shard partials (:func:`~repro.hdcpp
        .retrain` scores the same way); ``signed``: ``encoded`` is the
        output of a ``bipolar`` encode."""
        if self.similarity == "cosine":
            return H.cossim(encoded, rows)
        return H.hamming_distance(encoded if signed else H.sign(encoded), H.sign(rows))

    def reduce(self, scores):
        return H.arg_max(scores) if self.similarity == "cosine" else H.arg_min(scores)

    def define(self, prog: H.Program, *types):
        """Trace ``search_one(query, rows[, encoder])`` into ``prog`` at the
        program's own types.  Given an encoder type, the row ``encode`` is
        fused in (the ``inference_loop(..., encoder=)`` operand the
        accelerators program into base memory); without one, the query is
        a hypervector an earlier stage encoded, signed like any other."""

        def search_one(query, rows, *encoder):
            encoded = self.encode(query, *encoder) if encoder else query
            return self.reduce(self.score(encoded, rows, bool(encoder) and self.bipolar))

        names = (self.query[0], self.memory, self.encoder)[: len(types)]
        return prog.define(*types)(_named(search_one, names))

    def rule(self, queries, labels, memory):
        """The corrective training rule: :func:`~repro.hdcpp.retrain` the
        memory with ``n >= 1`` encoded queries (one row: an ``int`` label)
        under this search's similarity.  Traced, a ``training_loop``'s
        implementation; eager, an online update (``Servable.updated``)."""
        return H.retrain(memory, queries, labels, similarity=self.similarity)


def search_servable(
    name: str,
    search: Search,
    memory: np.ndarray,
    encoder: Optional[np.ndarray] = None,
    *,
    targets: tuple,
    trainable: bool = False,
    grow: Optional[tuple] = None,
    signature_extra: str = "",
) -> Servable:
    """Serve an application's :class:`Search` over its bound constants:
    the served program family, the shard partials and the update / append
    / rebuild rules, all derived from the one statement.

    Args:
        name: Served model name.
        search: The application's search statement.
        memory: The ``(rows, D)`` array of ``search.memory`` — the constant
            a sharded deployment splits by rows.
        encoder: The array of ``search.encoder``, for a row ``encode``.
        targets: Targets the deployment may be registered on.
        trainable: Carry the online-update rule (:meth:`Search.rule`).
        grow: ``(append row shape, rows -> new memory rows)`` (``None``: the
            index is frozen); ``rebuild`` re-invokes this helper on the
            grown constants, so growth equals an offline rebuild.
        signature_extra: Configuration the constants do not capture.

    One program is traced per micro-batch bucket, a row ``encode`` fused
    into its stage.  A shard's partial returns raw scores instead: a
    ``bipolar`` encoder runs as an ``encoding_loop`` stage (the device
    encoder, so shards answer like the unsharded model on every target); an
    unsigned one — only raw *cosine* has one — encodes inline on the host,
    since GEMM and per-row matvec differ in the low bits and the
    boundary-row gate would reject every batch.  So cosine shards on the
    accelerators score host cosine where the unsharded stage is the
    device's binarized Hamming search.
    """
    stored = np.asarray(memory, dtype=np.float32)
    # The closures below outlive every update of the state, so they keep
    # shapes, never the arrays.
    n_stored, dim = stored.shape
    fused = callable(search.encode)
    constants, shared = {search.memory: stored}, []
    if fused:
        constants[search.encoder] = np.asarray(encoder, dtype=np.float32)
        shared = [H.hm(*constants[search.encoder].shape)]
    sample_shape = tuple(constants[search.encoder].shape[1:] if fused else search.query[1])
    element = (*search.query[2:], H.float32)[0]
    row_type = H.hv(*sample_shape, element) if fused else H.hv(dim)

    def build(batch_size: int, n_rows: Optional[int] = None) -> H.Program:
        """The served program, or with ``n_rows`` one shard's partial: the
        raw ``(batch, n_rows)`` scores instead of arg-reduced labels."""
        partial = n_rows is not None
        if partial:
            prog = H.Program(f"{name}_shard{n_rows}_b{batch_size}")
        else:
            prog, n_rows = H.Program(f"{name}_serve_b{batch_size}"), n_stored

        def main(batch, rows, *enc):
            if fused and not partial:
                return H.inference_loop(search_fn, batch, rows, encoder=enc[0])
            if fused:
                bipolar = search.bipolar
                encoded = H.encoding_loop(encode_fn, batch, *enc) if bipolar else search.encode(batch, *enc)
            elif search.encode is not None:
                per_row, batch_impl = search.encode
                encoded = H.parallel_map(per_row, batch, output_dim=dim, batch_impl=batch_impl)
            else:
                encoded = batch
            if partial:
                return search.score(encoded, rows, fused and search.bipolar)
            return H.inference_loop(search_fn, encoded, rows)

        if not partial:
            search_fn = search.define(prog, row_type, H.hm(n_rows, dim), *shared)
        elif fused and search.bipolar:
            encode_fn = prog.define(row_type, *shared)(search.encode)
        names = (search.query[0], search.memory, search.encoder)[: 2 + fused]
        prog.entry(H.hm(batch_size, *sample_shape, element), H.hm(n_rows, dim), *shared)(
            _named(main, names)
        )
        return prog

    def update_batch(bound: dict, samples: np.ndarray, labels: np.ndarray) -> dict:
        queries = np.asarray(samples, dtype=np.float32)
        encoded = search.encode(queries, bound[search.encoder]) if fused else queries
        # A fresh array: the bound memory may be a read-only view of state
        # a deployment still serves.
        return {**bound, search.memory: np.asarray(search.rule(encoded, labels, bound[search.memory]))}

    def append_batch(bound: dict, new_rows: np.ndarray) -> dict:
        grown = np.asarray(grow[1](new_rows), dtype=np.float32)
        rows = np.concatenate([np.asarray(bound[search.memory]), grown], axis=0)
        return {**bound, search.memory: rows}

    def rebuild(grown: dict) -> Servable:
        return search_servable(
            name, search, grown[search.memory], grown.get(search.encoder), targets=targets,
            trainable=trainable, grow=grow, signature_extra=signature_extra,
        )

    return Servable(
        name=name,
        build_program=build,
        constants=constants,
        query_param=search.query[0],
        sample_shape=sample_shape,
        # signature_extra, not an explicit signature: the content hash keeps
        # independently built (and grown) servables apart in the cache.
        signature_extra=signature_extra,
        supported_targets=tuple(targets),
        shard_spec=ShardSpec(
            param=search.memory,
            build_partial=build,
            reduce="argmax" if search.similarity == "cosine" else "argmin",
        ),
        update_batch=update_batch if trainable else None,
        append_batch=append_batch if grow else None,
        growable=(search.memory,) if grow else (),
        rebuild=rebuild if grow else None,
        append_row_shape=grow[0] if grow else None,
        description=f"{search.similarity} search over {n_stored} rows, D={dim}",
    )
