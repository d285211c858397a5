"""Execution engine shared by the back ends.

The :class:`OpInterpreter` walks the operation stream of a traced function
in order, keeping an environment from SSA value ids to concrete NumPy
arrays, and dispatches each operation to the back end's kernel set.  The
high-level stage primitives and Hetero-C++ parallel maps are handled by
:class:`HostStageExecutor`, the one executor of those stages: compiled for
the CPU or GPU, and called eagerly on concrete operands (a one-stage CPU
program, :mod:`repro.hdcpp.stages`).  Its route is read from the kernel
set's column, through one **block route**:

* an ``encoding_loop`` / ``inference_loop`` / ``parallel_map`` first tries
  its whole block of rows at once — the operation's declared
  ``batch_impl``, or the per-row implementation invoked once over the
  whole hypermatrix;
* **proven**: where the plan marks the stage ``proven`` on the executing
  column (a traced implementation with no ``batch_impl``, every op of it
  ``exact`` in the primitive table, :mod:`repro.transforms.plan`), the
  block is accepted after an O(1) shape and dtype check against the op's
  IR result type, with no boundary row: counted as vectorized, its
  ``stage_profile`` entry's ``gate_seconds`` 0 and its reason naming the
  proof.  A block that misfits its type takes the gate below;
* **gated**: any other block is accepted only when it passes the
  **boundary-row bit-identity gate**: the first and last row are
  recomputed through the per-row implementation and compared exactly.
  What keeps the gate: declared ``batch_impl`` closures, eager callables,
  and a traced stage reading a kernel the table does not mark ``exact`` —
  on the ``library`` column (the GPU and the batched CPU) a ``gemm`` among
  them;
* **per row**: on the CPU's reference ``kernel`` column a stage whose
  implementation reads a kernel with row-count-dependent arithmetic
  (``Primitive.reassociates``: ``cossim``, and a ``matmul`` not read
  through its certified sign) is not attempted.  A traced implementation
  is read through :func:`repro.transforms.plan.row_count_reads`; an eager
  one is refused at dispatch (:func:`repro.kernels.memo.refuse_in_block`).
  Such a stage runs per row, its configured route, with the reason in its
  ``stage_profile`` entry;
* on a fallback error, a shape mismatch or a gate rejection, the stage
  runs the original per-row loop, so results never change — only the
  number of Python-level iterations does.  The fallback reason is
  recorded per stage and surfaced through
  ``ExecutionReport.notes["stage_fallback_reasons"]`` so serving metrics
  can expose deployments that silently degrade to the slow path.

A ``training_loop`` whose traced rule the plan proves (one ordered
``retrain`` of every row, :func:`repro.ir.ops.proven_rule`) runs it per
256-row mini-batch on the ``library`` column (``retrain``'s declared
mini-batch rule), counted as vectorized; and once per epoch over the whole
block on the column it is proven on, counted as vectorized with its proof
as the reason.  Any other traced rule runs per row, its reason saying why;
an eager training callable runs per row.

Implementation functions may be traced functions (interpreted with the same
kernel set — which is how the approximation transforms reach them) or plain
Python callables executed eagerly with :class:`HyperVector` /
:class:`HyperMatrix` arguments.

An accepted gate's two reference rows are verification, not program work:
their launches are taken back out of ``kernel_invocations`` (their cost
stays in ``gate_seconds``).  A refused gate's rows are reused by the
per-row loop, so they count.

The routes are read from the plan the compile wrote into the IR: a
product marked ``signed_by`` runs the certified sign on a kernel set that
signs products (:attr:`~repro.backends.kernelsets.KernelSet
.signs_products`), and a stage marked ``proven`` on the kernel set's
column is the proven block above.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Optional, Union

import numpy as np

from repro.hdcpp.arrays import HyperMatrix, HyperVector, as_numpy, wrap_like
from repro.hdcpp.program import Operation, Program, TracedFunction
from repro.ir.ops import ROW_MAP_OPS, STAGE_OPS, Opcode
from repro.backends.kernelsets import KernelSet
from repro.kernels import memo
from repro.transforms.plan import row_count_reads

__all__ = ["OpInterpreter", "HostStageExecutor", "ExecutionError"]

#: Errors that mark an implementation function as row-only (written for
#: one row, it chokes on a whole hypermatrix: shape or type trouble, or a
#: hypervector-only attribute such as ``.dim``), so its block attempt
#: falls back to the per-row loop.  A genuine bug still propagates: the
#: per-row fallback runs the implementation again and raises it there.
_BATCH_FALLBACK_ERRORS = (TypeError, ValueError, IndexError, AttributeError, KeyError)

# The gate's verdicts live in a *verdict store*, a plain dict owned by
# whoever binds the inputs — each :class:`~repro.backends.BoundProgram`
# handle, and each ``CompiledProgram`` for its own direct ``run`` — and
# handed to ``Backend.execute``; compiled artifacts carry no runtime state.
#
# ``store[op] = reason`` pins a *rejected* block route.  Retrying the
# whole-batch attempt on every execution would make a permanently
# falling-back model strictly slower than the plain per-row path, so a
# rejection — row-only implementation, wrong shape, or a bit-identity
# gate failure — pins the per-row loop for the rest of the store's life.
# The gate verdict *is* data dependent (a float-valued route may disagree
# on one batch's values and agree on the next), so pinning deliberately
# trades a possibly recoverable route for correct, predictable cost.
#
# ``store[op, n_rows] = (shape, dtype)`` caches an *accepted* verdict per
# exact row count: once the block route has proven bit-identical on the
# boundary rows of an ``n_rows`` batch, steady-state batches of that count
# skip the two per-row reference rows and their exact comparisons — the
# dominant per-batch gate cost — and only re-verify the result's shape and
# dtype (O(1)).  Not per bucket: a bucket's handle runs every count it
# holds, unpadded, and GEMM bits can depend on the row count, so a verdict
# earned at one count never vouches for another.
#
# A handle binds one version's constants, so a verdict never vouches for
# other constants: a hot-swapped deployment's new handles (bound to the
# same cached compiled programs) and cache-restored artifacts start with
# an empty store and re-probe.  Writes are GIL-atomic dict stores, so a
# handle shared across worker threads at worst attempts a doomed route
# once per thread.


class ExecutionError(RuntimeError):
    """Raised when a compiled program cannot be executed."""


# ``inference_loop`` yields one int64 label per row, whatever scalar shape
# the implementation returned it in.
def _label_row(out) -> np.ndarray:
    return np.asarray(out, dtype=np.int64).reshape(())


def _label_batch(out) -> np.ndarray:
    return np.asarray(out, dtype=np.int64).reshape(-1)


def boundary_row_mismatch(
    out: np.ndarray, n_rows: int, row_result: Callable[[int], np.ndarray]
) -> Optional[str]:
    """The boundary-row bit-identity gate: why ``out`` is rejected, or ``None``.

    ``out`` is a whole-block result claiming to equal the per-row reference
    applied to each of ``n_rows`` rows; ``row_result(i)`` computes reference
    row ``i``.  The claim is checked where a block formulation that
    reduces or scans across the row axis goes wrong first: rank and shape,
    then dtype, then *exact* equality on the first and the last row.  The
    reason reads as a predicate of the block route ("returned shape ...").
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


def _fits_result_type(out: np.ndarray, op: Operation, n_rows: int) -> bool:
    """The O(1) check a proven block passes instead of the gate: ``out`` has
    the op's IR result shape at ``n_rows`` rows, and its element's storage
    dtype or ``int8`` (``sign`` stores its ±1 result as ``int8`` under the
    element type the IR keeps)."""
    rtype = op.result.type
    return out.shape == (n_rows, *rtype.shape[1:]) and out.dtype in (rtype.element.numpy_dtype, np.int8)


class OpInterpreter:
    """Interprets traced functions with a back-end kernel set."""

    def __init__(self, program: Program, kernels: KernelSet, stage_executor: "HostStageExecutor"):
        self.program = program
        self.kernels = kernels
        self.stages = stage_executor

    # -- function-level execution -------------------------------------------------------
    def run_function(self, fn: TracedFunction, args: list[np.ndarray]) -> list[np.ndarray]:
        if len(args) != len(fn.params):
            raise ExecutionError(
                f"{fn.name} expects {len(fn.params)} arguments, got {len(args)}"
            )
        env: dict[int, np.ndarray] = {p.id: a for p, a in zip(fn.params, args)}
        self.run_ops(fn, env)
        return [env[r.id] for r in fn.results]

    def run_entry(self, env: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        self.run_ops(self.program.entry_function, env)
        return env

    # -- op-level execution ----------------------------------------------------------------
    def run_ops(self, fn: TracedFunction, env: dict[int, np.ndarray]) -> None:
        """Run ``fn``'s ops in order; on a kernel set that signs products, a
        product planned ``signed_by=%v`` writes ``%v`` through the certified
        column, and the ``sign`` that produces ``%v`` is skipped."""
        signs, written = self.kernels.signs_products, None
        for op in fn.ops:
            if written is not None and op.result is written:
                continue
            written = op.attrs.get("signed_by") if signs else None
            if written is None:
                self.execute_op(op, env)
            else:
                inputs = [env[v.id] for v in op.operands]
                env[written.id] = self.kernels.run_signed(op, inputs, 1 + (written is not op.result))

    def execute_op(self, op: Operation, env: dict[int, np.ndarray]) -> None:
        inputs = [env[v.id] for v in op.operands]
        if op.opcode in STAGE_OPS:
            result = self.stages.execute_stage(self, op, inputs)
        elif op.opcode == Opcode.PARALLEL_MAP:
            result = self.stages.execute_parallel_map(self, op, inputs)
        else:
            result = self.kernels.run(op, inputs)
        if op.result is not None:
            env[op.result.id] = result


class HostStageExecutor:
    """Stage/parallel-map execution strategy for CPU and GPU back ends; the
    accelerator back ends' subclass offloads the stage primitives."""

    def __init__(self, verdicts: dict):
        #: The caller's gate-verdict store (see the module notes above).
        self.verdicts = verdicts
        #: Reason of the most recent block-route fallback (``None`` when
        #: every block attempt so far succeeded).  Back ends surface this
        #: in ``ExecutionReport.notes["batched_fallback"]``.
        self.last_fallback: Optional[str] = None
        #: Stage/parallel-map executions served by the block route (gate
        #: passed) during this executor's lifetime.
        self.vectorized_stages = 0
        #: Stage/parallel-map executions that fell back to the per-row
        #: loop.  Neither counter moves for a stage whose configured route
        #: is per row: the reference column's reassociating stages, and
        #: a ``training_loop`` whose rule is eager or unproven.
        self.fallback_stages = 0
        #: Per-stage fallback reasons, keyed by a human-readable stage
        #: label (``opcode[impl]``).
        self.stage_fallbacks: dict[str, str] = {}
        #: Why each stage ran as it did, where the route alone does not
        #: say: its fallback reason, the reassociating opcode that keeps it
        #: per row on the reference column, or the proof that let its block
        #: skip the gate.
        self.reasons: dict[Operation, str] = {}
        #: Per-execution profiling records, appended by every stage /
        #: parallel-map run: ``{"stage", "start", "end", "seconds",
        #: "gate_seconds", "rows", "route", "reason"}`` with monotonic-clock bounds
        #: (the same clock request traces use, so the entries double as
        #: per-stage child spans), and a ``"device"`` dict on a stage that
        #: ran on an accelerator.  Back ends surface the list in
        #: ``ExecutionReport.notes["stage_profile"]``; executors are
        #: created fresh per execution, so the list is per-run.
        self.profile: list[dict] = []
        #: The ``"device"`` fields of the stage being offloaded, written by
        #: an accelerator's stage handler: its row's route is ``device``.
        self.metered: dict[Operation, dict] = {}
        #: Lifetime seconds spent inside the bit-identity gate (boundary
        #: reference rows + exact comparisons); per-entry deltas land in
        #: ``profile[i]["gate_seconds"]``.
        self.gate_seconds = 0.0

    # ------------------------------------------------------------- accounting --
    @staticmethod
    def _stage_label(op: Operation) -> str:
        impl = op.attrs.get("impl")
        if impl is None:
            impl_callable = op.attrs.get("impl_callable")
            impl = getattr(impl_callable, "__name__", repr(impl_callable))
        label = f"{op.opcode.value}[{impl}]"
        if op.result is not None:
            # Disambiguate two stages sharing an opcode and impl (e.g.
            # HyperOMS encodes both the library and the query spectra with
            # the same callable) by the result's SSA name.
            label += f"@%{op.result.name}"
        return label

    def _record_fallback(self, op: Operation, reason: str) -> None:
        self.fallback_stages += 1
        self.last_fallback = f"{op.opcode}: {reason}"
        self.stage_fallbacks[self._stage_label(op)] = reason
        self.reasons[op] = reason

    def _record_vectorized(self, op: Operation) -> None:
        self.vectorized_stages += 1

    # ------------------------------------------------------------------ helpers --
    def _resolve_impl(
        self, interpreter: OpInterpreter, op: Operation
    ) -> tuple[Optional[TracedFunction], Optional[Callable]]:
        impl_name = op.attrs.get("impl")
        if impl_name is not None:
            return interpreter.program.function(impl_name), None
        impl_callable = op.attrs.get("impl_callable")
        if impl_callable is not None:
            return None, impl_callable
        raise ExecutionError(f"{op.opcode} has no implementation function")

    @staticmethod
    def _wrap(array: np.ndarray, like_value) -> Union[HyperVector, HyperMatrix, np.ndarray]:
        """Wrap a NumPy array for an eager implementation callable."""
        element = getattr(like_value.type, "element", None)
        arr = np.asarray(array)
        return arr if element is None or arr.ndim not in (1, 2) else wrap_like(arr, element)

    def _apply_once(self, interpreter, op, traced, eager, args: list[np.ndarray]) -> np.ndarray:
        if traced is None:
            return as_numpy(eager(*[self._wrap(a, v) for a, v in zip(args, op.operands)]))
        # np.asarray would strip a PackedBits class memory down to raw
        # uint64 words; packed operands pass through unchanged.
        args = [a if getattr(a, "__packed_bits__", False) else np.asarray(a) for a in args]
        results = interpreter.run_function(traced, args)
        if len(results) != 1:
            raise ExecutionError(f"{traced.name} must return exactly one value inside a stage")
        return results[0]

    @staticmethod
    def _empty_result(op: Operation) -> np.ndarray:
        """The zero-row result of a stage applied to an empty batch."""
        rtype = getattr(op.result, "type", None)
        shape = getattr(rtype, "shape", None)
        element = getattr(rtype, "element", None)
        if shape is not None:
            dtype = element.numpy_dtype if element is not None else np.float32
            return np.zeros(tuple(shape), dtype=dtype)
        return np.zeros((0,), dtype=np.float32)

    # ------------------------------------------------------------- block route --
    def _try_block(
        self,
        interpreter: OpInterpreter,
        op: Operation,
        traced: Optional[TracedFunction],
        eager: Optional[Callable],
        block_args: list,
        row_result: Callable[[int], np.ndarray],
        n_rows: int,
        transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> Optional[np.ndarray]:
        """One whole-block attempt, proven or behind the bit-identity gate.

        Tries the declared ``batch_impl`` first, then auto-vectorization
        (the per-row implementation invoked once over the whole block).  A
        block the plan proves on this column is accepted on an O(1) check
        of its IR result type.  Any other result is accepted only if its
        boundary rows are exactly equal to the per-row reference
        (``row_result``); otherwise the fallback reason is recorded and
        ``None`` returned so the caller runs the per-row loop.
        Fallback-class errors (shape/type trouble from a row-only
        implementation) are recorded too; genuine bugs propagate.  On the
        reference column a stage reading a row-count-dependent kernel
        returns ``None`` as its configured per-row route.
        """
        cached_rejection = self.verdicts.get(op)
        if cached_rejection is not None:
            # This operation's block route was already rejected on an
            # earlier execution through the same store (row-only
            # implementation, shape mismatch or gate failure).  None of
            # those verdicts can improve with different data in a way
            # that would be safe to trust, so skip the doomed whole-block
            # attempt and go straight to the per-row loop — a permanently
            # falling-back model costs what the per-row path always cost,
            # instead of per-row plus a discarded block run per batch.
            self._record_fallback(op, cached_rejection)
            return None
        column = interpreter.kernels.column
        reference, proven = column != "library", column in op.attrs.get("proven", ())
        if reference and not proven and traced is not None:
            reads = row_count_reads(traced)
            if reads:
                # Per row, its configured route: counted as neither route.
                self.reasons[op] = str(memo.RowCountDependent(*reads))
                return None
        batch_impl = op.attrs.get("batch_impl")
        route = "batch_impl" if batch_impl is not None else "auto-vectorization"
        try:
            with memo.block_attempt() if reference else contextlib.nullcontext():
                if batch_impl is not None:
                    wrapped = [self._wrap(a, v) for a, v in zip(block_args, op.operands)]
                    out = as_numpy(batch_impl(*wrapped))
                else:
                    out = np.asarray(self._apply_once(interpreter, op, traced, eager, block_args))
        except memo.RowCountDependent as exc:
            self.reasons[op] = str(exc)
            return None
        except _BATCH_FALLBACK_ERRORS as exc:
            self._reject(op, f"{type(exc).__name__}: {exc}")
            return None
        out = np.asarray(out)
        if transform is not None:
            out = transform(out)
        if proven and _fits_result_type(out, op, n_rows):
            # The plan proved this block equal to the per-row loop on this
            # column, op by op from the primitive table: no boundary rows.
            self.reasons[op] = f"proven on the {column} column: every op is exact row by row"
            self._record_vectorized(op)
            return out
        self.reasons.pop(op, None)
        cached_verdict = self.verdicts.get((op, n_rows))
        if cached_verdict is not None and out.shape == cached_verdict[0] and out.dtype == cached_verdict[1]:
            # This (handle, row count) already passed the boundary-row gate
            # on an earlier batch; skip the two reference rows and accept
            # on the cheap shape/dtype re-check.  A shape or dtype
            # surprise (here or against a proof's result type) falls
            # through to the full gate below, which re-probes (and possibly
            # rejects) as if no verdict were cached.
            self._record_vectorized(op)
            return out
        # Everything from here to the verdict is gate cost (boundary
        # reference rows + exact comparisons) — timed separately so the
        # profile can show what bit-identity checking costs per stage.
        gate_started, launches = time.monotonic(), interpreter.kernels.kernel_invocations
        try:
            mismatch = boundary_row_mismatch(out, n_rows, row_result)
        finally:
            self.gate_seconds += time.monotonic() - gate_started
        if mismatch is not None:
            # The per-row loop reuses the reference rows: their launches count.
            self._reject(op, f"{route} {mismatch}")
            return None
        # An accepted gate's reference rows are verification, not program work.
        interpreter.kernels.kernel_invocations = launches
        self.verdicts[op, n_rows] = (out.shape, out.dtype)
        self._record_vectorized(op)
        return out

    def _reject(self, op: Operation, reason: str) -> None:
        """Record a fallback and pin the rejection for future executions."""
        self.verdicts[op] = reason
        self._record_fallback(op, reason)

    # ---------------------------------------------------------------- profiling --
    def _run_profiled(self, handler, interpreter: OpInterpreter, op: Operation, inputs: list):
        """Run one stage/parallel-map handler under the profiling hook.

        Route attribution reads the vectorized/fallback counter deltas, so
        it agrees exactly with the accounting the serving metrics consume;
        ``per-row`` marks a configured per-row run (no block attempt was
        accepted or refused), and ``device`` a stage the handler offloaded
        (:attr:`metered`).  ``reason`` says why a stage ran per row, why a
        vectorized one ran no gate (its proof), or on a device, why it did
        no device work.
        """
        start = time.monotonic()
        vectorized_before = self.vectorized_stages
        fallbacks_before = self.fallback_stages
        gate_before = self.gate_seconds
        try:
            return handler(interpreter, op, inputs)
        finally:
            end = time.monotonic()
            device = self.metered.pop(op, None)
            if device is not None:
                route = "device"
            elif self.vectorized_stages > vectorized_before:
                route = "vectorized"
            elif self.fallback_stages > fallbacks_before:
                route = "fallback"
            else:
                route = "per-row"
            rows = 0
            if inputs:
                head = np.asarray(inputs[0])
                rows = int(head.shape[0]) if head.ndim else 0
            entry = {
                "stage": self._stage_label(op),
                "start": start,
                "end": end,
                "seconds": end - start,
                "gate_seconds": self.gate_seconds - gate_before,
                "rows": rows,
                "route": route,
                "reason": self.reasons.get(op),
            }
            if device is not None:
                entry["device"] = device
            self.profile.append(entry)

    # ------------------------------------------------------------------ stages --
    def execute_stage(self, interpreter: OpInterpreter, op: Operation, inputs: list[np.ndarray]):
        if op.opcode in ROW_MAP_OPS:
            handler = self._map_rows
        elif op.opcode == Opcode.TRAINING_LOOP:
            handler = self._training
        else:
            raise ExecutionError(f"unsupported stage {op.opcode}")
        return self._run_profiled(handler, interpreter, op, inputs)

    def execute_parallel_map(self, interpreter: OpInterpreter, op: Operation, inputs: list[np.ndarray]):
        return self._run_profiled(self._map_rows, interpreter, op, inputs)

    def _map_rows(self, interpreter: OpInterpreter, op: Operation, inputs: list[np.ndarray]):
        """``encoding_loop`` / ``inference_loop`` / ``parallel_map``: apply the
        implementation to every row of the first operand, the remaining
        operands (encoder, class memory, shared codebook) passed whole."""
        data, shared = inputs[0], list(inputs[1:])
        traced, eager = self._resolve_impl(interpreter, op)
        n_rows = int(np.asarray(data).shape[0])
        if n_rows == 0:
            return self._empty_result(op)
        if op.opcode == Opcode.INFERENCE_LOOP:
            as_row, as_batch = _label_row, _label_batch
        else:
            as_row, as_batch = np.asarray, None
        cache: dict[int, np.ndarray] = {}

        def row_result(i: int) -> np.ndarray:
            if i not in cache:
                args = [np.asarray(data)[i]] + shared
                cache[i] = as_row(self._apply_once(interpreter, op, traced, eager, args))
            return cache[i]

        out = self._try_block(interpreter, op, traced, eager, [data] + shared, row_result, n_rows, as_batch)
        if out is not None:
            return out
        return np.stack([row_result(i) for i in range(n_rows)])

    #: Rows per call of a traced training rule on the ``library`` column
    #: (the same mini-batch the CUDA baselines use).
    training_batch_size = 256

    def _training(self, interpreter, op, inputs):
        """``training_loop``: ``epochs`` passes of the implementation over
        the rows, each call returning the next class memory (the routes:
        module notes)."""
        queries, labels, current = np.asarray(inputs[0]), inputs[1], np.array(inputs[2], copy=True)
        encoder = [inputs[3]] if op.attrs.get("has_encoder") else []
        traced, eager = self._resolve_impl(interpreter, op)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        column, size, proven = interpreter.kernels.column, 1, op.attrs.get("proven", ())
        if traced is not None and proven:
            if column == "library":
                size = self.training_batch_size
            else:
                size = max(len(labels), 1)
                self.reasons[op] = f"proven on the {column} column: one ordered retrain of every row"
            self._record_vectorized(op)
        elif traced is not None:
            # Per row, its configured route: counted as neither route.
            reads = row_count_reads(traced) if column != "library" else ()
            self.reasons[op] = (
                str(memo.RowCountDependent(*reads)) if reads
                else "unproven: the rule is not one ordered retrain of row ops"
            )
        for _ in range(int(op.attrs.get("epochs", 1))):
            for begin in range(0, len(labels), size):
                rows = begin if size == 1 else slice(begin, begin + size)
                if eager is not None:  # public HDC++: one row, an ``int`` label
                    args = [self._wrap(queries[rows], op.operands[0]), int(labels[rows])]
                    args += [self._wrap(a, v) for a, v in zip([current, *encoder], op.operands[2:])]
                    current = as_numpy(eager(*args))
                else:
                    args = [queries[rows], labels[rows], current, *encoder]
                    current = self._apply_once(interpreter, op, traced, None, args)
        return current
