"""Execution engine shared by the back ends.

A compiled program is **resolved once per kernel column**
(:func:`resolve`, cached by :meth:`repro.backends.base.CompiledProgram
.resolved`): each traced function it runs becomes a :class:`Function`, an
immutable list of :class:`Step` records.  A step holds what the IR decides
about its op on that column — the kernel call with its keyword arguments
(attributes, perforation window, the plan's ``bipolar``), the
packed-route and ``sign_when_binarized`` decisions the operand and result
types make, the ``signed_by`` fusion, the operand and result slots and the
launches it counts; a stage's step holds a :class:`Stage` with its label,
its resolved implementation, its proof or per-row reason and its
``row_count_reads``.  The :class:`OpInterpreter` then runs the steps in
order over an environment from SSA value ids to arrays, one per execution;
what it still decides per call is only what depends on the data: whether
an operand arrived bit-packed, the gate's verdicts, and the profile's
timing.  The steps are not saved in the compile cache: a restored artifact
resolves on its first run.

The high-level stage primitives and Hetero-C++ parallel maps are run by
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
  recorded per stage in the run's :class:`StageRecord` (decoded as
  ``ExecutionReport.notes["stage_fallback_reasons"]``) so serving metrics
  can expose deployments that silently degrade to the slow path.

A ``training_loop`` whose traced rule the plan proves (one ordered
``retrain`` of every row, :func:`repro.ir.ops.proven_rule`) runs it per
256-row mini-batch on the ``library`` column (``retrain``'s declared
mini-batch rule), counted as vectorized; and once per epoch over the whole
block on the column it is proven on, counted as vectorized with its proof
as the reason.  Any other traced rule runs per row, its reason saying why;
an eager training callable runs per row.

Implementation functions may be traced functions (run from their resolved
steps on the same column — which is how the approximation transforms
reach them) or plain Python callables executed eagerly with
:class:`HyperVector` / :class:`HyperMatrix` arguments.

An accepted gate's two reference rows are verification, not program work:
their launches are taken back out of the run's launch count (their cost
stays in ``gate_seconds``).  A refused gate's rows are reused by the
per-row loop, so they count.

The routes are read from the plan the compile wrote into the IR: a
product marked ``signed_by`` runs the certified sign on a kernel set that
signs products (:attr:`~repro.backends.kernelsets.KernelSet
.signs_products`), and a stage marked ``proven`` on the kernel set's
column is the proven block above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from repro.hdcpp.arrays import HyperMatrix, HyperVector, as_numpy, wrap_like
from repro.hdcpp.program import Operation, Program, TracedFunction
from repro.ir.ops import IMPL_OPS, Opcode
from repro.backends.kernelsets import KernelSet
from repro.kernels import memo
from repro.transforms.plan import row_count_reads

__all__ = [
    "OpInterpreter", "HostStageExecutor", "ExecutionError", "Function", "Stage", "StageRecord", "resolve",
]

#: Errors that mark an implementation function as row-only (written for
#: one row, it chokes on a whole hypermatrix: shape or type trouble, or a
#: hypervector-only attribute such as ``.dim``), so its block attempt
#: falls back to the per-row loop.  A genuine bug still propagates: the
#: per-row fallback runs the implementation again and raises it there.
_BATCH_FALLBACK_ERRORS = (TypeError, ValueError, IndexError, AttributeError, KeyError)

# The gate's verdicts live in a *verdict store*, a plain dict owned by
# whoever binds the inputs — each :class:`~repro.backends.BoundProgram`
# handle, and each ``CompiledProgram`` for its own direct ``run`` — and
# handed to ``Backend.execute``; compiled artifacts carry no runtime state
# (their resolved steps are decisions of the IR, not of any data).
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


# ---------------------------------------------------------------------------
# Resolved programs
# ---------------------------------------------------------------------------


#: The dtype ``sign`` stores its ±1 results in, whatever the element type.
_SIGNS = np.dtype(np.int8)


class Step(NamedTuple):
    """One op of a traced function, resolved for one kernel column."""

    op: Operation
    #: The kernel, called ``call(*inputs, **kwargs)`` — or, where
    #: ``kwargs`` is ``None``, ``call(run, inputs)``: the stage executor's
    #: entry, an initialiser, or a kernel that checks its operands per call.
    call: Callable
    kwargs: Optional[dict]
    #: Ids of the values read, in operand order.
    args: tuple
    #: Id of the value written (a ``signed_by`` product writes its sign's);
    #: ``None`` for an op without a result.
    result: Optional[int]
    #: Kernel launches the step counts: 1 a primitive, 2 a product and the
    #: ``sign`` it stands for, 0 a stage (its implementation counts its own).
    launches: int


class Function(NamedTuple):
    """A traced function resolved for one kernel column: its parameter
    ids, its steps in order (a ``sign`` a ``signed_by`` product writes has
    none), and its result ids."""

    name: str
    params: tuple
    steps: tuple
    results: tuple


class Stage(NamedTuple):
    """A stage or ``parallel_map`` resolved for one kernel column."""

    op: Operation
    #: ``opcode[impl]@%result``: the key of its profile row and fallback reason.
    label: str
    column: str
    #: The implementation: a traced one resolved on the same column, or
    #: an eager callable.
    traced: Optional[Function]
    eager: Optional[Callable]
    #: The declared whole-block formulation (``batch_impl``), if any.
    batch_impl: Optional[Callable]
    #: A row-map stage: proven on this column (:mod:`repro.transforms.plan`);
    #: a ``training_loop``: its traced rule is proven at all.
    proven: bool
    #: The reason its profile row gives when it runs by its proof.
    proof: Optional[str]
    #: On the reference column, the traced implementation's kernels with
    #: row-count-dependent arithmetic (:func:`row_count_reads`).
    reads: tuple
    #: The reason its profile row gives when it runs per row as configured.
    per_row: Optional[str]
    #: The shape and dtypes a proven block's result may take past its row
    #: count (its IR result type's; ``sign`` stores ±1 as ``int8``).
    row_shape: tuple
    dtypes: tuple
    #: An ``encoding_loop`` whose result a ``training_loop`` is planned
    #: ``fused_with``; a ``training_loop``'s ``fused_with`` value id.
    fused: bool
    fused_with: Optional[int]


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


class _Resolver:
    """Resolves a program's functions for one kernel set, each once."""

    def __init__(self, program: Program, kernels: type[KernelSet]):
        self.program = program
        self.kernels = kernels
        self.functions: dict[str, Function] = {}

    def function(self, fn: TracedFunction) -> Function:
        done = self.functions.get(fn.name)
        if done is not None:
            return done
        fused = {op.attrs["fused_with"].id for op in fn.ops if "fused_with" in op.attrs}
        signs, written, steps = self.kernels.signs_products, None, []
        for op in fn.ops:
            if written is not None and op.result is written:
                continue  # the sign its product writes
            args = tuple([value.id for value in op.operands])
            result = None if op.result is None else op.result.id
            written = op.attrs.get("signed_by") if signs else None
            if written is not None:
                launches = 1 + (written is not op.result)
                steps.append(Step(op, *self.kernels.signed_call(op), args, written.id, launches))
            elif op.opcode in IMPL_OPS:
                steps.append(Step(op, self._stage_call(self.stage(op, fused)), None, args, result, 0))
            else:
                steps.append(Step(op, *self.kernels.call(op), args, result, 1))
        done = Function(
            fn.name,
            tuple(p.id for p in fn.params),
            tuple(steps),
            tuple(r.id for r in fn.results),
        )
        self.functions[fn.name] = done
        return done

    @staticmethod
    def _stage_call(stage: Stage) -> Callable:
        return lambda run, inputs: run.stages.execute_stage(run, stage, inputs)

    def stage(self, op: Operation, fused: set) -> Stage:
        impl, eager = op.attrs.get("impl"), op.attrs.get("impl_callable")
        if impl is None and eager is None:
            raise ExecutionError(f"{op.opcode} has no implementation function")
        source = None if impl is None else self.program.function(impl)
        column = self.kernels.column
        reads = row_count_reads(source) if source is not None and column != "library" else ()
        per_row = str(memo.RowCountDependent(*reads)) if reads else None
        proven = op.attrs.get("proven", ())
        if op.opcode is Opcode.TRAINING_LOOP:
            proven = source is not None and bool(proven)
            proof = (
                f"proven on the {column} column: one ordered retrain of every row"
                if proven and column != "library" else None
            )
            if source is not None and per_row is None:
                per_row = "unproven: the rule is not one ordered retrain of row ops"
        else:
            proven = column in proven
            proof = f"proven on the {column} column: every op is exact row by row" if proven else None
        rtype = getattr(op.result, "type", None)
        element = getattr(rtype, "element", None)
        fused_with = op.attrs.get("fused_with")
        return Stage(
            op,
            _stage_label(op),
            column,
            None if source is None else self.function(source),
            None if source is not None else eager,
            op.attrs.get("batch_impl"),
            proven,
            proof,
            reads,
            per_row,
            tuple(getattr(rtype, "shape", ())[1:]),
            () if element is None else (element.numpy_dtype, _SIGNS),
            op.result is not None and op.result.id in fused,
            None if fused_with is None else fused_with.id,
        )


def resolve(program: Program, kernels: type[KernelSet]) -> Function:
    """``program``'s entry function resolved for ``kernels``' column, with
    every implementation function its stages run."""
    return _Resolver(program, kernels).function(program.entry_function)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class OpInterpreter:
    """One execution of a resolved program: runs its steps, counts their
    kernel launches and holds the execution's random stream."""

    def __init__(self, stages: "HostStageExecutor", seed: int = 0):
        self.stages = stages
        self.seed = seed
        #: Kernel launches so far (``ExecutionReport.kernel_launches``).
        self.launches = 0
        self._rng = None

    def rng(self) -> np.random.Generator:
        """The execution's one random stream, seeded on first use: most
        programs (every served one) draw nothing, and seeding a Generator
        costs ~9 us a run."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def run_steps(self, steps: tuple, env: dict) -> None:
        """Run ``steps`` in order over ``env`` (value id -> array)."""
        for _, call, kwargs, args, result, launches in steps:
            self.launches += launches
            if kwargs is None:
                value = call(self, [env[a] for a in args])
            elif len(args) == 1:  # most ops: no argument list built
                value = call(env[args[0]], **kwargs)
            else:
                value = call(*[env[a] for a in args], **kwargs)
            if result is not None:
                env[result] = value


@dataclass(slots=True)
class StageRecord:
    """One run's stage accounting, compact as the executor writes it.

    :class:`HostStageExecutor` fills it as the run's stages execute, and
    the back end hands it to the run's report (``ExecutionReport.stages``).
    The serving runtime folds it as is (``ServingMetrics.record_execution``
    and the request trace's ``stage:`` spans); :attr:`~repro.backends.base
    .ExecutionReport.notes` decodes it (:meth:`notes`) on first read.
    """

    #: One row per stage / parallel-map run, the tuple ``(stage, start,
    #: end, gate_seconds, rows, route, reason, device)``: the stage's
    #: label, ``start`` / ``end`` on the monotonic clock request traces
    #: use, ``route`` ``vectorized`` / ``fallback`` / ``per-row`` /
    #: ``device``, ``device`` the offloaded stage's device fields or ``None``.
    profile: list = field(default_factory=list)
    #: Stage executions served by the block route, and that fell back to
    #: the per-row loop.  Neither counter moves for a stage whose
    #: configured route is per row (the reference column's reassociating
    #: stages, a ``training_loop`` whose rule is eager or unproven): its
    #: row's reason says why.
    vectorized: int = 0
    fallbacks: int = 0
    #: The fallback reason per falling-back stage label.
    reasons: dict = field(default_factory=dict)

    def notes(self) -> dict:
        """The ``ExecutionReport.notes`` keys this record stands for:
        ``stage_vectorized`` / ``stage_fallbacks``, ``stage_fallback_reasons``
        where a stage fell back and ``stage_profile`` where a stage ran, one
        dict a row (``seconds`` is ``end - start``; ``device`` only on an
        offloaded stage)."""
        notes = {"stage_vectorized": self.vectorized, "stage_fallbacks": self.fallbacks}
        if self.reasons:
            notes["stage_fallback_reasons"] = dict(self.reasons)
        if self.profile:
            notes["stage_profile"] = [_profile_entry(*row) for row in self.profile]
        return notes


def _profile_entry(stage, start, end, gate_seconds, rows, route, reason, device) -> dict:
    entry = {
        "stage": stage, "start": start, "end": end, "seconds": end - start,
        "gate_seconds": gate_seconds, "rows": rows, "route": route, "reason": reason,
    }  # fmt: skip
    if device is not None:
        entry["device"] = device
    return entry


class HostStageExecutor:
    """Stage/parallel-map execution strategy for CPU and GPU back ends; the
    accelerator back ends' subclass offloads the stage primitives."""

    #: Lifetime seconds spent inside the bit-identity gate (boundary
    #: reference rows + exact comparisons); per-row deltas land in the
    #: profile rows' ``gate_seconds``.
    gate_seconds = 0.0

    def __init__(self, verdicts: dict):
        #: The caller's gate-verdict store (see the module notes above).
        self.verdicts = verdicts
        #: The run's stage accounting (executors are created fresh per
        #: execution, so it is per run).
        self.record = StageRecord()
        #: Why each stage ran as it did, where the route alone does not
        #: say: its fallback reason, the reassociating opcode that keeps it
        #: per row on the reference column, or the proof that let its block
        #: skip the gate.
        self.reasons: dict[Operation, str] = {}
        #: The ``"device"`` fields of the stage being offloaded, written by
        #: an accelerator's stage handler: its row's route is ``device``.
        self.metered: dict[Operation, dict] = {}

    # ------------------------------------------------------------- accounting --
    def _record_fallback(self, stage: Stage, reason: str) -> None:
        self.record.fallbacks += 1
        self.record.reasons[stage.label] = reason
        self.reasons[stage.op] = reason

    # ------------------------------------------------------------------ helpers --
    @staticmethod
    def _wrap(array: np.ndarray, like_value) -> Union[HyperVector, HyperMatrix, np.ndarray]:
        """Wrap a NumPy array for an eager implementation callable."""
        element = getattr(like_value.type, "element", None)
        arr = np.asarray(array)
        return arr if element is None or arr.ndim not in (1, 2) else wrap_like(arr, element)

    def _apply_once(self, run: OpInterpreter, stage: Stage, args: list) -> np.ndarray:
        if stage.traced is None:
            return as_numpy(stage.eager(*[self._wrap(a, v) for a, v in zip(args, stage.op.operands)]))
        fn = stage.traced
        if len(args) != len(fn.params):
            raise ExecutionError(f"{fn.name} expects {len(fn.params)} arguments, got {len(args)}")
        if len(fn.results) != 1:
            raise ExecutionError(f"{fn.name} must return exactly one value inside a stage")
        # np.asarray would strip a PackedBits class memory down to raw
        # uint64 words; packed operands pass through unchanged.
        env = {
            param: arg if getattr(arg, "__packed_bits__", False) else np.asarray(arg)
            for param, arg in zip(fn.params, args)
        }
        run.run_steps(fn.steps, env)
        return env[fn.results[0]]

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
        run: OpInterpreter,
        stage: Stage,
        block_args: list,
        n_rows: int,
        cache: dict,
    ) -> Optional[np.ndarray]:
        """One whole-block attempt, proven or behind the bit-identity gate.

        Tries the declared ``batch_impl`` first, then auto-vectorization
        (the per-row implementation invoked once over the whole block).  A
        block the plan proves on this column is accepted on an O(1) check
        of its IR result type.  Any other result is accepted only if its
        boundary rows are exactly equal to the per-row reference
        (:meth:`_rows`, computed into ``cache``); otherwise the fallback
        reason is recorded and ``None`` returned so the caller runs the
        per-row loop.
        Fallback-class errors (shape/type trouble from a row-only
        implementation) are recorded too; genuine bugs propagate.  On the
        reference column a stage reading a row-count-dependent kernel
        returns ``None`` as its configured per-row route.
        """
        op = stage.op
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
            self._record_fallback(stage, cached_rejection)
            return None
        if stage.reads and not stage.proven:
            # Per row, its configured route: counted as neither route.
            self.reasons[op] = stage.per_row
            return None
        attempt = self._apply_once if stage.batch_impl is None else self._apply_batch_impl
        try:
            if stage.column != "library" and not stage.proven:
                with memo.block_attempt():
                    out = attempt(run, stage, block_args)
            else:  # a proven block reads only exact kernels: nothing in it refuses
                out = attempt(run, stage, block_args)
        except memo.RowCountDependent as exc:
            self.reasons[op] = str(exc)
            return None
        except _BATCH_FALLBACK_ERRORS as exc:
            self._reject(stage, f"{type(exc).__name__}: {exc}")
            return None
        out = np.asarray(out)
        if op.opcode is Opcode.INFERENCE_LOOP:
            out = _label_batch(out)
        if stage.proven and out.shape == (n_rows, *stage.row_shape) and out.dtype in stage.dtypes:
            # The plan proved this block equal to the per-row loop on this
            # column, op by op from the primitive table: no boundary rows,
            # only the O(1) check of its IR result type.
            self.reasons[op] = stage.proof
            self.record.vectorized += 1
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
            self.record.vectorized += 1
            return out
        # Everything from here to the verdict is gate cost (boundary
        # reference rows + exact comparisons) — timed separately so the
        # profile can show what bit-identity checking costs per stage.
        gate_started, launches = time.monotonic(), run.launches
        try:
            mismatch = boundary_row_mismatch(out, n_rows, self._rows(run, stage, block_args, cache))
        finally:
            self.gate_seconds += time.monotonic() - gate_started
        if mismatch is not None:
            # The per-row loop reuses the reference rows: their launches count.
            route = "auto-vectorization" if stage.batch_impl is None else "batch_impl"
            self._reject(stage, f"{route} {mismatch}")
            return None
        # An accepted gate's reference rows are verification, not program work.
        run.launches = launches
        self.verdicts[op, n_rows] = (out.shape, out.dtype)
        self.record.vectorized += 1
        return out

    def _apply_batch_impl(self, run: OpInterpreter, stage: Stage, block_args: list) -> np.ndarray:
        """The declared whole-block formulation, called once over the block."""
        wrapped = [self._wrap(a, v) for a, v in zip(block_args, stage.op.operands)]
        return as_numpy(stage.batch_impl(*wrapped))

    def _reject(self, stage: Stage, reason: str) -> None:
        """Record a fallback and pin the rejection for future executions."""
        self.verdicts[stage.op] = reason
        self._record_fallback(stage, reason)

    # ------------------------------------------------------------------ stages --
    def execute_stage(self, run: OpInterpreter, stage: Stage, inputs: list):
        """Run one stage or ``parallel_map`` by its handler (a row map's
        :meth:`_map_rows`, a ``training_loop``'s :meth:`_training`) under the
        profiling hook.

        Route attribution reads the vectorized/fallback counter deltas, so
        it agrees exactly with the accounting the serving metrics consume;
        ``per-row`` marks a configured per-row run (no block attempt was
        accepted or refused), and ``device`` a stage the handler offloaded
        (:attr:`metered`).  ``reason`` says why a stage ran per row, why a
        vectorized one ran no gate (its proof), or on a device, why it did
        no device work.
        """
        handler = self._training if stage.op.opcode is Opcode.TRAINING_LOOP else self._map_rows
        record = self.record
        start = time.monotonic()
        vectorized_before, fallbacks_before = record.vectorized, record.fallbacks
        gate_before = self.gate_seconds
        try:
            return handler(run, stage, inputs)
        finally:
            end = time.monotonic()
            op = stage.op
            device = self.metered.pop(op, None)
            if device is not None:
                route = "device"
            elif record.vectorized > vectorized_before:
                route = "vectorized"
            elif record.fallbacks > fallbacks_before:
                route = "fallback"
            else:
                route = "per-row"
            rows = 0
            if inputs:
                head = np.asarray(inputs[0])
                rows = int(head.shape[0]) if head.ndim else 0
            gate = self.gate_seconds - gate_before
            record.profile.append((stage.label, start, end, gate, rows, route, self.reasons.get(op), device))

    def _map_rows(self, run: OpInterpreter, stage: Stage, inputs: list):
        """``encoding_loop`` / ``inference_loop`` / ``parallel_map``: apply the
        implementation to every row of the first operand, the remaining
        operands (encoder, class memory, shared codebook) passed whole."""
        n_rows = int(np.asarray(inputs[0]).shape[0])
        if n_rows == 0:
            return self._empty_result(stage.op)
        cache: dict[int, np.ndarray] = {}
        out = self._try_block(run, stage, inputs, n_rows, cache)
        if out is not None:
            return out
        row_result = self._rows(run, stage, inputs, cache)
        return np.stack([row_result(i) for i in range(n_rows)])

    def _rows(self, run: OpInterpreter, stage: Stage, inputs: list, cache: dict) -> Callable:
        """``row_result(i)``: the implementation applied to row ``i`` of the
        block, each row once (``cache``: the per-row loop reuses the rows a
        refused gate computed)."""
        data, shared = np.asarray(inputs[0]), inputs[1:]
        as_row = _label_row if stage.op.opcode is Opcode.INFERENCE_LOOP else np.asarray

        def row_result(i: int) -> np.ndarray:
            if i not in cache:
                cache[i] = as_row(self._apply_once(run, stage, [data[i]] + shared))
            return cache[i]

        return row_result

    #: Rows per call of a traced training rule on the ``library`` column
    #: (the same mini-batch the CUDA baselines use).
    training_batch_size = 256

    def _training(self, run: OpInterpreter, stage: Stage, inputs: list):
        """``training_loop``: ``epochs`` passes of the implementation over
        the rows, each call returning the next class memory (the routes:
        module notes)."""
        op = stage.op
        queries, labels, current = np.asarray(inputs[0]), inputs[1], np.array(inputs[2], copy=True)
        encoder = [inputs[3]] if op.attrs.get("has_encoder") else []
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        size = 1
        if stage.proven:
            size = self.training_batch_size if stage.column == "library" else max(len(labels), 1)
            if stage.proof is not None:
                self.reasons[op] = stage.proof
            self.record.vectorized += 1
        elif stage.per_row is not None:
            # Per row, its configured route: counted as neither route.
            self.reasons[op] = stage.per_row
        for _ in range(int(op.attrs.get("epochs", 1))):
            for begin in range(0, len(labels), size):
                rows = begin if size == 1 else slice(begin, begin + size)
                if stage.eager is not None:  # public HDC++: one row, an ``int`` label
                    args = [self._wrap(queries[rows], op.operands[0]), int(labels[rows])]
                    args += [self._wrap(a, v) for a, v in zip([current, *encoder], op.operands[2:])]
                    current = as_numpy(stage.eager(*args))
                else:
                    args = [queries[rows], labels[rows], current, *encoder]
                    current = self._apply_once(run, stage, args)
        return current
