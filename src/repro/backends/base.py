"""Shared back-end infrastructure: compiled programs and execution reports.

A back end turns a traced HDC++ :class:`~repro.hdcpp.program.Program` into a
:class:`CompiledProgram`.  Compilation follows the workflow of Figure 4:

1. the program is cloned (so one traced application can be compiled many
   times under different approximation configurations);
2. the approximation passes requested by the
   :class:`~repro.transforms.ApproximationConfig` run over the clone;
3. the plan pass (:mod:`repro.transforms.plan`) writes the route decisions
   the back ends read as op attributes;
4. the clone is lowered to the HPVM-HDC dataflow graph and verified, the
   plan with it;
5. the back end retains whatever execution state it needs (kernel set,
   device simulator session, ...).

Executing a compiled program returns an :class:`ExecutionResult` carrying
both the outputs and an :class:`ExecutionReport` with measured wall-clock
time plus the modeled device-only latency, data movement and energy that
the benchmark harnesses consume.
"""

from __future__ import annotations

import functools
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.backends.executor import Function, resolve
from repro.backends.kernelsets import KernelSet, ReferenceKernelSet
from repro.hdcpp.arrays import HyperMatrix, HyperVector, as_numpy
from repro.hdcpp.program import Program, TracedFunction
from repro.hdcpp.types import HyperMatrixType, HyperVectorType
from repro.ir.builder import clone_program, lower_program
from repro.ir.dataflow import DataflowGraph, Target
from repro.ir.ops import row_mapped_params
from repro.ir.verifier import verify_graph, verify_plan
from repro.kernels import binary as binkern, memo, reference as ref
from repro.transforms.pipeline import ApproximationConfig, PassPipeline, PassReport
from repro.transforms.plan import plan_program

__all__ = ["ExecutionReport", "ExecutionResult", "CompiledProgram", "BoundProgram", "Backend"]

#: Held while a compiled program resolves its steps, so concurrent first
#: runs (two serving workers on one cold handle) build them once.
_RESOLVING = threading.Lock()


@dataclass
class ExecutionReport:
    """Accounting for one execution of a compiled program.

    ``wall_seconds`` is measured on the host; the remaining fields are
    modeled quantities reported by the back end / device simulators.
    """

    target: str = "cpu"
    wall_seconds: float = 0.0
    device_seconds: float = 0.0
    transfer_seconds: float = 0.0
    bytes_to_device: float = 0.0
    bytes_from_device: float = 0.0
    kernel_launches: int = 0
    energy_joules: float = 0.0
    notes: dict = field(default_factory=dict)

    def record_stage_counters(self, stages) -> None:
        """Surface a stage executor's vectorized-vs-fallback accounting.

        ``notes["stage_vectorized"]`` / ``notes["stage_fallbacks"]`` count
        how many stage / parallel-map executions took the block route vs
        fell back to the per-row loop.  A stage whose configured route is
        per row — on the reference CPU column one that reads a
        row-count-dependent kernel, and a ``training_loop`` whose rule is
        eager or unproven — counts in neither; its ``stage_profile`` entry
        says why.
        ``notes["stage_fallback_reasons"]`` maps each falling-back stage
        to its reason and ``notes["batched_fallback"]`` keeps the last
        reason string for quick inspection.  The serving runtime folds
        these into per-deployment :class:`~repro.serving.metrics
        .ServerStats` counters.
        """
        self.notes["stage_vectorized"] = stages.vectorized_stages
        self.notes["stage_fallbacks"] = stages.fallback_stages
        if stages.stage_fallbacks:
            self.notes["stage_fallback_reasons"] = dict(stages.stage_fallbacks)
        if stages.last_fallback is not None:
            self.notes["batched_fallback"] = stages.last_fallback
        # Per-stage execute-time profile (wall/gate seconds, rows, route, reason)
        # with monotonic-clock bounds — the serving runtime folds it into
        # per-(stage, bucket) breakdowns and per-request trace children.
        if getattr(stages, "profile", None):
            self.notes["stage_profile"] = list(stages.profile)

    def merge_device_counters(self, counters) -> None:
        """Fold a device simulator's counters into this report."""
        self.device_seconds += counters.device_seconds
        self.transfer_seconds += counters.transfer_seconds
        self.bytes_to_device += counters.bytes_to_device
        self.bytes_from_device += counters.bytes_from_device
        self.energy_joules += counters.energy_joules

    def merge(self, other: "ExecutionReport") -> None:
        """Accumulate another report's costs into this one.

        Used when one logical execution spans several compiled-program
        runs — a sharded deployment summing its per-shard partial
        executions into the report of the reduced result, an application
        summing its training and inference calls.  Notes follow one rule:
        numeric notes sum (so ``stage_vectorized`` counts every run, like
        ``kernel_launches`` beside it), lists extend (``stage_profile``),
        dicts update (``stage_fallback_reasons``) and anything else is
        last-wins.
        """
        self.wall_seconds += other.wall_seconds
        self.device_seconds += other.device_seconds
        self.transfer_seconds += other.transfer_seconds
        self.bytes_to_device += other.bytes_to_device
        self.bytes_from_device += other.bytes_from_device
        self.kernel_launches += other.kernel_launches
        self.energy_joules += other.energy_joules
        for key, value in other.notes.items():
            mine = self.notes.get(key)
            if isinstance(value, list):
                self.notes[key] = (mine if isinstance(mine, list) else []) + value
            elif isinstance(value, dict):
                self.notes[key] = {**(mine if isinstance(mine, dict) else {}), **value}
            elif isinstance(mine, (int, float)) and isinstance(value, (int, float)):
                self.notes[key] = mine + value
            else:
                self.notes[key] = value


@dataclass
class ExecutionResult:
    """Outputs plus accounting for one execution of a compiled program."""

    outputs: dict[str, object]
    report: ExecutionReport

    def __getitem__(self, name: str):
        return self.outputs[name]

    @property
    def output(self):
        """The single output (convenience for single-result programs)."""
        if len(self.outputs) != 1:
            raise ValueError(f"program has {len(self.outputs)} outputs; use result['name']")
        return next(iter(self.outputs.values()))


class CompiledProgram:
    """An executable artifact produced by a back end."""

    def __init__(
        self,
        backend: "Backend",
        program: Program,
        graph: DataflowGraph,
        pass_report: PassReport,
        config: ApproximationConfig,
    ):
        self.backend = backend
        self.program = program
        self.graph = graph
        self.pass_report = pass_report
        self.config = config
        self.entry = program.entry_function
        #: Seconds per :meth:`Backend.compile` phase; empty when deserialized.
        self.compile_seconds: dict = {}
        #: Seconds the source program spent tracing; 0 when deserialized.
        self.trace_seconds = 0.0
        #: The gate-verdict store of direct :meth:`run` calls; every bound
        #: handle owns its own (see ``repro.backends.executor``).
        self._verdicts: dict = {}
        #: The entry function resolved per kernel set (:meth:`resolved`).
        self._resolved: dict = {}

    def resolved(self, kernel_set: type[KernelSet]) -> Function:
        """The program's entry function resolved for ``kernel_set``'s column
        (:func:`repro.backends.executor.resolve`): built on the first run
        on that column, once, and read by every later run and handle."""
        entry = self._resolved.get(kernel_set)
        if entry is None:
            with _RESOLVING:
                entry = self._resolved.get(kernel_set)
                if entry is None:
                    entry = self._resolved[kernel_set] = resolve(self.program, kernel_set)
        return entry

    @functools.cached_property
    def row_mapped(self) -> frozenset:
        """Names of the entry parameters that accept 1..declared rows
        (:func:`~repro.ir.ops.row_mapped_params`), computed once — on the
        first input that brings fewer rows than declared."""
        return row_mapped_params(self.entry)

    # -- input binding -----------------------------------------------------------
    def _bind_inputs(self, kwargs: dict) -> dict[int, np.ndarray]:
        env: dict[int, np.ndarray] = {}
        missing = []
        for param in self.entry.params:
            if param.name not in kwargs:
                missing.append(param.name)
                continue
            env[param.id] = self._coerce(kwargs[param.name], param)
        if missing:
            raise TypeError(
                f"missing program inputs {missing}; expected "
                f"{[p.name for p in self.entry.params]}"
            )
        extra = set(kwargs) - {p.name for p in self.entry.params}
        if extra:
            raise TypeError(f"unknown program inputs {sorted(extra)}")
        return env

    def _fits(self, shape: tuple, param) -> bool:
        """Whether ``shape`` fits ``param``'s declared one; a
        :attr:`row_mapped` hypermatrix may bring 1..declared rows."""
        declared = param.type.shape
        return shape == declared or (
            len(shape) == len(declared)
            and shape[1:] == declared[1:]
            and 1 <= shape[0] <= declared[0]
            and param.name in self.row_mapped
        )

    def _coerce(self, value, param) -> np.ndarray:
        """Validate and convert the value of one entry parameter."""
        declared, name = param.type, param.name
        if getattr(value, "__packed_bits__", False):
            # A pre-packed operand (packed-storage class memory): validate
            # against the declared *logical* type and pass it through —
            # ``as_numpy`` would strip the packed wrapper to raw words.
            if not (
                isinstance(declared, (HyperVectorType, HyperMatrixType))
                and declared.element.is_binary
            ):
                raise ValueError(
                    f"input {name!r} is bit-packed but the program declares "
                    f"a non-binary type for it"
                )
            logical = value.logical_shape
            if not self._fits(logical, param):
                raise ValueError(
                    f"input {name!r} has logical shape {logical}, expected {declared.shape}"
                )
            if value.shape[-1] != binkern.packed_num_words(value.dim):
                raise ValueError(
                    f"input {name!r} has {value.shape[-1]} packed words, expected "
                    f"{binkern.packed_num_words(value.dim)} for dim {value.dim}"
                )
            return value
        array = as_numpy(value)
        if isinstance(declared, (HyperVectorType, HyperMatrixType)):
            if array.shape != declared.shape and not self._fits(array.shape, param):
                raise ValueError(
                    f"input {name!r} has shape {array.shape}, expected {declared.shape}"
                )
            element = declared.element
            if element.is_binary:
                # Binarized program inputs are converted on the host before
                # transfer — this is the data-movement saving of Section 5.3.
                array = ref.sign(array)
            elif array.dtype != element.numpy_dtype:
                array = array.astype(element.numpy_dtype)
        return array

    # -- execution ----------------------------------------------------------------
    def _execute_env(self, env: dict, backend: "Backend", verdicts: dict) -> ExecutionResult:
        report = ExecutionReport(target=backend.target.value)
        start = time.perf_counter()
        # One execution's scope (repro.kernels.memo): reductions cast
        # their loop-invariant operand to float64 once, not once per row,
        # nothing cast here outlives the run, and the eager primitives an
        # implementation function calls follow the back end's kernel set.
        with memo.Execution(backend.kernel_set.column):
            outputs = backend.execute(self, env, report, verdicts)
        report.wall_seconds = time.perf_counter() - start
        return ExecutionResult(outputs, report)

    def run(self, **inputs) -> ExecutionResult:
        """Execute the compiled program with concrete inputs."""
        env = self._bind_inputs(inputs)
        return self._execute_env(env, self.backend, self._verdicts)

    def __call__(self, **inputs) -> ExecutionResult:
        return self.run(**inputs)

    def bind(self, backend: Optional["Backend"] = None, **constants) -> "BoundProgram":
        """Pre-bind constant inputs, returning a reusable inference handle.

        The constants (trained class memories, random-projection matrices,
        reference tables, ...) are validated and coerced exactly once;
        every subsequent :meth:`BoundProgram.run` only binds the varying
        inputs.  This is the entry point the serving runtime uses so that a
        stream of requests does not re-validate (or re-binarize) the model
        state on every call.

        Args:
            backend: Optionally execute through a different back-end
                *instance* of the same target (e.g. a serving worker's
                batched CPU back end).  Defaults to the compiling back end.
            **constants: A subset of the program inputs to freeze.
        """
        return BoundProgram(self, constants, backend=backend)

    @property
    def input_names(self) -> list[str]:
        return [p.name for p in self.entry.params]

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({self.program.name!r}, target={self.backend.target.value}, "
            f"inputs={self.input_names})"
        )


class BoundProgram:
    """A compiled program with part of its inputs frozen.

    Produced by :meth:`CompiledProgram.bind`.  The handle is cheap to call
    repeatedly: constant inputs are coerced once at construction and the
    per-call work is limited to binding the varying inputs and executing.
    Handles are safe to share between threads for the stateless CPU/GPU
    back ends (every call builds a private environment); accelerator back
    ends hold device state and must not be shared across workers.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        constants: dict,
        backend: Optional["Backend"] = None,
    ):
        self.compiled = compiled
        self.backend = backend if backend is not None else compiled.backend
        if self.backend.target != compiled.backend.target:
            raise ValueError(
                f"cannot bind a {compiled.backend.target.value} program to a "
                f"{self.backend.target.value} back end"
            )
        params = {p.name: p for p in compiled.entry.params}
        unknown = set(constants) - set(params)
        if unknown:
            raise TypeError(f"unknown program inputs {sorted(unknown)}")
        self._const_env = {
            params[name].id: compiled._coerce(value, params[name])
            for name, value in constants.items()
        }
        self._free_params = [p for p in compiled.entry.params if p.name not in constants]
        self._free_set = frozenset(p.name for p in self._free_params)
        # Gate verdicts are earned on these constants, so they live and
        # die with this handle, never with the shared compiled program.
        self._verdicts: dict = {}

    @property
    def free_names(self) -> list[str]:
        """Names of the inputs that must be supplied per call."""
        return [p.name for p in self._free_params]

    def run(self, **inputs) -> ExecutionResult:
        """Execute with the bound constants plus the varying inputs."""
        if inputs.keys() != self._free_set:
            missing = [p.name for p in self._free_params if p.name not in inputs]
            if missing:
                raise TypeError(f"missing program inputs {missing}; expected {self.free_names}")
            raise TypeError(f"unknown or already-bound inputs {sorted(set(inputs) - self._free_set)}")
        env = dict(self._const_env)
        for param in self._free_params:
            env[param.id] = self.compiled._coerce(inputs[param.name], param)
        return self.compiled._execute_env(env, self.backend, self._verdicts)

    def __call__(self, **inputs) -> ExecutionResult:
        return self.run(**inputs)

    def __repr__(self) -> str:
        return (
            f"BoundProgram({self.compiled.program.name!r}, "
            f"target={self.backend.target.value}, free={self.free_names})"
        )


class Backend:
    """Base class of the HPVM-HDC back ends."""

    target: Target = Target.CPU
    name: str = "base"
    #: The kernel set :meth:`execute` runs the program's primitives with.
    kernel_set: type[KernelSet] = ReferenceKernelSet

    def compile(
        self, program: Program, config: Optional[ApproximationConfig] = None
    ) -> CompiledProgram:
        """Clone, transform, plan, lower, verify and wrap a traced program."""
        config = config or ApproximationConfig.none()
        marks = [time.perf_counter()]
        cloned = clone_program(program)
        marks.append(time.perf_counter())
        pass_report = PassPipeline.from_config(config).run(cloned)
        marks.append(time.perf_counter())
        plan_program(cloned)
        marks.append(time.perf_counter())
        graph = lower_program(cloned)
        marks.append(time.perf_counter())
        verify_graph(graph)
        verify_plan(cloned)
        marks.append(time.perf_counter())
        self.prepare(cloned, graph, config)
        marks.append(time.perf_counter())
        compiled = CompiledProgram(self, cloned, graph, pass_report, config)
        phases = ("clone", "passes", "plan", "lower", "verify", "prepare")
        compiled.compile_seconds = {p: b - a for p, a, b in zip(phases, marks, marks[1:])}
        compiled.trace_seconds = program.trace_seconds
        return compiled

    # -- hooks ----------------------------------------------------------------------
    def prepare(self, program: Program, graph: DataflowGraph, config: ApproximationConfig) -> None:
        """Back-end specific compilation work (kernel selection, device setup)."""

    # -- compiled-program serialization ----------------------------------------------
    def serialize_compiled(self, compiled: "CompiledProgram") -> bytes:
        """Serialize a compiled artifact for cross-process cache persistence.

        The default serializes the post-compilation state — the transformed
        program, the lowered/verified dataflow graph, the pass report and
        the approximation config — so that :meth:`deserialize_compiled` can
        skip tracing, transforms, lowering and verification entirely.
        Programs that close over Python callables (eager ``parallel_map`` /
        ``training_loop`` implementations) raise here; the serving cache
        skips such entries and recompiles them after a restart.

        Back ends holding device state may override both hooks to persist
        (or refuse to persist) that state explicitly.
        """
        return pickle.dumps(
            {
                "program": compiled.program,
                "graph": compiled.graph,
                "pass_report": compiled.pass_report,
                "config": compiled.config,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def deserialize_compiled(self, payload: bytes) -> "CompiledProgram":
        """Restore an artifact serialized by :meth:`serialize_compiled`.

        Re-runs only :meth:`prepare` (kernel selection, device setup) on
        this back-end instance — steps 1-4 of the compile workflow are
        restored from the payload, not repeated.
        """
        state = pickle.loads(payload)
        self.prepare(state["program"], state["graph"], state["config"])
        return CompiledProgram(
            self, state["program"], state["graph"], state["pass_report"], state["config"]
        )

    def execute(
        self, compiled: CompiledProgram, env: dict[int, np.ndarray], report: ExecutionReport,
        verdicts: dict,
    ) -> dict[str, object]:
        """Execute the entry function, reading and recording boundary-row
        gate verdicts in the caller's ``verdicts`` store; must be provided
        by subclasses."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------------
    @staticmethod
    def collect_outputs(entry: TracedFunction, env: dict[int, np.ndarray]) -> dict[str, object]:
        outputs: dict[str, object] = {}
        for value in entry.results:
            outputs[value.name] = env[value.id]
        return outputs
