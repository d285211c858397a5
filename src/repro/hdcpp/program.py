"""Tracing infrastructure for the HDC++ embedded DSL.

An HDC++ application is a :class:`Program` containing one or more
:class:`TracedFunction`\\ s.  Functions are defined by decorating ordinary
Python functions with :meth:`Program.define` (or :meth:`Program.entry`);
the decorator immediately *traces* the function: it installs an active
:class:`FunctionBuilder`, calls the Python function with symbolic
:class:`Value` parameters, and records every HDC primitive the function
invokes as an :class:`Operation`.

The recorded program is hardware agnostic.  It is subsequently lowered to
HPVM-HDC IR (:mod:`repro.ir.builder`), optionally transformed
(:mod:`repro.transforms`), and compiled by a back end
(:mod:`repro.backends`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.hdcpp.types import HDType

__all__ = [
    "Value",
    "Operation",
    "TracedFunction",
    "Program",
    "current_builder",
    "TracingError",
]


class TracingError(RuntimeError):
    """Raised when the DSL is used incorrectly while tracing."""


@dataclass(eq=False)
class Value:
    """A symbolic SSA value produced while tracing an HDC++ function."""

    type: HDType
    name: str = ""
    producer: Optional["Operation"] = None

    _counter = 0

    def __post_init__(self) -> None:
        Value._counter += 1
        self.id = Value._counter
        if not self.name:
            self.name = f"v{self.id}"

    def __repr__(self) -> str:
        return f"%{self.name}: {self.type}"


@dataclass(eq=False)
class Operation:
    """A single HPVM-HDC IR operation recorded by the tracer.

    Attributes:
        opcode: The :class:`repro.ir.ops.Opcode` of the operation.
        operands: Input :class:`Value`\\ s.
        attrs: Static attributes (dimensions, element types, perforation
            parameters, referenced implementation-function names, ...).
        result: The produced :class:`Value`, or ``None`` for pure
            directives such as ``red_perf``.
    """

    opcode: object
    operands: list[Value]
    attrs: dict = field(default_factory=dict)
    result: Optional[Value] = None

    def operand_types(self) -> list[HDType]:
        return [v.type for v in self.operands]

    def __repr__(self) -> str:
        res = f"{self.result!r} = " if self.result is not None else ""
        args = ", ".join(f"%{v.name}" for v in self.operands)
        attrs = f" {self.attrs}" if self.attrs else ""
        return f"{res}{self.opcode}({args}){attrs}"


@dataclass(eq=False)
class TracedFunction:
    """A traced HDC++ function: typed parameters, an op list, and results."""

    name: str
    params: list[Value]
    ops: list[Operation] = field(default_factory=list)
    results: list[Value] = field(default_factory=list)
    docstring: str = ""

    def __repr__(self) -> str:
        return f"TracedFunction({self.name}, {len(self.ops)} ops)"


class FunctionBuilder:
    """Mutable builder that accumulates operations for one traced function."""

    def __init__(self, program: "Program", name: str):
        self.program = program
        self.name = name
        self.params: list[Value] = []
        self.ops: list[Operation] = []

    def add_param(self, type_: HDType, name: str) -> Value:
        value = Value(type_, name=name)
        self.params.append(value)
        return value

    def emit(self, opcode, operands: Sequence[Value], attrs: dict, result_type: Optional[HDType]) -> Optional[Value]:
        """Record an operation and return its result value (if any)."""
        operands = list(operands)
        for operand in operands:
            if not isinstance(operand, Value):
                raise TracingError(
                    f"operand {operand!r} of {opcode} is not a traced value; "
                    "concrete data must be passed as program inputs"
                )
        op = Operation(opcode, operands, dict(attrs))
        if result_type is not None:
            op.result = Value(result_type, producer=op)
        self.ops.append(op)
        return op.result

    def finish(self, results: Iterable[Value], docstring: str = "") -> TracedFunction:
        fn = TracedFunction(self.name, self.params, self.ops, list(results), docstring)
        return fn


_TLS = threading.local()


def current_builder() -> Optional[FunctionBuilder]:
    """Return the builder of the function currently being traced, if any."""
    return getattr(_TLS, "builder", None)


def _push_builder(builder: FunctionBuilder) -> None:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    stack.append(builder)
    _TLS.builder = builder


def _pop_builder() -> None:
    stack = _TLS.stack
    stack.pop()
    _TLS.builder = stack[-1] if stack else None


class Program:
    """A complete HDC++ application: a named collection of traced functions.

    One function is designated the *entry point*; the remaining functions
    are implementation functions referenced by stage primitives
    (``encoding_loop`` / ``training_loop`` / ``inference_loop``) or by
    Hetero-C++ parallel constructs.
    """

    def __init__(self, name: str):
        self.name = name
        self.functions: dict[str, TracedFunction] = {}
        self.entry_name: Optional[str] = None
        #: Seconds spent tracing this program's functions, summed.
        self.trace_seconds = 0.0

    # -- function definition -----------------------------------------------------
    def define(self, *param_types: HDType, name: Optional[str] = None) -> Callable:
        """Decorator: trace a Python function into a :class:`TracedFunction`.

        Example::

            prog = Program("inference")

            @prog.define(hv(617), hm(2048, 617), hm(26, 2048))
            def infer(features, rp_matrix, classes):
                encoded = hdc.matmul(features, rp_matrix)
                dists = hdc.hamming_distance(hdc.sign(encoded), classes)
                return hdc.arg_min(dists)
        """

        def decorator(fn: Callable) -> TracedFunction:
            started = time.perf_counter()
            fn_name = name or fn.__name__
            if fn_name in self.functions:
                raise TracingError(f"function {fn_name!r} already defined in program {self.name!r}")
            builder = FunctionBuilder(self, fn_name)
            import inspect

            sig = inspect.signature(fn)
            param_names = list(sig.parameters)
            if len(param_names) != len(param_types):
                raise TracingError(
                    f"{fn_name}: {len(param_types)} parameter types supplied for "
                    f"{len(param_names)} parameters"
                )
            args = [builder.add_param(t, n) for t, n in zip(param_types, param_names)]
            _push_builder(builder)
            try:
                out = fn(*args)
            finally:
                _pop_builder()
            results = _normalize_results(out, fn_name)
            traced = builder.finish(results, docstring=(fn.__doc__ or ""))
            self.functions[fn_name] = traced
            self.trace_seconds += time.perf_counter() - started
            return traced

        return decorator

    def entry(self, *param_types: HDType, name: Optional[str] = None) -> Callable:
        """Like :meth:`define`, additionally marking the function as entry point."""

        def decorator(fn: Callable) -> TracedFunction:
            traced = self.define(*param_types, name=name)(fn)
            self.entry_name = traced.name
            return traced

        return decorator

    # -- queries -------------------------------------------------------------------
    @property
    def entry_function(self) -> TracedFunction:
        if self.entry_name is None:
            if len(self.functions) == 1:
                return next(iter(self.functions.values()))
            raise TracingError(f"program {self.name!r} has no designated entry function")
        return self.functions[self.entry_name]

    def function(self, name: str) -> TracedFunction:
        return self.functions[name]

    def all_operations(self) -> list[Operation]:
        """Every operation in every function, in definition order."""
        ops: list[Operation] = []
        for fn in self.functions.values():
            ops.extend(fn.ops)
        return ops

    def __repr__(self) -> str:
        return f"Program({self.name!r}, functions={list(self.functions)})"


def _normalize_results(out, fn_name: str) -> list[Value]:
    if out is None:
        return []
    if isinstance(out, Value):
        return [out]
    if isinstance(out, (tuple, list)):
        results = []
        for item in out:
            if not isinstance(item, Value):
                raise TracingError(
                    f"{fn_name}: returned {item!r}, traced functions must return traced values"
                )
            results.append(item)
        return results
    raise TracingError(f"{fn_name}: unsupported return value {out!r}")
