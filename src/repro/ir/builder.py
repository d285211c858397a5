"""Deep copies of traced programs, and the entry op list as a view.

:func:`clone_program` provides the deep copy used before applying
destructive transforms, so that one traced application can be compiled many
times under different approximation configurations (as in Figure 7).  A
traced program is the IR's only form: its hierarchy is its functions'
``impl`` links, and nothing lowers it to a second one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.hdcpp.program import Operation, Program, TracedFunction, Value

__all__ = ["clone_program"]


def clone_function(fn: TracedFunction, value_map: Optional[dict[int, Value]] = None) -> TracedFunction:
    """Deep-copy a traced function, producing fresh values and operations."""
    value_map = {} if value_map is None else value_map

    def remap(value: Value) -> Value:
        if value.id not in value_map:
            value_map[value.id] = Value(value.type, name=value.name)
        return value_map[value.id]

    params = [remap(p) for p in fn.params]
    ops: list[Operation] = []
    for op in fn.ops:
        attrs = {k: remap(v) if isinstance(v, Value) else v for k, v in op.attrs.items()}
        new_op = Operation(op.opcode, [remap(v) for v in op.operands], attrs)
        if op.result is not None:
            new_result = remap(op.result)
            new_result.producer = new_op
            new_op.result = new_result
        ops.append(new_op)
    results = [remap(r) for r in fn.results]
    return TracedFunction(fn.name, params, ops, results, fn.docstring)


def clone_program(program: Program) -> Program:
    """Deep-copy a program (functions, operations and values)."""
    out = Program(program.name)
    for name, fn in program.functions.items():
        out.functions[name] = clone_function(fn)
    out.entry_name = program.entry_name
    return out


class ProgramView(NamedTuple):
    """A program with its entry function's op list as ``nodes``."""

    program: Program
    nodes: list[Operation]


def lower_program(program: Program) -> ProgramView:
    """The entry op list as a view, read only by ``benchmarks/e2e/probes.py``
    (``ir.nodes`` counts it, :func:`~repro.ir.verifier.verify_graph` checks
    it) until that probe is repointed; nothing in ``src/`` calls it."""
    return ProgramView(program, program.entry_function.ops)
