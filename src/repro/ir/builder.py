"""Lowering HDC++ programs to HPVM-HDC IR dataflow graphs.

The frontend produces a :class:`~repro.hdcpp.program.Program` of traced
functions.  :func:`lower_program` turns the entry function into a
hierarchical :class:`~repro.ir.dataflow.DataflowGraph`:

* each granular HDC operation becomes its own leaf node (the analogue of
  lowering a primitive into an HPVM IR sub-graph, Listing 4 of the paper);
* a ``hetero.parallel_map`` becomes an *internal* node whose child graph is
  the lowered implementation function and whose dynamic instance count is
  the number of mapped rows;
* the three stage primitives become coarse-grain leaf nodes annotated as
  executable on the HDC accelerators; the lowered implementation function
  is attached as ``impl_graph`` for CPU/GPU execution.

:func:`clone_program` provides the deep copy used before applying
destructive transforms, so that one traced application can be compiled many
times under different approximation configurations (as in Figure 7).
"""

from __future__ import annotations

from typing import Optional

from repro.hdcpp.program import Operation, Program, TracedFunction, Value
from repro.hdcpp.types import HyperMatrixType
from repro.ir.dataflow import DataflowGraph, InternalNode, LeafNode, Target
from repro.ir.ops import REDUCE_OPS, STAGE_OPS, Opcode

__all__ = ["lower_program", "clone_program"]

#: Targets assigned to ordinary (granular) nodes.
_DEFAULT_TARGETS = {Target.CPU, Target.GPU}
#: Targets assigned to coarse-grain stage nodes, which accelerators support.
_STAGE_TARGETS = {Target.CPU, Target.GPU, Target.HDC_ASIC, Target.HDC_RERAM}


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


def _dynamic_instances(op: Operation) -> int:
    """Number of dynamic instances for a parallel-map internal node."""
    input_type = op.operands[0].type
    if isinstance(input_type, HyperMatrixType):
        return input_type.rows
    return 1


def lower_function(fn: TracedFunction, program: Program, name: Optional[str] = None) -> DataflowGraph:
    """Lower one traced function into a dataflow graph."""
    graph = DataflowGraph(name or fn.name)
    graph.inputs = list(fn.params)
    graph.outputs = list(fn.results)

    producer_node: dict[int, int] = {}
    for param in fn.params:
        producer_node[param.id] = DataflowGraph.BOUNDARY

    for index, op in enumerate(fn.ops):
        node = _lower_operation(op, index, program)
        graph.add_node(node)
        for operand in op.operands:
            src = producer_node.get(operand.id)
            if src is None:
                raise ValueError(
                    f"{fn.name}: operand %{operand.name} of {op.opcode} has no producer; "
                    "the traced function is not in SSA form"
                )
            graph.add_edge(src, node.id, operand)
        if op.result is not None:
            producer_node[op.result.id] = node.id

    for result in fn.results:
        src = producer_node.get(result.id)
        if src is None:
            raise ValueError(f"{fn.name}: result %{result.name} has no producer")
        graph.add_edge(src, DataflowGraph.BOUNDARY, result)

    return graph


def _lower_operation(op: Operation, index: int, program: Program):
    """Create the dataflow node corresponding to one traced operation."""
    label = f"{op.opcode.value}_{index}" if isinstance(op.opcode, Opcode) else f"op_{index}"

    if op.opcode == Opcode.PARALLEL_MAP:
        subgraph = None
        impl_name = op.attrs.get("impl")
        if impl_name is not None:
            subgraph = lower_function(program.function(impl_name), program, name=f"{label}.body")
        return InternalNode(
            name=label,
            targets=set(_DEFAULT_TARGETS),
            subgraph=subgraph,
            dynamic_instances=_dynamic_instances(op),
            op=op,
        )

    if op.opcode in STAGE_OPS:
        impl_graph = None
        impl_name = op.attrs.get("impl")
        if impl_name is not None:
            impl_graph = lower_function(program.function(impl_name), program, name=f"{label}.impl")
        return LeafNode(
            name=label,
            targets=set(_STAGE_TARGETS),
            ops=[op],
            impl_graph=impl_graph,
        )

    instances = 1
    if op.opcode in REDUCE_OPS and op.result is not None:
        # Reduce primitives lower to one dynamic instance per output row —
        # the parallel outer loop of Listing 4.
        result_type = op.result.type
        if isinstance(result_type, HyperMatrixType):
            instances = result_type.rows
        elif hasattr(result_type, "dim"):
            instances = getattr(result_type, "dim")
    return LeafNode(name=label, targets=set(_DEFAULT_TARGETS), ops=[op], dynamic_instances=instances)


def lower_program(program: Program) -> DataflowGraph:
    """Lower a program's entry function (and referenced implementation
    functions) into a hierarchical HPVM-HDC dataflow graph."""
    entry = program.entry_function
    return lower_function(entry, program, name=f"{program.name}::{entry.name}")
