"""Structural verification of HPVM-HDC IR.

The verifier is run after lowering and after every transform (the pass
pipeline inserts it automatically) to catch malformed IR early:

* the dataflow graph must be acyclic;
* every operand must be produced by a graph input or an earlier operation
  (SSA discipline);
* every operation's recorded result type must match what
  :func:`repro.ir.ops.infer_result_type` derives from its operand types;
* ``red_perf`` directives must annotate values produced by reduction
  primitives;
* stage nodes must carry an implementation function (traced or callable);
* every node must be annotated with at least one hardware target;
* the plan's value attributes (:mod:`repro.transforms.plan`) must name a
  value produced and consumed as the plan states, in the same function: a
  product's ``signed_by`` is its own result or that of its only use, the
  ``sign`` right after it; a ``training_loop``'s ``fused_with`` is its
  queries, produced by an ``encoding_loop`` and read nowhere else; a
  ``bipolar`` ``hamming_distance`` reads two values the table proves ±1
  (:func:`repro.ir.ops.bipolar_operands`);
* a stage's ``proven`` columns are the columns the primitive table proves
  for its traced implementation (:func:`repro.ir.ops.stage_proof`): a
  row-map stage's or parallel map's without a ``batch_impl``, or a
  ``training_loop``'s rule;
* a stage's hyper operands and result have the element types of the
  implementation parameters and result they bind, but a float operand may
  bind a 1-bit parameter, read by its signs (binarized training counts).
"""

from __future__ import annotations

from typing import Iterable

from repro.hdcpp.program import Operation, Program, TracedFunction
from repro.hdcpp.types import HyperMatrixType, HyperVectorType
from repro.ir.dataflow import DataflowGraph, InternalNode, LeafNode
from repro.ir.ops import (
    IMPL_OPS,
    PRIMITIVES,
    REDUCE_OPS,
    Opcode,
    bipolar_operands,
    infer_result_type,
    stage_proof,
    use_counts,
)

__all__ = ["IRVerificationError", "verify_graph", "verify_plan", "verify_program"]


class IRVerificationError(ValueError):
    """Raised when HPVM-HDC IR fails structural verification."""


def _verify_ops(ops: Iterable[Operation], defined_ids: set[int], context: str) -> list[str]:
    errors: list[str] = []
    defined = set(defined_ids)
    for op in ops:
        if not isinstance(op.opcode, Opcode):
            errors.append(f"{context}: unknown opcode {op.opcode!r}")
            continue
        for operand in op.operands:
            if operand.id not in defined:
                errors.append(
                    f"{context}: operand %{operand.name} of {op.opcode} used before definition"
                )
        if op.opcode == Opcode.RED_PERF:
            target = op.operands[0]
            producer = target.producer
            if producer is None or producer.opcode not in REDUCE_OPS:
                errors.append(
                    f"{context}: red_perf annotates %{target.name}, which is not produced by a "
                    "reduction primitive (matmul / cossim / hamming_distance / l2norm)"
                )
        if op.opcode in IMPL_OPS:
            if "impl" not in op.attrs and "impl_callable" not in op.attrs:
                errors.append(f"{context}: {op.opcode} has no implementation function")
            batch_impl = op.attrs.get("batch_impl")
            if batch_impl is not None and not callable(batch_impl):
                errors.append(
                    f"{context}: {op.opcode} batch_impl attribute is not callable "
                    f"({batch_impl!r}); the batched route must be a whole-hypermatrix "
                    "callable alongside the per-row implementation"
                )
        if op.result is not None:
            try:
                expected = infer_result_type(op.opcode, op.operand_types(), op.attrs)
            except (TypeError, KeyError) as exc:
                errors.append(f"{context}: {op.opcode} typing error: {exc}")
            else:
                # Element types may legitimately differ from the default
                # inference after automatic binarization rewrites them, so
                # only the shape (and type kind) must agree.
                if expected.shape != op.result.type.shape or type(expected) is not type(op.result.type):
                    errors.append(
                        f"{context}: {op.opcode} result type {op.result.type} does not match "
                        f"inferred type {expected}"
                    )
            defined.add(op.result.id)
    return errors


def _verify_plan(fn: TracedFunction, context: str) -> list[str]:
    errors, uses = [], None
    for op, after in zip(fn.ops, fn.ops[1:] + [None]):
        if op.attrs.get("bipolar") and not bipolar_operands(op, fn.ops):
            errors.append(f"{context}: {op.opcode} is bipolar, but its operands are not both "
                          "sign results (or signed_by products) of this function")
        signed_by, fused_with = op.attrs.get("signed_by"), op.attrs.get("fused_with")
        if signed_by is None and fused_with is None:
            continue
        uses = uses or use_counts(fn)
        if signed_by is not None:
            product = getattr(PRIMITIVES.get(op.opcode), "signed", None) is not None
            only_sign = (
                getattr(after, "opcode", None) is Opcode.SIGN and after.result is signed_by
                and after.operands[0] is op.result and uses[op.result.id] == 1
            )
            if not (product and (signed_by is op.result or only_sign)):
                errors.append(f"{context}: {op.opcode} is signed_by %{signed_by.name}, not a product's "
                              "result, nor that of the sign right after it, its only use")
        if fused_with is not None and not (
            op.opcode is Opcode.TRAINING_LOOP and op.operands[0] is fused_with
            and fused_with.producer in fn.ops and fused_with.producer.opcode is Opcode.ENCODING_LOOP
            and uses[fused_with.id] == 1
        ):
            errors.append(f"{context}: {op.opcode} is fused_with %{fused_with.name}, not training "
                          "queries an encoding_loop of this function yields and nothing else reads")
    return errors


def verify_function(fn: TracedFunction, context: str = "") -> list[str]:
    """Verify a traced function; returns a list of error strings."""
    context = context or fn.name
    defined = {p.id for p in fn.params}
    errors = _verify_ops(fn.ops, defined, context)
    produced = set(defined) | {op.result.id for op in fn.ops if op.result is not None}
    for result in fn.results:
        if result.id not in produced:
            errors.append(f"{context}: result %{result.name} is not produced by the function")
    return errors + _verify_plan(fn, context)


def _verify_graph_structure(graph: DataflowGraph, context: str) -> list[str]:
    errors: list[str] = []
    try:
        graph.topological_order()
    except ValueError as exc:
        errors.append(f"{context}: {exc}")

    produced: set[int] = {v.id for v in graph.inputs}
    defined_nodes = set(graph.nodes)
    for edge in graph.edges:
        if edge.src != DataflowGraph.BOUNDARY and edge.src not in defined_nodes:
            errors.append(f"{context}: edge {edge} references unknown source node {edge.src}")
        if edge.dst != DataflowGraph.BOUNDARY and edge.dst not in defined_nodes:
            errors.append(f"{context}: edge {edge} references unknown destination node {edge.dst}")

    for node in graph.nodes.values():
        if not node.targets:
            errors.append(f"{context}: node {node.name} has no hardware target annotation")
        if isinstance(node, LeafNode):
            visible = set(produced) | _upstream_values(graph, node)
            errors.extend(_verify_ops(node.ops, visible, f"{context}.{node.name}"))
        elif isinstance(node, InternalNode):
            # Zero instances is legal: a parallel loop over an empty batch
            # (one dynamic instance per row, zero rows) executes as a no-op
            # producing the empty result hypermatrix.
            if node.dynamic_instances < 0:
                errors.append(f"{context}: internal node {node.name} has {node.dynamic_instances} instances")
    return errors


def _upstream_values(graph: DataflowGraph, node) -> set[int]:
    """Ids of values that reach ``node`` through dataflow edges."""
    reachable: set[int] = set()
    for edge in graph.in_edges(node.id):
        reachable.add(edge.value.id)
    return reachable


def verify_graph(graph: DataflowGraph, context: str = "") -> None:
    """Verify a dataflow graph hierarchy; raises :class:`IRVerificationError`."""
    context = context or graph.name
    errors = _verify_graph_structure(graph, context)
    for node in graph.nodes.values():
        if isinstance(node, InternalNode) and node.subgraph is not None:
            errors.extend(_verify_graph_structure(node.subgraph, f"{context}/{node.name}"))
    if errors:
        raise IRVerificationError("\n".join(errors))


def _verify_proofs(program: Program, fn: TracedFunction) -> list[str]:
    errors = []
    for op in fn.ops:
        proven = op.attrs.get("proven")
        if proven is None:
            continue
        impl = op.attrs.get("impl")
        expected = stage_proof(op, impl and program.function(impl))
        if proven != expected:
            errors.append(f"{fn.name}: {op.opcode} is proven on {proven}, but the primitive table "
                          f"proves @{impl} on {expected}")
    return errors


def _verify_links(program: Program, fn: TracedFunction) -> list[str]:
    errors = []
    for op in fn.ops:
        impl = op.attrs.get("impl") if op.opcode in IMPL_OPS else None
        callee = impl and program.function(impl)
        links = [*zip(op.operands, callee.params, ["param"] * len(op.operands)),
                 *zip([op.result], callee.results, ["result"])] if impl else []
        for outer, inner, role in links:
            have, want = getattr(outer.type, "element", None), getattr(inner.type, "element", None)
            if have is want or not all(isinstance(v.type, (HyperVectorType, HyperMatrixType)) for v in (outer, inner)):
                continue
            if have != want and not (role == "param" and have.is_float and want.is_binary):
                errors.append(f"{fn.name}: {op.opcode} binds %{outer.name} ({have.name}) to @{impl}'s "
                              f"{role} %{inner.name} ({want.name})")
    return errors


def verify_plan(program: Program) -> None:
    """Verify only the plan attributes of every function of a program (see
    the module notes); raises on failure."""
    errors = [
        e for fn in program.functions.values()
        for e in _verify_plan(fn, fn.name) + _verify_proofs(program, fn)
    ]
    if errors:
        raise IRVerificationError("\n".join(errors))


def verify_program(program: Program) -> None:
    """Verify every traced function of a program; raises on failure."""
    errors: list[str] = []
    for fn in program.functions.values():
        errors.extend(verify_function(fn) + _verify_links(program, fn))
    if errors:
        raise IRVerificationError("\n".join(errors))
