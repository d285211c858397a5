"""Automatic binarization propagation (Algorithm 1 of the paper).

HDC is robust to severe quantization: mapping hypervector elements to
bipolar ``{+1, -1}`` values barely affects application quality while
shrinking data movement by 32x and turning similarity computations into
bit-wise operations.  Doing this by hand requires rewriting every affected
allocation and operation; HPVM-HDC instead performs an inter-procedural
taint analysis seeded at ``hdc.sign`` operations and rewrites everything
the taint reaches.

The transform follows Algorithm 1:

1. the work list is initialised with every ``sign`` operation;
2. an operation popped from the work list joins the *tainted* set;
3. for element-wise operations both inputs and outputs are tainted; for
   reduction operations only the output is tainted unless
   ``binarize_reduce`` is set, in which case inputs are tainted as well
   (at ``reduce_input_type`` precision, mirroring configuration IV of
   Table 3 which casts input features to 32-bit integers);
4. tainting a value schedules its producer and users onto the work list;
5. finally every tainted operation/allocation is rewritten to the reduced
   bit-width representation.

One clarification relative to the paper's prose: the *outputs* of the
similarity reductions (``hamming_distance``, ``cossim``) and of ``l2norm``
are similarity/score vectors, not hypervectors, so they are never
binarized — the taint stops there (this matches configuration III, whose
binarized values are the class and encoded hypervectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdcpp.program import Operation, Program, Value
from repro.hdcpp.types import (
    ElementType,
    HyperMatrixType,
    HyperVectorType,
    binary,
    int32,
)
from repro.ir.ops import (
    IMPL_OPS,
    INIT_OPS,
    PACKED_OPS,
    PRIMITIVES,
    REDUCE_OPS,
    SCORE_OPS,
    Opcode,
    consumers,
    infer_result_type,
)

__all__ = ["AutomaticBinarization"]


@dataclass
class BinarizationReport:
    """Summary of one automatic-binarization run."""

    tainted_ops: int = 0
    binarized_values: int = 0
    binarized_params: list[str] = field(default_factory=list)
    bytes_before: float = 0.0
    bytes_after: float = 0.0

    @property
    def data_movement_reduction(self) -> float:
        """Ratio of logical bytes before vs. after binarization."""
        if self.bytes_after == 0:
            return 1.0
        return self.bytes_before / self.bytes_after

    def __repr__(self) -> str:
        return (
            f"BinarizationReport(tainted_ops={self.tainted_ops}, "
            f"binarized_values={self.binarized_values}, "
            f"data_movement_reduction={self.data_movement_reduction:.1f}x)"
        )


def _is_hyper(value: Value) -> bool:
    return isinstance(value.type, (HyperVectorType, HyperMatrixType))


def _keeps_type(program: Program, value: Value) -> bool:
    """Whether ``value``'s producer is a primitive binarization may not
    retype, reading a stage's result as its traced implementation's."""
    producer = value.producer
    if producer is not None and producer.opcode in IMPL_OPS and "impl" in producer.attrs:
        results = program.function(producer.attrs["impl"]).results
        producer = results[0].producer if results else None
    return (
        producer is not None and producer.opcode not in IMPL_OPS
        and not PRIMITIVES[producer.opcode].binarizable
    )


class AutomaticBinarization:
    """The automatic binarization pass (Algorithm 1).

    Args:
        binarized_type: Element type tainted hypervectors are rewritten to
            (1-bit bipolar by default).
        binarize_reduce: Also reduce the precision of the *inputs* of
            reduction primitives ("more aggressive binarization").
        reduce_input_type: Element type used for reduce-op inputs when
            ``binarize_reduce`` is enabled.
    """

    name = "automatic-binarization"

    def __init__(
        self,
        binarized_type: ElementType = binary,
        binarize_reduce: bool = False,
        reduce_input_type: ElementType = int32,
    ):
        self.binarized_type = binarized_type
        self.binarize_reduce = binarize_reduce
        self.reduce_input_type = reduce_input_type

    # -- the public pass entry point ------------------------------------------------
    def run(self, program: Program) -> BinarizationReport:
        """Run the taint analysis and rewrite ``program`` in place."""
        report = BinarizationReport()

        uses = consumers(program.all_operations())
        retype: dict[int, ElementType] = {}
        values_by_id: dict[int, Value] = {}
        worklist: list[Operation] = [
            op for op in program.all_operations() if op.opcode == Opcode.SIGN
        ]
        tainted: set[int] = set()

        def taint_value(value: Value, element: ElementType) -> None:
            if not _is_hyper(value):
                return
            if value.type.element.is_binary and element.is_binary:
                return
            previous = retype.get(value.id)
            if previous is not None and previous.bits <= element.bits:
                return
            retype[value.id] = element
            values_by_id[value.id] = value
            producer = value.producer
            if producer is not None and id(producer) not in {id(o) for o in worklist}:
                worklist.append(producer)
            for user in uses.get(value.id, []):
                worklist.append(user)

        def drain_worklist() -> None:
            while worklist:
                op = worklist.pop()
                if id(op) in tainted:
                    continue
                tainted.add(id(op))
                if not PRIMITIVES[op.opcode].binarizable:
                    continue
                self._process_op(op, retype, taint_value)

        drain_worklist()
        # Inter-procedural propagation: stage primitives and parallel maps
        # reference implementation functions whose parameters correspond to
        # the stage operands; keep both sides consistent until a fixpoint.
        while self._sync_interprocedural(program, retype, taint_value):
            drain_worklist()

        report.tainted_ops = len(tainted)
        report.binarized_values = len(retype)
        report.bytes_before = sum(values_by_id[vid].type.num_bytes for vid in retype)

        self._rewrite(program, retype, report)

        report.bytes_after = sum(values_by_id[vid].type.num_bytes for vid in retype)
        return report

    def _process_op(self, op: Operation, retype: dict, taint_value) -> None:
        """Apply the Algorithm 1 taint rules to one tainted operation."""
        if op.opcode in REDUCE_OPS:
            if self.binarize_reduce:
                for operand in op.operands:
                    taint_value(operand, self.reduce_input_type)
            elif op.opcode in PACKED_OPS and any(
                retype.get(v.id, v.type.element).is_binary for v in op.operands
            ):
                # A similarity between a binarized and a full-precision
                # operand is meaningless; once one side of the comparison
                # is 1-bit, the other side (e.g. the class hypermatrix of
                # configuration III) is binarized as well so the packed
                # Hamming kernel applies to both.
                for operand in op.operands:
                    taint_value(operand, self.binarized_type)
            if op.opcode not in SCORE_OPS and op.result is not None:
                taint_value(op.result, self.binarized_type)
        else:
            for operand in op.operands:
                taint_value(operand, self.binarized_type)
            if op.result is not None:
                taint_value(op.result, self.binarized_type)

    def _sync_interprocedural(self, program: Program, retype: dict, taint_value) -> bool:
        """Propagate taint between stage operands and implementation params.

        The stage primitives reference user implementation functions; the
        stage's operands are passed (row-wise for the queries operand) as the
        implementation's parameters, so a binarized parameter implies the
        corresponding whole-dataset operand is binarized and vice versa.  A
        value whose producer is not binarizable (:func:`_keeps_type`: a
        training rule's ``retrain`` counts) keeps its type across the link.
        Returns ``True`` when any new value was tainted.
        """
        before = dict(retype)
        for op in program.all_operations():
            if op.opcode not in IMPL_OPS:
                continue
            impl_name = op.attrs.get("impl")
            if impl_name is None:
                continue
            impl = program.function(impl_name)
            pairs = list(zip(op.operands, impl.params))
            if op.result is not None and impl.results:
                pairs.append((op.result, impl.results[0]))
            for outer, inner in pairs:
                if inner.id in retype and outer.id not in retype and not _keeps_type(program, outer):
                    taint_value(outer, retype[inner.id])
                elif outer.id in retype and inner.id not in retype and not _keeps_type(program, inner):
                    taint_value(inner, retype[outer.id])
        return retype != before

    # -- helpers ----------------------------------------------------------------------
    def _rewrite(
        self,
        program: Program,
        retype: dict[int, ElementType],
        report: BinarizationReport,
    ) -> None:
        """Apply the element-type rewrites and fix up derived types."""
        # 1. Rewrite the element type of every tainted value.
        for fn in program.functions.values():
            for param in fn.params:
                if param.id in retype:
                    param.type = param.type.with_element(retype[param.id])
                    report.binarized_params.append(f"{fn.name}.{param.name}")
            for op in fn.ops:
                if op.result is not None and op.result.id in retype:
                    op.result.type = op.result.type.with_element(retype[op.result.id])

        # 2. Update allocation attributes (Algorithm 1's allocation rewrites)
        #    and re-infer result types so shapes/elements stay consistent.
        for fn in program.functions.values():
            for op in fn.ops:
                if op.result is None:
                    continue
                if op.opcode in INIT_OPS and op.result.id in retype:
                    op.attrs["element"] = retype[op.result.id]
                if op.opcode == Opcode.TYPE_CAST and op.result.id in retype:
                    op.attrs["element"] = retype[op.result.id]
                inferred = infer_result_type(op.opcode, op.operand_types(), op.attrs)
                if op.result.id in retype:
                    op.result.type = inferred.with_element(retype[op.result.id])
                else:
                    op.result.type = inferred
