"""The execution plan: the back ends' route decisions as IR attributes.

In HPVM-HDC the IR is where compilation decisions live: transforms rewrite
it and the back ends read it (Sections 4.1-4.3).  This pass runs once per
compile, after the approximation passes (so it sees their types and
uses), and writes four op attributes.  Each is derived from the primitive
table's columns and one use-def walk of a traced function:

* ``signed_by=%v`` on a product whose row has a certified ``signed``
  column.  ``%v`` is the value that column's call writes: the result of
  the ``sign`` right after the product, when that ``sign`` is the
  product's only use (not a function result either); else the product's
  own result, when binarization typed it 1-bit (``sign_when_binarized``:
  the kernels sign it anyway).  A kernel set that signs products
  (:attr:`~repro.backends.kernelsets.KernelSet.signs_products`) runs the
  ``signed`` column there instead of ``kernel`` then ``sign``.
* ``proven=(column, ...)`` on a row-map stage or parallel map with a
  traced implementation and no ``batch_impl``: the kernel columns on which
  the primitive table proves its block equal to its per-row loop
  (:func:`~repro.ir.ops.proven_columns`, the table's ``exact`` column).
  There the stage executor runs the block with no boundary-row gate
  (:class:`~repro.backends.executor.HostStageExecutor`).  A stage whose
  implementation reads a kernel with row-count-dependent arithmetic
  (:func:`row_count_reads`) is proven on no column; the CPU's reference
  block route runs it per row.  A ``training_loop`` whose traced rule is
  one ``ordered`` op (``retrain``) over such row ops is proven on
  ``kernel`` (:func:`~repro.ir.ops.proven_rule`): the reference CPU runs
  it once per epoch over the block.
* ``fused_with=%v`` on an encoder-less ``training_loop`` whose queries
  ``%v`` are an ``encoding_loop``'s result read nowhere else.  The HDC
  accelerators retrain from raw rows, so they run the pair as one
  (:mod:`repro.backends.accelerator`).
* ``bipolar=True`` on a ``hamming_distance`` whose two operands are
  results of ops the table marks ``bipolar`` (``sign``), or products
  planned ``signed_by`` their own result, in the same function
  (:func:`~repro.ir.ops.bipolar_operands`).  Both operands then hold only
  ±1, so the kernel counts them with one float32 GEMM without first
  scanning them for it (:func:`repro.kernels.reference.hamming_distance`);
  every other operand keeps the scan.

The pass recomputes the plan from scratch on every compile, so a cloned
program never carries a stale one.  :func:`repro.ir.verifier
.verify_plan` checks that each ``signed_by`` / ``fused_with`` value is
produced and consumed where the rules above say, that each ``proven``
names what the table proves, and that each ``bipolar`` is re-derived.

The back ends read the plan once per compiled program and kernel column,
on its first run (:func:`repro.backends.executor.resolve`): every op's
kernel, keyword arguments (the ``bipolar`` flag among them), packed
route, result signing and ``signed_by`` fusion, and every stage's proof
and row-count reads, are then fixed steps.  Per call the executor still
checks whether an operand arrived bit-packed, reads and writes the gate's
verdicts, and times the stage profile.
"""

from __future__ import annotations

from repro.hdcpp.program import Program, TracedFunction
from repro.ir.ops import PRIMITIVES, Opcode, bipolar_operands, is_binary, stage_proof, use_counts

__all__ = ["plan_program", "row_count_reads"]

#: The op attributes this pass owns.
_PLAN_ATTRS = ("signed_by", "proven", "fused_with", "bipolar")


def row_count_reads(fn: TracedFunction) -> tuple:
    """The opcodes of ``fn``'s ops whose result the reference kernels
    compute with row-count-dependent arithmetic: a ``reassociates`` row,
    unless the op is ``signed_by`` (the certified column runs) or its
    operands are typed 1-bit (the ``packed`` kernel runs)."""
    return tuple(
        op.opcode for op in fn.ops
        if PRIMITIVES[op.opcode].reassociates and "signed_by" not in op.attrs
        and not (PRIMITIVES[op.opcode].packed is not None and all(map(is_binary, op.operands)))
    )


def _plan_function(fn: TracedFunction) -> None:
    """``fn``'s ops' plan cleared, then their ``signed_by``, ``fused_with``
    and ``bipolar`` written, from one use count."""
    uses = use_counts(fn)
    for op, after in zip(fn.ops, fn.ops[1:] + [None]):
        for name in _PLAN_ATTRS:
            op.attrs.pop(name, None)
        row = PRIMITIVES[op.opcode]
        if row.signed is not None:
            if (
                after is not None and after.opcode is Opcode.SIGN
                and after.operands[0] is op.result and uses[op.result.id] == 1
            ):
                op.attrs["signed_by"] = after.result
            elif row.sign_when_binarized and is_binary(op.result):
                op.attrs["signed_by"] = op.result
        elif op.opcode is Opcode.TRAINING_LOOP and not op.attrs.get("has_encoder"):
            encoded = op.operands[0]
            if getattr(encoded.producer, "opcode", None) is Opcode.ENCODING_LOOP and uses[encoded.id] == 1:
                op.attrs["fused_with"] = encoded
        elif bipolar_operands(op, fn.ops):
            op.attrs["bipolar"] = True


def plan_program(program: Program) -> None:
    """Write the plan attributes of every op of ``program``, in place."""
    functions = program.functions.values()
    for fn in functions:
        _plan_function(fn)
    # After every function's signs: a stage's proof reads its implementation's.
    for fn in functions:
        for op in fn.ops:
            impl = op.attrs.get("impl")
            columns = impl and stage_proof(op, program.function(impl))
            if columns:
                op.attrs["proven"] = columns
