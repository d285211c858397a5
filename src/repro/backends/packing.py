"""Packed-residency analysis: which entry params can live bit-packed.

A packed-storage deployment wants to bind its class memory as
:class:`~repro.kernels.binary.PackedBits` — ``uint64`` words, ~32x
smaller than the float hypermatrix — and have every kernel that touches
it operate word-parallel.  That is only sound for values whose *every*
consumer understands the packed representation:

* the similarity reductions (``hamming_distance`` / ``cossim``: the rows of
  the primitive table with a ``packed`` kernel) — the kernel sets route
  binary operands to the packed kernels;
* ``sign`` and a binary ``type_cast`` — the identity on packed bipolar
  words, provided the result is itself only consumed packably;
* the batch axis of a stage primitive is row-sliced by the executor
  (which strips the packed type), so only the **whole-tensor operands**
  (index >= 1: class memory, encoder) of the row-mapping stages
  (``inference_loop`` / ``encoding_loop`` / ``parallel_map``) qualify,
  and only when the implementation is a traced function — eager callables
  and declared ``batch_impl`` routes receive
  :class:`~repro.hdcpp.arrays.HyperMatrix` wrappers that would silently
  reinterpret the words as data;
* ``training_loop`` copies and arithmetically mutates its class operand,
  and entry results must be plain arrays — both reject packing.

Anything else (``matmul``, element-wise arithmetic, row access, ...)
would corrupt a packed operand, so the value is rejected.  The analysis
is a recursive use-walk over the *compiled* (post-transform) program —
it sees the element types the automatic-binarization pass produced, so
only genuinely 1-bit values are ever considered.
"""

from __future__ import annotations

from repro.hdcpp.program import Program, TracedFunction, Value
from repro.ir.ops import PACKED_OPS, ROW_MAP_OPS, Opcode, consumers

__all__ = ["packable_entry_params"]


def _value_packable(
    program: Program,
    fn: TracedFunction,
    value: Value,
    uses: dict,
    visited: set,
) -> bool:
    key = (fn.name, value.id)
    if key in visited:
        return True
    visited.add(key)
    if any(result.id == value.id for result in fn.results):
        return False
    for op in uses.get(value.id, ()):
        if op.opcode in PACKED_OPS:
            continue
        if op.opcode == Opcode.SIGN:
            if op.result is None or not _value_packable(
                program, fn, op.result, uses, visited
            ):
                return False
            continue
        if op.opcode == Opcode.TYPE_CAST:
            element = op.attrs.get("element")
            if (
                element is None
                or not getattr(element, "is_binary", False)
                or op.result is None
                or not _value_packable(program, fn, op.result, uses, visited)
            ):
                return False
            continue
        if op.opcode in ROW_MAP_OPS:
            impl_name = op.attrs.get("impl")
            if impl_name is None or op.attrs.get("batch_impl") is not None:
                return False
            impl = program.function(impl_name)
            for index, operand in enumerate(op.operands):
                if operand.id != value.id:
                    continue
                if index == 0 or index >= len(impl.params):
                    return False
                if not _value_packable(
                    program, impl, impl.params[index], uses, visited
                ):
                    return False
            continue
        return False
    return True


def packable_entry_params(program: Program) -> list[str]:
    """Entry-param names that can safely be bound as packed words.

    Only 1-bit (post-binarization) hypervector/hypermatrix params are
    candidates; each is accepted iff the recursive use-walk proves every
    transitive consumer handles the packed representation.  The result
    is deterministic for a given compiled program, so packing the listed
    constants is a pure function of the servable's float state — which
    is what makes hot-swap and update-log replay rebuild bit-identical
    packed bytes.
    """
    entry = program.entry_function
    uses = consumers(program.all_operations())
    names = []
    for param in entry.params:
        element = getattr(param.type, "element", None)
        if element is None or not element.is_binary:
            continue
        if _value_packable(program, entry, param, uses, set()):
            names.append(param.name)
    return names
