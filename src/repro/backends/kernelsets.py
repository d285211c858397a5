"""Kernel sets used by the CPU, GPU and accelerator back ends.

A *kernel set* is one column of the primitive table
(:data:`repro.ir.ops.PRIMITIVES`) as the calls an execution makes.  It
holds no per-primitive code and no per-execution state: :meth:`KernelSet
.call` reads one operation's row generically, once, and returns the call
the interpreter runs for it on every execution
(:class:`~repro.backends.executor.Step`).  The two kernel sets differ only
in the column they read:

* :class:`ReferenceKernelSet` reads ``kernel`` — the straightforward
  reference kernels, i.e. the behaviour of HDC primitives expanded into
  HPVM IR loop sub-graphs and compiled for the host (the paper's CPU
  target, and the reference the bit-identity gate compares against).
* :class:`LibraryKernelSet` reads ``library`` — the batched "library
  routine" kernels standing in for cuBLAS / Thrust / hand-written CUDA
  kernels (the GPU target and the batched CPU serving mode).

The kernel a call names is the table's entry, looked up in its module on
every call (:func:`repro.ir.ops._late`), so a patched ``repro.kernels.*``
attribute is still the one that runs.

Each lowered primitive counts one kernel launch
(``ExecutionReport.kernel_launches``), so the GPU device model can account
for launch overhead.  Both kernel sets switch the similarity primitives to
the row's ``packed`` kernel when their operands are 1-bit bipolar (the
payoff of the automatic-binarization transform on general-purpose
hardware): decided once from the IR types, or per call when an operand
typed otherwise arrives bit-packed.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.hdcpp.program import Operation
from repro.ir.ops import PRIMITIVES, Primitive, is_binary
from repro.kernels import binary as binkern, reference as ref

__all__ = ["KernelSet", "ReferenceKernelSet", "LibraryKernelSet"]


def _kwargs(op: Operation, row: Primitive) -> dict:
    """The keyword arguments ``row``'s kernels take for ``op``."""
    kwargs = {name: op.attrs[name] for name in row.attrs}
    if row.is_reduce:
        # The window recorded by the reduction-perforation pass.
        kwargs["begin"] = op.attrs.get("perf_begin", 0)
        kwargs["end"] = op.attrs.get("perf_end")
        kwargs["stride"] = op.attrs.get("perf_stride", 1)
    return kwargs


class KernelSet:
    """Base class: one column of the primitive table, resolved op by op.

    :meth:`call` and :meth:`signed_call` return ``(call, kwargs)``: a kernel
    the interpreter calls as ``call(*inputs, **kwargs)``, or, with
    ``kwargs`` ``None``, a closure it calls as ``call(run, inputs)`` —
    ``run`` the executing :class:`~repro.backends.executor.OpInterpreter`
    (an initialiser draws from its random stream).
    """

    #: Name used in reports (``ExecutionReport.notes["kernel_set"]``).
    name = "reference"
    #: The :class:`~repro.ir.ops.Primitive` column this set executes.
    column = "kernel"
    #: Whether a traced product planned ``signed_by`` runs :meth:`signed_call`
    #: (:mod:`repro.transforms.plan`); else it runs ``kernel`` then ``sign``.
    signs_products = False

    @classmethod
    def call(cls, op: Operation) -> tuple[Callable, Optional[dict]]:
        """``op``'s call on this column.  Read from the IR here, once: the
        kernel, its keyword arguments, whether the operand types route it
        to the ``packed`` kernel, and whether a binarized result is signed.
        Left to each call: whether an operand arrived bit-packed."""
        row = PRIMITIVES[op.opcode]
        attrs = op.attrs
        if row.category == "init":
            kernel, rtype = row.kernel, op.result.type
            seed, init_fn = attrs.get("seed"), attrs.get("init_fn")

            def initialise(run, inputs):
                rng = run.rng() if seed is None else np.random.default_rng(seed)
                return kernel(rtype.shape, rtype.element, rng, init_fn)

            return initialise, None
        kernel = getattr(row, cls.column) or row.kernel
        if kernel is None:
            raise NotImplementedError(f"the {cls.name} kernel set cannot execute {op.opcode}")
        kwargs = packed_kwargs = _kwargs(op, row)
        if attrs.get("bipolar"):
            # The plan proves both operands ±1 (sign results): the kernel
            # skips its scan for them.
            kwargs = {**kwargs, "bipolar": True}
        packed = row.packed if row.is_reduce else None
        if packed is not None and all(map(is_binary, op.operands)):
            kernel, kwargs, packed = packed, packed_kwargs, None
        # Binarized reductions emit bipolar results (Section 4.2): when
        # automatic binarization marks a reduction result as 1-bit, the
        # lowered kernel produces the sign of the accumulated value
        # directly (the bit-vector lowering of Algorithm 1), so downstream
        # operations see data that matches the rewritten IR type.
        signs = row.sign_when_binarized and is_binary(op.result)
        if packed is None and not signs:
            return kernel, kwargs

        def run_kernel(run, inputs):
            if packed is not None and any(map(binkern.is_packed, inputs)):
                # A packed-storage deployment delivered a PackedBits
                # operand, which the float kernels could not interpret.
                out = packed(*inputs, **packed_kwargs)
            else:
                out = kernel(*inputs, **kwargs)
            return ref.sign(out) if signs else out

        return run_kernel, None

    @classmethod
    def signed_call(cls, op: Operation) -> tuple[Callable, dict]:
        """``sign`` of ``op``'s product by its row's certified ``signed``
        column (the ``kernel`` product's exact signs)."""
        row = PRIMITIVES[op.opcode]
        return row.signed, _kwargs(op, row)


class ReferenceKernelSet(KernelSet):
    """CPU kernel set — the reference ``kernel`` column.

    A product planned ``signed_by`` (one only ever signed) runs its
    certified ``signed`` column instead of ``kernel`` then ``sign``: the
    same bits from a float32 GEMV, with no float64 copy of the projection.
    """

    signs_products = True


class LibraryKernelSet(KernelSet):
    """GPU / batched-CPU kernel set — the ``library`` routine column."""

    name = column = "library"
