"""Kernel sets used by the CPU, GPU and accelerator back ends.

A *kernel set* maps one HPVM-HDC IR operation plus its concrete operand
arrays to a result array.  It holds no per-primitive code: :meth:`KernelSet
.run` reads the operation's row of the primitive table
(:data:`repro.ir.ops.PRIMITIVES`) generically, and the two kernel sets
differ only in the column they read:

* :class:`ReferenceKernelSet` reads ``kernel`` — the straightforward
  reference kernels, i.e. the behaviour of HDC primitives expanded into
  HPVM IR loop sub-graphs and compiled for the host (the paper's CPU
  target, and the reference the bit-identity gate compares against).
* :class:`LibraryKernelSet` reads ``library`` — the batched "library
  routine" kernels standing in for cuBLAS / Thrust / hand-written CUDA
  kernels (the GPU target and the batched CPU serving mode).

``kernel_invocations`` counts one kernel launch per lowered primitive, so
the GPU device model can account for launch overhead.  Both kernel sets
switch the similarity primitives to the row's ``packed`` kernel when their
operands are 1-bit bipolar (the payoff of the automatic-binarization
transform on general-purpose hardware).
"""

from __future__ import annotations

import numpy as np

from repro.hdcpp.program import Operation
from repro.ir.ops import PRIMITIVES, Primitive, is_binary
from repro.kernels import binary as binkern, reference as ref

__all__ = ["KernelSet", "ReferenceKernelSet", "LibraryKernelSet"]


def _binary_route(op: Operation, inputs: list[np.ndarray]) -> bool:
    """Whether a similarity op should take the packed word-parallel kernels.

    True when the IR declares 1-bit operands (the automatic-binarization
    taint reached the comparison) — or when a packed-storage deployment
    already delivered a :class:`~repro.kernels.binary.PackedBits` operand
    at runtime, which the float kernels could not interpret.
    """
    return all(map(is_binary, op.operands)) or any(binkern.is_packed(v) for v in inputs)


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
    """Base class: runs one operation through a column of the primitive table."""

    #: Name used in reports (``ExecutionReport.notes["kernel_set"]``).
    name = "reference"
    #: The :class:`~repro.ir.ops.Primitive` column this set executes.
    column = "kernel"
    #: Whether a traced product planned ``signed_by`` runs :meth:`run_signed`
    #: (:mod:`repro.transforms.plan`); else it runs ``kernel`` then ``sign``.
    signs_products = False

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = None
        self.kernel_invocations = 0

    def run(self, op: Operation, inputs: list[np.ndarray]) -> np.ndarray:
        self.kernel_invocations += 1
        row = PRIMITIVES[op.opcode]
        attrs = op.attrs
        if row.category == "init":
            seed = attrs.get("seed")
            if seed is None and self._rng is None:
                # One stream per execution, seeded on first use: most
                # programs (every served one) draw nothing, and seeding a
                # Generator costs ~9 us a run.
                self._rng = np.random.default_rng(self.seed)
            rng = self._rng if seed is None else np.random.default_rng(seed)
            result = op.result.type
            return row.kernel(result.shape, result.element, rng, attrs.get("init_fn"))
        kernel = getattr(row, self.column) or row.kernel
        if kernel is None:
            raise NotImplementedError(f"the {self.name} kernel set cannot execute {op.opcode}")
        if row.is_reduce and row.packed is not None and _binary_route(op, inputs):
            kernel = row.packed
        out = kernel(*inputs, **_kwargs(op, row))
        if row.sign_when_binarized and is_binary(op.result):
            # Binarized reductions emit bipolar results (Section 4.2): when
            # automatic binarization marks a reduction result as 1-bit, the
            # lowered kernel produces the sign of the accumulated value
            # directly (the bit-vector lowering of Algorithm 1), so
            # downstream operations see data that matches the rewritten
            # IR type.
            return ref.sign(out)
        return out

    def run_signed(self, op: Operation, inputs: list[np.ndarray], launches: int) -> np.ndarray:
        """``sign`` of ``op``'s product by its row's certified ``signed``
        column (the ``kernel`` product's exact signs), counted as the
        ``launches`` operations it stands for."""
        self.kernel_invocations += launches
        row = PRIMITIVES[op.opcode]
        return row.signed(*inputs, **_kwargs(op, row))


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
