"""Numeric kernel libraries shared by the DSL eager mode and the back ends.

Three kernel flavours are provided:

* :mod:`repro.kernels.reference` — straightforward NumPy kernels.  These
  define the *semantics* of every HDC primitive and are what the CPU back
  end and the DSL's eager mode execute (inside an execution a product
  only signed runs the certified
  :func:`repro.kernels.batched.sign_gemm`, and inside a GPU / batched one
  an eager ``retrain`` takes its mini-batch routine:
  :mod:`repro.kernels.memo`).  Where a whole-block form is exact it is
  the kernel: a ±1 Hamming block is one float32 GEMM.
* :mod:`repro.kernels.batched` — "library routine" kernels that operate on
  whole hypermatrices at once.  They stand in for the cuBLAS / Thrust /
  hand-written CUDA kernels the paper's GPU back end lowers to, and hold
  only the routines that differ from the reference kernel (the primitive
  table's ``library`` column names nothing else).
* :mod:`repro.kernels.binary` — packed-bit kernels (XOR + popcount) used
  after automatic binarization to exploit 1-bit bipolar representations;
  the table's ``packed`` column names its routines directly.  One packed
  layout (``uint64`` words) and one popcount (``np.bitwise_count``).
"""

from repro.kernels import batched, binary, reference

__all__ = ["reference", "batched", "binary"]
