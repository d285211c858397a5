"""HPVM-HDC intermediate representation.

The IR mirrors Section 4.1 of the paper in the traced op list itself: a
program is a set of traced functions whose operations are HDC intrinsics
plus generic compute.  The paper's hierarchical dataflow graph is the
``impl`` links between those functions: a stage primitive or
``hetero.parallel_map`` names the function that is its body, run once per
row (hierarchical parallelism).  Values flowing between operations are
*logical* transfers; each back end (one per :class:`Target`) decides where
the entry function's operations execute.
"""

from repro.ir.dataflow import Target
from repro.ir.ops import PRIMITIVES, Opcode, infer_result_type
from repro.ir.printer import print_program
from repro.ir.verifier import IRVerificationError, verify_program

__all__ = [
    "Opcode",
    "PRIMITIVES",
    "infer_result_type",
    "Target",
    "print_program",
    "verify_program",
    "IRVerificationError",
]
