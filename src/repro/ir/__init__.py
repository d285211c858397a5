"""HPVM-HDC intermediate representation.

The IR mirrors Section 4.1 of the paper: programs are hierarchical dataflow
graphs whose leaf nodes carry sequences of operations (HDC intrinsics plus
generic compute) and whose internal nodes capture hierarchical parallelism.
Edges between nodes represent *logical* data transfers; each node carries a
set of hardware-target annotations that back ends use to decide where code
is generated.
"""

from repro.ir.dataflow import DataflowGraph, InternalNode, LeafNode, Target
from repro.ir.ops import PRIMITIVES, Opcode, infer_result_type
from repro.ir.builder import lower_program
from repro.ir.printer import print_graph, print_program
from repro.ir.verifier import IRVerificationError, verify_graph, verify_program

__all__ = [
    "Opcode",
    "PRIMITIVES",
    "infer_result_type",
    "DataflowGraph",
    "LeafNode",
    "InternalNode",
    "Target",
    "lower_program",
    "print_graph",
    "print_program",
    "verify_graph",
    "verify_program",
    "IRVerificationError",
]
