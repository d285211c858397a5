"""The hierarchical dataflow graph of HPVM-HDC IR (Section 4.1).

Programs are represented as a directed acyclic graph whose nodes are either
*leaf nodes* — individual units of computation carrying a sequence of
operations — or *internal nodes* containing an entire sub-graph (used to
express hierarchical parallelism such as Hetero-C++ parallel loops).  Edges
between nodes represent **logical** data transfers: an explicit copy may or
may not be required depending on where the producing and consuming nodes
end up executing.

Each node carries a set of hardware-target annotations; back ends generate
code for the nodes mapped to them (see :mod:`repro.backends`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.hdcpp.program import Operation, Value
from repro.hdcpp.types import HDType

__all__ = ["Target", "LeafNode", "InternalNode", "DataflowGraph"]


class Target(str, enum.Enum):
    """Hardware targets supported by the HPVM-HDC back ends."""

    CPU = "cpu"
    GPU = "gpu"
    HDC_ASIC = "hdc_asic"
    HDC_RERAM = "hdc_reram"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_node_ids = itertools.count(1)


@dataclass(eq=False)
class DFGNode:
    """Base class for dataflow-graph nodes."""

    name: str
    targets: set[Target] = field(default_factory=lambda: {Target.CPU, Target.GPU})

    def __post_init__(self) -> None:
        self.id = next(_node_ids)

    @property
    def is_leaf(self) -> bool:
        return isinstance(self, LeafNode)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"<{kind} node #{self.id} {self.name!r} targets={sorted(t.value for t in self.targets)}>"


@dataclass(eq=False)
class LeafNode(DFGNode):
    """A leaf node: a unit of computation holding a sequence of operations.

    ``dynamic_instances`` mirrors HPVM's dynamic node instances: a leaf with
    N instances represents N parallel executions of the same code, each
    identified by its instance id (the representation HPVM uses for parallel
    loop iterations, Listing 4 of the paper).

    ``impl_graph`` is populated for coarse-grain *stage* nodes
    (``encoding_loop`` / ``training_loop`` / ``inference_loop``): it holds
    the dataflow sub-graph of the user-provided implementation function,
    which CPU/GPU back ends execute while accelerator back ends ignore it in
    favour of the device's native coarse-grain operations.
    """

    ops: list[Operation] = field(default_factory=list)
    dynamic_instances: int = 1
    impl_graph: Optional["DataflowGraph"] = None

    def opcodes(self) -> list:
        return [op.opcode for op in self.ops]


@dataclass(eq=False)
class InternalNode(DFGNode):
    """An internal node containing a nested dataflow sub-graph.

    ``op`` records the frontend operation that created the internal node
    (e.g. a ``hetero.parallel_map``); back ends use it to bind the node's
    inputs and outputs when executing the nested sub-graph once per dynamic
    instance.
    """

    subgraph: Optional["DataflowGraph"] = None
    dynamic_instances: int = 1
    op: Optional[Operation] = None


@dataclass(frozen=True)
class DFGEdge:
    """A logical data transfer between two nodes (or a graph boundary).

    ``src`` / ``dst`` are node ids; the special id ``0`` denotes the graph
    boundary (graph inputs flow out of node 0, graph outputs flow into it).
    ``value`` is the SSA value carried by the edge.
    """

    src: int
    dst: int
    value: Value

    @property
    def type(self) -> HDType:
        return self.value.type

    def __repr__(self) -> str:
        return f"{self.src} --%{self.value.name}:{self.value.type}--> {self.dst}"


class DataflowGraph:
    """A (possibly nested) HPVM-HDC dataflow graph."""

    BOUNDARY = 0

    def __init__(self, name: str):
        self.name = name
        self.nodes: dict[int, DFGNode] = {}
        self.edges: list[DFGEdge] = []
        self.inputs: list[Value] = []
        self.outputs: list[Value] = []

    # -- construction ------------------------------------------------------------
    def add_node(self, node: DFGNode) -> DFGNode:
        self.nodes[node.id] = node
        return node

    def add_edge(self, src: int, dst: int, value: Value) -> DFGEdge:
        edge = DFGEdge(src, dst, value)
        self.edges.append(edge)
        return edge

    # -- queries -----------------------------------------------------------------
    def node(self, node_id: int) -> DFGNode:
        return self.nodes[node_id]

    def leaf_nodes(self) -> list[LeafNode]:
        return [n for n in self.nodes.values() if isinstance(n, LeafNode)]

    def internal_nodes(self) -> list[InternalNode]:
        return [n for n in self.nodes.values() if isinstance(n, InternalNode)]

    def successors(self, node_id: int) -> list[int]:
        return sorted({e.dst for e in self.edges if e.src == node_id and e.dst != self.BOUNDARY})

    def in_edges(self, node_id: int) -> list[DFGEdge]:
        return [e for e in self.edges if e.dst == node_id]

    def topological_order(self) -> list[DFGNode]:
        """Nodes in a topological order of the (acyclic) dataflow edges."""
        indegree = {nid: 0 for nid in self.nodes}
        # Once per (source, destination) pair, as :meth:`successors` releases
        # them: an op reading one value in two operand slots has two edges.
        for src, dst in {(e.src, e.dst) for e in self.edges}:
            if src != self.BOUNDARY and dst != self.BOUNDARY:
                indegree[dst] += 1
        ready = sorted(nid for nid, deg in indegree.items() if deg == 0)
        order: list[DFGNode] = []
        while ready:
            nid = ready.pop(0)
            order.append(self.nodes[nid])
            for succ in self.successors(nid):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self.nodes):
            raise ValueError(f"dataflow graph {self.name!r} contains a cycle")
        return order

    # -- traversal ---------------------------------------------------------------
    def walk_nodes(self, recursive: bool = True) -> Iterator[DFGNode]:
        """Yield every node, optionally descending into nested sub-graphs."""
        for node in self.nodes.values():
            yield node
            if not recursive:
                continue
            if isinstance(node, InternalNode) and node.subgraph is not None:
                yield from node.subgraph.walk_nodes(recursive=True)
            if isinstance(node, LeafNode) and node.impl_graph is not None:
                yield from node.impl_graph.walk_nodes(recursive=True)

    def walk_ops(self, recursive: bool = True) -> Iterator[tuple[DFGNode, Operation]]:
        """Yield ``(node, operation)`` pairs across the whole hierarchy."""
        for node in self.walk_nodes(recursive=recursive):
            if isinstance(node, LeafNode):
                for op in node.ops:
                    yield node, op

    def walk_values(self, recursive: bool = True) -> Iterator[Value]:
        """Yield every SSA value referenced in the graph hierarchy."""
        seen: set[int] = set()
        for value in itertools.chain(self.inputs, self.outputs):
            if value.id not in seen:
                seen.add(value.id)
                yield value
        for _, op in self.walk_ops(recursive=recursive):
            for value in itertools.chain(op.operands, [op.result] if op.result else []):
                if value.id not in seen:
                    seen.add(value.id)
                    yield value

    def annotate_targets(self, targets: Iterable[Target], recursive: bool = True) -> None:
        """Overwrite the target annotation of every node in the hierarchy."""
        targets = set(targets)
        for node in self.walk_nodes(recursive=recursive):
            node.targets = set(targets)

    def __repr__(self) -> str:
        return (
            f"DataflowGraph({self.name!r}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)}, inputs={len(self.inputs)}, outputs={len(self.outputs)})"
        )
