"""Dataflow-graph IR: nodes, tensors, operators, traversal.

This is the substrate layer standing in for MXNet's NNVM graph in the
paper's integration (DESIGN.md S1).
"""

from repro.graph.node import (
    Node,
    Stage,
    Tensor,
    TensorSpec,
    current_scope,
    dtype_name,
    scope,
)
from repro.graph.op import Op, OpError, get_op, register, registered_ops
from repro.graph.shapes import ShapeError, broadcast_shapes
from repro.graph.printing import GraphSummary, format_graph, summarize
from repro.graph.facts import GraphFacts
from repro.graph.traversal import (
    ancestors,
    consumers_map,
    dependency_levels,
    topo_order,
)

__all__ = [
    "Node",
    "Stage",
    "Tensor",
    "TensorSpec",
    "scope",
    "current_scope",
    "dtype_name",
    "Op",
    "OpError",
    "register",
    "get_op",
    "registered_ops",
    "ShapeError",
    "broadcast_shapes",
    "topo_order",
    "consumers_map",
    "ancestors",
    "dependency_levels",
    "GraphFacts",
    "summarize",
    "format_graph",
    "GraphSummary",
]
