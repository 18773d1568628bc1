"""Topological traversal utilities over the node IR."""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from repro.graph.node import Node, Tensor


def topo_order(outputs: Iterable[Tensor]) -> list[Node]:
    """All nodes reachable from ``outputs``, producers before consumers.

    DFS postorder — always a valid topological order, deterministic given
    the input order. Scheduling for execution (which interleaves mirrored
    recompute nodes into the backward pass) is done separately by
    :func:`repro.runtime.scheduler.schedule`.
    """
    visited: set[int] = set()
    order: list[Node] = []
    # Iterative DFS: recursion depth would scale with sequence length x
    # layers and overflow Python's stack on deep RNN graphs.
    roots = sorted({t.node.uid: t.node for t in outputs}.values(),
                   key=lambda n: n.uid)
    for root in roots:
        if root.uid in visited:
            continue
        stack: list[tuple[Node, int]] = [(root, 0)]
        visited.add(root.uid)
        while stack:
            node, child_idx = stack.pop()
            if child_idx < len(node.inputs):
                stack.append((node, child_idx + 1))
                child = node.inputs[child_idx].node
                if child.uid not in visited:
                    visited.add(child.uid)
                    stack.append((child, 0))
            else:
                order.append(node)
    return order


def consumers_map(nodes: Iterable[Node]) -> dict[tuple[int, int], list[Node]]:
    """Map each tensor key -> list of consuming nodes (schedule order)."""
    out: dict[tuple[int, int], list[Node]] = defaultdict(list)
    for node in nodes:
        for t in node.inputs:
            out[t.key].append(node)
    return dict(out)


def dependency_levels(nodes: Iterable[Node]) -> dict[int, int]:
    """Longest-path depth of each node over the value-dependence edges.

    Maps ``node.uid`` to its level: sources sit at level 0 and every node
    sits one past its deepest input producer, so nodes sharing a level are
    mutually independent through dataflow. ``nodes`` must be
    topologically ordered; producers outside the iterable are treated as
    already-available level-(-1) sources.
    """
    level: dict[int, int] = {}
    for node in nodes:
        level[node.uid] = 1 + max(
            (level.get(t.node.uid, -1) for t in node.inputs), default=-1
        )
    return level


def ancestors(
    tensors: Iterable[Tensor],
    stop: Callable[[Tensor], bool] | None = None,
) -> set[int]:
    """uids of all producer nodes transitively reachable from ``tensors``.

    ``stop(t)`` prunes the walk: when true, ``t.node`` is included but its
    own inputs are not explored (used by Echo to stop at checkpoints).
    """
    seen: set[int] = set()
    stack = list(tensors)
    while stack:
        t = stack.pop()
        node = t.node
        if node.uid in seen:
            continue
        seen.add(node.uid)
        if stop is not None and stop(t):
            continue
        stack.extend(node.inputs)
    return seen
