"""One record of derived facts per graph state.

Scheduling, memory planning, the Echo analyses, the tuning-store
fingerprints, the IR linter and the cost accounting all start from the
same derivations over the graph under a set of outputs: its topological
order, each node's position in it, who consumes each tensor, the
structural signature that keys the plan cache, and what the device model
charges for each node. A :class:`GraphFacts` derives each of them once —
one walk, one signature pass — and whoever walks a state first hands the
record to everyone after it.

A *graph state* is the graph as it is now: the Echo rewrite re-points
inputs and reassigns priorities in place, so one list of outputs passes
through several states. A record is a snapshot of one of them and says so
itself: :meth:`GraphFacts.is_current` compares every node it walked
against what the node holds now, by identity, without a function call
per node — so a record can be kept and offered again (see
:meth:`repro.runtime.plancache.PlanCache.facts_for`) and a stale one is
never served.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.graph.node import Node, Tensor
from repro.graph.traversal import topo_order

TensorKey = tuple[int, int]


class GraphFacts:
    """Derived facts of the graph reachable from ``outputs``, as of now.

    ``inherit`` is an earlier record of the same outputs (a previous
    state); per-node costs are a function of the node alone, so the new
    record keeps the old one's cost tables and prices only nodes it has
    not seen.
    """

    __slots__ = (
        "outputs", "nodes", "signature", "liveness",
        "_inputs", "_index", "_consumers", "_cost_tables",
    )

    def __init__(
        self, outputs: Sequence[Tensor], inherit: "GraphFacts | None" = None
    ) -> None:
        self.outputs: tuple[Tensor, ...] = tuple(outputs)
        #: producers before consumers (:func:`repro.graph.topo_order`)
        self.nodes: list[Node] = topo_order(self.outputs)
        self._inputs = [n.inputs for n in self.nodes]
        #: structural fingerprint: node identity, scheduling priority,
        #: stage and dataflow edges, plus the requested output keys —
        #: everything the scheduler and memory planner read. Attrs and
        #: shapes are pinned by uid (nodes are immutable apart from the
        #: priority/input rewrites Echo applies, both captured here).
        self.signature: Hashable = (
            tuple([
                (n.uid, n.priority, n.stage, tuple([t.key for t in ins]))
                for n, ins in zip(self.nodes, self._inputs)
            ]),
            tuple([t.key for t in self.outputs]),
        )
        #: the memory planner's order-only sweep of this state's schedule
        #: (:class:`repro.runtime.memory.ScheduleLiveness`), kept here by
        #: :meth:`repro.runtime.plancache.PlanCache.plan_for`
        self.liveness: Any = None
        self._index: dict[int, int] | None = None
        self._consumers: dict[TensorKey, list[Node]] | None = None
        self._cost_tables: dict[Hashable, dict[int, Any]] = (
            inherit._cost_tables if inherit is not None else {}
        )

    def is_current(self) -> bool:
        """Whether the graph is still in the state this record describes.

        Every mutation the repo performs replaces ``Node.inputs`` with a
        new tuple or reassigns ``priority``/``stage``; if no walked node
        changed, the reachable set and its order cannot have changed
        either. A rollback restores the original tuples, so a record of
        the restored state is current again.
        """
        for node, inputs, row in zip(
            self.nodes, self._inputs, self.signature[0]
        ):
            if (
                node.inputs is not inputs
                or node.priority != row[1]
                or node.stage is not row[2]
            ):
                return False
        return True

    @property
    def index(self) -> dict[int, int]:
        """Node uid -> position in :attr:`nodes`."""
        if self._index is None:
            self._index = {n.uid: i for i, n in enumerate(self.nodes)}
        return self._index

    @property
    def consumers(self) -> dict[TensorKey, list[Node]]:
        """Tensor key -> its distinct consuming nodes, in :attr:`nodes`
        order. Tensors nothing consumes have no entry."""
        if self._consumers is None:
            consumers: dict[TensorKey, list[Node]] = {}
            for node, inputs in zip(self.nodes, self._inputs):
                for t in inputs:
                    users = consumers.get(t.key)
                    if users is None:
                        consumers[t.key] = [node]
                    elif users[-1] is not node:
                        users.append(node)
            self._consumers = consumers
        return self._consumers

    def node_costs(self, device: Any) -> dict[int, Any]:
        """``device.node_cost`` of every node, by uid, priced at most once.

        Tables are keyed by the device's cache token (equal tokens price
        every node identically) and shared along a chain of inherited
        records.
        """
        token = getattr(device, "cache_token", None)
        if token is None:
            token = device.spec
        table = self._cost_tables.setdefault(token, {})
        for node in self.nodes:
            if node.uid not in table:
                table[node.uid] = device.node_cost(node)
        return table
