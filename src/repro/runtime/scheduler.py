"""List scheduler for training graphs.

Produces a total order of nodes honoring dataflow dependencies, choosing
among ready nodes by ``node.priority`` (creation order by default). The
Echo rewrite lowers mirrored recompute nodes' priority to just below their
first backward consumer, so they execute as late as possible and their
outputs stay live for the minimum interval — the property that makes
recomputation save memory instead of merely moving it.

The scheduler additionally applies a **footprint-aware tie-break**: among
ready default-priority nodes, one whose execution frees at least as many
bytes as it allocates (its inputs' last remaining consumer, minus its
outputs) is hoisted ahead of the priority order. Net-freeing nodes can
only shrink instantaneous live bytes, so running them first lowers the
waterline the interval-coloring packer has to cover without perturbing
any deliberately-priced node: mirrored recompute nodes and anything else
Echo re-prioritized keep their exact priority semantics and are never
hoisted.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterable, Sequence

from repro.graph import GraphFacts, Node, Tensor


class SchedulingError(RuntimeError):
    """Raised when the schedule is not a valid total order (cycle,
    duplicate, missing producer, or producer-after-consumer)."""


def schedule(
    outputs: Iterable[Tensor],
    facts: GraphFacts | None = None,
) -> list[Node]:
    """Priority-driven Kahn's algorithm over all nodes reachable from
    ``outputs``. Deterministic: ties broken by node uid.

    ``facts`` is the state's :class:`~repro.graph.GraphFacts` record when
    the caller holds one (its topological order and consumer lists are
    read instead of walked again).
    """
    if facts is None:
        facts = GraphFacts(outputs)
    nodes = facts.nodes
    by_uid = {n.uid: n for n in nodes}

    indegree: dict[int, int] = {}
    dependents: dict[int, list[int]] = defaultdict(list)
    for node in nodes:
        producer_uids = {t.node.uid for t in node.inputs}
        indegree[node.uid] = len(producer_uids)
        for uid in producer_uids:
            dependents[uid].append(node.uid)

    # Footprint bookkeeping: how many distinct unscheduled consumers each
    # tensor still has, and which consumers to re-examine when that count
    # hits one (the next consumer to run frees the tensor).
    consumers_of = facts.consumers
    in_keys: dict[int, list[tuple[int, int]]] = {}
    key_bytes: dict[tuple[int, int], int] = {}
    out_bytes: dict[int, int] = {}
    for node in nodes:
        keys = []
        for t in node.inputs:
            key = t.key
            if key not in key_bytes:
                key_bytes[key] = t.node.out_specs[t.index].nbytes
            if key not in keys:
                keys.append(key)
        in_keys[node.uid] = keys
        total = 0
        for spec in node.out_specs:
            total += spec.nbytes
        out_bytes[node.uid] = total
    remaining = {key: len(users) for key, users in consumers_of.items()}

    def net_frees(uid: int) -> bool:
        """Whether running ``uid`` now frees at least what it allocates."""
        freed = 0
        for k in in_keys[uid]:
            if remaining[k] == 1:
                freed += key_bytes[k]
        return freed >= out_bytes[uid] and freed > 0

    def hoistable(node: Node) -> bool:
        # Only default-priority nodes: Echo's mirrored nodes (and any
        # other deliberate re-prioritization) keep their exact order.
        return node.priority == float(node.uid)

    ready = [
        (n.priority, n.uid) for n in nodes if indegree[n.uid] == 0
    ]
    heapq.heapify(ready)
    # Net-freeing ready nodes, served before the main heap. A node's
    # freed-bytes estimate only grows while it waits (consumers of its
    # inputs retire), so eligibility is monotone — entries never go stale
    # in the unsafe direction.
    freeing: list[tuple[float, int]] = []
    scheduled: set[int] = set()
    in_freeing: set[int] = set()

    def consider(node: Node) -> None:
        if (
            node.uid not in in_freeing
            and hoistable(node)
            and net_frees(node.uid)
        ):
            in_freeing.add(node.uid)
            heapq.heappush(freeing, (node.priority, node.uid))

    for _p, uid in ready:
        consider(by_uid[uid])

    order: list[Node] = []
    while ready or freeing:
        uid = None
        while freeing:
            _, cand = heapq.heappop(freeing)
            if cand not in scheduled:
                uid = cand
                break
        if uid is None:
            _, uid = heapq.heappop(ready)
            if uid in scheduled:
                continue
        node = by_uid[uid]
        scheduled.add(uid)
        order.append(node)
        for key in in_keys[uid]:
            remaining[key] -= 1
            if remaining[key] == 1:
                for consumer in consumers_of[key]:
                    cuid = consumer.uid
                    if cuid not in scheduled and indegree[cuid] == 0:
                        consider(consumer)
        for dep_uid in dependents[uid]:
            indegree[dep_uid] -= 1
            if indegree[dep_uid] == 0:
                dep = by_uid[dep_uid]
                heapq.heappush(ready, (dep.priority, dep.uid))
                consider(dep)

    if len(order) != len(nodes):
        raise SchedulingError(
            f"cycle detected: scheduled {len(order)} of {len(nodes)} nodes"
        )
    # The hoist must never bend dataflow or drop coverage; guard the
    # reordered schedule with the full validator.
    validate_schedule(order)
    return order


def validate_schedule(order: Sequence[Node]) -> None:
    """Assert ``order`` is a valid total order of a closed node set.

    Rejects duplicate nodes, consumers whose producer is missing from the
    schedule entirely, and producers scheduled after a consumer. Used by
    tests, Echo checks, the tuning-store order loader, and as the guard
    on every schedule the footprint tie-break reordered.
    """
    position: dict[int, int] = {}
    for i, node in enumerate(order):
        if node.uid in position:
            raise SchedulingError(
                f"duplicate node in schedule: {node.name}"
            )
        position[node.uid] = i
    for node in order:
        for t in node.inputs:
            pos = position.get(t.node.uid)
            if pos is None:
                raise SchedulingError(
                    f"{node.name} consumes {t.node.name}, which is missing "
                    f"from the schedule"
                )
            if pos >= position[node.uid]:
                raise SchedulingError(
                    f"{t.node.name} scheduled after its consumer {node.name}"
                )
