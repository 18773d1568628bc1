"""Graph rewrite applying recomputation: node mirroring and re-pointing.

For an accepted candidate region, every needed node is cloned into a
``Stage.RECOMPUTE`` mirror and all backward consumers of the region's
outputs are re-pointed at the mirrors. The original forward outputs then
die at their last *forward* use, so the planner's liveness shows the
reduced footprint; the mirrors' outputs live only from recomputation to
their backward consumer, and are accounted as workspace.

Scheduling: each mirror's priority is lowered to just below its first
backward consumer (lazy recomputation), which is what lets the recompute
regions of successive timesteps share one workspace interval. With
``workspace_sharing=False`` every mirror is instead hoisted to the start of
the backward pass — the ablation reproducing the O(B x T^2 x H) workspace
spike the paper warns about.

Re-pointing reads a :class:`ConsumerIndex` of the graph state the pass
started from, so applying a candidate visits only its region's consumers
instead of the whole schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graph import GraphFacts, Node, Stage, Tensor
from repro.echo.analysis import Candidate, TensorKey
from repro.obs import trace as obs_trace


@dataclass
class AppliedCandidate:
    """Bookkeeping for one applied region, sufficient to roll it back."""

    candidate: Candidate
    mirrors: dict[int, Node]  # original uid -> mirror node
    #: (backward node, its inputs tuple before re-pointing)
    repointed: list[tuple[Node, tuple[Tensor, ...]]] = field(default_factory=list)
    #: per-mirror :class:`repro.analysis.witness.MirrorWitness` records,
    #: collected by the Echo pass for the equivalence certifier
    witnesses: list = field(default_factory=list)

    def rollback(self) -> None:
        """Restore every re-pointed consumer; mirrors become unreachable."""
        for node, original_inputs in self.repointed:
            node.inputs = original_inputs
        self.repointed.clear()


class RewriteError(RuntimeError):
    """Raised when a rewrite would produce an inconsistent graph."""


class ConsumerIndex:
    """Who consumes each tensor of one graph state, in schedule order.

    Built once per pass from the state's :class:`~repro.graph.GraphFacts`
    (``consumers``) and its schedule ``order``, before any rewrite. A
    rewrite only ever replaces region tensors with mirror tensors, and a
    rollback restores them, so every later state's consumers of a region
    tensor are among this state's: re-pointing visits those and reads
    their live ``inputs``.
    """

    __slots__ = ("order", "_consumers", "_position")

    def __init__(self, order: Sequence[Node], facts: GraphFacts) -> None:
        self.order = order
        self._consumers = facts.consumers
        self._position = {n.uid: i for i, n in enumerate(order)}

    def backward_users(self, region: Sequence[Node]) -> list[Node]:
        """Distinct non-forward consumers of ``region``'s outputs, in
        schedule order."""
        consumers, position = self._consumers, self._position
        users = {
            position[user.uid]: user
            for node in region
            for i in range(len(node.out_specs))
            for user in consumers.get((node.uid, i), ())
            if user.stage is not Stage.FORWARD
        }
        return [users[p] for p in sorted(users)]


def _clone_as_mirror(node: Node, input_map: dict[TensorKey, Tensor]) -> Node:
    inputs = [input_map.get(t.key, t) for t in node.inputs]
    mirror = Node.__new__(Node)
    # Clone without re-running shape inference: specs are identical.
    from repro.graph.node import _NODE_COUNTER

    mirror.uid = next(_NODE_COUNTER)
    mirror.op = node.op
    mirror.inputs = tuple(inputs)
    mirror.attrs = dict(node.attrs)
    mirror.name = f"{node.name}__recompute"
    mirror.stage = Stage.RECOMPUTE
    mirror.scope = node.scope
    mirror.out_specs = node.out_specs
    mirror.mirror_of = node
    mirror.priority = float(mirror.uid)
    return mirror


def apply_candidate(
    candidate: Candidate,
    index: ConsumerIndex,
    output_keys: set[TensorKey],
    workspace_sharing: bool = True,
) -> AppliedCandidate:
    """Mirror ``candidate.nodes`` and re-point their backward consumers."""
    with obs_trace.span(
        "echo.apply", "echo",
        {"nodes": len(candidate.nodes),
         "benefit_bytes": candidate.benefit_bytes},
    ):
        return _apply_candidate(
            candidate, index, output_keys, workspace_sharing
        )


def _apply_candidate(
    candidate: Candidate,
    index: ConsumerIndex,
    output_keys: set[TensorKey],
    workspace_sharing: bool = True,
) -> AppliedCandidate:
    region_uids = {n.uid for n in candidate.nodes}

    # Map: original output key -> mirrored tensor.
    input_map: dict[TensorKey, Tensor] = {}
    mirrors: dict[int, Node] = {}
    for node in candidate.nodes:  # already topologically sorted
        mirror = _clone_as_mirror(node, input_map)
        mirrors[node.uid] = mirror
        for i in range(len(node.out_specs)):
            input_map[(node.uid, i)] = Tensor(mirror, i)

    # Re-point backward consumers of region outputs at the mirrors; leave
    # forward consumers, pinned graph outputs, and intentionally preserved
    # stashes on the originals.
    # Function-level import: the disabled Echo path never imports
    # repro.analysis, and the witness module is dependency-free.
    from repro.analysis.witness import MirrorWitness

    applied = AppliedCandidate(
        candidate=candidate,
        mirrors=mirrors,
        witnesses=[
            MirrorWitness(
                mirror_uid=mirror.uid, original_uid=uid, op=mirror.op.name
            )
            for uid, mirror in mirrors.items()
        ],
    )
    first_consumer_priority: dict[int, float] = {}
    for consumer in index.backward_users(candidate.nodes):
        new_inputs: list[Tensor] | None = None
        for idx, t in enumerate(consumer.inputs):
            if (
                t.node.uid not in region_uids
                or t.key in output_keys
                or t.key in candidate.preserved
            ):
                continue
            if new_inputs is None:
                new_inputs = list(consumer.inputs)
            new_inputs[idx] = input_map[t.key]
            mirror_uid = input_map[t.key].node.uid
            prio = first_consumer_priority.get(mirror_uid, consumer.priority)
            first_consumer_priority[mirror_uid] = min(prio, consumer.priority)
        if new_inputs is not None:
            applied.repointed.append((consumer, consumer.inputs))
            consumer.inputs = tuple(new_inputs)

    _assign_priorities(
        candidate, mirrors, first_consumer_priority, index.order,
        workspace_sharing,
    )
    return applied


def _assign_priorities(
    candidate: Candidate,
    mirrors: dict[int, Node],
    first_consumer_priority: dict[int, float],
    order: Sequence[Node],
    workspace_sharing: bool,
) -> None:
    if workspace_sharing:
        # Lazy: each mirror just before its FIRST consumer — which may be
        # a re-pointed backward node or another mirror (recurrent chains:
        # the c_{t} mirror is a dependency of the c_{t+1} mirror, whose
        # consumer can be much earlier than c_t's own backward consumer).
        # Taking the minimum over both, propagated in reverse topological
        # order, keeps chain mirrors at the front of the backward pass
        # instead of inverting the schedule.
        users_of: dict[int, list[Node]] = {n.uid: [] for n in candidate.nodes}
        for user in candidate.nodes:
            for uid in {t.node.uid for t in user.inputs}:
                if uid in users_of:
                    users_of[uid].append(user)
        for node in reversed(candidate.nodes):
            mirror = mirrors[node.uid]
            direct = first_consumer_priority.get(mirror.uid, float("inf"))
            via_users = min(
                [mirrors[user.uid].priority for user in users_of[node.uid]],
                default=float("inf"),
            )
            prio = min(direct, via_users)
            if prio == float("inf"):
                prio = float(mirror.uid)
            mirror.priority = prio - 0.5
    else:
        # Eager: hoist every mirror to the start of the backward pass.
        backward_priorities = [
            n.priority for n in order if n.stage is Stage.BACKWARD
        ]
        if not backward_priorities:
            raise RewriteError("graph has no backward nodes to hoist before")
        boundary = min(backward_priorities) - 0.5
        for i, node in enumerate(candidate.nodes):
            mirrors[node.uid].priority = boundary - 1e-6 * (
                len(candidate.nodes) - i
            )
