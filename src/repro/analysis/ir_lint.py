"""IR linter: well-formedness of the dataflow graph itself.

Everything downstream — scheduling, memory planning, Echo rewrites, plan
compilation — assumes the graph is a DAG of nodes whose annotated
``TensorSpec``s are what their ops would actually infer. Those assumptions
can silently rot: Echo's ``_clone_as_mirror`` deliberately copies
``out_specs`` without re-running inference, rollbacks re-point inputs in
place, and source nodes are bound *by name* at run time. This linter
re-derives each property and reports divergence. Acyclicity is proved
from the topological order the state's :class:`~repro.graph.GraphFacts`
record already holds (every output's node listed, every input listed
before its consumer: one subscript per edge); the cycle search runs only
when that proof fails, to name the cycle:

* **IR001** — cycle among the nodes reachable from the outputs (a rewrite
  that re-pointed an input upstream of itself);
* **IR002** — a ``Tensor`` referencing an output index its producer does
  not have;
* **IR003 / IR004** — annotated shape/dtype disagrees with re-running
  ``op.infer_specs`` (also raised when inference itself fails);
* **IR005** — a FORWARD node consuming a BACKWARD value (time runs
  backwards; forward-consuming-RECOMPUTE is the Echo barrier case and is
  reported as EC305 by :mod:`repro.analysis.recompute`);
* **IR006** — a placeholder/variable no node consumes (warning: dead
  bindings mask feed mistakes);
* **IR007** — two distinct source nodes sharing a binding name (the
  executor binds feeds/params by name, so one array would silently serve
  both).
"""

from __future__ import annotations

from typing import Sequence

from repro.graph import GraphFacts, Node, Stage, Tensor

from repro.analysis.findings import Finding, finding

__all__ = ["lint_graph"]

_ANALYZER = "ir-lint"
_SOURCE_OPS = ("placeholder", "variable")


def _order_is_topological(
    outputs: Sequence[Tensor], facts: GraphFacts
) -> bool:
    """Whether ``facts.nodes`` proves the graph under ``outputs`` acyclic.

    It does when the order lists every output's node and each node's
    current inputs before the node: the reachable set is then inside the
    order and every edge points backwards in it. The record may be stale
    (inputs re-pointed since it was taken); an edge to a node outside it
    fails the proof like an edge pointing forwards.
    """
    pos = facts.index
    for t in outputs:
        if t.node.uid not in pos:
            return False
    try:
        for i, node in enumerate(facts.nodes):
            for t in node.inputs:
                if pos[t.node.uid] >= i:
                    return False
    except KeyError:
        return False
    return True


def _find_cycle(roots: Sequence[Node]) -> list[Node] | None:
    """One cycle among nodes reachable from ``roots``, or None.

    Iterative three-color DFS (the graphs are RNNs unrolled over time —
    recursion would overflow on long sequences).
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for root in roots:
        if color.get(root.uid, WHITE) is not WHITE:
            continue
        stack: list[tuple[Node, int]] = [(root, 0)]
        color[root.uid] = GRAY
        path = [root]
        while stack:
            node, child_idx = stack.pop()
            if child_idx < len(node.inputs):
                stack.append((node, child_idx + 1))
                child = node.inputs[child_idx].node
                state = color.get(child.uid, WHITE)
                if state == GRAY:
                    # Cycle: path from child back to itself through node.
                    start = next(
                        i for i, n in enumerate(path) if n.uid == child.uid
                    )
                    return path[start:]
                if state == WHITE:
                    color[child.uid] = GRAY
                    path.append(child)
                    stack.append((child, 0))
            else:
                color[node.uid] = BLACK
                path.pop()
    return None


def lint_graph(
    outputs: Sequence[Tensor],
    sources: Sequence[Tensor] = (),
    facts: GraphFacts | None = None,
) -> list[Finding]:
    """Lint the graph reachable from ``outputs``; returns all findings.

    ``sources`` optionally names the placeholder/variable tensors the
    caller *intends* to bind (e.g. ``TrainingGraph.placeholders`` and
    ``params``); any of them not reachable from the outputs is reported
    as IR006 — the reachability walk alone cannot see them, precisely
    because nothing consumes them. ``facts`` is the state's
    :class:`~repro.graph.GraphFacts` record when the caller holds a
    current one: the topological order that proves the graph acyclic,
    the reachable set and the consumer lists are read from it (every
    per-node check still runs from scratch).
    """
    if facts is None:
        facts = GraphFacts(outputs)
    if not _order_is_topological(outputs, facts):
        cycle = _find_cycle([t.node for t in outputs])
        if cycle is not None:
            # Topological order does not exist; nothing below is
            # meaningful.
            return [_cycle_finding(cycle)]
    return _lint_acyclic(outputs, sources, facts)


def _cycle_finding(cycle: list[Node]) -> Finding:
    names = " -> ".join(n.name for n in cycle[:6])
    if len(cycle) > 6:
        names += " -> ..."
    return finding(
        "IR001",
        f"dataflow cycle of {len(cycle)} nodes: {names}",
        _ANALYZER,
        node=cycle[0].name,
    )


def _lint_acyclic(
    outputs: Sequence[Tensor],
    sources: Sequence[Tensor],
    facts: GraphFacts,
) -> list[Finding]:
    """Every check after IR001, over an acyclic graph's ``facts``."""
    findings: list[Finding] = []
    nodes = facts.nodes

    # IR002: dangling output references (from outputs and from inputs).
    def check_ref(t: Tensor, where: str) -> None:
        if not 0 <= t.index < len(t.node.out_specs):
            findings.append(
                finding(
                    "IR002",
                    f"{where} references output {t.index} of "
                    f"{t.node.name!r}, which has "
                    f"{len(t.node.out_specs)} output(s)",
                    _ANALYZER,
                    node=t.node.name,
                )
            )

    for i, t in enumerate(outputs):
        check_ref(t, f"graph output {i}")
    for node in nodes:
        for pos, t in enumerate(node.inputs):
            check_ref(t, f"input {pos} of {node.name!r}")

    # IR003/IR004: re-run shape/dtype inference and cross-check.
    for node in nodes:
        try:
            inferred = tuple(node.op.infer_specs(node))
        except Exception as exc:
            findings.append(
                finding(
                    "IR003",
                    f"shape re-inference failed for {node.name!r} "
                    f"({node.op.name}): {exc}",
                    _ANALYZER,
                    node=node.name,
                )
            )
            continue
        if len(inferred) != len(node.out_specs):
            findings.append(
                finding(
                    "IR003",
                    f"{node.name!r} annotates {len(node.out_specs)} "
                    f"outputs but inference yields {len(inferred)}",
                    _ANALYZER,
                    node=node.name,
                )
            )
            continue
        for i, (annotated, fresh) in enumerate(zip(node.out_specs, inferred)):
            if annotated.shape != fresh.shape:
                findings.append(
                    finding(
                        "IR003",
                        f"{node.name!r} output {i}: annotated shape "
                        f"{annotated.shape} but inference gives "
                        f"{fresh.shape}",
                        _ANALYZER,
                        node=node.name,
                    )
                )
            if annotated.dtype != fresh.dtype:
                findings.append(
                    finding(
                        "IR004",
                        f"{node.name!r} output {i}: annotated dtype "
                        f"{annotated.dtype} but inference gives "
                        f"{fresh.dtype}",
                        _ANALYZER,
                        node=node.name,
                    )
                )

    # IR005: forward nodes consuming backward values.
    for node in nodes:
        if node.stage is not Stage.FORWARD:
            continue
        for t in node.inputs:
            if t.node.stage is Stage.BACKWARD:
                findings.append(
                    finding(
                        "IR005",
                        f"forward node {node.name!r} consumes backward "
                        f"value {t.short_name!r}",
                        _ANALYZER,
                        node=node.name,
                    )
                )

    # IR006/IR007: source hygiene.
    consumed = facts.consumers
    output_keys = {t.key for t in outputs}
    reachable = {n.uid for n in nodes}
    declared = {t.node.uid: t.node for t in sources}
    seen_names: dict[str, Node] = {}
    for node in (*nodes, *(
        n for uid, n in sorted(declared.items()) if uid not in reachable
    )):
        if node.op.name not in _SOURCE_OPS:
            continue
        other = seen_names.get(node.name)
        if other is not None:
            findings.append(
                finding(
                    "IR007",
                    f"{node.op.name} name {node.name!r} is bound by two "
                    f"nodes (uids {other.uid} and {node.uid}); run-time "
                    "feeds bind by name and would serve both",
                    _ANALYZER,
                    node=node.name,
                )
            )
        else:
            seen_names[node.name] = node
        key = (node.uid, 0)
        if key not in consumed and key not in output_keys:
            findings.append(
                finding(
                    "IR006",
                    f"{node.op.name} {node.name!r} is never consumed",
                    _ANALYZER,
                    node=node.name,
                )
            )
    return findings
