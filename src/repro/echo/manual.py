"""Manual recomputation annotations — the precursor (EcoRNN) workflow.

Before Echo automated the decision, the authors hand-modified the
attention operator: "declare that inputs need to be stashed, replay the
forward pass in backward" (the paper's Figure 10b). This module provides
that workflow as a user-facing API so the two can be compared:

>>> with recompute_region():
...     combined = O.add(O.expand_dims(q_proj, 1), keys)
...     activated = O.tanh(combined)

``apply_manual_recompute(graph)`` then mirrors exactly the annotated
nodes, with the same safety verification the automatic pass uses. The
E-echo experiment (benchmarks/test_echo_manual_parity.py) shows the
automatic pass matches hand annotation on the NMT attention — the paper's
central "compiler does it for you" claim.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from repro.autodiff.training import TrainingGraph
from repro.echo.analysis import Candidate, estimate_iteration_cost
from repro.echo.pass_ import EchoReport
from repro.echo.rewrite import ConsumerIndex, apply_candidate
from repro.graph import GraphFacts, Node, Stage
from repro.gpumodel import DeviceModel
from repro.runtime.memory import plan_memory
from repro.runtime.scheduler import schedule

_MARK_ATTR = "echo_manual_recompute"


class _MarkState(threading.local):
    def __init__(self) -> None:
        self.depth = 0
        self.marked: set[int] = set()


_STATE = _MarkState()


@contextlib.contextmanager
def recompute_region() -> Iterator[None]:
    """Mark every node built inside the block for manual recomputation.

    Marks survive on the nodes (``node.attrs['echo_manual_recompute']``)
    until :func:`apply_manual_recompute` consumes them. Nestable.
    """
    _STATE.depth += 1
    try:
        yield
    finally:
        _STATE.depth -= 1


def _mark_if_active(node: Node) -> None:
    if _STATE.depth > 0:
        node.attrs[_MARK_ATTR] = True


# Node construction is the single funnel point for annotations.
from repro.graph.node import register_node_hook  # noqa: E402

register_node_hook(_mark_if_active)


def marked_nodes(graph: TrainingGraph) -> list[Node]:
    """All forward nodes of ``graph`` carrying the manual mark."""
    return [
        n
        for n in graph.nodes()
        if n.stage is Stage.FORWARD and n.attrs.get(_MARK_ATTR)
    ]


def apply_manual_recompute(
    graph: TrainingGraph, device: DeviceModel | None = None
) -> EchoReport:
    """Recompute exactly the user-annotated regions.

    Unlike the automatic pass there is no candidate mining and no
    cost/benefit filter — the user said so — but the footprint-safety
    re-plan still runs: annotations that fail to reduce the measured peak
    raise, because a silent no-op would defeat the annotation's purpose.
    """
    device = device or DeviceModel()
    outputs = graph.outputs
    output_keys = {t.key for t in outputs}
    facts = GraphFacts(outputs)
    order = schedule(outputs, facts=facts)
    baseline_plan = plan_memory(order, outputs)
    iteration = estimate_iteration_cost(order, device)

    marked = [n for n in order if n.attrs.get(_MARK_ATTR)
              and n.stage is Stage.FORWARD]
    if not marked:
        raise ValueError(
            "no nodes are marked; build the model inside recompute_region()"
        )

    # Group the marked nodes into connected regions (shared machinery
    # expects topologically sorted node lists).
    from repro.echo.analysis import _connected_components, stashed_tensors

    stashes = stashed_tensors(order, output_keys)
    report = EchoReport(
        baseline_peak_bytes=baseline_plan.peak_bytes,
        optimized_peak_bytes=baseline_plan.peak_bytes,
        candidates_found=0,
        iteration_seconds=iteration.seconds,
        baseline_plan=baseline_plan,
    )
    index = ConsumerIndex(order, facts)
    extra_kernel = extra_api = 0.0
    for component in _connected_components(marked):
        component_uids = {n.uid for n in component}
        eliminated = [
            t for key, t in stashes.items() if key[0] in component_uids
        ]
        if not eliminated:
            continue  # region has nothing stashed; recompute is pointless
        border = {}
        for node in component:
            for t in node.inputs:
                if (t.node.uid not in component_uids
                        and t.key not in stashes
                        and t.node.op.name not in
                        ("placeholder", "variable", "constant")):
                    border[t.key] = t
        kernel = api = 0.0
        for node in component:
            cost = device.node_cost(node)
            kernel += cost.kernel_seconds
            api += cost.api_seconds
        candidate = Candidate(
            nodes=component,
            eliminated=eliminated,
            new_stashes=list(border.values()),
            kernel_seconds=kernel,
            api_seconds=api,
        )
        apply_candidate(candidate, index, output_keys)
        extra_kernel += kernel
        extra_api += api
        report.candidates_found += 1
        report.accepted.append(candidate)

    new_plan = plan_memory(schedule(outputs), outputs)
    if new_plan.peak_bytes > baseline_plan.peak_bytes:
        raise RuntimeError(
            "manual recomputation increased the footprint "
            f"({baseline_plan.peak_bytes} -> {new_plan.peak_bytes} bytes); "
            "the annotated region's border is larger than its interior"
        )
    report.recompute_seconds = iteration.marginal(extra_kernel, extra_api)
    report.optimized_peak_bytes = new_plan.peak_bytes
    report.optimized_plan = new_plan
    # Consume the marks so a second application cannot double-mirror.
    for node in marked:
        node.attrs.pop(_MARK_ATTR, None)
    return report
