"""Recomputation baselines Echo is compared against.

* :func:`sublinear_checkpoint` — Chen et al. (2016) "Training Deep Nets
  with Sublinear Memory Cost": cut the forward schedule into ~sqrt(N)
  segments, keep only the tensors crossing segment boundaries, and re-run
  a whole segment (GEMMs included) when its interior is needed by the
  backward pass. Saves more memory than Echo but pays roughly one extra
  forward pass (~30% slowdown) — the trade the paper's related-work
  section quantifies.
* :func:`recompute_all` — recompute every cheap region regardless of cost,
  the upper bound on what GEMM-free recomputation can save.

Both reuse Echo's mirroring machinery, so correctness (bitwise-identical
training) and the footprint accounting are shared.
"""

from __future__ import annotations

import math

from repro.autodiff.training import TrainingGraph
from repro.echo.analysis import Candidate, estimate_iteration_cost
from repro.echo.config import EchoConfig
from repro.echo.pass_ import EchoPass, EchoReport
from repro.echo.rewrite import ConsumerIndex, apply_candidate
from repro.graph import GraphFacts, Node, Stage
from repro.gpumodel import DeviceModel
from repro.runtime.memory import plan_memory
from repro.runtime.scheduler import schedule

_SOURCE_OPS = ("placeholder", "variable", "constant")


def sublinear_checkpoint(
    graph: TrainingGraph,
    num_segments: int | None = None,
    device: DeviceModel | None = None,
) -> EchoReport:
    """Apply Chen-style segment checkpointing to a training graph."""
    device = device or DeviceModel()
    outputs = graph.outputs
    output_keys = {t.key for t in outputs}

    facts = GraphFacts(outputs)
    order = schedule(outputs, facts=facts)
    baseline_plan = plan_memory(order, outputs)
    iteration = estimate_iteration_cost(order, device)

    forward = [
        n for n in order
        if n.stage is Stage.FORWARD and n.op.name not in _SOURCE_OPS
    ]
    if num_segments is None:
        num_segments = max(2, int(math.sqrt(len(forward))))
    seg_size = max(1, (len(forward) + num_segments - 1) // num_segments)
    segments = [
        forward[i:i + seg_size] for i in range(0, len(forward), seg_size)
    ]

    # Stashed tensors (feature maps) before any rewrite.
    stashed: set[tuple[int, int]] = set()
    for node in order:
        if node.stage is Stage.FORWARD:
            continue
        for t in node.inputs:
            if t.node.stage is Stage.FORWARD:
                stashed.add(t.key)

    report = EchoReport(
        baseline_peak_bytes=baseline_plan.peak_bytes,
        optimized_peak_bytes=baseline_plan.peak_bytes,
        candidates_found=len(segments),
        iteration_seconds=iteration.seconds,
        baseline_plan=baseline_plan,
    )

    index = ConsumerIndex(order, facts)
    extra_kernel = extra_api = 0.0
    # Skip the final segment: its interior is needed immediately when the
    # backward pass starts, so recomputing it saves nothing.
    for segment in segments[:-1]:
        candidate = _segment_candidate(
            segment, stashed, output_keys, device
        )
        if candidate is None:
            continue
        apply_candidate(candidate, index, output_keys, workspace_sharing=True)
        extra_kernel += candidate.kernel_seconds
        extra_api += candidate.api_seconds
        report.accepted.append(candidate)

    new_plan = plan_memory(schedule(outputs), outputs)
    report.recompute_seconds = iteration.marginal(extra_kernel, extra_api)
    report.optimized_peak_bytes = new_plan.peak_bytes
    report.optimized_plan = new_plan
    return report


def _segment_candidate(
    segment: list[Node],
    stashed: set[tuple[int, int]],
    output_keys: set[tuple[int, int]],
    device: DeviceModel,
) -> Candidate | None:
    """Build the recompute candidate for one forward segment."""
    segment_uids = {n.uid for n in segment}
    roots = []
    for node in segment:
        for i in range(len(node.out_specs)):
            if (node.uid, i) in stashed and (node.uid, i) not in output_keys:
                roots.append(node.out(i))
    if not roots:
        return None

    needed: set[int] = set()
    stack = [t.node for t in roots]
    while stack:
        node = stack.pop()
        if node.uid in needed or node.uid not in segment_uids:
            continue
        needed.add(node.uid)
        stack.extend(t.node for t in node.inputs)
    region = [n for n in segment if n.uid in needed]
    region_uids = {n.uid for n in region}

    border = {}
    for node in region:
        for t in node.inputs:
            if t.node.uid in region_uids:
                continue
            if t.node.op.name in _SOURCE_OPS or t.key in stashed:
                continue
            border[t.key] = t

    kernel = api = 0.0
    for node in region:
        cost = device.node_cost(node)
        kernel += cost.kernel_seconds
        api += cost.api_seconds
    return Candidate(
        nodes=region,
        eliminated=[t for t in roots if t.node.uid in region_uids],
        new_stashes=list(border.values()),
        kernel_seconds=kernel,
        api_seconds=api,
    )


def recompute_all(
    graph: TrainingGraph, device: DeviceModel | None = None
) -> EchoReport:
    """Recompute every GEMM-free region, ignoring the overhead budget."""
    config = EchoConfig(
        overhead_budget_fraction=1.0,
        min_benefit_bytes=1,
        verify_with_replan=False,
    )
    return EchoPass(config, device).run(graph)
