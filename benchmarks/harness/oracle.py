"""The harness's own correctness oracle: a reference graph evaluator.

A plain topological walk calling each node's ``op.compute`` — no Echo
pass, no schedule, no memory plan, no compiled plan, and no dependency on
``GraphExecutor.run_interpreted`` (which the roadmap retires). Training
workloads must reproduce its losses and step-1 gradients *bitwise*.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.graph.traversal import topo_order


def evaluate(outputs: Sequence, feeds: Mapping[str, np.ndarray],
             params: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    values: dict[tuple[int, int], np.ndarray] = {}
    for node in topo_order(outputs):
        kind = node.op.name
        if kind in ("placeholder", "variable"):
            table = feeds if kind == "placeholder" else params
            arr = np.asarray(table[node.name])
            spec = node.out_specs[0]
            if tuple(arr.shape) != spec.shape:
                raise ValueError(f"{node.name}: shape {arr.shape} != {spec.shape}")
            values[(node.uid, 0)] = arr.astype(spec.dtype, copy=False)
            continue
        results = node.op.compute(node, [values[t.key] for t in node.inputs])
        for i, arr in enumerate(results):
            values[(node.uid, i)] = arr
    return [values[t.key] for t in outputs]


def loss_and_grads(graph, feeds, params) -> tuple[float, dict[str, np.ndarray]]:
    """Reference ``(loss, grads-by-name)`` of one training graph."""
    out = evaluate(graph.outputs, feeds, params)
    return float(out[0]), {
        name: out[1 + i] for i, name in enumerate(graph.grads)
    }


def reference_losses(graph_for, params: dict, optimizer, batches) -> tuple:
    """Train ``len(batches)`` reference steps; returns (losses, step-1 grads).

    ``graph_for(key)`` maps a batch key to its un-rewritten training graph;
    ``batches`` is ``[(key, feeds), ...]``. ``params`` is updated in place.
    """
    losses, first_grads = [], None
    for key, feeds in batches:
        loss, grads = loss_and_grads(graph_for(key), feeds, params)
        if first_grads is None:
            first_grads = {k: np.array(v, copy=True) for k, v in grads.items()}
        losses.append(loss)
        optimizer.update(params, grads)
    return losses, first_grads


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
