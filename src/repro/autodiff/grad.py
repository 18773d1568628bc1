"""Reverse-mode automatic differentiation over the graph IR.

``build_gradients`` constructs an explicit backward graph (new nodes tagged
``Stage.BACKWARD``) whose nodes reference forward tensors directly. Those
references are what create *feature maps*: any forward tensor consumed by a
backward node must survive the forward/backward boundary — the memory
category the paper shows dominating LSTM RNN training footprint, and the
one the Echo pass attacks.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

from repro.graph import Stage, Tensor, topo_order
from repro.graph.node import _SCOPES
from repro.ops.elementwise import add
from repro.ops.source import constant


class GradientError(RuntimeError):
    """Raised when differentiation is impossible (e.g. non-scalar loss)."""


@contextlib.contextmanager
def _forced_scope(path: str) -> Iterator[None]:
    """Temporarily replace the scope stack so gradient nodes inherit the
    scope of the forward node they differentiate (profilers group on it)."""
    saved = _SCOPES.stack
    _SCOPES.stack = [s for s in path.split("/") if s]
    try:
        yield
    finally:
        _SCOPES.stack = saved


def build_gradients(
    loss: Tensor, wrt: Sequence[Tensor]
) -> dict[tuple[int, int], Tensor | None]:
    """Differentiate scalar ``loss`` w.r.t. each tensor in ``wrt``.

    Returns a map from ``tensor.key`` to its gradient tensor (``None`` when
    the loss does not depend on it). All newly created nodes are tagged
    ``Stage.BACKWARD``.
    """
    if loss.shape != ():
        raise GradientError(f"loss must be scalar, got shape {loss.shape}")

    forward_order = topo_order([loss])
    forward_uids = {n.uid for n in forward_order}

    grad_map: dict[tuple[int, int], Tensor] = {}

    def accumulate(key: tuple[int, int], grad: Tensor) -> None:
        existing = grad_map.get(key)
        grad_map[key] = grad if existing is None else add(existing, grad)

    seed = constant(np.ones((), dtype=loss.dtype), name="dLoss")
    grad_map[loss.key] = seed

    for node in reversed(forward_order):
        out_grads = [
            grad_map.get((node.uid, i)) for i in range(len(node.out_specs))
        ]
        if all(g is None for g in out_grads) or not node.inputs:
            continue
        with _forced_scope(node.scope):
            in_grads = node.op.gradient(node, out_grads)
        if len(in_grads) != len(node.inputs):
            raise GradientError(
                f"op {node.op.name} returned {len(in_grads)} gradients for "
                f"{len(node.inputs)} inputs"
            )
        for tensor, grad in zip(node.inputs, in_grads):
            if grad is None:
                continue
            if grad.shape != tensor.shape:
                raise GradientError(
                    f"gradient shape {grad.shape} != input shape "
                    f"{tensor.shape} for op {node.op.name}"
                )
            accumulate(tensor.key, grad)

    result: dict[tuple[int, int], Tensor | None] = {
        t.key: grad_map.get(t.key) for t in wrt
    }

    # Tag every node that is not part of the forward graph as BACKWARD.
    # The forward graph is closed under inputs, so the walk from the
    # gradients stops at it: what lies past a forward node is forward.
    seen = forward_uids
    stack = [g for g in result.values() if g is not None]
    while stack:
        node = stack.pop().node
        if node.uid not in seen:
            seen.add(node.uid)
            node.stage = Stage.BACKWARD
            stack.extend(node.inputs)
    return result
