"""Loss operators: fused softmax cross-entropy over a vocabulary.

The Output layer of both workloads (word-level LM and NMT) is a large
FullyConnected projection to the vocabulary followed by softmax
cross-entropy; perplexity = exp(mean loss). The fused op stashes only the
logits (which the projection already produced), matching how frameworks
implement ``SoftmaxOutput``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, ShapeError, Tensor, TensorSpec, register
from repro.ops.softmax import softmax_array


class SoftmaxCrossEntropyOp(Op):
    """Mean token-level cross-entropy of logits [N x V] vs labels [N].

    Label value ``ignore_label`` (default -1) masks padding tokens out of
    both the loss and the gradient, as sequence toolkits do.
    """

    name = "softmax_cross_entropy"

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        logits, labels = node.inputs
        if len(logits.shape) != 2:
            raise ShapeError(f"logits must be [N x V], got {logits.shape}")
        if labels.shape != (logits.shape[0],):
            raise ShapeError(
                f"labels shape {labels.shape} != ({logits.shape[0]},)"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise TypeError("labels must be integers")
        return [TensorSpec((), logits.dtype)]

    def compute(self, node, inputs):
        logits, labels = inputs
        # float64 softmax of the picked entries only, through one [N x V]
        # temporary: subtract-and-widen, exponentiate in place, normalize
        # just the gathered column — the same per-element operations as
        # ``softmax_array(logits.astype(float64))[rows, labels]``.
        e = np.subtract(
            logits, np.max(logits, axis=-1, keepdims=True), dtype=np.float64
        )
        np.exp(e, out=e)
        total = np.sum(e, axis=-1)
        valid = labels != node.attrs["ignore_label"]
        count = max(int(valid.sum()), 1)
        rows = np.arange(logits.shape[0])[valid]
        picked = e[rows, labels[valid]] / total[rows]
        loss = -np.sum(np.log(np.maximum(picked, 1e-30))) / count
        return [np.asarray(loss, dtype=node.out_specs[0].dtype)]

    def gradient(self, node, out_grads):
        (dloss,) = out_grads
        if dloss is None:
            return [None, None]
        logits, labels = node.inputs
        dx = Node(
            _SOFTMAX_CROSS_ENTROPY_GRAD,
            [logits, labels, dloss],
            {"ignore_label": node.attrs["ignore_label"]},
        ).out()
        return [dx, None]

    def launch_count(self, node: Node) -> int:
        return 3  # softmax passes + gather/reduce


class SoftmaxCrossEntropyGradOp(Op):
    """dlogits = dloss * (softmax(logits) - onehot(labels)) / num_valid."""

    name = "softmax_cross_entropy_grad"
    supports_out = True
    #: ``kernel`` reads the logits only through the first
    #: ``np.subtract(logits, rowmax, out=grad)`` — the row max is a
    #: temporary taken before it — so ``grad`` may *be* the logits buffer
    inplace_operands = (0,)

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        logits = node.inputs[0]
        return [TensorSpec(logits.shape, logits.dtype)]

    def compute(self, node, inputs):
        logits, labels, dloss = inputs
        probs = softmax_array(logits, axis=-1)
        valid = labels != node.attrs["ignore_label"]
        count = max(int(valid.sum()), 1)
        grad = probs
        rows = np.arange(logits.shape[0])[valid]
        grad[rows, labels[valid]] -= 1.0
        grad[~valid] = 0.0
        grad *= np.float32(dloss) / count
        return [np.asarray(grad, dtype=logits.dtype)]

    def kernel(self, node):
        ignore_label = node.attrs["ignore_label"]

        def k(logits, labels, dloss, grad):
            # softmax_array written into the out buffer, then the same
            # in-place adjustments ``compute`` applies to its fresh probs.
            np.subtract(
                logits, np.max(logits, axis=-1, keepdims=True), out=grad
            )
            np.exp(grad, out=grad)
            np.divide(grad, np.sum(grad, axis=-1, keepdims=True), out=grad)
            valid = labels != ignore_label
            count = max(int(valid.sum()), 1)
            rows = np.arange(logits.shape[0])[valid]
            grad[rows, labels[valid]] -= 1.0
            grad[~valid] = 0.0
            grad *= np.float32(dloss) / count

        return k


_SOFTMAX_CROSS_ENTROPY = register(SoftmaxCrossEntropyOp())
_SOFTMAX_CROSS_ENTROPY_GRAD = register(SoftmaxCrossEntropyGradOp())


def softmax_cross_entropy(
    logits: Tensor, labels: Tensor, ignore_label: int = -1
) -> Tensor:
    """Mean cross-entropy loss; see :class:`SoftmaxCrossEntropyOp`."""
    return Node(
        _SOFTMAX_CROSS_ENTROPY, [logits, labels], {"ignore_label": ignore_label}
    ).out()
