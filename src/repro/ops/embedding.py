"""Embedding lookup and its scatter-add gradient."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, ShapeError, Tensor, TensorSpec, register


class EmbeddingOp(Op):
    """y[...,:] = weight[indices[...], :]."""

    name = "embedding"
    recompute_cheap = True  # a gather; trivially re-executable
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        weight, indices = node.inputs
        if len(weight.shape) != 2:
            raise ShapeError(f"embedding weight must be rank-2, got {weight.shape}")
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
        return [TensorSpec(indices.shape + (weight.shape[1],), weight.dtype)]

    def compute(self, node, inputs):
        weight, indices = inputs
        return [weight[indices]]

    def kernel(self, node):
        return lambda weight, indices, out: np.take(
            weight, indices, axis=0, out=out
        )

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None, None]
        weight, indices = node.inputs
        dw = Node(
            _EMBEDDING_GRAD, [indices, dy], {"vocab_size": weight.shape[0]}
        ).out()
        return [dw, None]


class EmbeddingGradOp(Op):
    """dW = scatter_add(zeros([V, H]), indices, dy)."""

    name = "embedding_grad"
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        _indices, dy = node.inputs
        return [TensorSpec((node.attrs["vocab_size"], dy.shape[-1]), dy.dtype)]

    def compute(self, node, inputs):
        indices, dy = inputs
        vocab, hidden = node.out_specs[0].shape
        dw = np.zeros((vocab, hidden), dtype=dy.dtype)
        np.add.at(dw, indices.reshape(-1), dy.reshape(-1, hidden))
        return [dw]

    def kernel(self, node):
        hidden = node.out_specs[0].shape[1]

        def k(indices, dy, dw):
            dw.fill(0)
            np.add.at(dw, indices.reshape(-1), dy.reshape(-1, hidden))

        return k


_EMBEDDING = register(EmbeddingOp())
_EMBEDDING_GRAD = register(EmbeddingGradOp())


def embedding(weight: Tensor, indices: Tensor) -> Tensor:
    return Node(_EMBEDDING, [weight, indices]).out()
