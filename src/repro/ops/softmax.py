"""Softmax and its fused backward (used by attention weights and output)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, Tensor, TensorSpec, register
from repro.graph.shapes import normalize_axis


def softmax_array(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax (shared with the loss kernels)."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax (shared by beam search, sequence
    scoring, and the serving layer — one implementation, one place)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


class SoftmaxOp(Op):
    name = "softmax"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        normalize_axis(node.attrs["axis"], len(x.shape))
        return [TensorSpec(x.shape, x.dtype)]

    def compute(self, node, inputs):
        out = softmax_array(inputs[0], node.attrs["axis"])
        return [np.asarray(out, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        axis = node.attrs["axis"]

        def k(x, out):
            np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
            np.exp(out, out=out)
            np.divide(out, np.sum(out, axis=axis, keepdims=True), out=out)

        return k

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [
            Node(
                _SOFTMAX_GRAD, [node.out(0), dy], {"axis": node.attrs["axis"]}
            ).out()
        ]

    def launch_count(self, node: Node) -> int:
        # max-reduce, exp-subtract, sum-reduce, divide
        return 4

    def bytes_accessed(self, node: Node) -> int:
        # Each of the 4 passes streams the tensor.
        return 4 * 2 * node.inputs[0].nbytes


class SoftmaxGradOp(Op):
    """dx = y * (dy - sum(dy * y, axis, keepdims)); reads forward output."""

    name = "softmax_grad"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        y, _dy = node.inputs
        return [TensorSpec(y.shape, y.dtype)]

    def compute(self, node, inputs):
        y, dy = inputs
        axis = node.attrs["axis"]
        inner = np.sum(dy * y, axis=axis, keepdims=True)
        return [np.asarray(y * (dy - inner), dtype=y.dtype)]

    def kernel(self, node):
        axis = node.attrs["axis"]

        def k(y, dy, out):
            inner = np.sum(dy * y, axis=axis, keepdims=True)
            np.subtract(dy, inner, out=out)
            np.multiply(y, out, out=out)

        return k


_SOFTMAX = register(SoftmaxOp())
_SOFTMAX_GRAD = register(SoftmaxGradOp())


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return Node(_SOFTMAX, [x], {"axis": axis}).out()
