"""Activation functions and their fused backward kernels.

LSTM RNNs are dominated by ``tanh``/``sigmoid`` (the four gate
nonlinearities), in contrast to the ``relu``-heavy CNNs that prior footprint
work (Gist) targets — the paper leans on this distinction, so all three are
implemented. Each activation's backward is a dedicated fused op, mirroring
framework ``_backward_*`` kernels; ``tanh``/``sigmoid`` backward reads the
forward *output*, which is exactly what turns those outputs into stashed
feature maps (the paper's Section 3.2 example).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, Tensor, TensorSpec, register


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable piecewise form.
    out = np.empty_like(x)
    _sigmoid_into(x, out)
    return out


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    # Numerically stable and branch-free: t = exp(-|x|) never overflows
    # and is <= 1, so max(t, [x >= 0]) is 1 where x >= 0 and t elsewhere,
    # and one division by 1 + t gives exactly the classic piecewise form —
    # 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) otherwise — bit for bit
    # (NaN stays NaN: it fails x >= 0 and wins the max). Alias-safe when
    # ``out is x``: x is only read up to the first write to out. ``out``
    # goes positionally (one bytecode less per pass) except to
    # np.maximum, which deprecates a third positional argument.
    t = np.abs(x)
    np.negative(t, t)
    np.exp(t, t)
    np.greater_equal(x, 0, out)
    np.maximum(t, out, out=out)
    np.add(t, 1.0, t)
    np.divide(out, t, out)


class _ElementwiseSameShape(Op):
    recompute_cheap = True
    supports_out = True
    fusion_eligible = True
    inplace_operands = (0,)

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (a,) = node.inputs
        return [TensorSpec(a.shape, a.dtype)]


class TanhOp(_ElementwiseSameShape):
    name = "tanh"

    def compute(self, node, inputs):
        return [np.tanh(inputs[0])]

    def kernel(self, node):
        return np.tanh

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [tanh_grad(node.out(0), dy)]


class TanhGradOp(Op):
    """dx = dy * (1 - y^2); reads the forward output y."""

    name = "tanh_grad"
    recompute_cheap = True
    supports_out = True
    fusion_eligible = True
    inplace_operands = (0, 1)

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        y, _dy = node.inputs
        return [TensorSpec(y.shape, y.dtype)]

    def compute(self, node, inputs):
        y, dy = inputs
        return [np.asarray(dy * (1.0 - y * y), dtype=y.dtype)]

    def kernel(self, node):
        def k(y, dy, out):
            t = np.multiply(y, y)
            np.subtract(1.0, t, out=t)
            np.multiply(dy, t, out=out)

        return k


class SigmoidOp(_ElementwiseSameShape):
    name = "sigmoid"

    def compute(self, node, inputs):
        return [np.asarray(_sigmoid(inputs[0]), dtype=inputs[0].dtype)]

    def kernel(self, node):
        return _sigmoid_into

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [sigmoid_grad(node.out(0), dy)]


class SigmoidGradOp(Op):
    """dx = dy * y * (1 - y); reads the forward output y."""

    name = "sigmoid_grad"
    recompute_cheap = True
    supports_out = True
    fusion_eligible = True
    inplace_operands = (0, 1)

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        y, _dy = node.inputs
        return [TensorSpec(y.shape, y.dtype)]

    def compute(self, node, inputs):
        y, dy = inputs
        return [np.asarray(dy * y * (1.0 - y), dtype=y.dtype)]

    def kernel(self, node):
        def k(y, dy, out):
            t = np.subtract(1.0, y)
            np.multiply(dy, y, out=out)
            np.multiply(out, t, out=out)

        return k


class ReluOp(_ElementwiseSameShape):
    name = "relu"

    def compute(self, node, inputs):
        return [np.maximum(inputs[0], 0.0)]

    def kernel(self, node):
        return lambda x, out: np.maximum(x, 0.0, out=out)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [relu_grad(node.inputs[0], dy)]


class ReluGradOp(Op):
    """dx = dy * (x > 0); reads the forward *input* x."""

    name = "relu_grad"
    recompute_cheap = True
    supports_out = True
    fusion_eligible = True
    inplace_operands = (0, 1)

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        x, _dy = node.inputs
        return [TensorSpec(x.shape, x.dtype)]

    def compute(self, node, inputs):
        x, dy = inputs
        return [np.asarray(dy * (x > 0.0), dtype=x.dtype)]

    def kernel(self, node):
        return lambda x, dy, out: np.multiply(dy, np.greater(x, 0.0), out=out)


_TANH = register(TanhOp())
_TANH_GRAD = register(TanhGradOp())
_SIGMOID = register(SigmoidOp())
_SIGMOID_GRAD = register(SigmoidGradOp())
_RELU = register(ReluOp())
_RELU_GRAD = register(ReluGradOp())


def tanh(x: Tensor) -> Tensor:
    return Node(_TANH, [x]).out()


def tanh_grad(y: Tensor, dy: Tensor) -> Tensor:
    return Node(_TANH_GRAD, [y, dy]).out()


def sigmoid(x: Tensor) -> Tensor:
    return Node(_SIGMOID, [x]).out()


def sigmoid_grad(y: Tensor, dy: Tensor) -> Tensor:
    return Node(_SIGMOID_GRAD, [y, dy]).out()


def relu(x: Tensor) -> Tensor:
    return Node(_RELU, [x]).out()


def relu_grad(x: Tensor, dy: Tensor) -> Tensor:
    return Node(_RELU_GRAD, [x, dy]).out()
