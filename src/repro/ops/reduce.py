"""Reduction operators (sum / mean / max) over one axis or all axes."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, Tensor, TensorSpec, register
from repro.graph.shapes import normalize_axis, num_elements, reduced_shape


class _ReduceBase(Op):
    recompute_cheap = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        shape = reduced_shape(x.shape, node.attrs["axis"], node.attrs["keepdims"])
        return [TensorSpec(shape, x.dtype)]

    def _np_axis(self, node: Node) -> int | None:
        return node.attrs["axis"]


class ReduceSumOp(_ReduceBase):
    name = "reduce_sum"
    supports_out = True

    def compute(self, node, inputs):
        out = np.sum(inputs[0], axis=self._np_axis(node),
                     keepdims=node.attrs["keepdims"])
        return [np.asarray(out, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        # ``out=`` forces accumulation in the out dtype; for floats that
        # matches the default, for ints numpy widens to int64 first, so
        # only the float path keeps bitwise parity with ``compute``.
        if node.out_specs[0].dtype.kind != "f":
            return super().kernel(node)
        axis, keepdims = self._np_axis(node), node.attrs["keepdims"]
        return lambda x, out: np.sum(x, axis=axis, keepdims=keepdims, out=out)

    def gradient(self, node, out_grads):
        from repro.ops.shape_ops import broadcast_to, reshape

        (dy,) = out_grads
        if dy is None:
            return [None]
        (x,) = node.inputs
        g = reshape(dy, _keepdims_shape(x.shape, node.attrs["axis"]))
        return [broadcast_to(g, x.shape)]


class ReduceMeanOp(_ReduceBase):
    name = "reduce_mean"
    supports_out = True

    def compute(self, node, inputs):
        out = np.mean(inputs[0], axis=self._np_axis(node),
                      keepdims=node.attrs["keepdims"])
        return [np.asarray(out, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        # input and output share the dtype (``infer_specs``)
        if node.out_specs[0].dtype.kind != "f":
            return super().kernel(node)
        axis, keepdims = self._np_axis(node), node.attrs["keepdims"]
        return lambda x, out: np.mean(x, axis=axis, keepdims=keepdims, out=out)

    def gradient(self, node, out_grads):
        from repro.ops.elementwise import mul_scalar
        from repro.ops.shape_ops import broadcast_to, reshape

        (dy,) = out_grads
        if dy is None:
            return [None]
        (x,) = node.inputs
        axis = node.attrs["axis"]
        count = (num_elements(x.shape) if axis is None
                 else x.shape[normalize_axis(axis, len(x.shape))])
        g = reshape(dy, _keepdims_shape(x.shape, axis))
        return [mul_scalar(broadcast_to(g, x.shape), 1.0 / count)]


class ReduceMaxOp(_ReduceBase):
    name = "reduce_max"
    supports_out = True

    def compute(self, node, inputs):
        out = np.max(inputs[0], axis=self._np_axis(node),
                     keepdims=node.attrs["keepdims"])
        return [np.asarray(out, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        axis, keepdims = self._np_axis(node), node.attrs["keepdims"]
        return lambda x, out: np.max(x, axis=axis, keepdims=keepdims, out=out)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [
            Node(
                _REDUCE_MAX_GRAD,
                [node.inputs[0], node.out(0), dy],
                {"axis": node.attrs["axis"], "keepdims": node.attrs["keepdims"]},
            ).out()
        ]


class ReduceMaxGradOp(Op):
    """Routes dy to the (first) argmax positions; ties split evenly."""

    name = "reduce_max_grad"
    recompute_cheap = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        x = node.inputs[0]
        return [TensorSpec(x.shape, x.dtype)]

    def compute(self, node, inputs):
        x, y, dy = inputs
        axis = node.attrs["axis"]
        if not node.attrs["keepdims"]:
            if axis is None:
                y = np.reshape(y, (1,) * x.ndim)
                dy = np.reshape(dy, (1,) * x.ndim)
            else:
                y = np.expand_dims(y, axis)
                dy = np.expand_dims(dy, axis)
        mask = (x == y).astype(x.dtype)
        denom = np.sum(mask, axis=axis, keepdims=True)
        return [np.asarray(dy * mask / denom, dtype=x.dtype)]


def _keepdims_shape(in_shape: tuple[int, ...], axis: int | None
                    ) -> tuple[int, ...]:
    """Shape of a keepdims reduction output for broadcasting gradients."""
    if axis is None:
        return tuple(1 for _ in in_shape)
    ax = normalize_axis(axis, len(in_shape))
    return tuple(1 if i == ax else d for i, d in enumerate(in_shape))


_REDUCE_SUM = register(ReduceSumOp())
_REDUCE_MEAN = register(ReduceMeanOp())
_REDUCE_MAX = register(ReduceMaxOp())
_REDUCE_MAX_GRAD = register(ReduceMaxGradOp())


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return Node(_REDUCE_SUM, [x], {"axis": axis, "keepdims": keepdims}).out()


def reduce_mean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return Node(_REDUCE_MEAN, [x], {"axis": axis, "keepdims": keepdims}).out()


def reduce_max(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return Node(_REDUCE_MAX, [x], {"axis": axis, "keepdims": keepdims}).out()
