"""Layout and shape manipulation: reshape, transpose, slice, concat, split.

These are the "plumbing" operators the unfused Default LSTM backend is made
of — each costs a full read+write of the tensor plus a kernel launch, which
is exactly why the Default backend drowns in cudaLaunch overhead (paper
Figure 7a) and why fusing them away (CuDNN / Echo backends) wins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, ShapeError, Tensor, TensorSpec, register
from repro.graph.shapes import broadcast_shapes, normalize_axis, num_elements


def _axis_index(node: Node, ndim: int) -> tuple[slice, ...]:
    """``[begin:end]`` along ``node.attrs["axis"]`` of a rank-``ndim`` array."""
    index = [slice(None)] * ndim
    index[normalize_axis(node.attrs["axis"], ndim)] = slice(
        node.attrs["begin"], node.attrs["end"]
    )
    return tuple(index)


class ReshapeOp(Op):
    name = "reshape"
    recompute_cheap = True
    #: returns a view of the input (free on contiguous data)
    may_alias = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        shape = tuple(node.attrs["shape"])
        if num_elements(shape) != num_elements(x.shape):
            raise ShapeError(f"cannot reshape {x.shape} to {shape}")
        return [TensorSpec(shape, x.dtype)]

    def compute(self, node, inputs):
        return [np.reshape(inputs[0], node.attrs["shape"])]

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [reshape(dy, node.inputs[0].shape)]

    def flops(self, node: Node) -> int:
        return 0

    def bytes_accessed(self, node: Node) -> int:
        # Reshape on contiguous data is free (a view); model it as such.
        return 0

    def launch_count(self, node: Node) -> int:
        return 0


class TransposeOp(Op):
    name = "transpose"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        perm = tuple(node.attrs["perm"])
        if sorted(perm) != list(range(len(x.shape))):
            raise ShapeError(f"bad permutation {perm} for rank {len(x.shape)}")
        return [TensorSpec(tuple(x.shape[p] for p in perm), x.dtype)]

    def compute(self, node, inputs):
        return [np.ascontiguousarray(np.transpose(inputs[0], node.attrs["perm"]))]

    def kernel(self, node):
        perm = node.attrs["perm"]
        return lambda x, out: np.copyto(out, np.transpose(x, perm))

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        perm = node.attrs["perm"]
        inverse = [0] * len(perm)
        for i, p in enumerate(perm):
            inverse[p] = i
        return [transpose(dy, inverse)]


class SliceAxisOp(Op):
    """x[..., begin:end, ...] along ``axis`` (MXNet slice_axis)."""

    name = "slice_axis"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        axis = normalize_axis(node.attrs["axis"], len(x.shape))
        begin, end = node.attrs["begin"], node.attrs["end"]
        if not 0 <= begin < end <= x.shape[axis]:
            raise ShapeError(
                f"slice [{begin}:{end}] out of range for axis {axis} of {x.shape}"
            )
        shape = tuple(
            end - begin if i == axis else d for i, d in enumerate(x.shape)
        )
        return [TensorSpec(shape, x.dtype)]

    def compute(self, node, inputs):
        return [np.ascontiguousarray(inputs[0][_axis_index(node, inputs[0].ndim)])]

    def kernel(self, node):
        index = _axis_index(node, len(node.out_specs[0].shape))
        return lambda x, out: np.copyto(out, x[index])

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [
            Node(
                _SLICE_AXIS_GRAD,
                [dy],
                {
                    "axis": node.attrs["axis"],
                    "begin": node.attrs["begin"],
                    "end": node.attrs["end"],
                    "like_shape": node.inputs[0].shape,
                },
            ).out()
        ]


class SliceAxisGradOp(Op):
    """Scatter dy back into a zero tensor of the original shape."""

    name = "slice_axis_grad"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (dy,) = node.inputs
        return [TensorSpec(tuple(node.attrs["like_shape"]), dy.dtype)]

    def compute(self, node, inputs):
        (dy,) = inputs
        out = np.zeros(node.attrs["like_shape"], dtype=dy.dtype)
        out[_axis_index(node, out.ndim)] = dy
        return [out]

    def kernel(self, node):
        index = _axis_index(node, len(node.attrs["like_shape"]))

        def k(dy, out):
            out.fill(0)
            out[index] = dy

        return k


class ConcatOp(Op):
    name = "concat"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        axis = normalize_axis(node.attrs["axis"], len(node.inputs[0].shape))
        first = node.inputs[0]
        total = 0
        for t in node.inputs:
            if len(t.shape) != len(first.shape):
                raise ShapeError("concat rank mismatch")
            for i, (da, db) in enumerate(zip(t.shape, first.shape)):
                if i != axis and da != db:
                    raise ShapeError(
                        f"concat dim {i} mismatch: {t.shape} vs {first.shape}"
                    )
            total += t.shape[axis]
        shape = tuple(
            total if i == axis else d for i, d in enumerate(first.shape)
        )
        return [TensorSpec(shape, first.dtype)]

    def compute(self, node, inputs):
        axis = normalize_axis(node.attrs["axis"], inputs[0].ndim)
        return [np.concatenate(inputs, axis=axis)]

    def kernel(self, node):
        axis = normalize_axis(node.attrs["axis"], len(node.out_specs[0].shape))
        n = len(node.inputs)
        return lambda *arrays: np.concatenate(
            arrays[:n], axis=axis, out=arrays[n]
        )

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None] * len(node.inputs)
        axis = normalize_axis(node.attrs["axis"], len(node.inputs[0].shape))
        grads = []
        offset = 0
        for t in node.inputs:
            size = t.shape[axis]
            grads.append(slice_axis(dy, axis, offset, offset + size))
            offset += size
        return grads


class SplitOp(Op):
    """Even split along an axis into ``sections`` outputs."""

    name = "split"
    recompute_cheap = True
    supports_out = True

    def num_outputs(self, node: Node) -> int:
        return node.attrs["sections"]

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        axis = normalize_axis(node.attrs["axis"], len(x.shape))
        sections = node.attrs["sections"]
        if x.shape[axis] % sections != 0:
            raise ShapeError(
                f"axis {axis} of {x.shape} not divisible into {sections}"
            )
        piece = tuple(
            d // sections if i == axis else d for i, d in enumerate(x.shape)
        )
        return [TensorSpec(piece, x.dtype)] * sections

    def compute(self, node, inputs):
        axis = normalize_axis(node.attrs["axis"], inputs[0].ndim)
        return [
            np.ascontiguousarray(part)
            for part in np.split(inputs[0], node.attrs["sections"], axis=axis)
        ]

    def kernel(self, node):
        axis = normalize_axis(node.attrs["axis"], len(node.out_specs[0].shape))
        sections = node.attrs["sections"]

        def k(x, *outs):
            for out, part in zip(outs, np.split(x, sections, axis=axis)):
                np.copyto(out, part)

        return k

    def gradient(self, node, out_grads):
        from repro.ops.source import zeros

        pieces = []
        for spec, g in zip(node.out_specs, out_grads):
            pieces.append(g if g is not None else zeros(spec.shape, spec.dtype))
        return [concat(pieces, axis=node.attrs["axis"])]

    def launch_count(self, node: Node) -> int:
        # Splitting the leading axis of a contiguous tensor is pointer
        # arithmetic (views); other axes need one copy kernel per section.
        if node.attrs["axis"] == 0:
            return 0
        return node.attrs["sections"]

    def bytes_accessed(self, node: Node) -> int:
        if node.attrs["axis"] == 0:
            return 0
        return 2 * node.inputs[0].nbytes


class BroadcastToOp(Op):
    name = "broadcast_to"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        target = tuple(node.attrs["shape"])
        if broadcast_shapes(x.shape, target) != target:
            raise ShapeError(f"cannot broadcast {x.shape} to {target}")
        return [TensorSpec(target, x.dtype)]

    def compute(self, node, inputs):
        return [
            np.ascontiguousarray(
                np.broadcast_to(inputs[0], node.attrs["shape"])
            )
        ]

    def kernel(self, node):
        shape = node.attrs["shape"]
        return lambda x, out: np.copyto(out, np.broadcast_to(x, shape))

    def gradient(self, node, out_grads):
        from repro.ops.elementwise import _unbroadcast

        (dy,) = out_grads
        if dy is None:
            return [None]
        return [_unbroadcast(dy, node.inputs[0].shape)]


class ExpandDimsOp(Op):
    name = "expand_dims"
    recompute_cheap = True
    #: returns a reshape view of the input
    may_alias = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        axis = node.attrs["axis"]
        rank = len(x.shape) + 1
        if not -rank <= axis < rank:
            raise ShapeError(f"expand_dims axis {axis} out of range")
        axis %= rank
        shape = x.shape[:axis] + (1,) + x.shape[axis:]
        return [TensorSpec(shape, x.dtype)]

    def compute(self, node, inputs):
        return [np.reshape(inputs[0], node.out_specs[0].shape)]

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [reshape(dy, node.inputs[0].shape)]

    def flops(self, node: Node) -> int:
        return 0

    def bytes_accessed(self, node: Node) -> int:
        return 0

    def launch_count(self, node: Node) -> int:
        return 0


_RESHAPE = register(ReshapeOp())
_TRANSPOSE = register(TransposeOp())
_SLICE_AXIS = register(SliceAxisOp())
_SLICE_AXIS_GRAD = register(SliceAxisGradOp())
_CONCAT = register(ConcatOp())
_SPLIT = register(SplitOp())
_BROADCAST_TO = register(BroadcastToOp())
_EXPAND_DIMS = register(ExpandDimsOp())


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    return Node(_RESHAPE, [x], {"shape": tuple(shape)}).out()


def transpose(x: Tensor, perm: Sequence[int]) -> Tensor:
    return Node(_TRANSPOSE, [x], {"perm": tuple(perm)}).out()


def slice_axis(x: Tensor, axis: int, begin: int, end: int) -> Tensor:
    return Node(_SLICE_AXIS, [x], {"axis": axis, "begin": begin, "end": end}).out()


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    return Node(_CONCAT, list(tensors), {"axis": axis}).out()


def split(x: Tensor, sections: int, axis: int = 0) -> tuple[Tensor, ...]:
    node = Node(_SPLIT, [x], {"sections": sections, "axis": axis})
    return node.outputs


def broadcast_to(x: Tensor, shape: Sequence[int]) -> Tensor:
    return Node(_BROADCAST_TO, [x], {"shape": tuple(shape)}).out()


def expand_dims(x: Tensor, axis: int) -> Tensor:
    return Node(_EXPAND_DIMS, [x], {"axis": axis}).out()
