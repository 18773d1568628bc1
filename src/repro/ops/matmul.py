"""Dense linear algebra: GEMM, batched GEMM, and the FullyConnected layer op.

These are the only compute-bound operators in the library; everything else
is bandwidth-bound. The Echo pass therefore refuses to mirror them into the
backward pass by default (``recompute_cheap = False``) — recomputing a GEMM
is what makes naive checkpointing (Chen et al.) lose ~logN/30% performance,
and avoiding it is what lets Echo's recomputation cost stay under 1% of
iteration time.

Every GEMM node carries a ``layout`` attribute (see
:class:`repro.layout.Layout`) consumed by the GPU cost model; the numerics
are layout-independent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, ShapeError, Tensor, TensorSpec, register
from repro.layout.layouts import Layout


def _gemm_operand_shape(shape: tuple[int, ...], transpose: bool
                        ) -> tuple[int, int]:
    if len(shape) != 2:
        raise ShapeError(f"matmul operand must be rank-2, got {shape}")
    return (shape[1], shape[0]) if transpose else shape


class MatMulOp(Op):
    """C = op(A) . op(B) with optional operand transposes."""

    name = "matmul"
    supports_out = True
    fusion_head = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        a, b = node.inputs
        m, ka = _gemm_operand_shape(a.shape, node.attrs["ta"])
        kb, n = _gemm_operand_shape(b.shape, node.attrs["tb"])
        if ka != kb:
            raise ShapeError(
                f"matmul inner dims differ: {a.shape} (ta={node.attrs['ta']}) "
                f"vs {b.shape} (tb={node.attrs['tb']})"
            )
        return [TensorSpec((m, n), a.dtype)]

    def compute(self, node, inputs):
        a, b = inputs
        if node.attrs["ta"]:
            a = a.T
        if node.attrs["tb"]:
            b = b.T
        return [np.asarray(a @ b, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        ta, tb = node.attrs["ta"], node.attrs["tb"]
        if ta and tb:
            return lambda a, b, out: np.matmul(a.T, b.T, out=out)
        if ta:
            return lambda a, b, out: np.matmul(a.T, b, out=out)
        if tb:
            return lambda a, b, out: np.matmul(a, b.T, out=out)
        return np.matmul

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None, None]
        a, b = node.inputs
        ta, tb = node.attrs["ta"], node.attrs["tb"]
        # Standard GEMM gradient identities for each transpose combination.
        # Gradients are issued in the default row-major form; layout-aware
        # callers (FullyConnectedOp) construct their backward GEMMs with
        # explicit layouts instead.
        if not ta and not tb:
            da = matmul(dy, b, tb=True)
            db = matmul(a, dy, ta=True)
        elif not ta and tb:
            da = matmul(dy, b)
            db = matmul(dy, a, ta=True)
        elif ta and not tb:
            da = matmul(b, dy, tb=True)
            db = matmul(a, dy)
        else:
            da = matmul(b, dy, ta=True, tb=True)
            db = matmul(dy, a, ta=True, tb=True)
        return [da, db]

    def gemm_dims(self, node: Node) -> tuple[int, int, int]:
        """(M, N, K) presented to the device, after layout selection."""
        a, b = node.inputs
        m, k = _gemm_operand_shape(a.shape, node.attrs["ta"])
        _, n = _gemm_operand_shape(b.shape, node.attrs["tb"])
        if node.attrs["layout"] is Layout.COL_MAJOR:
            m, n = n, m
        return m, n, k

    def flops(self, node: Node) -> int:
        m, n, k = self.gemm_dims(node)
        return 2 * m * n * k

    def bytes_accessed(self, node: Node) -> int:
        m, n, k = self.gemm_dims(node)
        itemsize = node.out_specs[0].dtype.itemsize
        return (m * k + k * n + m * n) * itemsize


class BatchDotOp(Op):
    """Batched GEMM: C[i] = op(A[i]) . op(B[i]) over the leading axis.

    Used by the attention layers (scores x encoder states -> context).
    """

    name = "batch_dot"
    supports_out = True
    fusion_head = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        a, b = node.inputs
        if len(a.shape) != 3 or len(b.shape) != 3:
            raise ShapeError(
                f"batch_dot operands must be rank-3, got {a.shape}, {b.shape}"
            )
        if a.shape[0] != b.shape[0]:
            raise ShapeError(
                f"batch_dot batch dims differ: {a.shape[0]} vs {b.shape[0]}"
            )
        m, ka = _gemm_operand_shape(a.shape[1:], node.attrs["ta"])
        kb, n = _gemm_operand_shape(b.shape[1:], node.attrs["tb"])
        if ka != kb:
            raise ShapeError(
                f"batch_dot inner dims differ: {a.shape} vs {b.shape}"
            )
        return [TensorSpec((a.shape[0], m, n), a.dtype)]

    def compute(self, node, inputs):
        a, b = inputs
        if node.attrs["ta"]:
            a = np.swapaxes(a, 1, 2)
        if node.attrs["tb"]:
            b = np.swapaxes(b, 1, 2)
        return [np.asarray(a @ b, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        ta, tb = node.attrs["ta"], node.attrs["tb"]
        swap = np.swapaxes
        if ta and tb:
            return lambda a, b, out: np.matmul(
                swap(a, 1, 2), swap(b, 1, 2), out=out
            )
        if ta:
            return lambda a, b, out: np.matmul(swap(a, 1, 2), b, out=out)
        if tb:
            return lambda a, b, out: np.matmul(a, swap(b, 1, 2), out=out)
        return np.matmul

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None, None]
        a, b = node.inputs
        ta, tb = node.attrs["ta"], node.attrs["tb"]
        if not ta and not tb:
            da = batch_dot(dy, b, tb=True)
            db = batch_dot(a, dy, ta=True)
        elif not ta and tb:
            da = batch_dot(dy, b)
            db = batch_dot(dy, a, ta=True)
        elif ta and not tb:
            da = batch_dot(b, dy, tb=True)
            db = batch_dot(a, dy)
        else:
            da = batch_dot(b, dy, ta=True, tb=True)
            db = batch_dot(dy, a, ta=True, tb=True)
        return [da, db]

    def gemm_dims(self, node: Node) -> tuple[int, int, int]:
        a, b = node.inputs
        m, k = _gemm_operand_shape(a.shape[1:], node.attrs["ta"])
        _, n = _gemm_operand_shape(b.shape[1:], node.attrs["tb"])
        return m, n, k

    def flops(self, node: Node) -> int:
        m, n, k = self.gemm_dims(node)
        return 2 * node.inputs[0].shape[0] * m * n * k


class FullyConnectedOp(Op):
    """Y = X . W^T + b with a layout attribute (the paper's Equation 1).

    ``X`` is [M x K], ``W`` is [N x K] (MXNet's FullyConnected convention,
    matching the LSTM gate weight [4H x H]), optional bias [N].
    """

    name = "fully_connected"
    supports_out = True
    fusion_head = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        x, w = node.inputs[0], node.inputs[1]
        if len(x.shape) != 2 or len(w.shape) != 2:
            raise ShapeError(
                f"fully_connected needs rank-2 x and w, got {x.shape}, {w.shape}"
            )
        if x.shape[1] != w.shape[1]:
            raise ShapeError(
                f"fully_connected K mismatch: x {x.shape} vs w {w.shape}"
            )
        if len(node.inputs) == 3:
            b = node.inputs[2]
            if b.shape != (w.shape[0],):
                raise ShapeError(
                    f"fully_connected bias shape {b.shape} != ({w.shape[0]},)"
                )
        return [TensorSpec((x.shape[0], w.shape[0]), x.dtype)]

    def compute(self, node, inputs):
        x, w = inputs[0], inputs[1]
        if node.attrs["layout"] is Layout.COL_MAJOR:
            y = (w @ x.T).T
        else:
            y = x @ w.T
        if len(inputs) == 3:
            y = y + inputs[2]
        # C-ordered like the buffer ``kernel`` fills: the COL_MAJOR
        # product is a transposed view, and a reduction downstream rounds
        # in memory order.
        return [np.ascontiguousarray(y, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        bias = len(node.inputs) == 3
        if node.attrs["layout"] is Layout.COL_MAJOR:
            if bias:
                return lambda x, w, b, out: np.add((w @ x.T).T, b, out=out)
            return lambda x, w, out: np.copyto(out, (w @ x.T).T)
        if not bias:
            return lambda x, w, out: np.matmul(x, w.T, out=out)

        def k(x, w, b, out):
            np.matmul(x, w.T, out=out)
            np.add(out, b, out=out)

        return k

    def gradient(self, node, out_grads):
        from repro.ops.reduce import reduce_sum

        (dy,) = out_grads
        if dy is None:
            return [None] * len(node.inputs)
        x, w = node.inputs[0], node.inputs[1]
        layout = node.attrs["layout"]
        # dX inherits the layer's layout: in the transposed form it is
        # issued as dX^T = W^T . dY^T, whose tall-M shape is what speeds up
        # the backward pass too. dW is the same [N x K] = [N x M].[M x K]
        # GEMM in either layout, so it keeps the row-major form.
        dx = matmul(dy, w, layout=layout)            # [M,N].[N,K] -> [M,K]
        dw = matmul(dy, x, ta=True)                  # [N,M].[M,K] -> [N,K]
        grads = [dx, dw]
        if len(node.inputs) == 3:
            grads.append(reduce_sum(dy, axis=0))
        return grads

    def gemm_dims(self, node: Node) -> tuple[int, int, int]:
        x, w = node.inputs[0], node.inputs[1]
        layout: Layout = node.attrs["layout"]
        return layout.gemm_dims(x.shape[0], w.shape[0], x.shape[1])

    def flops(self, node: Node) -> int:
        m, n, k = self.gemm_dims(node)
        fl = 2 * m * n * k
        if len(node.inputs) == 3:
            fl += m * n
        return fl


_MATMUL = register(MatMulOp())
_BATCH_DOT = register(BatchDotOp())
_FULLY_CONNECTED = register(FullyConnectedOp())


def gemm_batch_key(node: Node):
    """Isomorphism key for the compiled executor's batched-GEMM pre-pass.

    Two ``matmul`` nodes with equal keys compute the same-shape GEMM with
    the same transpose flags and dtype, so a group of them can execute as
    one stacked ``np.matmul`` over a leading group axis — numerically the
    same per-slice BLAS call, issued once. Returns ``None`` for nodes the
    pre-pass must not touch: non-GEMMs, mixed-dtype GEMMs (whose
    ``kernel`` cast path the stacked kernel would not reproduce),
    and empty outputs. The ``layout`` attr is deliberately excluded — it
    steers the *cost model*, not the numerics, and the simulated cost
    stays node-based regardless of batching.
    """
    if node.op.name != "matmul":
        return None
    a, b = node.inputs
    out = node.out_specs[0]
    if a.dtype != out.dtype or b.dtype != out.dtype or out.nbytes == 0:
        return None
    return (a.shape, b.shape, node.attrs["ta"], node.attrs["tb"], out.dtype.str)


def stacked_operand(stack: np.ndarray, transpose: bool) -> np.ndarray:
    """Per-slice transpose view of a [G x M x K] operand stack.

    ``np.matmul`` on the swapped view issues the same per-slice BLAS call
    (same dims, leading strides, transpose flags) as the 2-D
    ``op(A[i]) @ op(B[i])`` it replaces, so batching is bitwise-exact.
    """
    return np.swapaxes(stack, 1, 2) if transpose else stack


def matmul(
    a: Tensor,
    b: Tensor,
    ta: bool = False,
    tb: bool = False,
    layout: Layout = Layout.ROW_MAJOR,
) -> Tensor:
    return Node(_MATMUL, [a, b], {"ta": ta, "tb": tb, "layout": layout}).out()


def batch_dot(a: Tensor, b: Tensor, ta: bool = False, tb: bool = False) -> Tensor:
    return Node(_BATCH_DOT, [a, b], {"ta": ta, "tb": tb}).out()


def fully_connected(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    layout: Layout = Layout.ROW_MAJOR,
) -> Tensor:
    inputs = [x, w] if b is None else [x, w, b]
    return Node(_FULLY_CONNECTED, inputs, {"layout": layout}).out()
