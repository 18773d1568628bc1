"""Layer normalization over the last axis, with learnable gain and bias.

Layer norm is one of the three components of the attention scoring function
(broadcast add + layer norm + tanh) that the paper identifies as the
O-shape region: its [B x T x H] outputs get stashed per decoder step in the
legacy backward pass, and it is cheap enough to recompute that Echo mirrors
it into the backward pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, ShapeError, Tensor, TensorSpec, register

_EPS = 1e-5


class LayerNormOp(Op):
    """y = gamma * (x - mean) / sqrt(var + eps) + beta over the last axis.

    Outputs: (y, mean, rstd). mean/rstd are tiny ([... x 1]) but needed by
    the backward kernel — faithfully modeling cuDNN/MXNet which stash them.
    """

    name = "layer_norm"
    recompute_cheap = True

    def num_outputs(self, node: Node) -> int:
        return 3

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        x, gamma, beta = node.inputs
        h = x.shape[-1]
        if gamma.shape != (h,) or beta.shape != (h,):
            raise ShapeError(
                f"layer_norm gain/bias must be ({h},), got {gamma.shape}, "
                f"{beta.shape}"
            )
        stat_shape = x.shape[:-1] + (1,)
        return [
            TensorSpec(x.shape, x.dtype),
            TensorSpec(stat_shape, x.dtype),
            TensorSpec(stat_shape, x.dtype),
        ]

    def compute(self, node, inputs):
        x, gamma, beta = inputs
        mean = np.mean(x, axis=-1, keepdims=True)
        # ``x - mean`` once, for the variance and the output: np.var(x) is
        # np.mean((x - m)**2) for this very m (numpy takes the row sum,
        # divides it by the count and subtracts it), bit for bit
        d = x - mean
        var = np.mean(d * d, axis=-1, keepdims=True)
        rstd = 1.0 / np.sqrt(var + _EPS)
        if not x.dtype == gamma.dtype == beta.dtype:
            # mixed precision: the wider chain rounds once, at the end
            y = (gamma * d * rstd + beta).astype(x.dtype, copy=False)
            return [y, mean, rstd]
        # y = gamma * d * rstd + beta, built in d with each operation's
        # operand order kept (so even a NaN's payload is the same)
        np.multiply(gamma, d, d)
        d *= rstd
        d += beta
        return [d, mean, rstd]

    def gradient(self, node, out_grads):
        dy = out_grads[0]
        if dy is None:
            return [None, None, None]
        x, gamma, _beta = node.inputs
        grad_node = Node(
            _LAYER_NORM_GRAD,
            [x, gamma, node.out(1), node.out(2), dy],
        )
        return [grad_node.out(0), grad_node.out(1), grad_node.out(2)]


class LayerNormGradOp(Op):
    """Fused backward producing (dx, dgamma, dbeta)."""

    name = "layer_norm_grad"
    recompute_cheap = True

    def num_outputs(self, node: Node) -> int:
        return 3

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        x, gamma = node.inputs[0], node.inputs[1]
        return [
            TensorSpec(x.shape, x.dtype),
            TensorSpec(gamma.shape, x.dtype),
            TensorSpec(gamma.shape, x.dtype),
        ]

    def compute(self, node, inputs):
        x, gamma, mean, rstd, dy = inputs
        reduce_axes = tuple(range(x.ndim - 1))
        dbeta = np.sum(dy, axis=reduce_axes)
        if not x.dtype == gamma.dtype == mean.dtype == rstd.dtype == dy.dtype:
            # mixed precision: the standard layer-norm backward identities
            # in the wider type, rounded once at the end
            xhat = (x - mean) * rstd
            dxhat = dy * gamma
            dx = rstd * (
                dxhat
                - np.mean(dxhat, axis=-1, keepdims=True)
                - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
            )
            dgamma = np.sum(dy * xhat, axis=reduce_axes)
            return [
                a.astype(x.dtype, copy=False) for a in (dx, dgamma, dbeta)
            ]
        # The same identities as an in-place chain, operand order kept:
        # dx = rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
        xhat = x - mean
        xhat *= rstd
        dxhat = dy * gamma
        t = dxhat * xhat
        m2 = np.mean(t, axis=-1, keepdims=True)
        np.multiply(dy, xhat, t)
        dgamma = np.sum(t, axis=reduce_axes)
        dxhat -= np.mean(dxhat, axis=-1, keepdims=True)
        xhat *= m2
        dxhat -= xhat
        np.multiply(rstd, dxhat, dxhat)
        return [dxhat, dgamma, dbeta]


_LAYER_NORM = register(LayerNormOp())
_LAYER_NORM_GRAD = register(LayerNormGradOp())


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalized output only; stats outputs are wired to backward."""
    return Node(_LAYER_NORM, [x, gamma, beta]).out(0)
