"""Fused LSTM pointwise kernels (the paper's "f" block, Figure 1).

The unfused Default backend expresses the LSTM cell nonlinearity as ~10
separate slice/sigmoid/tanh/mul/add kernels, so GPU time is dominated by
cudaLaunch overhead (paper Figure 7a). cuDNN — and the optimized backends
here — fuse the whole block into one kernel per direction (Appleyard et
al.). Both forward and backward fused kernels are elementwise and therefore
``recompute_cheap``.

Convention: ``gates`` is the pre-activation [B x 4H] laid out as
[input | forget | cell(g~) | output] along the hidden axis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, ShapeError, Tensor, TensorSpec, register
from repro.ops.activation import _sigmoid


def _split_gates(gates: np.ndarray) -> tuple[np.ndarray, ...]:
    h = gates.shape[-1] // 4
    # One sigmoid pass over all four gate blocks, sliced for i, f and o:
    # sigmoid is elementwise, so each slice is bit-identical to a
    # per-gate call (the g~ columns of the pass go unused).
    act = _sigmoid(gates)
    return (
        act[:, 0 * h:1 * h],
        act[:, 1 * h:2 * h],
        np.tanh(gates[:, 2 * h:3 * h]),
        act[:, 3 * h:4 * h],
    )


def _lstm_gates_into(gates, c_prev, h_out, c_out):
    i, f, g, o = _split_gates(gates)
    # Same expression tree as ``compute``: c = (f*c_prev) + (i*g),
    # h = o * tanh(c); the gate temporaries i/g are dead afterwards and
    # double as scratch.
    np.multiply(f, c_prev, out=c_out)
    np.multiply(i, g, out=i)
    np.add(c_out, i, out=c_out)
    np.tanh(c_out, out=g)
    np.multiply(o, g, out=h_out)


class LstmGatesOp(Op):
    """(h, c) = LSTMPointwise(gates [B x 4H], c_prev [B x H])."""

    name = "lstm_gates"
    recompute_cheap = True
    supports_out = True

    def num_outputs(self, node: Node) -> int:
        return 2

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        gates, c_prev = node.inputs
        if len(gates.shape) != 2 or gates.shape[1] % 4 != 0:
            raise ShapeError(f"gates must be [B x 4H], got {gates.shape}")
        hidden = gates.shape[1] // 4
        if c_prev.shape != (gates.shape[0], hidden):
            raise ShapeError(
                f"c_prev shape {c_prev.shape} != ({gates.shape[0]}, {hidden})"
            )
        spec = TensorSpec((gates.shape[0], hidden), gates.dtype)
        return [spec, spec]

    def compute(self, node, inputs):
        gates, c_prev = inputs
        i, f, g, o = _split_gates(gates)
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        dtype = gates.dtype
        return [np.asarray(h, dtype=dtype), np.asarray(c, dtype=dtype)]

    def kernel(self, node):
        return _lstm_gates_into

    def gradient(self, node, out_grads):
        from repro.ops.source import zeros

        dh, dc = out_grads
        if dh is None and dc is None:
            return [None, None]
        spec = node.out_specs[0]
        if dh is None:
            dh = zeros(spec.shape, spec.dtype)
        if dc is None:
            dc = zeros(spec.shape, spec.dtype)
        gates, c_prev = node.inputs
        grad_node = Node(
            _LSTM_GATES_GRAD, [gates, c_prev, node.out(1), dh, dc]
        )
        return [grad_node.out(0), grad_node.out(1)]

    def flops(self, node: Node) -> int:
        # ~12 elementwise flops per gate element (sigmoid/tanh dominated).
        return 12 * node.inputs[0].spec.num_elements

    def launch_count(self, node: Node) -> int:
        return 1


class LstmGatesGradOp(Op):
    """(dgates, dc_prev) from (gates, c_prev, c, dh, dc).

    Recomputes the gate activations from the stashed pre-activations, as
    cuDNN's fused backward does — so only ``gates`` and ``c`` are feature
    maps, not the four separate activation tensors.
    """

    name = "lstm_gates_grad"
    recompute_cheap = True
    supports_out = True

    def num_outputs(self, node: Node) -> int:
        return 2

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        gates, c_prev = node.inputs[0], node.inputs[1]
        return [
            TensorSpec(gates.shape, gates.dtype),
            TensorSpec(c_prev.shape, c_prev.dtype),
        ]

    def compute(self, node, inputs):
        gates, c_prev, c, dh, dc = inputs
        i, f, g, o = _split_gates(gates)
        tanh_c = np.tanh(c)
        dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
        do = dh * tanh_c
        di = dc_total * g
        df = dc_total * c_prev
        dg = dc_total * i
        dc_prev = dc_total * f
        dgates = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dtype = gates.dtype
        return [
            np.asarray(dgates, dtype=dtype),
            np.asarray(dc_prev, dtype=dtype),
        ]

    def kernel(self, node):
        h = node.out_specs[1].shape[-1]
        # ``[:, j*h:(j+1)*h]`` for the four gate blocks of ``dgates``
        bi, bf, bg, bo = [
            (slice(None), slice(j * h, (j + 1) * h)) for j in range(4)
        ]

        def k(gates, c_prev, c, dh, dc, dgates_out, dc_prev_out):
            i, f, g, o = _split_gates(gates)
            tanh_c = np.tanh(c)
            dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
            do = dh * tanh_c
            di = dc_total * g
            df = dc_total * c_prev
            dg = dc_total * i
            np.multiply(dc_total, f, out=dc_prev_out)
            dgates_out[bi] = di * i * (1.0 - i)
            dgates_out[bf] = df * f * (1.0 - f)
            dgates_out[bg] = dg * (1.0 - g * g)
            dgates_out[bo] = do * o * (1.0 - o)

        return k

    def flops(self, node: Node) -> int:
        return 20 * node.inputs[0].spec.num_elements

    def launch_count(self, node: Node) -> int:
        return 1


_LSTM_GATES = register(LstmGatesOp())
_LSTM_GATES_GRAD = register(LstmGatesGradOp())


def lstm_gates(gates: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """Fused LSTM nonlinearity; returns (h, c)."""
    node = Node(_LSTM_GATES, [gates, c_prev])
    return node.out(0), node.out(1)
