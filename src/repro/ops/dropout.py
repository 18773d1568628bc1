"""Inverted dropout with a counter-based deterministic mask.

The mask is regenerated from ``(seed, step)`` rather than stashed state, so
a mirrored (recomputed) dropout node produces a bit-identical mask — the
property Echo needs to guarantee recomputation never changes training
numerics. The executor bumps ``step`` once per iteration via
:func:`set_global_step`.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.graph import Node, Op, Tensor, TensorSpec, register

_GLOBAL_STEP = 0


def stable_seed(*parts) -> int:
    """Process-stable dropout seed from structural identifiers.

    Python's ``hash()`` is salted per process (``PYTHONHASHSEED``), so
    seeding a mask from ``hash((prefix, layer))`` makes masks — and with
    them training curves and cross-process parity tests — irreproducible.
    This digests the parts' repr with ``zlib.crc32``, which is a fixed
    function of its input everywhere.
    """
    return zlib.crc32(repr(parts).encode("utf-8")) & 0xFFFF


def set_global_step(step: int) -> None:
    """Advance the dropout RNG stream; called once per training iteration."""
    global _GLOBAL_STEP
    _GLOBAL_STEP = int(step)


def _mask(node: Node, x: np.ndarray) -> np.ndarray:
    """Scaled keep mask in ``x``'s dtype (the mask output's spec)."""
    rng = np.random.default_rng((node.attrs["seed"], _GLOBAL_STEP))
    keep = 1.0 - node.attrs["p"]
    return (rng.random(x.shape) < keep).astype(x.dtype) / x.dtype.type(keep)


class DropoutOp(Op):
    """Outputs (y, mask); mask is stashed for backward unless recomputed."""

    name = "dropout"
    recompute_cheap = True

    def num_outputs(self, node: Node) -> int:
        return 2

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        return [TensorSpec(x.shape, x.dtype), TensorSpec(x.shape, x.dtype)]

    def compute(self, node, inputs):
        (x,) = inputs
        if node.attrs["p"] <= 0.0:
            mask = np.ones_like(x)
        else:
            mask = _mask(node, x)
        return [np.asarray(x * mask, dtype=x.dtype), mask]

    def gradient(self, node, out_grads):
        from repro.ops.elementwise import mul

        dy = out_grads[0]
        if dy is None:
            return [None]
        return [mul(dy, node.out(1))]


_DROPOUT = register(DropoutOp())


def dropout(x: Tensor, p: float, seed: int = 0) -> Tensor:
    """Apply inverted dropout with drop probability ``p``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return Node(_DROPOUT, [x], {"p": float(p), "seed": int(seed)}).out(0)
