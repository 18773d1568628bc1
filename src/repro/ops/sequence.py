"""Sequence operators, including the paper's SequenceReverse case study.

MXNet's SequenceReverse walked the batch dimension *sequentially* on the
GPU, achieving ~1 GB/s of the device's ~550 GB/s (paper Section 5.1); the
paper's fix parallelizes across batch samples. We model both variants with
a ``parallel`` attribute: numerics are identical, but the GPU cost model
reads :meth:`memory_efficiency` to reproduce the Figure 6 pathology and the
``par_rev`` baselines.
"""

from __future__ import annotations

from typing import Sequence


from repro.graph import Node, Op, ShapeError, Tensor, TensorSpec, register

#: Fraction of peak DRAM bandwidth the sequential implementation achieves.
#: The paper measures 1 GB/s reads and 0.1 GB/s writes on a 550 GB/s Titan
#: Xp; the blended effective rate over the kernel's read+write traffic is
#: a few tenths of a GB/s.
_SEQUENTIAL_EFFICIENCY = 0.0005


class SequenceReverseOp(Op):
    """Reverse a [T x B x ...] tensor along the time (first) axis."""

    name = "sequence_reverse"
    recompute_cheap = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (x,) = node.inputs
        if len(x.shape) < 2:
            raise ShapeError(
                f"sequence_reverse expects at least [T x B], got {x.shape}"
            )
        return [TensorSpec(x.shape, x.dtype)]

    def compute(self, node, inputs):
        # An unconditional copy: ``np.ascontiguousarray`` hands back the
        # input itself at T == 1, where ``[::-1]`` is already contiguous.
        return [inputs[0][::-1].copy()]

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [sequence_reverse(dy, parallel=node.attrs["parallel"])]

    def memory_efficiency(self, node: Node) -> float:
        return 1.0 if node.attrs["parallel"] else _SEQUENTIAL_EFFICIENCY

    def launch_count(self, node: Node) -> int:
        if node.attrs["parallel"]:
            return 1
        # One kernel per batch lane in the sequential implementation.
        return node.inputs[0].shape[1]


_SEQUENCE_REVERSE = register(SequenceReverseOp())


def sequence_reverse(x: Tensor, parallel: bool = True) -> Tensor:
    """Reverse along time; ``parallel=False`` models the MXNet pathology."""
    return Node(_SEQUENCE_REVERSE, [x], {"parallel": parallel}).out()
