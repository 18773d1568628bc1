"""Operator base class and registry.

Every operator in the library subclasses :class:`Op` and registers a single
stateless instance. Besides the usual framework triple (shape inference,
numpy kernel, symbolic gradient), each op also exposes the *cost hooks* the
Echo pass and the GPU model need:

* ``flops`` / ``bytes_accessed`` feed the roofline kernel-time estimate;
* ``workspace_bytes`` is the transient scratch a kernel needs (the paper's
  "workspace" memory category);
* ``launch_count`` models how many CUDA kernels the framework emits for the
  op (the unfused "Default" LSTM backend emits many — the paper's Figure 7);
* ``recompute_cheap`` marks ops Echo may mirror into the backward pass
  (elementwise / activation / layout ops — everything but heavy GEMMs).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.graph.node import Node, Tensor, TensorSpec


class OpError(RuntimeError):
    """Raised for invalid operator construction or execution."""


class Op:
    """Base class of all graph operators. Subclasses are singletons."""

    #: unique operator name used in the registry and in profiles
    name: str = "op"
    #: whether the Echo pass may mirror this op into the backward pass
    recompute_cheap: bool = False
    #: whether :meth:`kernel` writes its outputs without allocating them
    #: (the compiled executor only routes arena buffers to ops that opt in)
    supports_out: bool = False
    #: whether the compiled plan's elementwise fusion pass may absorb this
    #: op into a single-buffer chain (single-output elementwise ops only)
    fusion_eligible: bool = False
    #: whether a fusion chain may *start* at this op although it is not
    #: elementwise: a single-output :meth:`kernel` that never reads its
    #: output buffer and declares no ``inplace_operands`` (the GEMM
    #: family), so the chain's accumulator can be its destination while
    #: its inputs stay untouched
    fusion_head: bool = False
    #: input positions whose buffer may *be* the output buffer when the
    #: :meth:`kernel` runs: it is done reading that input wherever it has
    #: started writing (elementwise ops — element i of the output depends
    #: only on element i of these inputs — and kernels that consume the
    #: operand in one elementwise first pass); fusion chains only thread
    #: the accumulator through these positions
    inplace_operands: tuple[int, ...] = ()
    #: whether :meth:`compute` may return a view of an input (reshape,
    #: expand_dims) — such outputs share their input's storage and the
    #: compiled plan keeps the underlying buffer alive for both
    may_alias: bool = False

    # -- graph-construction interface --------------------------------------

    def num_outputs(self, node: Node) -> int:
        return 1

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        """Compute output specs from ``node.inputs`` and ``node.attrs``."""
        raise NotImplementedError

    def gradient(
        self, node: Node, out_grads: Sequence[Tensor | None]
    ) -> Sequence[Tensor | None]:
        """Build gradient expressions for each input of ``node``.

        ``out_grads[i]`` is the gradient flowing into output ``i`` (``None``
        when that output does not influence the loss). Return one entry per
        input; ``None`` marks non-differentiable inputs.
        """
        raise OpError(f"op '{self.name}' is not differentiable")

    # -- execution interface ------------------------------------------------

    def compute(
        self, node: Node, inputs: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Run the numpy kernel; must return one array per output."""
        raise NotImplementedError

    def kernel(self, node: Node) -> Callable[..., None]:
        """The kernel of ``node`` as a bare ``k(*inputs, *outs)`` callable.

        Called once per instruction when a plan is baked: ``k`` writes the
        node's results into pre-allocated ``outs`` and must be
        bitwise-identical to :meth:`compute`, with every attribute
        (transpose flags, layout, axis, index tuples, scalars) resolved
        here, not on each call. Where the kernel is a plain ufunc it is
        returned as is, so no Python frame runs. This default materializes
        :meth:`compute`'s results and copies, which is always alias-safe
        (inputs are fully read before any write); ops that set
        ``supports_out`` override it with a zero-allocation kernel.
        """
        compute, n_in = self.compute, len(node.inputs)

        def k(*arrays):
            for out, arr in zip(arrays[n_in:], compute(node, arrays[:n_in])):
                if out is not arr:
                    np.copyto(out, arr, casting="unsafe")

        return k

    # -- cost hooks ----------------------------------------------------------

    def flops(self, node: Node) -> int:
        """Floating-point operations; default: one per output element."""
        return sum(s.num_elements for s in node.out_specs)

    def bytes_accessed(self, node: Node) -> int:
        """DRAM bytes touched assuming no cache reuse (inputs + outputs)."""
        total = sum(s.nbytes for s in node.out_specs)
        total += sum(t.nbytes for t in node.inputs)
        return total

    def workspace_bytes(self, node: Node) -> int:
        """Transient scratchpad bytes the kernel needs while running."""
        return 0

    def launch_count(self, node: Node) -> int:
        """Number of GPU kernels the framework launches for this op."""
        return 1

    def __repr__(self) -> str:
        return f"<op {self.name}>"


_REGISTRY: dict[str, Op] = {}


def register(op: Op) -> Op:
    """Register a singleton op instance; returns it for assignment."""
    if op.name in _REGISTRY:
        raise OpError(f"duplicate op registration: {op.name!r}")
    _REGISTRY[op.name] = op
    return op


def get_op(name: str) -> Op:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise OpError(f"unknown op {name!r}") from None


def registered_ops() -> dict[str, Op]:
    """A copy of the registry (name -> singleton instance)."""
    return dict(_REGISTRY)
