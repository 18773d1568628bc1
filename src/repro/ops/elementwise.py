"""Elementwise binary/unary arithmetic with numpy broadcasting semantics.

All elementwise ops are marked ``recompute_cheap``: they are exactly the
bandwidth-bound, GEMM-free kernels the paper's partial-forward-propagation /
Echo recomputation targets (broadcast arithmetic, scaling, masking).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.graph import Node, Op, Tensor, TensorSpec, broadcast_shapes, register


def _unbroadcast(grad: Tensor, target_shape: tuple[int, ...]) -> Tensor:
    """Reduce ``grad`` back to ``target_shape`` (reverse of broadcasting)."""
    from repro.ops.reduce import reduce_sum
    from repro.ops.shape_ops import reshape

    g = grad
    # Sum out prepended axes.
    while len(g.shape) > len(target_shape):
        g = reduce_sum(g, axis=0, keepdims=False)
    # Sum over axes that were broadcast from 1.
    for ax, (gd, td) in enumerate(zip(g.shape, target_shape)):
        if td == 1 and gd != 1:
            g = reduce_sum(g, axis=ax, keepdims=True)
    if g.shape != tuple(target_shape):
        g = reshape(g, target_shape)
    return g


class BinaryOp(Op):
    """Broadcasting binary elementwise operator."""

    recompute_cheap = True
    supports_out = True
    fusion_eligible = True
    inplace_operands = (0, 1)

    def __init__(self, name: str, fn: np.ufunc):
        self.name = name
        self._fn = fn

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        a, b = node.inputs
        if a.dtype != b.dtype:
            raise TypeError(
                f"{self.name}: dtype mismatch {a.dtype} vs {b.dtype} "
                f"({a.short_name}, {b.short_name})"
            )
        return [TensorSpec(broadcast_shapes(a.shape, b.shape), a.dtype)]

    def compute(self, node: Node, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        out = self._fn(inputs[0], inputs[1])
        return [np.asarray(out, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        # Same-dtype float loops write ``out=`` exactly as ``compute``
        # computes; any other result dtype (integer division, say) takes
        # the compute-and-copy fallback, which applies the same unsafe
        # cast ``compute`` does.
        if node.out_specs[0].dtype.kind == "f":
            return self._fn
        return super().kernel(node)


class _AddOp(BinaryOp):
    def __init__(self) -> None:
        super().__init__("add", np.add)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None, None]
        a, b = node.inputs
        return [_unbroadcast(dy, a.shape), _unbroadcast(dy, b.shape)]


class _SubOp(BinaryOp):
    def __init__(self) -> None:
        super().__init__("sub", np.subtract)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None, None]
        a, b = node.inputs
        return [_unbroadcast(dy, a.shape), _unbroadcast(neg(dy), b.shape)]


class _MulOp(BinaryOp):
    def __init__(self) -> None:
        super().__init__("mul", np.multiply)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None, None]
        a, b = node.inputs
        return [
            _unbroadcast(mul(dy, b), a.shape),
            _unbroadcast(mul(dy, a), b.shape),
        ]


class _DivOp(BinaryOp):
    def __init__(self) -> None:
        super().__init__("div", np.divide)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None, None]
        a, b = node.inputs
        da = div(dy, b)
        db = neg(div(mul(dy, node.out(0)), b))  # -dy * (a/b) / b
        return [_unbroadcast(da, a.shape), _unbroadcast(db, b.shape)]


class ScalarOp(Op):
    """Elementwise ufunc combining a tensor with a python scalar attribute
    (``ufunc(x, c)``, or ``ufunc(c, x)`` when ``scalar_first``)."""

    recompute_cheap = True
    supports_out = True
    fusion_eligible = True
    inplace_operands = (0,)

    def __init__(
        self, name: str, ufunc: np.ufunc, scalar_first: bool = False
    ) -> None:
        self.name = name
        self._ufunc = ufunc
        self._scalar_first = scalar_first

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (a,) = node.inputs
        return [TensorSpec(a.shape, a.dtype)]

    def compute(self, node: Node, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        c = node.attrs["scalar"]
        if self._scalar_first:
            out = self._ufunc(c, inputs[0])
        else:
            out = self._ufunc(inputs[0], c)
        return [np.asarray(out, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        if node.out_specs[0].dtype.kind != "f":
            return super().kernel(node)
        ufunc, c = self._ufunc, node.attrs["scalar"]
        if self._scalar_first:
            return partial(ufunc, c)  # ufunc(c, x, out)
        return lambda x, out: ufunc(x, c, out)


class _AddScalarOp(ScalarOp):
    def __init__(self) -> None:
        super().__init__("add_scalar", np.add)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        return [dy]


class _MulScalarOp(ScalarOp):
    def __init__(self) -> None:
        super().__init__("mul_scalar", np.multiply)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [mul_scalar(dy, node.attrs["scalar"])]


class _RSubScalarOp(ScalarOp):
    """c - x."""

    def __init__(self) -> None:
        super().__init__("rsub_scalar", np.subtract, scalar_first=True)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [neg(dy)]


class _PowScalarOp(ScalarOp):
    def __init__(self) -> None:
        super().__init__("pow_scalar", np.power)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        c = node.attrs["scalar"]
        (x,) = node.inputs
        return [mul_scalar(mul(dy, pow_scalar(x, c - 1.0)), c)]


class UnaryOp(Op):
    """Elementwise unary operator."""

    recompute_cheap = True
    supports_out = True
    fusion_eligible = True
    inplace_operands = (0,)

    def __init__(self, name: str, fn: np.ufunc):
        self.name = name
        self._fn = fn

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        (a,) = node.inputs
        return [TensorSpec(a.shape, a.dtype)]

    def compute(self, node: Node, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        out = self._fn(inputs[0])
        return [np.asarray(out, dtype=node.out_specs[0].dtype)]

    def kernel(self, node):
        if node.out_specs[0].dtype.kind == "f":
            return self._fn
        return super().kernel(node)


class _NegOp(UnaryOp):
    def __init__(self) -> None:
        super().__init__("neg", np.negative)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        return [None if dy is None else neg(dy)]


class _ExpOp(UnaryOp):
    def __init__(self) -> None:
        super().__init__("exp", np.exp)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [mul(dy, node.out(0))]


class _LogOp(UnaryOp):
    def __init__(self) -> None:
        super().__init__("log", np.log)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [div(dy, node.inputs[0])]


class _SqrtOp(UnaryOp):
    def __init__(self) -> None:
        super().__init__("sqrt", np.sqrt)

    def gradient(self, node, out_grads):
        (dy,) = out_grads
        if dy is None:
            return [None]
        return [div(dy, mul_scalar(node.out(0), 2.0))]


_ADD = register(_AddOp())
_SUB = register(_SubOp())
_MUL = register(_MulOp())
_DIV = register(_DivOp())
_ADD_SCALAR = register(_AddScalarOp())
_MUL_SCALAR = register(_MulScalarOp())
_RSUB_SCALAR = register(_RSubScalarOp())
_POW_SCALAR = register(_PowScalarOp())
_NEG = register(_NegOp())
_EXP = register(_ExpOp())
_LOG = register(_LogOp())
_SQRT = register(_SqrtOp())


def add(a: Tensor, b: Tensor) -> Tensor:
    return Node(_ADD, [a, b]).out()


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Node(_SUB, [a, b]).out()


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Node(_MUL, [a, b]).out()


def div(a: Tensor, b: Tensor) -> Tensor:
    return Node(_DIV, [a, b]).out()


def add_scalar(x: Tensor, c: float) -> Tensor:
    return Node(_ADD_SCALAR, [x], {"scalar": float(c)}).out()


def mul_scalar(x: Tensor, c: float) -> Tensor:
    return Node(_MUL_SCALAR, [x], {"scalar": float(c)}).out()


def rsub_scalar(x: Tensor, c: float) -> Tensor:
    """Return ``c - x``."""
    return Node(_RSUB_SCALAR, [x], {"scalar": float(c)}).out()


def pow_scalar(x: Tensor, c: float) -> Tensor:
    return Node(_POW_SCALAR, [x], {"scalar": float(c)}).out()


def neg(x: Tensor) -> Tensor:
    return Node(_NEG, [x]).out()


def exp(x: Tensor) -> Tensor:
    return Node(_EXP, [x]).out()


def log(x: Tensor) -> Tensor:
    return Node(_LOG, [x]).out()


def sqrt(x: Tensor) -> Tensor:
    return Node(_SQRT, [x]).out()
