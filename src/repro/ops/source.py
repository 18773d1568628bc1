"""Source operators: placeholders, trainable variables, constants."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph import Node, Op, OpError, Tensor, TensorSpec, register


class PlaceholderOp(Op):
    """Graph input fed by the user each iteration (data / labels)."""

    name = "placeholder"

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        return [TensorSpec(node.attrs["shape"], node.attrs["dtype"])]

    def compute(self, node: Node, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        raise OpError(f"placeholder {node.name!r} was not fed a value")


class VariableOp(Op):
    """Trainable parameter; its value lives in the executor's param store."""

    name = "variable"

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        return [TensorSpec(node.attrs["shape"], node.attrs["dtype"])]

    def compute(self, node: Node, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        raise OpError(f"variable {node.name!r} was not bound to a value")


class ConstantOp(Op):
    """Compile-time constant embedded in the graph."""

    name = "constant"
    recompute_cheap = True
    #: returns the graph-owned attrs["value"] array, not a fresh buffer
    may_alias = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        value: np.ndarray = node.attrs["value"]
        return [TensorSpec(value.shape, value.dtype)]

    def compute(self, node: Node, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [node.attrs["value"]]

    def gradient(self, node, out_grads):
        return []


class ZerosOp(Op):
    """Materializes a zero tensor (used for missing branch gradients)."""

    name = "zeros"
    recompute_cheap = True
    supports_out = True

    def infer_specs(self, node: Node) -> Sequence[TensorSpec]:
        return [TensorSpec(node.attrs["shape"], node.attrs["dtype"])]

    def compute(self, node: Node, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        spec = node.out_specs[0]
        return [np.zeros(spec.shape, dtype=spec.dtype)]

    def kernel(self, node):
        return lambda out: out.fill(0)

    def gradient(self, node, out_grads):
        return []


_PLACEHOLDER = register(PlaceholderOp())
_VARIABLE = register(VariableOp())
_CONSTANT = register(ConstantOp())
_ZEROS = register(ZerosOp())


def placeholder(
    shape: Sequence[int], dtype: np.dtype | type = np.float32, name: str | None = None
) -> Tensor:
    """Declare a per-iteration graph input of the given static shape."""
    attrs = {"shape": tuple(shape), "dtype": np.dtype(dtype)}
    return Node(_PLACEHOLDER, [], attrs, name=name).out()


def variable(
    shape: Sequence[int], dtype: np.dtype | type = np.float32, name: str | None = None
) -> Tensor:
    """Declare a trainable parameter of the given static shape."""
    attrs = {"shape": tuple(shape), "dtype": np.dtype(dtype)}
    return Node(_VARIABLE, [], attrs, name=name).out()


def constant(value: np.ndarray, name: str | None = None) -> Tensor:
    """Embed an immutable array into the graph."""
    arr = np.asarray(value)
    return Node(_CONSTANT, [], {"value": arr}, name=name).out()


def zeros(
    shape: Sequence[int], dtype: np.dtype | type = np.float32, name: str | None = None
) -> Tensor:
    """A zero tensor node (cheap to recompute, never worth stashing)."""
    attrs = {"shape": tuple(shape), "dtype": np.dtype(dtype)}
    return Node(_ZEROS, [], attrs, name=name).out()
