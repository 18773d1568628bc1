"""Core dataflow-graph data structures.

The IR mirrors what Echo needs from a deep-learning framework's graph layer
(NNVM in the paper's MXNet integration): typed multi-output nodes, explicit
producer/consumer edges, a *stage* tag separating forward, backward and
recompute (mirrored) nodes, and a *scope* tag used by the profilers to
attribute memory and runtime to model components (embedding / rnn /
attention / output), as the paper's breakdown figures do.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.graph.op import Op


class Stage(Enum):
    """Which phase of a training iteration a node executes in.

    ``RECOMPUTE`` marks nodes mirrored by the Echo pass: copies of forward
    nodes that re-execute during backpropagation so their original outputs
    need not be stashed across the forward/backward boundary.
    """

    FORWARD = "forward"
    BACKWARD = "backward"
    RECOMPUTE = "recompute"

    # Members are singletons compared by identity; hashing them by identity
    # too keeps graph signatures (one stage per node) hashable without a
    # Python-level call per node.
    __hash__ = object.__hash__


@functools.lru_cache(maxsize=None)
def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, remembered per dtype.

    Fingerprints, equivalence digests and rewrite witnesses spell the dtype
    of every tensor they cover; numpy builds that string in Python on each
    call, and a model uses a handful of dtypes.
    """
    return str(dtype)


@dataclass(frozen=True)
class TensorSpec:
    """Static shape and dtype of one node output."""

    shape: tuple[int, ...]
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float32))
    #: derived once at construction: planners and cost hooks read these
    #: several times per tensor per pass
    num_elements: int = field(init=False, compare=False, repr=False)
    nbytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        shape = tuple([int(d) for d in self.shape])
        dtype = np.dtype(self.dtype)
        count = 1
        for d in shape:
            if d < 0:
                raise ValueError(f"negative dimension in shape {shape}")
            count *= d
        put = object.__setattr__
        put(self, "shape", shape)
        put(self, "dtype", dtype)
        put(self, "num_elements", count)
        put(self, "nbytes", count * dtype.itemsize)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return f"TensorSpec({dims}:{self.dtype.name})"


class _ScopeState(threading.local):
    """Thread-local stack of profiling scopes (e.g. 'nmt/attention')."""

    def __init__(self) -> None:
        self.stack: list[str] = []


_SCOPES = _ScopeState()
_NODE_COUNTER = itertools.count()

#: callbacks invoked on every freshly constructed node (e.g. the manual
#: recompute annotation in repro.echo.manual). Kept explicit rather than
#: monkeypatching the constructor.
_NODE_HOOKS: list = []


def register_node_hook(hook) -> None:
    """Register ``hook(node)`` to run after every Node construction."""
    if hook not in _NODE_HOOKS:
        _NODE_HOOKS.append(hook)


class scope:
    """Context manager stamping nodes created inside it with a scope path.

    Scopes nest with ``/`` separators and are purely metadata: they drive the
    by-layer-type breakdowns of the memory and runtime profilers.

    >>> with scope("encoder"):
    ...     with scope("rnn"):
    ...         pass  # nodes created here get scope "encoder/rnn"
    """

    def __init__(self, name: str) -> None:
        if "/" in name:
            raise ValueError("scope segments may not contain '/'")
        self._name = name

    def __enter__(self) -> "scope":
        _SCOPES.stack.append(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        _SCOPES.stack.pop()


def current_scope() -> str:
    """Return the active scope path, '' when outside any scope."""
    return "/".join(_SCOPES.stack)


class Node:
    """One operator instance in the dataflow graph.

    Nodes are immutable once created except for Echo's rewrite bookkeeping
    (``mirror_of``). Identity (``uid``) is a global monotonically increasing
    sequence number which also serves as the default scheduling priority:
    creation order is program order.
    """

    __slots__ = (
        "uid",
        "op",
        "inputs",
        "attrs",
        "name",
        "stage",
        "scope",
        "out_specs",
        "mirror_of",
        "priority",
    )

    def __init__(
        self,
        op: "Op",
        inputs: Iterable["Tensor"],
        attrs: dict[str, Any] | None = None,
        name: str | None = None,
        stage: Stage = Stage.FORWARD,
    ) -> None:
        self.uid: int = next(_NODE_COUNTER)
        self.op = op
        self.inputs: tuple[Tensor, ...] = tuple(inputs)
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.name: str = name or f"{op.name}_{self.uid}"
        self.stage: Stage = stage
        self.scope: str = current_scope()
        #: for RECOMPUTE nodes, the forward node this one mirrors
        self.mirror_of: Node | None = None
        #: scheduling priority; creation order by default. The Echo rewrite
        #: lowers mirrored nodes' priority to just below their first backward
        #: consumer so they run as late as possible (minimal stash lifetime).
        self.priority: float = float(self.uid)
        self.out_specs: tuple[TensorSpec, ...] = tuple(op.infer_specs(self))
        if len(self.out_specs) != op.num_outputs(self):
            raise RuntimeError(
                f"op {op.name} declared {op.num_outputs(self)} outputs but "
                f"inferred {len(self.out_specs)} specs"
            )
        for hook in _NODE_HOOKS:
            hook(self)

    # -- convenience -------------------------------------------------------

    def out(self, index: int = 0) -> "Tensor":
        """Symbolic handle to the ``index``-th output of this node."""
        if not 0 <= index < len(self.out_specs):
            raise IndexError(f"{self.name} has {len(self.out_specs)} outputs")
        return Tensor(self, index)

    @property
    def outputs(self) -> tuple["Tensor", ...]:
        return tuple(Tensor(self, i) for i in range(len(self.out_specs)))

    def __repr__(self) -> str:
        ins = ", ".join(t.short_name for t in self.inputs)
        outs = ", ".join(repr(s) for s in self.out_specs)
        tag = "" if self.stage is Stage.FORWARD else f" [{self.stage.value}]"
        return f"<{self.name}{tag} = {self.op.name}({ins}) -> {outs}>"


class Tensor:
    """A symbolic reference to output ``index`` of ``node``.

    This is the user-facing value type of the graph builder API: the builder
    functions in :mod:`repro.ops` accept and return ``Tensor``s. Arithmetic
    operators are wired up lazily (see ``repro.ops.overloads``) to avoid an
    import cycle between the IR and the operator library.
    """

    __slots__ = ("node", "index", "key")

    def __init__(self, node: Node, index: int = 0) -> None:
        self.node = node
        self.index = index
        #: hashable identity of the value this reference denotes; a plain
        #: attribute because every pass keys its tables by it
        self.key: tuple[int, int] = (node.uid, index)

    @property
    def spec(self) -> TensorSpec:
        return self.node.out_specs[self.index]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.node.out_specs[self.index].shape

    @property
    def dtype(self) -> np.dtype:
        return self.node.out_specs[self.index].dtype

    @property
    def nbytes(self) -> int:
        return self.node.out_specs[self.index].nbytes

    @property
    def short_name(self) -> str:
        if len(self.node.out_specs) == 1:
            return self.node.name
        return f"{self.node.name}:{self.index}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tensor):
            return self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Tensor({self.short_name}, {self.spec!r})"

    # Arithmetic overloads are installed by repro.ops.overloads at import
    # time of the ops package; stubs here give a clear error otherwise.
    def _no_ops(self, *_args: object) -> "Tensor":
        raise RuntimeError(
            "tensor operator overloads require 'import repro.ops' first"
        )

    __add__ = __radd__ = __sub__ = __rsub__ = _no_ops
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _no_ops
    __neg__ = __matmul__ = __pow__ = _no_ops
