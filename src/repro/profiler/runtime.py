"""Runtime profiler: the nvprof stand-in behind Figures 6 and 7.

Consumes the per-node simulated timings collected by the executor and
groups them two complementary ways, exactly as the paper does:

* **GPU kernels** — execution time grouped by kernel family (sgemm for
  GEMMs, fused LSTM pointwise, elementwise, softmax, ...), further
  divisible by model scope (rnn / attention / output / ...);
* **CUDA APIs** — CPU-side time in cudaLaunch-style calls, which dominates
  when the framework issues hundreds of tiny kernels per iteration.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.runtime.codegen import bind_source
from repro.runtime.executor import NodeTiming

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph import Node

#: op name -> kernel family shown in reports (mirrors nvprof kernel names)
_KERNEL_FAMILY = {
    "fully_connected": "sgemm (fully-connected)",
    "matmul": "sgemm (fully-connected)",
    "batch_dot": "sgemm (batched)",
    "lstm_gates": "fused LSTM pointwise",
    "lstm_gates_grad": "fused LSTM pointwise",
    "softmax": "softmax",
    "softmax_grad": "softmax",
    "softmax_cross_entropy": "softmax",
    "softmax_cross_entropy_grad": "softmax",
    "sequence_reverse": "SequenceReverse",
    "embedding": "embedding",
    "embedding_grad": "embedding",
    "layer_norm": "layer norm",
    "layer_norm_grad": "layer norm",
}


def kernel_family(op_name: str) -> str:
    return _KERNEL_FAMILY.get(op_name, "elementwise / other")


@dataclass
class RuntimeReport:
    """Breakdown of one iteration's simulated GPU time."""

    kernel_seconds: float
    api_seconds: float
    launches: int
    dram_bytes: int
    by_kernel: dict[str, float] = field(default_factory=dict)
    by_scope: dict[str, float] = field(default_factory=dict)
    api_by_kind: dict[str, float] = field(default_factory=dict)

    @property
    def iteration_seconds(self) -> float:
        """Wall time: kernels overlap launch of the next kernel, so the
        iteration is bound by the larger of the two streams."""
        return max(self.kernel_seconds, self.api_seconds)

    @property
    def launch_bound(self) -> bool:
        return self.api_seconds > self.kernel_seconds

    def kernel_fraction(self, family: str) -> float:
        return self.by_kernel.get(family, 0.0) / max(self.kernel_seconds, 1e-30)

    def format(self, title: str = "runtime breakdown") -> str:
        lines = [f"== {title} =="]
        lines.append(
            f"  GPU kernels {self.kernel_seconds * 1e3:8.2f} ms   "
            f"CUDA APIs {self.api_seconds * 1e3:8.2f} ms   "
            f"({self.launches} launches, "
            f"{'launch-bound' if self.launch_bound else 'kernel-bound'})"
        )
        lines.append("  -- by GPU kernel --")
        for fam, sec in sorted(self.by_kernel.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {fam:<28} {sec * 1e3:8.2f} ms "
                f"({100.0 * sec / max(self.kernel_seconds, 1e-30):5.1f}%)"
            )
        lines.append("  -- by model scope --")
        for sc, sec in sorted(self.by_scope.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {sc:<28} {sec * 1e3:8.2f} ms "
                f"({100.0 * sec / max(self.kernel_seconds, 1e-30):5.1f}%)"
            )
        return "\n".join(lines)


def profile_runtime(
    timings: Iterable[NodeTiming], scope_depth: int = 1
) -> RuntimeReport:
    """Aggregate executor timings into the paper's two views."""
    by_kernel: dict[str, float] = defaultdict(float)
    by_scope: dict[str, float] = defaultdict(float)
    kernel_seconds = 0.0
    api_seconds = 0.0
    launches = 0
    dram = 0
    for t in timings:
        kernel_seconds += t.kernel_seconds
        api_seconds += t.api_seconds
        launches += t.launches
        dram += t.dram_bytes
        by_kernel[kernel_family(t.node.op.name)] += t.kernel_seconds
        prefix = "/".join(t.node.scope.split("/")[:scope_depth]) or "(root)"
        by_scope[prefix] += t.kernel_seconds
    api_by_kind = {
        "cudaLaunch": api_seconds * 0.75,
        "cudaSynchronize / other": api_seconds * 0.25,
    }
    return RuntimeReport(
        kernel_seconds=kernel_seconds,
        api_seconds=api_seconds,
        launches=launches,
        dram_bytes=dram,
        by_kernel=dict(by_kernel),
        by_scope=dict(by_scope),
        api_by_kind=api_by_kind,
    )


def dram_transactions(timings: Sequence[NodeTiming], width: int = 32) -> int:
    """Total DRAM transactions (nvprof-style, 32B segments)."""
    return sum(t.dram_bytes for t in timings) // width


# -- measured (host wall-clock) timings -------------------------------------


@dataclass(frozen=True)
class MeasuredNodeTiming:
    """Host wall-clock of one node's kernel, reduced over repeated passes.

    This is the *measured* counterpart of :class:`NodeTiming` (which holds
    simulated device cost): what the numpy kernel actually took on this
    host, robust-reduced so a single descheduled pass cannot poison the
    calibration records built from it.
    """

    node: "Node"
    seconds: float
    samples: tuple[float, ...]
    stable: bool


def measure_node_timings(
    order: Sequence["Node"],
    feeds: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    repeats: int = 5,
) -> list[MeasuredNodeTiming]:
    """Wall-clock every kernel in ``order``, best-of-``repeats`` per node.

    Walks the schedule interpreter-style (dict-keyed values, liveness
    frees) ``repeats`` times, timing each ``op.compute`` call with
    ``perf_counter`` and reducing per node with
    :func:`repro.pgo.records.robust_best`. The global step is pinned to 0
    every pass so stochastic ops (dropout) do identical work each time.
    """
    from repro.ops.dropout import set_global_step
    from repro.pgo.records import robust_best

    repeats = max(1, int(repeats))
    last_use: dict[tuple[int, int], int] = {}
    for step, node in enumerate(order):
        for t in node.inputs:
            last_use[t.key] = step
    free_after: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for key, step in last_use.items():
        free_after[step].append(key)

    samples: list[list[float]] = [[] for _ in order]
    for _ in range(repeats):
        set_global_step(0)
        values: dict[tuple[int, int], np.ndarray] = {}
        for step, node in enumerate(order):
            if node.op.name == "placeholder":
                values[(node.uid, 0)] = bind_source(
                    feeds, node, "placeholder"
                )
            elif node.op.name == "variable":
                values[(node.uid, 0)] = bind_source(params, node, "variable")
            else:
                inputs = [values[t.key] for t in node.inputs]
                start = time.perf_counter()
                results = node.op.compute(node, inputs)
                samples[step].append(time.perf_counter() - start)
                for i, arr in enumerate(results):
                    values[(node.uid, i)] = arr
            for key in free_after[step]:
                values.pop(key, None)

    out: list[MeasuredNodeTiming] = []
    for step, node in enumerate(order):
        if not samples[step]:
            continue  # placeholder / variable: nothing ran
        timing = robust_best(samples[step])
        out.append(
            MeasuredNodeTiming(
                node=node,
                seconds=timing.seconds,
                samples=timing.samples,
                stable=timing.stable,
            )
        )
    return out
