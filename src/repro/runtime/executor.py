"""Graph executor: runs a scheduled graph on numpy with liveness-driven
memory management, and (optionally) accumulates simulated GPU cost.

Real numerics run on the CPU via the ops' numpy kernels — this is what the
training loops, gradient checks, and "training curves overlap" experiments
use. GPU-side *performance* (kernel time, CUDA API time, DRAM traffic) is
accumulated per node from a :class:`repro.gpumodel.DeviceModel`, replacing
the paper's nvprof measurements on real silicon.

``run`` executes a :class:`repro.runtime.compiled.CompiledPlan` — a
slot-indexed instruction stream with elementwise fusion and arena buffer
reuse. Simulated cost stays node-based, so figure reproductions are
unaffected by how the host executes kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from repro.autodiff.training import TrainingGraph
from repro.graph import Node, Tensor
from repro.ops.dropout import set_global_step
from repro.runtime.compiled import Arena, CompiledPlan, ExecutionError
from repro.runtime.memory import Category, MemoryPlan, TensorKey
from repro.runtime.plancache import PlanCache, default_plan_cache
from repro.runtime.workers import default_thread_count

__all__ = [
    "ExecutionError",
    "NodeTiming",
    "RunResult",
    "GraphExecutor",
    "TrainingExecutor",
]


@dataclass
class NodeTiming:
    """Simulated GPU cost of one executed node."""

    node: Node
    kernel_seconds: float
    api_seconds: float
    dram_bytes: int
    launches: int


@dataclass
class RunResult:
    """Outputs and metering of one executed iteration."""

    outputs: list[np.ndarray]
    timings: list[NodeTiming] = field(default_factory=list)

    @property
    def sim_kernel_seconds(self) -> float:
        return sum(t.kernel_seconds for t in self.timings)

    @property
    def sim_api_seconds(self) -> float:
        return sum(t.api_seconds for t in self.timings)

    @property
    def sim_seconds(self) -> float:
        """End-to-end simulated iteration time.

        Kernel execution overlaps with launching the *next* kernel, so the
        iteration is bound by whichever dominates — the behavior behind the
        paper's Figure 7a, where the Default backend's many tiny kernels
        leave the GPU waiting on cudaLaunch.
        """
        return max(self.sim_kernel_seconds, self.sim_api_seconds)

    @property
    def dram_bytes(self) -> int:
        return sum(t.dram_bytes for t in self.timings)


class GraphExecutor:
    """Executes a fixed set of output tensors over and over.

    The schedule and memory plan are computed once at construction (or
    fetched from a shared :class:`PlanCache`); the compiled :attr:`plan` —
    lowering, code generation and the arena extent — on first use, so an
    executor built only to be costed (``simulate_cost``, ``peak_bytes``,
    ``memory_plan``) allocates nothing. ``run`` dispatches the plan's flat
    instruction stream. The arena recycles intermediate buffers, so the
    process's real memory usage follows the simulated footprint and
    steady-state iterations allocate almost no new arrays.
    """

    def __init__(
        self,
        outputs: Sequence[Tensor],
        device: Any | None = None,
        pinned_categories: Mapping[TensorKey, Category] | None = None,
        arena: Arena | None = None,
        plan_cache: PlanCache | None = None,
        fuse: bool = True,
        threads: int | None = None,
        batch_gemms: bool | None = None,
    ) -> None:
        self.outputs = list(outputs)
        self.device = device
        self.arena = arena if arena is not None else Arena()
        self.plan_cache = (
            plan_cache if plan_cache is not None else default_plan_cache()
        )
        # None defers to the REPRO_THREADS environment default, so the CI
        # matrix (and users) can flip the whole process to wavefront
        # execution without touching call sites.
        self.threads = default_thread_count() if threads is None else max(
            1, int(threads)
        )
        self.fuse = fuse
        self.batch_gemms = batch_gemms
        # One facts record serves all three planning artifacts of this
        # state — the one Echo's final re-plan left in the cache, when the
        # pass just ran over this graph.
        self._facts = self.plan_cache.facts_for(self.outputs)
        self.order = self.plan_cache.schedule_for(
            self.outputs, facts=self._facts
        )
        self.memory_plan: MemoryPlan = self.plan_cache.plan_for(
            self.outputs, pinned_categories, order=self.order,
            facts=self._facts,
        )
        self._iteration = 0
        self._run_timings: list[NodeTiming] | None = None
        self._sim_timings: list[NodeTiming] | None = None

    # -- public API ---------------------------------------------------------

    @cached_property
    def plan(self) -> CompiledPlan:
        """The compiled plan, built on first access.

        A plain instance attribute from then on, so ``run`` pays no
        per-iteration check.
        """
        return self.plan_cache.compiled_for(
            self.outputs,
            self.arena,
            fuse=self.fuse,
            order=self.order,
            threads=self.threads,
            batch_gemms=self.batch_gemms,
            device=self.device,
            facts=self._facts,
        )

    def compile(self) -> CompiledPlan:
        """Build :attr:`plan` now rather than on first use — what trainers
        and decoders do in their constructors, so no step or request ever
        pays lowering and code generation."""
        return self.plan

    @property
    def peak_bytes(self) -> int:
        """Simulated peak GPU footprint of one iteration (model memory only;
        the profiler adds optimizer state and framework overheads)."""
        return self.memory_plan.peak_bytes

    def verify(self, threads_probe: int = 4, equiv: bool = False):
        """Statically verify this executor's compiled plan.

        Runs the :mod:`repro.analysis` analyzers — IR lint, recompute
        safety, arena lifetimes, packing, wavefront races, and
        (``equiv=True``) symbolic equivalence certification — against the
        plan and returns the
        :class:`~repro.analysis.findings.AnalysisReport` (``report.ok``
        is the pass/fail bit). Independent of the ``REPRO_VERIFY``
        compile-time guard.
        """
        from repro.analysis.verify import verify_plan

        return verify_plan(
            self.plan,
            outputs=self.outputs,
            order=self.order,
            threads_probe=threads_probe,
            equiv=equiv,
            facts=self.plan_cache.facts_for(self.outputs),
        )

    def run(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        params: Mapping[str, np.ndarray] | None = None,
        collect_timings: bool = False,
        on_item: Any | None = None,
    ) -> RunResult:
        """Execute one iteration through the compiled plan.

        ``feeds`` maps placeholder node names to arrays; ``params`` maps
        variable node names to arrays. Missing bindings raise.
        ``on_item`` is the plan's level-completion hook (see
        :meth:`CompiledPlan.run`), used to overlap work — distributed
        gradient reduction — with the tail of execution.
        """
        set_global_step(self._iteration)
        self._iteration += 1
        out_arrays = self.plan.run(feeds, params, on_item=on_item)
        timings: list[NodeTiming] = []
        if collect_timings and self.device is not None:
            if self._run_timings is None:
                self._run_timings = self._time_nodes(self.order)
            timings = list(self._run_timings)
        return RunResult(outputs=out_arrays, timings=timings)

    def simulate_cost(self) -> RunResult:
        """Cost the schedule on the device model without running kernels."""
        if self.device is None:
            raise ExecutionError("simulate_cost requires a device model")
        if self._sim_timings is None:
            self._sim_timings = self._time_nodes(
                [
                    n
                    for n in self.order
                    if n.op.name not in ("placeholder", "variable")
                ]
            )
        return RunResult(outputs=[], timings=list(self._sim_timings))

    # -- helpers -------------------------------------------------------------

    def _time_nodes(self, nodes: Sequence[Node]) -> list[NodeTiming]:
        # Priced once per node on the state's facts record: the Echo pass
        # already costed every node it shares with this schedule.
        costs = self.plan_cache.facts_for(self.outputs).node_costs(self.device)
        timings = []
        for node in nodes:
            cost = costs.get(node.uid)
            if cost is None:  # the graph was rewritten under this executor
                cost = self.device.node_cost(node)
            timings.append(
                NodeTiming(
                    node=node,
                    kernel_seconds=cost.kernel_seconds,
                    api_seconds=cost.api_seconds,
                    dram_bytes=cost.dram_bytes,
                    launches=cost.launches,
                )
            )
        return timings


class TrainingExecutor:
    """Convenience wrapper binding a :class:`TrainingGraph` to an executor.

    Pins final parameter gradients into the ``GRADIENT`` category so the
    memory breakdowns match the paper's "Weights" accounting.
    """

    def __init__(
        self,
        graph: TrainingGraph,
        device: Any | None = None,
        arena: Arena | None = None,
        plan_cache: PlanCache | None = None,
        threads: int | None = None,
        batch_gemms: bool | None = None,
    ) -> None:
        self.graph = graph
        pinned = {g.key: Category.GRADIENT for g in graph.grads.values()}
        self.executor = GraphExecutor(
            graph.outputs,
            device=device,
            pinned_categories=pinned,
            arena=arena,
            plan_cache=plan_cache,
            threads=threads,
            batch_gemms=batch_gemms,
        )

    @property
    def memory_plan(self) -> MemoryPlan:
        return self.executor.memory_plan

    @property
    def peak_bytes(self) -> int:
        return self.executor.peak_bytes

    def run(
        self,
        feeds: Mapping[str, np.ndarray],
        params: Mapping[str, np.ndarray],
        collect_timings: bool = False,
        on_item: Any | None = None,
    ) -> tuple[float, dict[str, np.ndarray], RunResult]:
        """Execute one iteration; returns (loss, grads-by-name, raw result)."""
        result = self.executor.run(feeds, params, collect_timings, on_item)
        loss = float(result.outputs[0])
        grads = {
            name: result.outputs[1 + i]
            for i, name in enumerate(self.graph.grads)
        }
        return loss, grads, result

    def simulate_cost(self) -> RunResult:
        return self.executor.simulate_cost()
