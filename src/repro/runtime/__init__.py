"""Execution substrate: scheduler, memory planner, executor (DESIGN.md S4)."""

from repro.runtime.compiled import Arena, CompiledPlan
from repro.runtime.executor import (
    ExecutionError,
    GraphExecutor,
    NodeTiming,
    RunResult,
    TrainingExecutor,
)
from repro.runtime.memory import (
    Category,
    MemoryPlan,
    TensorLifetime,
    plan_memory,
)
from repro.runtime.plancache import (
    NullPlanCache,
    PlanCache,
    default_plan_cache,
    graph_signature,
)
from repro.runtime.pool import PoolStats, round_up, simulate_pool
from repro.runtime.scheduler import SchedulingError, schedule, validate_schedule
from repro.runtime.wavefront import (
    InstrInfo,
    Wavefront,
    WavefrontSchedule,
    analyze_wavefronts,
    partition_chunks,
)
from repro.runtime.workers import WorkerPool, default_thread_count, shared_pool

__all__ = [
    "schedule",
    "validate_schedule",
    "SchedulingError",
    "Category",
    "MemoryPlan",
    "TensorLifetime",
    "plan_memory",
    "GraphExecutor",
    "TrainingExecutor",
    "RunResult",
    "NodeTiming",
    "ExecutionError",
    "simulate_pool",
    "PoolStats",
    "round_up",
    "Arena",
    "CompiledPlan",
    "PlanCache",
    "NullPlanCache",
    "default_plan_cache",
    "graph_signature",
    "InstrInfo",
    "Wavefront",
    "WavefrontSchedule",
    "analyze_wavefronts",
    "partition_chunks",
    "WorkerPool",
    "default_thread_count",
    "shared_pool",
]
