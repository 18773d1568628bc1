"""Execution substrate: scheduler, memory planner, executor (DESIGN.md S4)."""

from repro.runtime.arena import Arena
from repro.runtime.compiled import CompiledPlan
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
from repro.runtime.scheduler import SchedulingError, schedule, validate_schedule

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
    "Arena",
    "CompiledPlan",
    "PlanCache",
    "NullPlanCache",
    "default_plan_cache",
    "graph_signature",
]
