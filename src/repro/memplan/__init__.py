"""Graph-level memory optimization for compiled plans.

The memory-optimization stage between scheduling and lowering: copy
elision and in-place rewriting over the instruction stream
(:mod:`repro.memplan.elision`), interference-interval buffer coloring
into one contiguous arena extent (:mod:`repro.memplan.coloring`), the
planner that orchestrates both and hands :class:`CompiledPlan` its
buffer assignment (:mod:`repro.memplan.planner`).
"""

from __future__ import annotations

from repro.memplan.coloring import (
    PackResult,
    atomic_tokens,
    pack_intervals,
    waterline,
)
from repro.memplan.planner import BufferAssignment, MemplanRecord, plan_buffers


__all__ = [
    "BufferAssignment",
    "MemplanRecord",
    "PackResult",
    "atomic_tokens",
    "pack_intervals",
    "plan_buffers",
    "waterline",
]
