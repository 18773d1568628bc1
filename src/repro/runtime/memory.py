"""Liveness analysis and the simulated GPU memory allocator.

This is the reproduction's stand-in for the MXNet memory planner plus the
MXNet GPU memory profiler the paper uses for its breakdown figures. Given a
schedule it computes, without executing anything:

* per-tensor lifetime (allocation step, last-use step),
* per-tensor category (the paper's four data-structure classes),
* the footprint timeline and its peak, overall and per category,
* the workspace pool high-water mark (workspace is acquired per node and
  returned to a pool, so sequential consumers — e.g. the recompute
  subgraphs of successive attention timesteps — share one arena; this is
  the Section 4.1 workspace-sharing argument, and it falls out of the pool
  model naturally).

Categories follow the paper's Section 3.2 taxonomy:

* ``PLACEHOLDER`` — per-iteration inputs, plus short-lived layer in/out
  buffers that never cross the forward/backward boundary;
* ``WEIGHT`` / ``GRADIENT`` — parameters and their gradients (the paper's
  "Weights" bar also folds in optimizer state, which the profiler adds);
* ``FEATURE_MAP`` — forward tensors kept alive for the backward pass;
* ``WORKSPACE`` — kernel scratch plus outputs of mirrored recompute nodes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from repro.graph import Node, Stage, Tensor

TensorKey = tuple[int, int]


class Category(Enum):
    PLACEHOLDER = "placeholder"
    WEIGHT = "weight"
    GRADIENT = "gradient"
    FEATURE_MAP = "feature_map"
    WORKSPACE = "workspace"

    # Singletons compared by identity; hashed by identity so the
    # per-category tallies of the timeline sweep stay C-level lookups.
    __hash__ = object.__hash__

    def __lt__(self, other: "Category") -> bool:  # stable report ordering
        return _CATEGORY_RANK[self] < _CATEGORY_RANK[other]


#: declaration order, the order reports list categories in
_CATEGORY_RANK = {category: rank for rank, category in enumerate(Category)}


@dataclass(frozen=True)
class TensorLifetime:
    """Where a tensor lives in the schedule and what it is."""

    key: TensorKey
    nbytes: int
    category: Category
    alloc_step: int
    free_step: int  # exclusive: freed after this step completes
    scope: str


@dataclass
class MemoryPlan:
    """Full footprint analysis of one scheduled training iteration."""

    order: list[Node]
    lifetimes: dict[TensorKey, TensorLifetime]
    #: bytes live after each step (including pool high-water so far)
    timeline: list[int]
    peak_bytes: int
    peak_step: int
    #: live bytes per category at the peak step
    peak_by_category: dict[Category, int]
    workspace_pool_hwm: int
    #: maximum concurrent bytes per category anywhere in the timeline
    max_by_category: dict[Category, int] = field(default_factory=dict)

    def category_bytes(self, category: Category) -> int:
        return self.peak_by_category.get(category, 0)

    def scope_breakdown(self, depth: int = 1) -> dict[str, int]:
        """Bytes live at the peak step grouped by scope prefix.

        Mirrors the paper's by-layer-type breakdown (Figure 5 left bar).
        """
        result: dict[str, int] = defaultdict(int)
        for life in self.lifetimes.values():
            if life.alloc_step <= self.peak_step <= life.free_step:
                prefix = "/".join(life.scope.split("/")[:depth]) or "(root)"
                result[prefix] += life.nbytes
        return dict(result)


def _category_of(node: Node, last_consumer_stage: Stage | None) -> Category:
    """A tensor's category before any pin is applied."""
    if node.op.name == "placeholder":
        return Category.PLACEHOLDER
    if node.op.name == "variable":
        return Category.WEIGHT
    if node.stage is Stage.RECOMPUTE:
        return Category.WORKSPACE
    if node.stage is Stage.FORWARD:
        if last_consumer_stage in (Stage.BACKWARD, Stage.RECOMPUTE):
            return Category.FEATURE_MAP
        return Category.PLACEHOLDER  # short-lived layer in/out buffer
    return Category.PLACEHOLDER  # backward temporaries


@dataclass
class ScheduleLiveness:
    """The order-only half of memory planning.

    Everything about one schedule that does not depend on pinned
    categories: each tensor's allocation/free step and default category,
    the order tensors are freed in, and the per-step workspace request. One sweep per schedule; :func:`plan_memory` turns it into a
    :class:`MemoryPlan` for any set of pinned categories without walking
    the schedule again.
    """

    order: list[Node]
    #: production order — so allocation steps never decrease along it;
    #: categories are the unpinned defaults
    lifetimes: dict[TensorKey, TensorLifetime]
    #: the same keys ordered by free step (production order within a step)
    free_order: list[TensorKey]
    #: kernel scratch requested by each step's node
    workspace: list[int]


def schedule_liveness(
    order: Sequence[Node], outputs: Iterable[Tensor]
) -> ScheduleLiveness:
    """Sweep ``order`` once for liveness; ``outputs`` live to the end."""
    order = list(order)
    num_steps = len(order)
    last = num_steps - 1
    output_keys = {t.key for t in outputs}

    last_use: dict[TensorKey, int] = {}
    last_stage: dict[TensorKey, Stage] = {}
    for step, node in enumerate(order):
        stage = node.stage
        for t in node.inputs:
            key = t.key
            if last_use.get(key, -1) < step:
                last_use[key] = step
                last_stage[key] = stage

    lifetimes: dict[TensorKey, TensorLifetime] = {}
    workspace: list[int] = []
    for step, node in enumerate(order):
        pinned_alive = node.op.name in ("placeholder", "variable")
        for i, spec in enumerate(node.out_specs):
            key = (node.uid, i)
            if pinned_alive or key in output_keys:
                free = last
            else:
                free = last_use.get(key, step)
            lifetimes[key] = TensorLifetime(
                key=key,
                nbytes=spec.nbytes,
                category=_category_of(node, last_stage.get(key)),
                alloc_step=step,
                free_step=free,
                scope=node.scope,
            )
        workspace.append(node.op.workspace_bytes(node))
    keys = list(lifetimes)
    free_steps = [life.free_step for life in lifetimes.values()]
    free_order = [
        keys[i] for i in sorted(range(len(keys)), key=free_steps.__getitem__)
    ]
    return ScheduleLiveness(order, lifetimes, free_order, workspace)


def plan_memory(
    order: Sequence[Node],
    outputs: Iterable[Tensor],
    pinned_categories: Mapping[TensorKey, Category] | None = None,
    liveness: ScheduleLiveness | None = None,
) -> MemoryPlan:
    """Compute liveness, categories, and the footprint timeline.

    ``outputs`` are kept alive to the end of the iteration. ``pinned_categories``
    overrides the category of specific tensors (the training executor pins
    final parameter gradients as ``GRADIENT``). ``liveness`` is
    ``schedule_liveness(order, outputs)`` when the caller already holds it
    for this schedule; re-planning one schedule under different pins then
    repeats only the categorisation and the timeline.
    """
    if liveness is None:
        liveness = schedule_liveness(order, outputs)
    order = liveness.order
    num_steps = len(order)
    lifetimes = dict(liveness.lifetimes)
    for key, category in (pinned_categories or {}).items():
        life = lifetimes.get(key)
        if life is not None and life.category is not category:
            lifetimes[key] = replace(life, category=category)

    # Sweep the timeline: two cursors, one over the tensors in allocation
    # order and one in free order.
    allocs = list(lifetimes.values())
    frees = [lifetimes[key] for key in liveness.free_order]
    count = len(allocs)
    next_alloc = next_free = 0
    live_by_cat: dict[Category, int] = defaultdict(int)
    live_total = 0
    pool_hwm = 0
    max_ws_live = 0
    timeline: list[int] = []
    peak_bytes = -1
    peak_step = 0
    peak_by_category: dict[Category, int] = {}
    max_by_category: dict[Category, int] = defaultdict(int)

    for step, ws in enumerate(liveness.workspace):
        while next_alloc < count and allocs[next_alloc].alloc_step == step:
            life = allocs[next_alloc]
            next_alloc += 1
            live_by_cat[life.category] += life.nbytes
            live_total += life.nbytes
        if ws > pool_hwm:
            pool_hwm = ws

        # The timeline charges each step its *own* workspace request, not
        # the pool's running high-water mark: the pool holds the largest
        # buffer ever requested, but those bytes only coincide with live
        # tensors at the step that actually requests them. (The HWM itself
        # is still reported, as ``workspace_pool_hwm``.)
        live = live_total + ws
        timeline.append(live)
        for cat, nbytes in live_by_cat.items():
            if nbytes > max_by_category[cat]:
                max_by_category[cat] = nbytes
        ws_live = live_by_cat.get(Category.WORKSPACE, 0) + ws
        if ws_live > max_ws_live:
            max_ws_live = ws_live
        if live > peak_bytes:
            peak_bytes = live
            peak_step = step
            peak_by_category = dict(live_by_cat)
            peak_by_category[Category.WORKSPACE] = (
                peak_by_category.get(Category.WORKSPACE, 0) + ws
            )

        while next_free < count and frees[next_free].free_step == step:
            life = frees[next_free]
            next_free += 1
            live_by_cat[life.category] -= life.nbytes
            live_total -= life.nbytes

    leftover = {c: b for c, b in live_by_cat.items() if b}
    expected = {
        life.category
        for life in lifetimes.values()
        if life.free_step == num_steps - 1
    }
    # Everything still live at the end must be a pinned/output category.
    for cat in leftover:
        if cat not in expected:
            raise AssertionError(f"allocator leak in category {cat}")

    max_by_category[Category.WORKSPACE] = max(
        max_by_category.get(Category.WORKSPACE, 0), max_ws_live
    )
    return MemoryPlan(
        order=list(order),
        lifetimes=lifetimes,
        timeline=timeline,
        peak_bytes=peak_bytes,
        peak_step=peak_step,
        peak_by_category=peak_by_category,
        workspace_pool_hwm=pool_hwm,
        max_by_category=dict(max_by_category),
    )
