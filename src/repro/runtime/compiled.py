"""Compiled execution plans: the training hot loop without an interpreter.

The seed executor walked the schedule as a dict-keyed interpreter: per-step
``TensorKey`` lookups, a ``placeholder/variable`` branch, per-node
try/except plumbing, per-output shape checks, and a fresh numpy allocation
for every intermediate on every iteration. A :class:`CompiledPlan` is that
walk done once, in three steps, each owned by its own module:

1. :func:`repro.runtime.lowering.lower` — slots, fusion, the static
   buffer plan, register clears and rewrite witnesses, as one
   :class:`~repro.runtime.lowering.PlanLowering` record;
2. :mod:`repro.runtime.codegen` — one templated closure per instruction
   and a straight-line dispatch body;
3. :meth:`CompiledPlan.run` — bind the feeds through the plan's generated
   binder, call the body, hand back the outputs it gathers; on a kernel
   failure, replay step by step to name the node. Weights that stay put
   across runs (a decode loop's) are validated once by
   :meth:`CompiledPlan.bind`, and each run then binds only its feeds.

A plan has one shape: it runs its instructions one after another on the
calling thread. There is no intra-plan parallel layer — no plan any model
here builds ever had a dependency level worth a thread hand-off, and
running instructions concurrently stops their buffers from sharing
memory (DESIGN.md §14).

Numerics are bitwise-identical to a plain topological walk calling each
op's ``compute`` (``tests/helpers.reference_run``). The simulated *cost*
and *memory* models stay node-based: plans report the same per-node
timings and the memory planner sees the original schedule, so every
figure reproduction is unchanged — only the host-side execution gets
faster.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.graph import Node, Tensor
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.arena import Arena
from repro.runtime.codegen import BoundParams, ExecutionError, PlanCodegen
from repro.runtime.lowering import SOURCE_OPS, lower


def _failing_node(step: Any, regs: list) -> Node:
    """The node to blame when ``step`` raised on the register file ``regs``.

    A fused step runs several kernels: its chain is walked again through
    plain ``compute`` calls and the first member that raises is named (the
    tail when none does — a head that had already overwritten its in-place
    operand may not fail twice).
    """
    acc = None
    for op, member, pattern in getattr(step, "_chain", ()):
        try:
            acc = op.compute(
                member, [acc if s < 0 else regs[s] for s in pattern]
            )[0]
        except Exception:
            return member
    return step._node


class CompiledPlan:
    """A schedule lowered to slot-indexed instruction closures.

    Built once per (graph, arena); :meth:`run` executes one iteration.
    The plan's static buffers are reused across iterations, so a plan (and
    any plan sharing its arena) must not run re-entrantly; the training
    loop runs one iteration to completion at a time, matching the seed.
    """

    #: Always 0: a plan has no parallel levels. Kept only because
    #: ``benchmarks/harness`` reads them (ROADMAP item 1 removes them).
    parallel_level_count = 0
    parallel_instruction_count = 0
    max_wavefront_width = 0

    def __init__(
        self,
        order: Sequence[Node],
        outputs: Sequence[Tensor],
        arena: Arena | None = None,
        fuse: bool = True,
    ) -> None:
        self.order = list(order)
        self.outputs = list(outputs)
        self.arena = arena if arena is not None else Arena()
        self.fuse = fuse
        #: result arrays allocated by generic (non-``out=``) instructions,
        #: cumulative across completed runs (benchmarks read deltas)
        self.generic_alloc_count = 0
        with obs_trace.span(
            "plan.lower", "plan", {"nodes": len(self.order)}
        ):
            self._compile()

    def _compile(self) -> None:
        order = self.order
        #: compile-time record for the static analyzers (repro.analysis)
        self.lowering = low = lower(order, self.outputs, self.arena, self.fuse)
        descs, slot_of = low.descs, low.slot_of

        # The register file a run starts from: constants here, then every
        # register codegen fixes (static buffers, views of static storage);
        # sources are bound per run.
        template: list[np.ndarray | None] = [None] * len(slot_of)
        bindings: list[tuple[int, Node, str]] = []
        for n in order:
            if n.op.name == "constant":
                template[slot_of[(n.uid, 0)]] = n.attrs["value"]
            elif n.op.name in SOURCE_OPS:
                bindings.append((slot_of[(n.uid, 0)], n, n.op.name))

        gen = PlanCodegen()
        steps = gen.bake_steps(low, template)
        #: the baked steps in stream order (folded views have none)
        self._steps = [step for step in steps if step is not None]
        #: descriptors folded into the template instead of baked
        self.folded_view_count = len(steps) - len(self._steps)
        self._output_slots = [slot_of[t.key] for t in self.outputs]
        # The dispatch loop itself is baked as one generated function —
        # a straight-line sequence of step calls with no iterator
        # machinery, returning the outputs. Error context is recovered by
        # the step-by-step fallback in :meth:`run`.
        self._body = gen.bake_body(self._output_slots)
        self._template = template
        self._bind = gen.bake_binder(template, bindings)
        #: closure sources this plan had to ``compile`` / found in the
        #: process-wide :data:`repro.runtime.codegen.TEMPLATES` memo
        self.templates_compiled = gen.templates_compiled
        self.template_hits = gen.template_hits
        #: results the generic steps allocate per run
        self.generic_outputs_per_run = gen.generic_outputs
        self._slot_of = slot_of
        #: ``Arena.count_fresh`` arguments of one run: the escaping
        #: outputs its ``out`` and fused steps allocate
        self.fresh_per_run = (
            gen.fresh_count, gen.fresh_bytes, gen.zero_byte_count
        )

        reg = obs_metrics.registry()
        if reg is not None:
            reg.counter("plan.codegen.templates_compiled").inc(
                self.templates_compiled
            )
            reg.counter("plan.codegen.template_hits").inc(self.template_hits)

        kinds = {"out": 0, "generic": 0, "view": 0, "fused": 0, "alias": 0}
        for desc in descs:
            kinds[desc["kind"]] += 1
        self.instruction_kinds = kinds
        self.num_nodes = len(order)
        self.num_instructions = len(bindings) + len(descs)
        self.fused_chain_count = kinds["fused"]
        self.fused_node_count = sum(
            len(d["chain"]) for d in descs if d["kind"] == "fused"
        )
        self.static_slot_count = len(low.static_views)
        self.static_storage_bytes = sum(low.static_bases.values())
        #: copy kernels rewritten to register-view aliases
        self.elided_copy_count = sum(
            len(e["out_slots"]) for e in low.memplan.elided
        )
        #: instructions writing ``out=`` into a dying input's storage
        self.inplace_write_count = len(low.memplan.inplace)
        #: interval waterline of the packed static buffers (lower bound)
        self.planned_peak_bytes = low.memplan.planned_peak_bytes
        #: achieved extent size of the packing
        self.packed_extent_bytes = low.memplan.extent_bytes

    # -- execution -----------------------------------------------------------

    def output_ready_items(self) -> list[int]:
        """For each plan output, the run item after which its register holds
        the final value: ``0`` for every output, because a plan runs as one
        body and its ``on_item`` hook fires once, at the end."""
        return [0] * len(self._output_slots)

    def output_value(self, regs: list, index: int) -> np.ndarray:
        """Read plan output ``index`` from a live register file (for
        ``on_item`` hook consumers)."""
        return regs[self._output_slots[index]]

    def bind(
        self, params: Mapping[str, np.ndarray] | None = None
    ) -> BoundParams:
        """Validate and bind the plan's weights once, for many runs.

        Runs the binder's ``variable`` blocks — the same checks, error
        text and conversions as ``run(feeds, params)`` — and returns the
        :class:`~repro.runtime.codegen.BoundParams` that :meth:`run`
        accepts in place of ``params``; a run given it binds only its
        feeds.
        """
        return BoundParams(self, self._bind(None, params or {}))

    def run(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        params: Mapping[str, np.ndarray] | BoundParams | None = None,
        on_item: Any | None = None,
    ) -> list[np.ndarray]:
        """Execute one iteration; returns the output arrays.

        ``params`` is a mapping of weights, or what :meth:`bind` returned
        for this plan. ``on_item(0, regs)`` is invoked once the body has
        run, with the live register file. Hook consumers may *read* output
        registers (see :meth:`output_value`) but must never write any;
        exceptions propagate as they are and abort the run.

        A completed run adds its escaping outputs to the arena's counters
        (:meth:`Arena.count_fresh`) in one call.
        """
        feeds = feeds or {}
        params = params or {}
        regs = self._bind(feeds, params)
        try:
            if obs_trace.TRACING:
                with obs_trace.span("exec.body", "exec"):
                    outputs = self._body(regs)
            else:
                outputs = self._body(regs)
        except ExecutionError:
            raise
        except Exception as first:
            # Slow path, failures only: re-execute step by step from fresh
            # registers to attribute the failure to a node. Kernels are
            # deterministic (dropout is counter-based on the already-set
            # global step), so the replay reproduces the same failure.
            regs = self._bind(feeds, params)
            step = None
            try:
                for step in self._steps:
                    step(regs)
            except ExecutionError:
                raise
            except Exception as exc:
                node = _failing_node(step, regs) if step is not None else None
                raise ExecutionError(
                    f"kernel failure in {node!r}: {exc}"
                ) from exc
            raise ExecutionError(f"kernel failure: {first}") from first
        if on_item is not None:
            on_item(0, regs)
        self.generic_alloc_count += self.generic_outputs_per_run
        self.arena.count_fresh(*self.fresh_per_run)
        return outputs
