"""Compiled execution plans: the training hot loop without an interpreter.

The seed executor walked the schedule as a dict-keyed interpreter: per-step
``TensorKey`` lookups, a ``placeholder/variable`` branch, per-node
try/except plumbing, per-output shape checks, and a fresh numpy allocation
for every intermediate on every iteration. A :class:`CompiledPlan` is that
walk done once, in four steps, each owned by its own module:

1. :func:`repro.runtime.lowering.lower` — slots, fusion, GEMM batching,
   the static buffer plan, register clears and rewrite witnesses, as one
   :class:`~repro.runtime.lowering.PlanLowering` record;
2. with ``threads > 1``, the wavefront program
   (:mod:`repro.runtime.wavefront`): cost-gated dependency levels run on a
   worker pool (:mod:`repro.runtime.workers`);
3. :mod:`repro.runtime.codegen` — one templated closure per instruction
   and a straight-line dispatch body;
4. :meth:`CompiledPlan.run` — bind the feeds through the plan's generated
   binder, call the body, hand back the outputs; on a kernel failure,
   replay step by step to name the node.

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
from repro.runtime.codegen import ExecutionError, PlanCodegen
from repro.runtime.lowering import SOURCE_OPS, lower
from repro.runtime.wavefront import bake_program, plan_program
from repro.runtime.workers import shared_pool


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

    Built once per (graph, arena, thread config); :meth:`run` executes one
    iteration. The plan's static buffers are reused across iterations, so
    a plan (and any plan sharing its arena) must not run re-entrantly; the
    training loop runs one iteration to completion at a time, matching the
    seed. With ``threads > 1`` a single iteration's independent
    instructions overlap internally, but the iteration still runs to
    completion before the next begins.
    """

    def __init__(
        self,
        order: Sequence[Node],
        outputs: Sequence[Tensor],
        arena: Arena | None = None,
        fuse: bool = True,
        threads: int = 1,
        device: Any | None = None,
    ) -> None:
        self.order = list(order)
        self.outputs = list(outputs)
        self.arena = arena if arena is not None else Arena()
        self.fuse = fuse
        self.threads = max(1, int(threads))
        #: result arrays allocated by generic (non-``out=``) instructions,
        #: cumulative across completed runs (benchmarks read deltas)
        self.generic_alloc_count = 0
        #: program item finalizing each slot's value (wavefront plans);
        #: drives the level-completion hook consumers key overlap off of
        self._item_of_slot: dict[int, int] = {}
        #: wavefront structure; all zero for a serial plan
        self.wavefront_region_count = 0
        self.wavefront_level_count = 0
        self.parallel_level_count = 0
        #: multi-instruction levels the host-seconds gate kept serial
        self.gated_level_count = 0
        self.parallel_instruction_count = 0
        self.max_wavefront_width = 0
        #: modelled host seconds per run the parallel levels save, net of
        #: their hand-offs (what the gate priced; 0 for a serial plan)
        self.wavefront_saving_seconds = 0.0
        with obs_trace.span(
            "plan.lower", "plan",
            {"nodes": len(self.order), "threads": self.threads},
        ) as sp:
            self._compile(device)
            if self.threads > 1:  # serial plans never reach the gate
                sp["wavefront_levels"] = self.wavefront_level_count
                sp["wavefront_levels_parallel"] = self.parallel_level_count
                sp["wavefront_levels_gated"] = self.gated_level_count
                sp["wavefront_saving_s"] = self.wavefront_saving_seconds

    def _compile(self, device: Any | None) -> None:
        order = self.order
        #: compile-time record for the static analyzers (repro.analysis)
        self.lowering = low = lower(
            order, self.outputs, self.arena, self.fuse, self.threads
        )
        descs, slot_of = low.descs, low.slot_of
        layout = None
        if self.threads > 1 and descs:
            layout = plan_program(self, low, device)

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

        gen = PlanCodegen(self.arena)
        # In program mode register clears move to segment/level
        # boundaries — level order may execute a slot's stream-last
        # consumer before another consumer in a deeper level, so inline
        # clears keyed by stream position would be unsafe.
        steps = gen.bake_steps(
            low, low.clears_at if layout is None else {}, template
        )
        #: the baked steps in stream order (folded views have none)
        self._steps = [step for step in steps if step is not None]
        #: descriptors folded into the template instead of baked
        self.folded_view_count = len(steps) - len(self._steps)
        # The dispatch loop itself is baked as one generated function —
        # a straight-line sequence of step calls with no iterator
        # machinery. Error context is recovered by the step-by-step
        # fallback in :meth:`run`.
        self._body = gen.bake_body(range(len(steps)), ())
        self._program = None
        if layout is not None:
            self._program = bake_program(
                self, gen, layout, descs, low.clears_at
            )
        self._bind = gen.bake_binder(template, bindings)
        #: closure sources this plan had to ``compile`` / found in the
        #: process-wide :data:`repro.runtime.codegen.TEMPLATES` memo
        self.templates_compiled = gen.templates_compiled
        self.template_hits = gen.template_hits
        #: results the generic steps allocate per run
        self.generic_outputs_per_run = gen.generic_outputs
        self._slot_of = slot_of
        self._output_slots = [slot_of[t.key] for t in self.outputs]

        reg = obs_metrics.registry()
        if reg is not None:
            reg.counter("plan.codegen.templates_compiled").inc(
                self.templates_compiled
            )
            reg.counter("plan.codegen.template_hits").inc(self.template_hits)
            for name, count in (
                ("levels", self.wavefront_level_count),
                ("levels_parallel", self.parallel_level_count),
                ("levels_gated", self.gated_level_count),
            ):
                reg.counter(f"plan.wavefront.{name}").inc(count)

        kinds = {
            "out": 0, "generic": 0, "view": 0, "fused": 0, "batched": 0,
            "alias": 0,
        }
        for desc in descs:
            kinds[desc["kind"]] += 1
        self.instruction_kinds = kinds
        self.num_nodes = len(order)
        self.num_instructions = len(bindings) + len(descs)
        self.fused_chain_count = kinds["fused"]
        self.fused_node_count = sum(
            len(d["chain"]) for d in descs if d["kind"] == "fused"
        )
        self.batched_gemm_groups = kinds["batched"]
        self.batched_gemm_nodes = sum(
            len(d["nodes"]) for d in descs if d["kind"] == "batched"
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

    @property
    def program_item_count(self) -> int:
        """Number of level-completion hook firings per run (>= 1)."""
        return len(self._program) if self._program is not None else 1

    def output_ready_items(self) -> list[int]:
        """For each plan output, the program item after which its register
        holds the final value.

        Serial plans (no wavefront program) run as one body, so every
        output is item ``0`` — the hook fires once, at the end. Consumers
        overlapping work with execution (distributed gradient reduction)
        compare these indices against the hook's item argument; output
        registers are pinned, never recycled (LT104), so reading one
        after its item completes is safe while later items execute.
        """
        if self._program is None:
            return [0] * len(self._output_slots)
        return [
            self._item_of_slot.get(s, 0) for s in self._output_slots
        ]

    def output_value(self, regs: list, index: int) -> np.ndarray:
        """Read plan output ``index`` from a live register file.

        For hook consumers: valid once ``output_ready_items()[index]``
        has retired (the register is pinned thereafter).
        """
        return regs[self._output_slots[index]]

    def run(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        params: Mapping[str, np.ndarray] | None = None,
        on_item: Any | None = None,
    ) -> list[np.ndarray]:
        """Execute one iteration; returns the output arrays.

        ``on_item(item_index, regs)`` — the level-completion hook — is
        invoked after each program item (serial segment or parallel
        level) retires, with the live register file. Hook consumers may
        *read* registers whose finalizing item has passed (see
        :meth:`output_ready_items`) but must never write any; exceptions
        propagate and abort the run.
        """
        feeds = feeds or {}
        params = params or {}
        regs = self._bind(feeds, params)
        hook_error: list[BaseException] = []

        def fire(item_idx: int) -> None:
            try:
                on_item(item_idx, regs)
            except BaseException as exc:
                # Remember it: hook failures must reach the caller as-is
                # (the distributed trainer dispatches on them), not be
                # re-attributed to a kernel by the replay below.
                hook_error.append(exc)
                raise

        traced = obs_trace.TRACING
        try:
            if self._program is None:
                if traced:
                    with obs_trace.span("exec.body", "exec"):
                        self._body(regs)
                else:
                    self._body(regs)
                if on_item is not None:
                    fire(0)
            else:
                # Resolved per run, never cached on the plan: a forked
                # child inherits the plan but not the pool's threads.
                pool = shared_pool(self.threads - 1)
                for item_idx, (kind, payload, clears) in enumerate(
                    self._program
                ):
                    if kind == "serial":
                        if traced:
                            with obs_trace.span(
                                "wavefront.item", "exec",
                                {"item": item_idx, "kind": "serial"},
                            ):
                                payload(regs)
                        else:
                            payload(regs)
                    else:
                        if traced:
                            with obs_trace.span(
                                "wavefront.item", "exec",
                                {"item": item_idx, "kind": "level",
                                 "chunks": len(payload)},
                            ):
                                pool.run_level(payload, regs)
                        else:
                            pool.run_level(payload, regs)
                        for s in clears:
                            regs[s] = None
                    if on_item is not None:
                        fire(item_idx)
        except ExecutionError:
            raise
        except Exception as first:
            if hook_error:
                raise
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
        self.generic_alloc_count += self.generic_outputs_per_run
        return [regs[s] for s in self._output_slots]
