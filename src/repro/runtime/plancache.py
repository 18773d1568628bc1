"""Shape-keyed plan cache: share schedules, memory plans, and compiled plans.

``BucketedTrainer`` builds one training graph per sequence-length bucket and
the Echo pass re-plans the same graph many times while searching (and again
per rollback victim). Both end up re-running ``schedule`` + ``plan_memory``
on structurally identical graphs. The cache keys every planning artifact by
a *graph signature* — a structural fingerprint over the topological order —
so repeated plans are O(signature) instead of O(plan).

Node uids are globally unique per process, so two different graphs can never
collide; and Echo's rewrites change node priorities/inputs in place, which
changes the signature, so a stale entry is never served. When Echo rolls a
rewrite *back*, the signature returns to its previous value and the cached
plan for it is — correctly — reused.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping, Sequence

import os

from repro.graph import GraphFacts, Tensor
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.compiled import Arena, CompiledPlan
from repro.runtime.memory import (
    Category,
    MemoryPlan,
    ScheduleLiveness,
    TensorKey,
    plan_memory,
    schedule_liveness,
)
from repro.runtime.scheduler import schedule


def _maybe_verify(plan: CompiledPlan, facts: GraphFacts) -> None:
    """Statically verify a freshly compiled plan when ``REPRO_VERIFY`` is on.

    The env check is inline so the disabled path costs one dict lookup and
    never imports :mod:`repro.analysis`. Runs on cache misses only (the
    builder path), so a cached plan is verified exactly once.
    ``REPRO_VERIFY=full`` (or ``equiv``) selects the translation-validation
    tier: symbolic equivalence certification on top of the safety checks.
    """
    raw = os.environ.get("REPRO_VERIFY", "").strip().lower()
    if raw not in ("1", "true", "yes", "on", "full", "equiv"):
        return
    from repro.analysis.verify import assert_plan_safe

    start = time.perf_counter()
    with obs_trace.span("plan.verify", "plan",
                        {"tier": "equiv" if raw in ("full", "equiv")
                         else "safety"}):
        assert_plan_safe(plan, equiv=raw in ("full", "equiv"), facts=facts)
    reg = obs_metrics.registry()
    if reg is not None:
        reg.histogram("plan.verify_s").observe(time.perf_counter() - start)


def graph_signature(outputs: Sequence[Tensor]) -> Hashable:
    """Structural fingerprint of the graph reachable from ``outputs``.

    The :attr:`~repro.graph.GraphFacts.signature` of the graph's current
    state; callers that go on to plan the state should hold the
    :class:`~repro.graph.GraphFacts` record instead (one walk for both).
    """
    return GraphFacts(outputs).signature


#: sentinel distinguishing "no store given" (report the REPRO_TUNE_DIR
#: default) from an explicit ``store=None``
_UNSET: Any = object()


class PlanCache:
    """LRU cache of planning artifacts keyed by graph signature.

    One instance can be shared by many executors (the ``BucketedTrainer``
    shares one across buckets, like executors sharing a device memory
    pool). ``hits``/``misses`` count builder invocations saved/paid.

    The cache is thread-safe: lookup, insertion, and LRU eviction run
    under one reentrant lock, so the wavefront worker pool and the
    serving layer's concurrent sessions can share an instance. The lock
    is held *across the builder call* — concurrent requests for the same
    key build exactly once — and is reentrant because builders legally
    nest (compiling a serving decoder memoizes its schedule, memory
    plan, and compiled plan through the same cache).

    ``store`` plays no part in planning: every artifact is computed from
    the graph and the cost model. The cache only names the tuning store
    (by default the ``REPRO_TUNE_DIR`` one) whose counters
    ``InferenceSession.warmup`` and ``repro.obs.dump`` report; the
    parameter goes with harness v2 (ROADMAP item 2).
    """

    def __init__(self, capacity: int = 64, store: Any = _UNSET) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: latest :class:`GraphFacts` record per output-key tuple
        self._facts: OrderedDict[Hashable, GraphFacts] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self._store = store

    @property
    def store(self) -> Any:
        """The tuning store reports read their counters from (or None).

        The default re-resolves on each access until a store exists, so
        setting ``REPRO_TUNE_DIR`` after this cache was constructed (the
        common test pattern — and the process-wide default cache is built
        at import time) still takes effect.
        """
        if self._store is _UNSET:
            from repro.pgo.store import default_store

            resolved = default_store()
            if resolved is not None:
                self._store = resolved
            return resolved
        return self._store

    # -- generic memoization -------------------------------------------------

    def memo(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use."""
        traced = obs_trace.TRACING
        reg = obs_metrics.registry()
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                if reg is not None:
                    reg.counter("plancache.misses").inc()
                if traced:
                    kind = key[0] if isinstance(key, tuple) and key else key
                    with obs_trace.span(
                        "cache.lookup", "cache",
                        {"hit": False, "kind": str(kind)},
                    ):
                        value = builder()
                else:
                    value = builder()
                self._entries[key] = value
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                return value
            self.hits += 1
            if reg is not None:
                reg.counter("plancache.hits").inc()
            if traced:
                kind = key[0] if isinstance(key, tuple) and key else key
                with obs_trace.span(
                    "cache.lookup", "cache", {"hit": True, "kind": str(kind)}
                ):
                    pass
            self._entries.move_to_end(key)
            return value

    # -- graph facts ----------------------------------------------------------

    def facts_for(self, outputs: Sequence[Tensor]) -> GraphFacts:
        """The :class:`GraphFacts` record of ``outputs``' current state.

        The cache keeps the latest record per list of outputs and hands it
        back for as long as :meth:`GraphFacts.is_current` holds — so the
        Echo pass's final re-plan, the executor built right after it and a
        later ``verify`` all read one record. A stale record (the graph
        was rewritten since) is replaced by a fresh walk that inherits its
        per-node costs.
        """
        return self._facts_lookup(outputs)[0]

    def _facts_lookup(
        self, outputs: Sequence[Tensor], facts: GraphFacts | None = None
    ) -> tuple[GraphFacts, bool]:
        """``(record, whether it was reused)``; ``facts`` is the caller's
        own record, when it holds one."""
        if facts is not None:
            return facts, True
        key = tuple([t.key for t in outputs])
        reg = obs_metrics.registry()
        with self._lock:
            held = self._facts.get(key)
            if held is not None and held.is_current():
                self._facts.move_to_end(key)
                if reg is not None:
                    reg.counter("plan.facts.reuses").inc()
                return held, True
            facts = GraphFacts(outputs, inherit=held)
            self._remember(key, facts)
            if reg is not None:
                reg.counter("plan.facts.builds").inc()
            return facts, False

    def _remember(self, key: Hashable, facts: GraphFacts) -> None:
        self._facts[key] = facts
        self._facts.move_to_end(key)
        while len(self._facts) > self.capacity:
            self._facts.popitem(last=False)

    # -- planning artifacts --------------------------------------------------

    def schedule_for(
        self,
        outputs: Sequence[Tensor],
        facts: GraphFacts | None = None,
    ) -> list:
        """Cached ``schedule(outputs)``; returns a fresh list each call.

        ``facts`` is the :class:`GraphFacts` record of this graph state
        when the caller already holds it (callers planning one state
        several times fetch it once, from :meth:`facts_for`).
        """
        facts, reused = self._facts_lookup(outputs, facts)

        def build() -> list:
            with obs_trace.span(
                "plan.schedule", "plan", {"facts_reused": reused}
            ):
                return schedule(outputs, facts=facts)

        order = self.memo(("schedule", facts.signature), build)
        return list(order)

    def plan_for(
        self,
        outputs: Sequence[Tensor],
        pinned_categories: Mapping[TensorKey, Category] | None = None,
        order: Sequence | None = None,
        facts: GraphFacts | None = None,
    ) -> MemoryPlan:
        """Cached ``plan_memory`` for the graph (+ pinned categories).

        The order-only liveness sweep is kept on the state's facts record,
        so planning one schedule again under different pins (the training
        executor's pinned gradients, right after Echo planned the same
        schedule unpinned) repeats only categorisation and the timeline.
        """
        facts, reused = self._facts_lookup(outputs, facts)
        pinned_key = (
            tuple(sorted(pinned_categories.items()))
            if pinned_categories
            else ()
        )

        def build() -> MemoryPlan:
            planned = (
                list(order) if order is not None
                else schedule(outputs, facts=facts)
            )
            liveness: ScheduleLiveness | None = facts.liveness
            if liveness is not None and liveness.order != planned:
                liveness = None  # a different schedule of the same state
            with obs_trace.span(
                "plan.memory", "plan",
                {"pinned": len(pinned_key), "facts_reused": reused,
                 "liveness_reused": liveness is not None},
            ):
                if liveness is None:
                    liveness = schedule_liveness(planned, outputs)
                    facts.liveness = liveness
                    reg = obs_metrics.registry()
                    if reg is not None:
                        reg.counter("plan.liveness.builds").inc()
                return plan_memory(
                    planned, outputs, pinned_categories, liveness
                )

        return self.memo(("memory", facts.signature, pinned_key), build)

    def compiled_for(
        self,
        outputs: Sequence[Tensor],
        arena: Arena,
        fuse: bool = True,
        order: Sequence | None = None,
        threads: int = 1,
        batch_gemms: bool | None = None,
        device: Any | None = None,
        facts: GraphFacts | None = None,
    ) -> CompiledPlan:
        """Cached :class:`CompiledPlan` for (graph, arena, thread config).

        Keyed by ``id(arena)``/``id(device)`` — safe because the cached
        plan holds references to both, so the ids cannot be recycled while
        the entry lives. Thread count and batching are part of the key: a
        serial and a wavefront-parallel plan for the same graph are
        different lowered programs and coexist in the cache.
        """
        facts = self._facts_lookup(outputs, facts)[0]
        sig = facts.signature
        key = (
            "compiled", sig, id(arena), fuse, threads, batch_gemms,
            id(device) if device is not None else None,
        )
        def build() -> CompiledPlan:
            start = time.perf_counter()
            plan = CompiledPlan(
                order if order is not None
                else schedule(outputs, facts=facts),
                outputs,
                arena=arena,
                fuse=fuse,
                threads=threads,
                batch_gemms=batch_gemms,
                device=device,
            )
            _maybe_verify(plan, facts)
            reg = obs_metrics.registry()
            if reg is not None:
                reg.histogram("plan.compile_s").observe(
                    time.perf_counter() - start
                )
            return plan

        def traced_build() -> CompiledPlan:
            with obs_trace.span(
                "plan.compile", "plan",
                {"threads": threads, "fuse": fuse},
            ):
                return build()

        return self.memo(key, traced_build if obs_trace.TRACING else build)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> tuple[int, int]:
        """Consistent ``(hits, misses)`` snapshot (for serving metrics)."""
        with self._lock:
            return self.hits, self.misses

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._facts.clear()


class NullPlanCache(PlanCache):
    """A cache that never retains anything (every call rebuilds).

    Used by parity tests to prove cached planning changes no results, and
    available to callers who want the old always-rebuild behavior.
    """

    def memo(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        with self._lock:
            self.misses += 1
            return builder()

    def _remember(self, key: Hashable, facts: GraphFacts) -> None:
        pass


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide shared plan cache."""
    return _DEFAULT_CACHE
