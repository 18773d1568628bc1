"""The Echo pass driver: mine -> select -> rewrite -> verify.

Selection is a greedy knapsack over candidate regions ordered by
bytes-saved per recompute-second, under the configured overhead budget.
After rewriting, the pass re-plans the memory timeline and rolls back the
weakest candidates if the *measured* peak failed to improve — recomputation
must never increase the footprint (the paper's safety property; naive
checkpointing can violate it through stash-set growth or eager workspace
spikes). The peak scored is the memory plan's waterline, the same figure
the report carries.

Planning artifacts (schedule, memory plan, iteration cost) are memoized in
a :class:`repro.runtime.plancache.PlanCache` keyed by graph signature: the
rollback loop repeatedly re-plans the same intermediate graph states, and
rolling a rewrite back restores a previously-seen signature, so the replay
becomes cache hits instead of full re-simulations. Results are identical
by construction — the cache only skips rebuilding what the same signature
already built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph import GraphFacts
from repro.autodiff.training import TrainingGraph
from repro.echo.analysis import (
    Candidate,
    estimate_iteration_cost,
    mine_candidates,
)
from repro.echo.config import EchoConfig
from repro.echo.rewrite import AppliedCandidate, ConsumerIndex, apply_candidate
from repro.gpumodel import DeviceModel
from repro.graph import Node, Stage
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.collector import pauses_collector
from repro.runtime.memory import MemoryPlan
from repro.runtime.plancache import PlanCache, default_plan_cache


@dataclass
class EchoReport:
    """What the pass did and what it bought."""

    baseline_peak_bytes: int
    optimized_peak_bytes: int
    candidates_found: int
    accepted: list[Candidate] = field(default_factory=list)
    rejected_low_benefit: int = 0
    rejected_budget: int = 0
    rolled_back: int = 0
    recompute_seconds: float = 0.0
    iteration_seconds: float = 0.0
    baseline_plan: MemoryPlan | None = None
    optimized_plan: MemoryPlan | None = None
    #: canonical output fingerprint of the *source* graph, captured before
    #: any rewrite when REPRO_VERIFY is armed (else ""); mirror-normalized,
    #: so a faithful rewrite leaves it unchanged
    source_fingerprint: str = ""
    #: :class:`repro.analysis.witness.MirrorWitness` per surviving mirror
    mirror_witnesses: list = field(default_factory=list)

    @property
    def footprint_reduction(self) -> float:
        return self.baseline_peak_bytes / max(self.optimized_peak_bytes, 1)

    @property
    def overhead_fraction(self) -> float:
        return self.recompute_seconds / max(self.iteration_seconds, 1e-30)

    @property
    def bytes_saved(self) -> int:
        return self.baseline_peak_bytes - self.optimized_peak_bytes

    def format(self) -> str:
        return (
            f"Echo: {self.candidates_found} candidates, "
            f"{len(self.accepted)} accepted "
            f"({self.rejected_low_benefit} low-benefit, "
            f"{self.rejected_budget} over-budget, "
            f"{self.rolled_back} rolled back); "
            f"peak {self.baseline_peak_bytes / 2**20:.1f} -> "
            f"{self.optimized_peak_bytes / 2**20:.1f} MiB "
            f"({self.footprint_reduction:.2f}x), recompute overhead "
            f"{100 * self.overhead_fraction:.2f}% of iteration"
        )


class EchoPass:
    """Automatic selective recomputation over a training graph.

    Mutates the graph in place (backward consumers are re-pointed at
    mirrored recompute nodes); build a fresh graph to get the baseline
    back.
    """

    def __init__(
        self,
        config: EchoConfig | None = None,
        device: DeviceModel | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.config = config or EchoConfig()
        if device is None:
            # Calibrated when REPRO_TUNE_DIR has measured coverage: the
            # accept/reject analysis then prices recompute chains from the
            # host's own kernel timings instead of pure roofline constants.
            from repro.pgo.calibrated import default_device

            device = default_device()
        self.device = device
        self.plan_cache = (
            plan_cache if plan_cache is not None else default_plan_cache()
        )

    def _replan(self, outputs) -> tuple[GraphFacts, list, MemoryPlan]:
        """Schedule + memory-plan the current graph state, memoized.

        Also returns the state's facts record — walked once here and read
        by everything that looks at this state: every memo key (schedule,
        memory plan, iteration cost), the scheduler, the candidate miner's
        per-node costs, the rewrite's consumer index, and — through the
        plan cache — the executor built after the pass. The memory plan's
        ``peak_bytes`` is the score the accept/rollback guard compares.
        """
        facts = self.plan_cache.facts_for(outputs)
        order = self.plan_cache.schedule_for(outputs, facts=facts)
        plan = self.plan_cache.plan_for(outputs, order=order, facts=facts)
        return facts, order, plan

    @pauses_collector
    def run(self, graph: TrainingGraph) -> EchoReport:
        """Run the pass; one ``echo.pass`` span covers the whole search."""
        with obs_trace.span("echo.pass", "echo") as sp:
            report = self._run(graph)
            sp["accepted"] = len(report.accepted)
            sp["rejected_low_benefit"] = report.rejected_low_benefit
            sp["rejected_budget"] = report.rejected_budget
            sp["rolled_back"] = report.rolled_back
            sp["saved_bytes"] = (
                report.baseline_peak_bytes - report.optimized_peak_bytes
            )
        reg = obs_metrics.registry()
        if reg is not None:
            reg.counter("echo.accepted").inc(len(report.accepted))
            reg.counter("echo.rejected_low_benefit").inc(
                report.rejected_low_benefit
            )
            reg.counter("echo.rejected_budget").inc(report.rejected_budget)
            reg.counter("echo.rolled_back").inc(report.rolled_back)
        return report

    def _run(self, graph: TrainingGraph) -> EchoReport:
        cfg = self.config
        outputs = graph.outputs
        output_keys = {t.key for t in outputs}

        # Translation-validation anchor (REPRO_VERIFY armed): the source
        # graph's canonical output fingerprint, captured before any
        # rewrite. Mirror substitution normalizes recompute nodes onto
        # their originals, so a faithful rewrite reproduces it exactly;
        # a mis-pointed consumer or broken mirror changes it.
        source_fp = ""
        from repro.analysis.verify import verification_enabled

        if verification_enabled():
            from repro.analysis.equiv import fingerprint_outputs

            source_fp = fingerprint_outputs(outputs)

        facts, order, baseline_plan = self._replan(outputs)
        sig = facts.signature
        # Keyed by the device's cache token (not just the spec): a
        # calibrated device embeds its calibration epoch, so recalibration
        # invalidates memoized iteration costs automatically.
        device_key = getattr(self.device, "cache_token", self.device.spec)
        iteration = self.plan_cache.memo(
            ("itercost", sig, device_key),
            lambda: estimate_iteration_cost(order, self.device, facts),
        )
        budget = cfg.overhead_budget_fraction * iteration.seconds

        candidates = mine_candidates(
            order,
            output_keys,
            cfg.allow_gemm_recompute,
            self.device,
            fanout_limit=cfg.checkpoint_fanout_limit,
            facts=facts,
        )
        report = EchoReport(
            baseline_peak_bytes=baseline_plan.peak_bytes,
            optimized_peak_bytes=baseline_plan.peak_bytes,
            candidates_found=len(candidates),
            iteration_seconds=iteration.seconds,
            baseline_plan=baseline_plan,
            source_fingerprint=source_fp,
        )

        viable = sorted(
            candidates,
            key=lambda c: c.benefit_bytes / max(c.recompute_seconds, 1e-9),
            reverse=True,
        )

        # Checkpoints shared by several candidates (e.g. the attention key
        # projection read by every decoder step) are paid for once: after a
        # candidate is accepted, its new stashes are free for the rest.
        # Cost accounting is per-stream: kernels and launches overlap, so a
        # candidate's cost is the *marginal* increase in
        # max(kernel stream, API stream) — recomputation hiding in the
        # non-binding stream's slack is free, the paper's launch-bound case.
        # The full and free cones of one component are mutually exclusive:
        # when a component comes up, apply its highest-benefit variant that
        # fits the budget (a free variant must not shadow a bigger full
        # elimination just because its byte/second ratio looks better).
        promised: set[tuple[int, int]] = set()
        applied: list[AppliedCandidate] = []
        decided_components: set[int] = set()
        by_component: dict[int, list[Candidate]] = {}
        for cand in viable:
            by_component.setdefault(cand.component_id, []).append(cand)

        # A border shared by many candidates (the attention key projection
        # read by every decoder step) is stashed once but enables them
        # all, so its cost is amortized over its users — the paper's
        # "identical across all time steps, average storage only O(B x H)"
        # argument. Once some candidate promises it, it is free.
        border_users: dict[tuple[int, int], int] = {}
        for c in viable:
            for t in c.new_stashes:
                border_users[t.key] = border_users.get(t.key, 0) + 1

        def amortized_benefit(c: Candidate) -> float:
            cost = sum(
                t.nbytes / border_users[t.key]
                for t in c.new_stashes
                if t.key not in promised
            )
            return c.eliminated_bytes - cost

        consumer_index = ConsumerIndex(order, facts)
        extra_kernel = extra_api = 0.0
        for cand in viable:
            if cand.component_id in decided_components:
                continue
            variants = sorted(
                by_component[cand.component_id],
                key=amortized_benefit,
                reverse=True,
            )
            chosen = None
            for variant in variants:
                benefit = amortized_benefit(variant)
                if benefit < cfg.min_benefit_bytes:
                    continue
                marginal = iteration.marginal(
                    extra_kernel + variant.kernel_seconds,
                    extra_api + variant.api_seconds,
                )
                if marginal > budget:
                    continue
                chosen = variant
                break
            decided_components.add(cand.component_id)
            if chosen is None:
                # Count the rejection reason of the best variant.
                if amortized_benefit(variants[0]) < cfg.min_benefit_bytes:
                    report.rejected_low_benefit += 1
                else:
                    report.rejected_budget += 1
                continue
            applied.append(
                apply_candidate(
                    chosen, consumer_index, output_keys,
                    cfg.workspace_sharing,
                )
            )
            extra_kernel += chosen.kernel_seconds
            extra_api += chosen.api_seconds
            promised.update(t.key for t in chosen.new_stashes)
            report.accepted.append(chosen)
        spent = iteration.marginal(extra_kernel, extra_api)

        if not applied:
            report.optimized_plan = baseline_plan
            return report

        _, new_order, new_plan = self._replan(outputs)

        if cfg.verify_with_replan:
            # Footprint safety: drop weakest candidates until the re-planned
            # peak actually improves on the baseline (or nothing is left).
            while new_plan.peak_bytes >= baseline_plan.peak_bytes and applied:
                weakest = min(
                    range(len(applied)),
                    key=lambda i: applied[i].candidate.benefit_bytes,
                )
                victim = applied.pop(weakest)
                victim.rollback()
                report.accepted.remove(victim.candidate)
                report.rolled_back += 1
                extra_kernel -= victim.candidate.kernel_seconds
                extra_api -= victim.candidate.api_seconds
                spent = iteration.marginal(extra_kernel, extra_api)
                _, new_order, new_plan = self._replan(outputs)

        check_barrier_legality(new_order)
        self._verify_rewrite(new_order, output_keys)
        report.mirror_witnesses = [
            w for a in applied for w in a.witnesses
        ]
        if source_fp:
            self._certify_fingerprint(outputs, source_fp)

        report.recompute_seconds = spent
        report.optimized_peak_bytes = new_plan.peak_bytes
        report.optimized_plan = new_plan
        return report


    @staticmethod
    def _certify_fingerprint(outputs, source_fp: str) -> None:
        """Re-fingerprint the rewritten graph against the source anchor.

        Runs only when the anchor was captured (REPRO_VERIFY armed).
        Mirror normalization makes the canonical fingerprint invariant
        under a faithful Echo rewrite, so any drift — plus any EQ-family
        error the canonicalizer itself found (unjustified recompute node,
        broken mirror, duplicated unstable RNG) — is a rewrite bug.
        """
        from repro.analysis.equiv import certify_outputs
        from repro.analysis.findings import Severity

        fp, findings = certify_outputs(outputs)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        if fp != source_fp or errors:
            detail = "\n".join(f.format() for f in errors[:8])
            drift = "" if fp == source_fp else (
                f"canonical output fingerprint drifted "
                f"({source_fp[:12]} -> {fp[:12]})\n"
            )
            raise RuntimeError(
                "Echo rewrite failed equivalence certification:\n"
                f"{drift}{detail}"
            )

    @staticmethod
    def _verify_rewrite(order: list[Node], output_keys: set) -> None:
        """Full recompute-safety analysis of the rewritten schedule.

        Gated on ``REPRO_VERIFY`` (the same switch as the plan-compile
        guard): :func:`check_barrier_legality` stays the always-on fast
        check, while this runs the complete EC3xx analyzer — mirror
        fidelity, RNG determinism, stash-border dominance — and raises on
        any error-severity finding.
        """
        from repro.analysis.verify import verification_enabled

        if not verification_enabled():
            return
        from repro.analysis.recompute import check_recompute_safety
        from repro.analysis.findings import Severity

        errors = [
            f
            for f in check_recompute_safety(order, output_keys)
            if f.severity is Severity.ERROR
        ]
        if errors:
            detail = "\n".join(f.format() for f in errors[:8])
            raise RuntimeError(
                f"Echo rewrite failed verification with {len(errors)} "
                f"error(s):\n{detail}"
            )


def check_barrier_legality(order: list[Node]) -> None:
    """Verify the rewritten schedule respects Echo's stage barriers.

    Lowering treats stage transitions in the schedule as hard barriers
    (no fused chain crosses one) — that is only a *complete* fence around
    a recompute region if no FORWARD node ever consumes a RECOMPUTE value
    (the forward pass must be closed under the barrier, or a recompute
    region would need to replay before parts of the pass it was mirrored
    from) and every recompute region drains into the backward pass.
    Violations indicate a broken rewrite, not a planning choice, so this
    raises instead of degrading.
    """
    recompute_uids = {n.uid for n in order if n.stage is Stage.RECOMPUTE}
    if not recompute_uids:
        return
    for node in order:
        if node.stage is not Stage.FORWARD:
            continue
        for t in node.inputs:
            if t.node.uid in recompute_uids:
                raise RuntimeError(
                    f"Echo barrier violation: forward node {node!r} consumes "
                    f"recompute value {t.node!r}; stage runs are no longer "
                    "valid execution barriers"
                )


def optimize(
    graph: TrainingGraph,
    config: EchoConfig | None = None,
    device: DeviceModel | None = None,
    plan_cache: PlanCache | None = None,
) -> EchoReport:
    """One-call entry point: run the Echo pass on a training graph."""
    return EchoPass(config, device, plan_cache).run(graph)
