"""One-call plan verification: every analyzer family over one compiled plan.

:func:`verify_plan` is the aggregation point — graph IR lint, recompute
safety over the schedule, arena lifetime sanity over the lowering,
memplan packing/rewrite safety, race detection over the wavefront
schedule (stored or probed), and (``equiv=True``) symbolic equivalence
certification of the whole rewrite pipeline — returning a single
:class:`AnalysisReport`. :func:`assert_plan_safe` turns an unclean report
into a :class:`PlanVerificationError`.

The opt-in runtime guard has two tiers. With ``REPRO_VERIFY=1`` in the
environment, :class:`repro.runtime.plancache.PlanCache` calls
:func:`assert_plan_safe` on every plan it compiles (cache misses only —
verification is itself memoized by the cache's build-once contract), so a
full test run or a serving warmup statically verifies every plan it
touches before the first iteration executes. ``REPRO_VERIFY=full`` (or
``equiv``) additionally runs the translation-validation certifier
(:mod:`repro.analysis.equiv`) on each compile.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Sequence

from repro.graph import GraphFacts, Node, Tensor

from repro.analysis.equiv import check_equivalence
from repro.analysis.findings import AnalysisReport
from repro.analysis.ir_lint import lint_graph
from repro.analysis.lifetime import check_lifetimes
from repro.analysis.packing import check_packing
from repro.analysis.races import check_plan_races
from repro.analysis.recompute import check_recompute_safety

__all__ = [
    "PlanVerificationError",
    "verification_enabled",
    "verification_tier",
    "verify_graph",
    "verify_plan",
    "assert_plan_safe",
]

#: env var gating the PlanCache compile-time guard
VERIFY_ENV = "REPRO_VERIFY"

_TRUTHY = ("1", "true", "yes", "on")


class PlanVerificationError(RuntimeError):
    """A compiled plan failed static verification.

    ``report`` carries the full :class:`AnalysisReport`, including the
    warnings that did not contribute to the failure.
    """

    def __init__(self, message: str, report: AnalysisReport) -> None:
        super().__init__(message)
        self.report = report


#: values of REPRO_VERIFY selecting the full (equivalence) tier
_FULL = ("full", "equiv")


def verification_tier() -> str | None:
    """The ``REPRO_VERIFY`` tier: None (off), ``"basic"``, or ``"full"``.

    ``full``/``equiv`` adds symbolic equivalence certification on top of
    the five safety analyzers; any other truthy value selects ``basic``.
    """
    raw = os.environ.get(VERIFY_ENV, "").strip().lower()
    if raw in _FULL:
        return "full"
    if raw in _TRUTHY:
        return "basic"
    return None


def verification_enabled() -> bool:
    """Whether the ``REPRO_VERIFY`` compile-time guard is switched on."""
    return verification_tier() is not None


def verify_graph(
    outputs: Sequence[Tensor],
    order: Sequence[Node] | None = None,
    sources: Sequence[Tensor] = (),
) -> AnalysisReport:
    """Graph-level verification only (no lowered plan required)."""
    report = AnalysisReport()
    report.extend(lint_graph(outputs, sources=sources))
    if order is not None:
        report.extend(
            check_recompute_safety(order, {t.key for t in outputs})
        )
    return report


def verify_plan(
    plan: Any,
    outputs: Sequence[Tensor] | None = None,
    order: Sequence[Node] | None = None,
    threads_probe: int = 4,
    sources: Sequence[Tensor] = (),
    equiv: bool = False,
    facts: GraphFacts | None = None,
) -> AnalysisReport:
    """Run the analyzer families against one compiled plan.

    ``outputs``/``order`` default to the plan's own; pass them explicitly
    when verifying a plan against a graph state other than the one it was
    compiled from. ``sources`` feeds the IR linter's unused-source check
    (bindings the plan never consumes are invisible to reachability).
    ``equiv=True`` adds the symbolic equivalence certifier (EQ6xx) — the
    translation-validation tier, proving the lowered stream denotes the
    source graph's function. ``facts`` is ``outputs``' current
    :class:`~repro.graph.GraphFacts` record when the caller holds it.
    """
    outputs = plan.outputs if outputs is None else list(outputs)
    order = plan.order if order is None else list(order)
    report = AnalysisReport()
    report.extend(lint_graph(outputs, sources=sources, facts=facts))
    report.extend(check_recompute_safety(order, {t.key for t in outputs}))
    report.extend(check_lifetimes(plan))
    report.extend(check_packing(plan))
    report.extend(check_plan_races(plan, threads_probe=threads_probe))
    if equiv:
        report.extend(
            check_equivalence(plan, outputs=outputs, order=order)
        )
    return report


def assert_plan_safe(
    plan: Any,
    outputs: Sequence[Tensor] | None = None,
    order: Sequence[Node] | None = None,
    threads_probe: int = 4,
    ignore: Iterable[str] = (),
    equiv: bool = False,
    facts: GraphFacts | None = None,
) -> AnalysisReport:
    """Verify ``plan`` and raise :class:`PlanVerificationError` on errors.

    ``ignore`` suppresses specific finding codes (triaged-benign ones);
    the returned report is the filtered one. ``facts`` as for
    :func:`verify_plan`.
    """
    report = verify_plan(
        plan, outputs=outputs, order=order, threads_probe=threads_probe,
        equiv=equiv, facts=facts,
    )
    ignore = tuple(ignore)
    if ignore:
        report = report.without(ignore)
    if not report.ok:
        errors = report.errors
        detail = "\n".join(f.format() for f in errors[:8])
        if len(errors) > 8:
            detail += f"\n... and {len(errors) - 8} more"
        raise PlanVerificationError(
            f"plan verification failed with {len(errors)} error(s):\n"
            f"{detail}",
            report,
        )
    return report
