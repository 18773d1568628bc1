"""Static analysis of graphs and compiled plans.

Six analyzer families, each independently re-deriving an invariant the
compiler or a rewrite is supposed to maintain:

* :func:`lint_graph` — dataflow-graph well-formedness (IR0xx);
* :func:`check_lifetimes` — arena slot liveness vs. the compiled plan's
  static buffer replay (LT1xx);
* :func:`check_recompute_safety` — Echo recompute-region invariants over
  a schedule (EC3xx);
* :func:`check_packing` — memplan alias/coloring/in-place safety over
  the lowered stream and its packing record (MP4xx);
* :func:`check_bucket_plan` / :func:`check_rank_layouts` — distributed
  gradient-bucket coverage and cross-rank layout agreement (DS5xx);
* :func:`check_equivalence` — translation validation: symbolic
  equivalence certification of the whole rewrite pipeline against the
  source graph, driven by per-pass rewrite witnesses (EQ6xx).

:func:`verify_plan` aggregates the plan-level families over one
:class:`CompiledPlan` (``equiv=True`` adds the certifier);
``python -m repro.analysis.lint`` runs them over the benchmark models
(``--equiv`` for the full tier); ``REPRO_VERIFY=1`` wires
:func:`assert_plan_safe` into every
:class:`~repro.runtime.plancache.PlanCache` compile and
``REPRO_VERIFY=full`` adds equivalence certification. DESIGN.md §8
documents the finding-code catalog and how to add a check; §12 the
witness format and normalization rules.
"""

from repro.analysis.findings import (
    CODES,
    AnalysisReport,
    Finding,
    Severity,
)
from repro.analysis.distcheck import check_bucket_plan, check_rank_layouts
from repro.analysis.equiv import (
    check_equivalence,
    certify_outputs,
    fingerprint_outputs,
)
from repro.analysis.ir_lint import lint_graph
from repro.analysis.lifetime import check_lifetimes
from repro.analysis.packing import check_packing
from repro.analysis.recompute import check_recompute_safety
from repro.analysis.verify import (
    PlanVerificationError,
    assert_plan_safe,
    verification_enabled,
    verification_tier,
    verify_graph,
    verify_plan,
)
from repro.analysis.witness import (
    AliasWitness,
    FusionWitness,
    InplaceWitness,
    MirrorWitness,
    WitnessSet,
)

__all__ = [
    "CODES",
    "AnalysisReport",
    "Finding",
    "Severity",
    "lint_graph",
    "check_bucket_plan",
    "check_rank_layouts",
    "check_lifetimes",
    "check_packing",
    "check_recompute_safety",
    "check_equivalence",
    "certify_outputs",
    "fingerprint_outputs",
    "PlanVerificationError",
    "assert_plan_safe",
    "verification_enabled",
    "verification_tier",
    "verify_graph",
    "verify_plan",
    "AliasWitness",
    "FusionWitness",
    "InplaceWitness",
    "MirrorWitness",
    "WitnessSet",
]
