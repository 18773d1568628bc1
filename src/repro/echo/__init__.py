"""Echo: automatic selective recomputation (DESIGN.md S7, the paper's core)."""

from repro.echo.analysis import (
    Candidate,
    is_recompute_cheap,
    mine_candidates,
    stashed_tensors,
)
from repro.echo.config import EchoConfig
from repro.echo.pass_ import (
    EchoPass,
    EchoReport,
    check_barrier_legality,
    optimize,
)
from repro.echo.rewrite import AppliedCandidate, ConsumerIndex, apply_candidate

__all__ = [
    "EchoConfig",
    "EchoPass",
    "EchoReport",
    "optimize",
    "check_barrier_legality",
    "Candidate",
    "mine_candidates",
    "stashed_tensors",
    "is_recompute_cheap",
    "apply_candidate",
    "AppliedCandidate",
    "ConsumerIndex",
]

from repro.echo.manual import apply_manual_recompute, recompute_region

__all__ += ["apply_manual_recompute", "recompute_region"]
