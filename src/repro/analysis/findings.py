"""Finding data model shared by every analyzer in :mod:`repro.analysis`.

Each analyzer returns a flat list of :class:`Finding`s; callers aggregate
them into an :class:`AnalysisReport`. Findings carry a stable *code* (the
catalog below — DESIGN.md §8 documents the semantics) so tests can assert
"this seeded defect is caught as LT103" and CI can suppress a triaged
code without silencing the analyzer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator

__all__ = ["Severity", "Finding", "AnalysisReport", "CODES"]


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the plan/graph must not execute (silent
    corruption or wrong numerics are possible); ``WARNING`` findings are
    suspicious but provably cannot change results; ``INFO`` is advisory.
    """

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return ("info", "warning", "error").index(self.value)

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


#: Catalog of finding codes: code -> (default severity, short description).
CODES: dict[str, tuple[Severity, str]] = {
    # -- IR linter (graph well-formedness) ---------------------------------
    "IR001": (Severity.ERROR, "cycle in the dataflow graph"),
    "IR002": (Severity.ERROR, "input references a non-existent node output"),
    "IR003": (Severity.ERROR, "annotated shape disagrees with re-inference"),
    "IR004": (Severity.ERROR, "annotated dtype disagrees with re-inference"),
    "IR005": (Severity.ERROR, "forward node consumes a backward value"),
    "IR006": (Severity.WARNING, "source node is never consumed"),
    "IR007": (Severity.ERROR, "duplicate placeholder/variable binding name"),
    # -- arena lifetime sanitizer (lowered plans) --------------------------
    "LT101": (Severity.ERROR, "slot read before any instruction defines it"),
    "LT102": (Severity.ERROR, "slot freed before its last use"),
    "LT103": (Severity.ERROR, "overlapping live ranges share arena storage"),
    "LT104": (Severity.ERROR, "pinned slot backed by recycled static storage"),
    "LT105": (Severity.WARNING, "dead slot is never freed (leak)"),
    # -- recomputation safety checker --------------------------------------
    "EC301": (Severity.ERROR, "recompute node consumes a backward value"),
    "EC302": (Severity.ERROR, "mirror disagrees with its forward original"),
    "EC303": (Severity.ERROR, "non-deterministic op inside recompute region"),
    "EC304": (Severity.ERROR, "mirror attrs differ from the original's"),
    "EC305": (Severity.ERROR, "forward node consumes a recompute value"),
    "EC306": (Severity.WARNING, "recompute mirror never drains to backward"),
    "EC307": (Severity.ERROR, "schedule orders a consumer before its producer"),
    "EC308": (Severity.ERROR, "node consumes a value outside the schedule"),
    # -- memplan packing sanitizer (color-mode rewrites) -------------------
    "MP401": (Severity.ERROR, "alias instruction disagrees with root table"),
    "MP402": (Severity.ERROR, "packed placements overlap in time and bytes"),
    "MP403": (Severity.ERROR, "unsafe in-place rewrite over a live group"),
    # -- distributed bucket-coverage checker -------------------------------
    "DS501": (Severity.ERROR, "trainable parameter is never reduced"),
    "DS502": (Severity.ERROR, "parameter reduced more than once"),
    "DS503": (Severity.ERROR, "bucket segments overlap or overflow"),
    "DS504": (Severity.ERROR, "segment shape/dtype disagrees with the model"),
    "DS505": (Severity.WARNING, "bucket exceeds the configured byte cap"),
    "DS506": (Severity.ERROR, "bucket layout fingerprint diverges across ranks"),
    # -- symbolic equivalence certifier (translation validation) -----------
    "EQ601": (Severity.ERROR, "lowered value disagrees with the source graph"),
    "EQ602": (Severity.ERROR, "rewrite carries no justifying witness"),
    "EQ603": (Severity.ERROR, "witness fails shape/dtype/member checks"),
    "EQ604": (Severity.ERROR, "in-place redirect changes an observable value"),
    "EQ605": (Severity.ERROR, "alias view witness fails its range check"),
    "EQ606": (Severity.ERROR, "reordering crosses an RNG-clock boundary"),
    "EQ607": (Severity.ERROR, "recompute mirror is not equivalent to original"),
}


@dataclass(frozen=True)
class Finding:
    """One defect (or suspicion) located in a graph or lowered plan."""

    code: str
    message: str
    analyzer: str
    severity: Severity = field(default=Severity.ERROR)
    #: node name (graph-level analyzers) when attributable
    node: str | None = None
    #: lowered instruction index (plan-level analyzers)
    instr: int | None = None
    #: register slot (plan-level analyzers)
    slot: int | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "analyzer": self.analyzer,
            "message": self.message,
        }
        if self.node is not None:
            out["node"] = self.node
        if self.instr is not None:
            out["instr"] = self.instr
        if self.slot is not None:
            out["slot"] = self.slot
        return out

    def format(self) -> str:
        where = []
        if self.node is not None:
            where.append(f"node={self.node}")
        if self.instr is not None:
            where.append(f"instr={self.instr}")
        if self.slot is not None:
            where.append(f"slot={self.slot}")
        loc = f" [{', '.join(where)}]" if where else ""
        return (
            f"{self.severity.value.upper():7s} {self.code} "
            f"({self.analyzer}){loc}: {self.message}"
        )


def finding(
    code: str,
    message: str,
    analyzer: str,
    node: str | None = None,
    instr: int | None = None,
    slot: int | None = None,
) -> Finding:
    """Build a Finding with the catalog's default severity for ``code``."""
    severity = CODES[code][0]
    return Finding(
        code=code,
        message=message,
        analyzer=analyzer,
        severity=severity,
        node=node,
        instr=instr,
        slot=slot,
    )


@dataclass
class AnalysisReport:
    """Aggregated findings of one verification run."""

    findings: list[Finding] = field(default_factory=list)

    def extend(self, more: Iterable[Finding]) -> "AnalysisReport":
        self.findings.extend(more)
        return self

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when nothing execution-blocking was found."""
        return not self.errors

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def without(self, codes: Iterable[str]) -> "AnalysisReport":
        """A copy with the given codes suppressed (triage mechanism)."""
        drop = set(codes)
        return AnalysisReport(
            [f for f in self.findings if f.code not in drop]
        )

    def canonical(self) -> list[Finding]:
        """Deduplicated findings in a byte-deterministic order.

        Sorted by (code, node, instr, slot, message) so two runs over the
        same inputs serialize identically and CI diffs of ``lint --json``
        output are meaningful. Exact duplicates (same analyzer reached
        the same conclusion twice, e.g. once per bucket) collapse.
        """
        def key(f: Finding) -> tuple[Any, ...]:
            return (
                f.code,
                f.node if f.node is not None else "",
                f.instr if f.instr is not None else -1,
                f.slot if f.slot is not None else -1,
                f.message,
            )

        unique: dict[tuple[Any, ...], Finding] = {}
        for f in self.findings:
            unique.setdefault((*key(f), f.analyzer, f.severity.value), f)
        return sorted(unique.values(), key=key)

    def to_dict(self) -> dict[str, Any]:
        ordered = self.canonical()
        return {
            "errors": sum(
                1 for f in ordered if f.severity is Severity.ERROR
            ),
            "warnings": sum(
                1 for f in ordered if f.severity is Severity.WARNING
            ),
            "findings": [f.to_dict() for f in ordered],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def format(self) -> str:
        if not self.findings:
            return "no findings"
        ordered = sorted(
            self.findings,
            key=lambda f: (-f.severity.rank, f.code, f.instr or 0),
        )
        return "\n".join(f.format() for f in ordered)
