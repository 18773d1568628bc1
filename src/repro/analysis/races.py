"""Wavefront race detector: happens-before verification of schedules.

The wavefront planner (`runtime/wavefront.py`) promises that two
instructions sharing a parallel level have no value or storage hazard
between them and that levels never span an Echo stage barrier. This module
*re-derives* the hazard edges from the instruction facts — independently
of ``_dependency_edges``, with each edge labeled by kind — and checks a
given :class:`WavefrontSchedule` against them:

* **RC201 / RC202 / RC204** — a write-write storage, read-write storage,
  or read-after-write value edge joins two instructions placed in the
  same *parallel* level (they may run concurrently on worker threads);
* **RC203** — one level mixes instructions from different Echo stages
  (stage transitions must be barriers, or recompute regions lose their
  checkpoint semantics);
* **RC205** — the schedule drops or duplicates an instruction (coverage);
* **RC206** — an edge's predecessor is placed in a *later* level than its
  successor (happens-before inversion: levels execute in order, so the
  consumer would run first).

For serial plans — which never ran the wavefront planner —
:func:`check_plan_races` probes a hypothetical maximally-parallel
schedule (every multi-instruction level parallel): if even that
admits no race, the hazard structure itself is sound and any cost-gated
real schedule, which only *merges* levels into serial runs, is too.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.runtime.wavefront import (
    InstrInfo,
    WavefrontSchedule,
    analyze_wavefronts,
    build_instr_infos,
)

from repro.analysis.findings import Finding, finding

__all__ = ["labeled_edges", "check_schedule", "check_plan_races"]

_ANALYZER = "races"

#: edge kind -> finding code for a same-parallel-level conflict
_LEVEL_CODE = {"waw": "RC201", "war": "RC202", "raw": "RC204"}


def labeled_edges(
    infos: Sequence[InstrInfo],
) -> list[tuple[int, int, str, int]]:
    """Hazard edges ``(pred, succ, kind, subject)`` over the stream.

    ``kind`` is ``raw`` (value: succ reads a slot pred wrote), ``war``
    (storage: succ overwrites a raw buffer pred read), or ``waw``
    (storage: both write one raw buffer). ``subject`` is the slot (raw)
    or the storage base id (war/waw). Deliberately a fresh derivation,
    not a call into ``wavefront._dependency_edges`` — the detector must
    not inherit a bug from the code it checks.
    """
    edges: list[tuple[int, int, str, int]] = []

    writer_of_slot: dict[int, int] = {}
    for info in infos:
        for s in info.reads:
            producer = writer_of_slot.get(s)
            if producer is not None:
                edges.append((producer, info.index, "raw", s))
        for s in info.writes:
            writer_of_slot[s] = info.index

    last_writer: dict[int, int] = {}
    readers_since: dict[int, list[int]] = {}
    for info in infos:
        for b in info.write_bases:
            prev = last_writer.get(b)
            if prev is not None and prev != info.index:
                edges.append((prev, info.index, "waw", b))
            for r in readers_since.get(b, ()):
                if r != info.index:
                    edges.append((r, info.index, "war", b))
            readers_since[b] = []
            last_writer[b] = info.index
        for b in info.read_bases:
            readers_since.setdefault(b, []).append(info.index)
    return edges


def check_schedule(
    infos: Sequence[InstrInfo], schedule: WavefrontSchedule
) -> list[Finding]:
    """Verify ``schedule`` respects every hazard among ``infos``."""
    findings: list[Finding] = []

    # RC205: exact coverage of the stream.
    level_of: dict[int, int] = {}
    parallel_level: dict[int, bool] = {}
    duplicated: set[int] = set()
    for level_idx, wf in enumerate(schedule.levels):
        for i in wf.instructions:
            if i in level_of:
                duplicated.add(i)
            level_of[i] = level_idx
            parallel_level[i] = wf.parallel
    expected = set(range(len(infos)))
    scheduled = set(level_of)
    for i in sorted(duplicated):
        findings.append(
            finding(
                "RC205",
                f"instruction {i} appears in more than one level",
                _ANALYZER,
                instr=i,
            )
        )
    for i in sorted(expected - scheduled):
        findings.append(
            finding(
                "RC205",
                f"instruction {i} is missing from the schedule",
                _ANALYZER,
                instr=i,
            )
        )
    for i in sorted(scheduled - expected):
        findings.append(
            finding(
                "RC205",
                f"schedule names instruction {i}, which is outside the "
                f"stream of {len(infos)}",
                _ANALYZER,
                instr=i,
            )
        )
    if expected != scheduled:
        return findings  # edge checks below would mis-index

    # RC203: stage uniformity per level.
    for level_idx, wf in enumerate(schedule.levels):
        stages = {id(infos[i].stage): infos[i].stage for i in wf.instructions}
        if len(stages) > 1:
            names = sorted(
                getattr(s, "value", str(s)) for s in stages.values()
            )
            findings.append(
                finding(
                    "RC203",
                    f"level {level_idx} mixes stages {names}; stage "
                    "transitions must be barriers",
                    _ANALYZER,
                    instr=wf.instructions[0],
                )
            )

    # Edge placement: predecessor strictly before, or same serial level.
    for pred, succ, kind, subject in labeled_edges(infos):
        lp, ls = level_of[pred], level_of[succ]
        if lp < ls:
            continue
        what = (
            f"slot {subject}" if kind == "raw" else f"storage base {subject}"
        )
        if lp > ls:
            findings.append(
                finding(
                    "RC206",
                    f"instruction {succ} depends on {pred} ({kind} on "
                    f"{what}) but runs in level {ls}, before its "
                    f"dependency's level {lp}",
                    _ANALYZER,
                    instr=succ,
                    slot=subject if kind == "raw" else None,
                )
            )
        elif parallel_level[pred]:
            findings.append(
                finding(
                    _LEVEL_CODE[kind],
                    f"instructions {pred} and {succ} share parallel level "
                    f"{lp} but conflict ({kind} on {what})",
                    _ANALYZER,
                    instr=succ,
                    slot=subject if kind == "raw" else None,
                )
            )
        # Same serial level: members execute in stream order; edges always
        # point forward in the stream, so the hazard is honored.
    return findings


def check_plan_races(plan: Any, threads_probe: int = 4) -> list[Finding]:
    """Race-check a plan's schedule (stored or probed).

    ``plan`` is a compiled plan or its lowering record. A plan compiled
    with ``threads > 1`` carries the schedule it actually executes; that
    is checked as-is. A serial plan is checked against a
    maximally-parallel probe — its level structure with every
    multi-instruction level marked parallel (``threads_probe > 1``), the
    strictest schedule its hazard edges admit.
    """
    low = getattr(plan, "lowering", plan)
    infos = low.infos
    if infos is None:  # serial: hazard structure only, costs zeroed
        infos = build_instr_infos(low.descs, low.root, low.storage_tokens)
    findings: list[Finding] = []
    stored = low.schedule
    if stored is not None:
        findings.extend(check_schedule(infos, stored))
    else:
        probe = analyze_wavefronts(infos, threads=1)  # levels, no gate
        for wf in probe.levels:
            wf.parallel = threads_probe > 1 and len(wf.instructions) > 1
        findings.extend(check_schedule(infos, probe))
    return findings
