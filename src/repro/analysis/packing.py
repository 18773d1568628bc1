"""Memplan packing sanitizer: alias, coloring, and in-place safety.

The buffer planner (:mod:`repro.memplan`) rewrites the lowered
stream — copies become alias bindings, last-use elementwise writes land
in a dying input's buffer — and then packs every alias group's live
interval into one contiguous extent. Each of those decisions has a
structural safety condition, and this analyzer re-derives every one of
them from the instruction descriptors and the
:class:`~repro.memplan.planner.MemplanRecord` alone (it deliberately
shares no code with the planner's own eligibility logic):

* **MP401** — an ``alias`` instruction whose output slot did not join
  its source's alias group (the baked view would read one buffer while
  liveness tracks another), whose index list is malformed, or whose
  output escapes the plan;
* **MP402** — two packed placements overlap both in time and in byte
  range, or a placement exceeds the extent (both are the
  silent-corruption class for the shared-extent layout);
* **MP403** — an in-place rewrite whose target group is still live
  after the instruction, whose target is not at an in-place-capable
  operand position (or is read more than once), whose storage spec
  disagrees with the output's, or whose group escapes the plan.

A lowering that lost its record cannot be checked at all; that is itself
reported under MP402.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.runtime.lowering import PlanLowering

from repro.analysis.findings import Finding, finding
from repro.analysis.overlap import overlapping_pairs

__all__ = ["check_packing"]

_ANALYZER = "packing"


def _lowering_of(plan: Any) -> PlanLowering:
    low = getattr(plan, "lowering", plan)
    if not isinstance(low, PlanLowering):
        raise TypeError(
            f"expected a CompiledPlan or PlanLowering, got {type(plan)!r}"
        )
    return low


def _check_aliases(low: PlanLowering) -> list[Finding]:
    findings: list[Finding] = []
    for idx, desc in enumerate(low.descs):
        if desc["kind"] != "alias":
            continue
        name = desc["node"].name
        indices = desc.get("alias_index")
        if not isinstance(indices, list) or len(indices) != len(
            desc["out_slots"]
        ):
            findings.append(
                finding(
                    "MP401",
                    f"alias instruction {idx} ({name}) has a malformed "
                    f"index list for {len(desc['out_slots'])} output(s)",
                    _ANALYZER,
                    instr=idx,
                )
            )
        if not desc["in_slots"]:
            findings.append(
                finding(
                    "MP401",
                    f"alias instruction {idx} ({name}) has no source slot",
                    _ANALYZER,
                    instr=idx,
                )
            )
            continue
        src_root = low.root[desc["in_slots"][0]]
        for o in desc["out_slots"]:
            if low.root[o] != src_root:
                findings.append(
                    finding(
                        "MP401",
                        f"alias instruction {idx} ({name}) binds slot {o} "
                        f"as a view of slot group {src_root}, but the root "
                        f"table places it in group {low.root[o]}",
                        _ANALYZER,
                        instr=idx,
                        slot=o,
                    )
                )
            if o in low.output_slots:
                findings.append(
                    finding(
                        "MP401",
                        f"alias instruction {idx} ({name}) aliases escaping "
                        f"output slot {o} onto plan storage",
                        _ANALYZER,
                        instr=idx,
                        slot=o,
                    )
                )
    return findings


def _check_placements(low: PlanLowering, record: Any) -> list[Finding]:
    findings: list[Finding] = []
    extent = record.extent_bytes
    placed = []
    for key, (lo, hi, off, nbytes) in record.placements.items():
        if off < 0 or off + nbytes > extent:
            findings.append(
                finding(
                    "MP402",
                    f"placement {key!r} spans bytes [{off}, {off + nbytes}) "
                    f"outside the {extent}-byte extent",
                    _ANALYZER,
                    instr=lo,
                )
            )
        placed.append((lo, hi, off, nbytes, key))
    placed.sort(key=itemgetter(0, 2))
    if not placed:
        return findings
    lo, hi, off, nbytes, _keys = zip(*placed)
    end = [o + nb for o, nb in zip(off, nbytes)]
    for a, b in overlapping_pairs(lo, hi, off, end):
        lo_a, hi_a, off_a, nb_a, key_a = placed[a]
        lo_b, hi_b, off_b, nb_b, key_b = placed[b]
        findings.append(
            finding(
                "MP402",
                f"placements {key_a!r} (live [{lo_a}, {hi_a}], "
                f"bytes [{off_a}, {off_a + nb_a})) and {key_b!r} "
                f"(live [{lo_b}, {hi_b}], bytes "
                f"[{off_b}, {off_b + nb_b})) overlap in time and "
                "memory",
                _ANALYZER,
                instr=lo_b,
            )
        )
    return findings


def _inplace_reads(desc: dict[str, Any]) -> list[tuple[int, int]]:
    """(slot, occurrences) at in-place-capable positions, re-derived."""
    reads: list[tuple[int, int]] = []
    if desc["kind"] == "out":
        in_slots = desc["in_slots"]
        for pos in desc["node"].op.inplace_operands:
            if pos < len(in_slots):
                s = in_slots[pos]
                reads.append((s, sum(1 for x in in_slots if x == s)))
    elif desc["kind"] == "fused":
        chain = desc["chain"]
        counts: dict[int, int] = {}
        for _op, _member, pattern in chain:
            for s in pattern:
                if s >= 0:
                    counts[s] = counts.get(s, 0) + 1
        first_op, _m, first_pattern = chain[0]
        for pos in first_op.inplace_operands:
            if pos < len(first_pattern) and first_pattern[pos] >= 0:
                s = first_pattern[pos]
                reads.append((s, counts[s]))
    return reads


def _check_inplace(low: PlanLowering, record: Any) -> list[Finding]:
    findings: list[Finding] = []
    descs = low.descs
    never_freed = low.output_slots | low.source_slots | low.constant_slots
    # One index of the stream as it is now (re-derived if the descriptors
    # were edited since lowering), not one scan per in-place write.
    index = low.slot_index()

    for rec in record.inplace:
        idx, out, target = rec["instr"], rec["out"], rec["target"]
        if not 0 <= idx < len(descs):
            findings.append(
                finding(
                    "MP403",
                    f"in-place record points at instruction {idx}, outside "
                    f"the {len(descs)}-instruction stream",
                    _ANALYZER,
                    instr=idx,
                )
            )
            continue
        desc = descs[idx]
        name = desc["node"].name
        if (
            desc["kind"] not in ("out", "fused")
            or tuple(desc["out_slots"]) != (out,)
        ):
            findings.append(
                finding(
                    "MP403",
                    f"in-place rewrite at instruction {idx} ({name}) does "
                    f"not match a single-output kernel producing slot {out}",
                    _ANALYZER,
                    instr=idx,
                    slot=out,
                )
            )
            continue
        reads = dict(_inplace_reads(desc))
        valid_target = 0 <= target < len(low.root)
        if target not in reads:
            findings.append(
                finding(
                    "MP403",
                    f"instruction {idx} ({name}) writes in-place over slot "
                    f"{target}, which is not at an in-place-capable operand "
                    "position",
                    _ANALYZER,
                    instr=idx,
                    slot=target,
                )
            )
        elif reads[target] != 1:
            findings.append(
                finding(
                    "MP403",
                    f"instruction {idx} ({name}) reads slot {target} "
                    f"{reads[target]} times but overwrites it in place",
                    _ANALYZER,
                    instr=idx,
                    slot=target,
                )
            )
        # The pre-merge group (recorded before the output joined it) must
        # be entirely dead after this instruction and must not escape.
        for m in rec["members"]:
            readers = index.consumers.get(m)
            use = readers[-1] if readers is not None else -1
            if use > idx:
                findings.append(
                    finding(
                        "MP403",
                        f"instruction {idx} ({name}) overwrites slot "
                        f"{target}'s group in place, but member slot {m} "
                        f"is still read by instruction {use}",
                        _ANALYZER,
                        instr=idx,
                        slot=m,
                    )
                )
            if m in never_freed:
                findings.append(
                    finding(
                        "MP403",
                        f"instruction {idx} ({name}) overwrites slot "
                        f"{target}'s group in place, but member slot {m} "
                        "escapes the plan (output/source/constant)",
                        _ANALYZER,
                        instr=idx,
                        slot=m,
                    )
                )
        if valid_target and low.root[out] != low.root[target]:
            findings.append(
                finding(
                    "MP403",
                    f"in-place rewrite at instruction {idx} ({name}) left "
                    f"slots {out} and {target} in different alias groups",
                    _ANALYZER,
                    instr=idx,
                    slot=out,
                )
            )
        spec = desc["node"].out_specs[0]
        have = index.producer_spec(descs, rec["root"])
        want = (spec.shape, spec.dtype, spec.nbytes)
        if have is not None and have != want:
            findings.append(
                finding(
                    "MP403",
                    f"instruction {idx} ({name}) writes {want} in place "
                    f"into a buffer of spec {have}",
                    _ANALYZER,
                    instr=idx,
                    slot=target,
                )
            )
    return findings


def check_packing(plan: Any) -> list[Finding]:
    """Re-derive every memplan rewrite/packing safety condition.

    ``plan`` is a :class:`repro.runtime.compiled.CompiledPlan` or its
    :class:`~repro.runtime.lowering.PlanLowering` record.
    """
    low = _lowering_of(plan)
    findings = _check_aliases(low)
    record = low.memplan
    if record is None:
        findings.append(
            finding(
                "MP402",
                f"lowering with {len(low.static_views)} static buffer(s) "
                "carries no memplan record: no placement can be checked "
                "for overlap or extent bounds",
                _ANALYZER,
            )
        )
        return findings
    findings.extend(_check_placements(low, record))
    findings.extend(_check_inplace(low, record))
    return findings
