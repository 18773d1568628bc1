"""Arena lifetime sanitizer over a compiled plan's lowering record.

The compiler assigns every intermediate a *static* arena buffer at compile
time (`runtime/compiled.py`, `memplan/planner.py`): a slice of one shared
extent, handed to a later slot once its alias group's last use has passed.
The correctness of that assignment — frees strictly after last use, reuse
strictly after free — is exactly what end-to-end bitwise tests can only
probe indirectly. This sanitizer recomputes liveness from
the instruction descriptors alone and cross-checks every decision the
compiler recorded:

* **LT101** — an instruction reads a slot no earlier instruction (or
  source/constant binding) defines;
* **LT102** — ``frees_at`` releases a slot before its recomputed last
  use (use-after-free once the storage is recycled);
* **LT103** — two alias groups with overlapping live ranges occupy
  overlapping byte ranges of the same raw arena buffer (the
  silent-corruption class: a later write destroys a value still to be
  read; all groups share one extent, so the byte ranges are what keeps
  them apart);
* **LT104** — an escaping output (or source/constant) slot is backed by
  plan-static storage (outputs must survive later iterations, so they are
  acquired fresh every run by contract);
* **LT105** — a produced slot is never freed (warning: a leak keeps its
  bytes from being reused but cannot corrupt results).

Scope: one plan at a time. Plans sharing an arena overlay each other's
static pages *by design* (they run one iteration to completion at a time);
cross-plan overlap is therefore not a defect and is not reported.
"""

from __future__ import annotations

from typing import Any

from numpy.lib.array_utils import byte_bounds

from repro.runtime.compiled import PlanLowering, storage_base

from repro.analysis.findings import Finding, finding

__all__ = ["check_lifetimes"]

_ANALYZER = "lifetime"


def _lowering_of(plan: Any) -> PlanLowering:
    low = getattr(plan, "lowering", plan)
    if not isinstance(low, PlanLowering):
        raise TypeError(
            f"expected a CompiledPlan or PlanLowering, got {type(plan)!r}"
        )
    return low


def check_lifetimes(plan: Any) -> list[Finding]:
    """Sanity-check a plan's slot liveness and static storage assignment.

    ``plan`` is a :class:`repro.runtime.compiled.CompiledPlan` or its
    :class:`~repro.runtime.compiled.PlanLowering` record.
    """
    low = _lowering_of(plan)
    descs = low.descs
    findings: list[Finding] = []

    # Def / last-use per slot, from the index of the stream as it is now
    # (re-derived if the descriptors were edited since lowering). Sources
    # and constants are defined before instruction 0.
    index = low.slot_index()
    bound = set(low.source_slots) | set(low.constant_slots)
    def_at: dict[int, int] = {s: -1 for s in bound}
    for s, (idx, _pos) in index.producer.items():
        def_at.setdefault(s, idx)
    last_use: dict[int, int] = {}
    early: list[tuple[int, int]] = []
    for s, readers in index.consumers.items():
        last_use[s] = readers[-1]
        d = def_at.get(s)
        if d is None:
            early.extend([(idx, s) for idx in readers])
        elif d >= readers[0]:
            # An instruction's outputs exist only after it ran.
            early.extend([(idx, s) for idx in readers if idx <= d])
    for idx, s in sorted(early):
        findings.append(
            finding(
                "LT101",
                f"instruction {idx} ({descs[idx]['node'].name}) reads "
                f"slot {s} before any instruction defines it",
                _ANALYZER,
                instr=idx,
                slot=s,
            )
        )
    # A slot never consumed dies at its producer (mirrors the compiler).
    for s, d in def_at.items():
        if d >= 0:
            last_use.setdefault(s, d)

    # LT102: frees honoring last use (and each slot freed at most once).
    freed_at: dict[int, int] = {}
    for idx, fs in sorted(low.frees_at.items()):
        for s, _root, _rel in fs:
            prev = freed_at.get(s)
            if prev is not None:
                findings.append(
                    finding(
                        "LT102",
                        f"slot {s} freed twice (instructions {prev} "
                        f"and {idx})",
                        _ANALYZER,
                        instr=idx,
                        slot=s,
                    )
                )
                continue
            freed_at[s] = idx
            use = last_use.get(s, def_at.get(s, -1))
            if use > idx:
                findings.append(
                    finding(
                        "LT102",
                        f"slot {s} freed after instruction {idx} but "
                        f"still read by instruction {use}",
                        _ANALYZER,
                        instr=idx,
                        slot=s,
                    )
                )

    # LT104: pinned slots (outputs, sources, constants) must stay dynamic.
    pinned = low.output_slots | low.source_slots | low.constant_slots
    for s in sorted(pinned):
        r = low.root[s] if s < len(low.root) else s
        if r in low.static_views:
            kind = (
                "output" if s in low.output_slots
                else "constant" if s in low.constant_slots
                else "source"
            )
            findings.append(
                finding(
                    "LT104",
                    f"{kind} slot {s} is backed by plan-static storage "
                    f"(root {r}); its buffer would be recycled across "
                    "iterations",
                    _ANALYZER,
                    slot=s,
                )
            )

    # LT105: produced, unfrozen slots that are never freed.
    for s, d in sorted(def_at.items()):
        if d < 0 or s in pinned:
            continue
        if s not in freed_at:
            findings.append(
                finding(
                    "LT105",
                    f"slot {s} (defined by instruction {d}) is never "
                    "freed; its bytes leak from the arena packing",
                    _ANALYZER,
                    instr=d,
                    slot=s,
                )
            )

    # LT103: live ranges of alias groups sharing one raw buffer must be
    # disjoint. A group's range spans from its earliest member def to its
    # latest member use; batched-GEMM input scratch is acquired at its
    # instruction and deliberately never released, so it owns its pages
    # from that point to the end of the stream.
    group_def: dict[int, int] = {}
    group_use: dict[int, int] = {}
    for s, d in def_at.items():
        if d < 0 or s >= len(low.root):
            continue
        r = low.root[s]
        group_def[r] = min(group_def.get(r, d), d)
        use = last_use.get(s, d)
        group_use[r] = max(group_use.get(r, use), use)

    end = len(descs)
    # (lo, hi, byte_lo, byte_hi, label) intervals per raw buffer. The
    # byte bounds matter because *every* static view is a slice of one
    # shared extent: two groups may share the raw buffer freely as long
    # as their byte ranges are disjoint or their live ranges are.
    intervals: dict[int, list[tuple[int, int, int, int, str]]] = {}
    for r, view in low.static_views.items():
        if r not in group_def:
            continue
        base = id(storage_base(view))
        blo, bhi = byte_bounds(view)
        intervals.setdefault(base, []).append(
            (group_def[r], group_use[r], blo, bhi, f"slot group {r}")
        )
    for idx, desc in enumerate(descs):
        if desc["kind"] != "batched":
            continue
        for scratch_key in ("scratch_a", "scratch_b"):
            scratch = desc.get(scratch_key)
            if scratch is None:
                continue
            base = id(storage_base(scratch))
            blo, bhi = byte_bounds(scratch)
            intervals.setdefault(base, []).append(
                (idx, end, blo, bhi, f"{scratch_key} of instruction {idx}")
            )

    for ranges in intervals.values():
        ranges.sort()
        for i, (lo_a, hi_a, blo_a, bhi_a, label_a) in enumerate(ranges):
            for lo_b, hi_b, blo_b, bhi_b, label_b in ranges[i + 1:]:
                if lo_b > hi_a:
                    break  # sorted by lo: nothing later overlaps a in time
                if blo_a < bhi_b and blo_b < bhi_a:
                    findings.append(
                        finding(
                            "LT103",
                            f"{label_a} (live [{lo_a}, {hi_a}]) and "
                            f"{label_b} (live [{lo_b}, {hi_b}]) overlap in "
                            "one raw arena buffer",
                            _ANALYZER,
                            instr=lo_b,
                        )
                    )
    return findings
