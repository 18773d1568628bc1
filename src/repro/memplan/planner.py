"""Buffer planning for compiled plans: rewrite, then color live intervals.

This is the memory-optimization stage between scheduling and lowering:
:class:`repro.runtime.compiled.CompiledPlan` hands it the instruction
descriptors and the slot alias-root table and gets back everything buffer
related — releasability, the free schedule, the static buffer views, and
the :class:`MemplanRecord` the analyzers and stats consume.

The planner runs copy elision and in-place rewriting
(:mod:`repro.memplan.elision`) over the stream, recomputes liveness over
the merged alias groups, and packs every releasable group's exact live
interval into one contiguous arena extent by first-fit-decreasing
coloring (:mod:`repro.memplan.coloring`). The extent is acquired from the
arena's extent pool and immediately parked again, so a later sibling plan
sharing the arena (the bucketed trainer) overlays it when it fits — and
takes a fresh extent of its own when it does not, which is every plan of
an ascending bucket list.

Storage-hazard tokens: with one extent backing every static buffer, a
"same raw base" rule would serialize the whole wavefront schedule, so
each placement is labeled with the atomic byte-range tokens of
:func:`repro.memplan.coloring.atomic_tokens`; two instructions conflict
iff their placements actually intersect in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from repro.memplan.coloring import Request, atomic_tokens, pack_intervals
from repro.memplan.elision import elide_copies, rewrite_inplace
from repro.memplan.slotindex import SlotIndex, StorageSpec
from repro.obs import trace as obs_trace


@dataclass
class MemplanRecord:
    """What the planner decided, for analyzers and plan stats.

    ``placements`` maps a storage key — an alias-group root slot, or
    ``("scratch", instr_idx, "a"|"b")`` for batched-GEMM stacking scratch
    — to ``(first_instr, last_instr, offset, nbytes)`` within the extent.
    """

    extent_bytes: int = 0
    planned_peak_bytes: int = 0
    placements: dict[Hashable, tuple[int, int, int, int]] = field(
        default_factory=dict
    )
    #: copy-elision rewrites (see :func:`repro.memplan.elision.elide_copies`)
    elided: list[dict[str, Any]] = field(default_factory=list)
    #: in-place rewrites (see :func:`~repro.memplan.elision.rewrite_inplace`)
    inplace: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class BufferAssignment:
    """Everything :class:`CompiledPlan` needs back from buffer planning."""

    releasable: list[bool]
    frees_at: dict[int, list[tuple[int, int, bool]]]
    static_views: dict[int, np.ndarray]
    record: MemplanRecord
    #: placement byte-range tokens for hazard edges
    storage_tokens: dict[Hashable, tuple[int, ...]]
    elided_copy_count: int = 0
    inplace_write_count: int = 0


def _liveness(
    index: SlotIndex,
    root: list[int],
    never_freed: set[int],
    releasable: list[bool],
) -> tuple[dict[int, int], dict[int, int],
           dict[int, list[tuple[int, int, bool]]]]:
    """(def_at, last_use, frees_at) over the instruction stream.

    Identical to the lowering's historical liveness rules: a slot dies
    after its last consuming instruction (or its producer if never
    consumed); sources, constants, and outputs are never freed.
    """
    def_at = {s: made[0] for s, made in index.producer.items()}
    last_use = {s: readers[-1] for s, readers in index.consumers.items()}
    for s, idx in def_at.items():
        last_use.setdefault(s, idx)
    frees_at: dict[int, list[tuple[int, int, bool]]] = {}
    for s, idx in last_use.items():
        if s in never_freed:
            continue
        frees_at.setdefault(idx, []).append((s, root[s], releasable[root[s]]))
    return def_at, last_use, frees_at


def _releasability(
    nslots: int,
    root: list[int],
    arena_produced: list[bool],
    output_slots: set[int],
) -> tuple[list[bool], dict[int, list[int]]]:
    """A group's storage is recyclable iff arena-made and never escaping."""
    members: dict[int, list[int]] = {}
    for s in range(nslots):
        members.setdefault(root[s], []).append(s)
    releasable = [False] * nslots
    for r, group in members.items():
        releasable[r] = arena_produced[r] and not any(
            m in output_slots for m in group
        )
    return releasable, members


def _storage_specs(
    descs: list[dict[str, Any]], index: SlotIndex
) -> dict[int, StorageSpec]:
    """Backing-buffer spec for every arena-produced group root."""
    specs: dict[int, StorageSpec] = {}
    for s in index.producer:
        spec = index.producer_spec(descs, s)
        if spec is not None:
            specs[s] = spec
    return specs


def _assign_storage(
    descs: list[dict[str, Any]],
    root: list[int],
    nslots: int,
    arena_produced: list[bool],
    never_freed: set[int],
    output_slots: set[int],
    arena: Any,
    index: SlotIndex,
) -> BufferAssignment:
    """Elide copies, rewrite in-place, then color exact live intervals."""
    # Neither rewrite touches an instruction's slots (elision changes its
    # kind, in-place merges groups), so one index serves all three stages.
    elided = elide_copies(descs, root, output_slots)
    storage_specs = _storage_specs(descs, index)
    inplace = rewrite_inplace(
        descs, root, arena_produced, never_freed, storage_specs, index
    )
    releasable, members = _releasability(
        nslots, root, arena_produced, output_slots
    )
    def_at, last_use, frees_at = _liveness(
        index, root, never_freed, releasable
    )

    end = max(len(descs) - 1, 0)
    requests: list[Request] = []
    specs_of: dict[Hashable, StorageSpec] = {}
    for r, group in members.items():
        if not releasable[r]:
            continue
        spec = storage_specs.get(r)
        if spec is None or spec[2] <= 0:
            continue
        lo = def_at.get(r)
        if lo is None:
            continue
        hi = max(last_use.get(m, lo) for m in group)
        requests.append((r, lo, hi, spec[2]))
        specs_of[r] = spec
    for idx, desc in enumerate(descs):
        if desc["kind"] != "batched":
            continue
        node = desc["node"]
        a, b = node.inputs
        group = len(desc["out_slots"])
        for which, operand in (("a", a), ("b", b)):
            if desc[f"shared_{which}"]:
                continue
            nbytes = group * operand.nbytes
            if nbytes <= 0:
                continue
            key = ("scratch", idx, which)
            # Scratch is owned for the plan's whole life: it is rewritten
            # every iteration, so it must never time-share bytes with any
            # other placement.
            requests.append((key, idx, end, nbytes))
            specs_of[key] = ((group,) + operand.shape, operand.dtype, nbytes)

    packed = pack_intervals(requests)
    extent_bytes = packed.extent_bytes
    raw = arena.acquire_extent(extent_bytes) if extent_bytes > 0 else None

    static_views: dict[int, np.ndarray] = {}
    placements: dict[Hashable, tuple[int, int, int, int]] = {}
    byte_ranges: dict[Hashable, tuple[int, int]] = {}
    for key, lo, hi, nbytes in requests:
        shape, dtype, _n = specs_of[key]
        off = packed.offsets[key]
        assert raw is not None
        view = raw[off:off + nbytes].view(dtype).reshape(shape)
        placements[key] = (lo, hi, off, nbytes)
        byte_ranges[key] = (off, nbytes)
        if isinstance(key, tuple):
            _tag, idx, which = key
            descs[idx][f"scratch_{which}"] = view
        else:
            static_views[key] = view
    if raw is not None:
        # Park the extent for sibling plans compiled against this arena;
        # the views above keep it alive.
        arena.release_extent(raw)

    # Zero-byte scratch still needs an array for the stacked kernel view.
    for idx, desc in enumerate(descs):
        if desc["kind"] != "batched":
            continue
        node = desc["node"]
        a, b = node.inputs
        group = len(desc["out_slots"])
        for which, operand in (("a", a), ("b", b)):
            if desc[f"shared_{which}"] or desc[f"scratch_{which}"] is not None:
                continue
            desc[f"scratch_{which}"] = np.empty(
                (group,) + operand.shape, dtype=operand.dtype
            )

    record = MemplanRecord(
        extent_bytes=extent_bytes,
        planned_peak_bytes=packed.planned_peak_bytes,
        placements=placements,
        elided=elided,
        inplace=inplace,
    )
    return BufferAssignment(
        releasable=releasable,
        frees_at=frees_at,
        static_views=static_views,
        record=record,
        storage_tokens=atomic_tokens(byte_ranges),
        elided_copy_count=sum(len(e["out_slots"]) for e in elided),
        inplace_write_count=len(inplace),
    )


def plan_buffers(
    descs: list[dict[str, Any]],
    root: list[int],
    nslots: int,
    arena_produced: list[bool],
    source_slots: set[int],
    constant_slots: set[int],
    output_slots: set[int],
    arena: Any,
    index: SlotIndex | None = None,
) -> BufferAssignment:
    """Assign static storage for one lowered stream; may rewrite it.

    ``descs``, ``root``, and ``arena_produced`` are the compiler's working
    records and are mutated in place (copies are rewritten to aliases,
    in-place writes merge alias groups). ``index`` is the stream's
    :class:`SlotIndex` when the caller built one. The returned assignment
    carries the free schedule and static views the closure baker consumes.
    """
    if index is None:
        index = SlotIndex(descs)
    never_freed = set(source_slots) | set(constant_slots) | set(output_slots)
    with obs_trace.span(
        "memplan.pack", "plan", {"instrs": len(descs)}
    ) as sp:
        assignment = _assign_storage(
            descs, root, nslots, arena_produced, never_freed, output_slots,
            arena, index,
        )
        sp["extent_bytes"] = assignment.record.extent_bytes
    return assignment
