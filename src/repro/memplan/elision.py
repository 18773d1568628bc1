"""Copy elision and in-place rewriting over lowered instruction streams.

Both passes mutate the compiler's working records — the instruction
descriptors and the slot alias-root table — before buffer assignment, so
the coloring pass sees the merged storage groups and the baked closures
inherit the rewrites for free.

**Copy elision** turns materializing shape ops whose result is exactly a
view of their input — ``slice_axis``, leading-axis ``split``, single-input
``concat``, same-shape ``broadcast_to`` — into ``alias`` instructions: the
step binds a numpy view of the input register instead of running a copy
kernel, and the output slot joins the input's alias group. The per-step
LSTM gate slices (four ``slice_axis`` per cell step) are the signature
win: the paper's Figure 7a launch-bound story prices exactly these copies.

**In-place rewriting** lets a last-use elementwise/accumulation
instruction write ``out=`` into a dying input's storage: when the input's
whole alias group is dead after this instruction, the op declares the
operand position in-place-capable, and shape/dtype match exactly, the
output slot is merged into the input's group and the closure's static
buffer *is* the input's buffer. Kernels at ``inplace_operands`` positions
tolerate ``out`` aliasing that operand by contract (fusion already streams
one accumulator through them), so values are bitwise-unchanged.

Safety conditions are re-derived independently by
:mod:`repro.analysis.packing` (MP401/MP403) from the record each pass
leaves behind.
"""

from __future__ import annotations

from typing import Any

from repro.graph.shapes import normalize_axis
from repro.memplan.slotindex import SlotIndex, find_root, resolve_roots

#: descriptor kinds whose single output may take over a dying input's storage
_INPLACE_KINDS = ("out", "fused")


def describe_index(index: Any) -> tuple[Any, ...]:
    """Serialize one alias-view index into a comparable, hashable form.

    The equivalence certifier compares the index object baked into an
    ``alias`` instruction against the pass's witness and against a fresh
    re-derivation from the node's attrs; index objects (slices, tuples of
    slices) are unhashable and compare by identity-insensitive structure,
    so both sides serialize through this one function.
    """
    if index is None:
        return ("rebind",)
    if isinstance(index, slice):
        return ("slice", index.start, index.stop, index.step)
    if isinstance(index, tuple):
        return ("tuple", *(describe_index(i) for i in index))
    if isinstance(index, int):
        return ("int", index)
    return ("opaque", repr(index))


def _alias_indices(desc: dict[str, Any]) -> list[Any] | None:
    """Per-output view index for an elidable copy, or None.

    A returned entry is either an index object (``regs[out] =
    regs[in][index]``) or None for a pure rebind (``regs[out] =
    regs[in]``). Only rewrites whose view is *exactly* the op's value are
    eligible; everything else keeps its copy kernel.
    """
    node = desc["node"]
    op_name = node.op.name
    if len(node.inputs) == 0:
        return None
    in_spec = node.inputs[0]
    if op_name == "slice_axis":
        axis = normalize_axis(node.attrs["axis"], len(in_spec.shape))
        begin, end = node.attrs["begin"], node.attrs["end"]
        if axis == 0 and begin == 0 and end == in_spec.shape[0]:
            return [None]  # full-range slice: identity
        index = (slice(None),) * axis + (slice(begin, end),)
        return [index]
    if op_name == "split":
        axis = normalize_axis(node.attrs["axis"], len(in_spec.shape))
        if axis != 0:
            # Non-leading splits produce strided pieces too, but axis-0 is
            # the only case the op itself prices as free (launch_count 0);
            # match that contract.
            return None
        sections = node.attrs["sections"]
        size = in_spec.shape[0] // sections
        return [slice(k * size, (k + 1) * size) for k in range(sections)]
    if op_name == "concat" and len(node.inputs) == 1:
        return [None]
    if op_name == "broadcast_to":
        if tuple(node.attrs["shape"]) == in_spec.shape:
            return [None]
        return None
    return None


def elide_copies(
    descs: list[dict[str, Any]],
    root: list[int],
    output_slots: frozenset[int] | set[int],
) -> list[dict[str, Any]]:
    """Rewrite view-equivalent copies into ``alias`` instructions.

    Mutates ``descs`` (kind + ``alias_index``) and ``root`` (output slots
    join the input's alias group). Outputs that escape the plan keep
    their copies — callers own escaping arrays, which must never alias
    plan storage. Returns one record per rewritten instruction for the
    memplan record (consumed by the MP401 analyzer and plan stats).

    A rewritten instruction's outputs are their own group roots until
    now (only views, which come later in the stream, can have joined
    them), so joining the source's group is one pointer update per output;
    every slot is pointed straight at its final root once, at the end.
    """
    records: list[dict[str, Any]] = []
    for idx, desc in enumerate(descs):
        if desc["kind"] not in ("out", "generic"):
            continue
        if any(s in output_slots for s in desc["out_slots"]):
            continue
        indices = _alias_indices(desc)
        if indices is None:
            continue
        src = desc["in_slots"][0]
        desc["kind"] = "alias"
        desc["alias_index"] = indices
        target = find_root(root, src)
        for o in desc["out_slots"]:
            root[o] = target
        records.append(
            {
                "instr": idx,
                "op": desc["node"].op.name,
                "src_slot": src,
                "out_slots": list(desc["out_slots"]),
                # The witness payload: the exact view each output binds,
                # serialized so the equivalence certifier can compare it
                # against an independent re-derivation (EQ605).
                "indices": [describe_index(ix) for ix in indices],
            }
        )
    if records:
        resolve_roots(root)
    return records


def _inplace_positions(desc: dict[str, Any]) -> list[tuple[int, int]]:
    """(slot, occurrence count in the instruction) per in-place-capable read.

    For a plain ``out`` instruction these are the op's declared
    ``inplace_operands`` positions. For a fused chain only the *first*
    member may overwrite an external operand — later members read their
    external inputs after the accumulator (the would-be storage) has
    already been written.
    """
    out: list[tuple[int, int]] = []
    if desc["kind"] == "out":
        in_slots = desc["in_slots"]
        for pos in desc["node"].op.inplace_operands:
            if pos < len(in_slots):
                slot = in_slots[pos]
                out.append((slot, sum(1 for s in in_slots if s == slot)))
    elif desc["kind"] == "fused":
        chain = desc["chain"]
        occurrences: dict[int, int] = {}
        for _op, _member, pattern in chain:
            for s in pattern:
                if s >= 0:
                    occurrences[s] = occurrences.get(s, 0) + 1
        first_op, _first_member, first_pattern = chain[0]
        for pos in first_op.inplace_operands:
            if pos < len(first_pattern) and first_pattern[pos] >= 0:
                slot = first_pattern[pos]
                out.append((slot, occurrences[slot]))
    return out


def rewrite_inplace(
    descs: list[dict[str, Any]],
    root: list[int],
    arena_produced: list[bool],
    never_freed: frozenset[int] | set[int],
    storage_specs: dict[int, tuple[tuple[int, ...], Any, int]],
    index: SlotIndex | None = None,
) -> list[dict[str, Any]]:
    """Merge last-use in-place-capable writes into their input's storage.

    Mutates ``root`` so the rewritten instruction's output slot shares the
    dying input group's (future static) buffer; the closure baker then
    binds that buffer as the ``out=`` target. All safety conditions are
    purely structural, so this runs before buffers exist:

    * the target's *entire* alias group is dead after this instruction
      (no member — including views — is read later);
    * the group's storage is arena-produced and escapes through no output,
      source, or constant (it will be static);
    * the group's storage spec exactly matches the instruction's output
      spec (the buffer is reused as-is, no reshape/cast);
    * the target is read exactly once by this instruction, at an
      in-place-capable operand position, and no other operand aliases the
      same storage.

    ``index`` is the stream's :class:`SlotIndex` when the caller holds
    it. Returns one record per rewrite for the memplan record (MP403).
    """
    if index is None:
        index = SlotIndex(descs)

    # ``root`` arrives fully resolved; merges below are pointer updates on
    # a copy, and the table is resolved again once, at the end.
    parent = list(root)
    members: dict[int, list[int]] = {}
    for s, r in enumerate(root):
        members.setdefault(r, []).append(s)
    pinned = {root[s] for s in never_freed}
    # A group's storage is dead once its last reader ran (a member nothing
    # reads dies at its producer).
    group_last_use: dict[int, int] = dict.fromkeys(members, 0)
    for s, made in index.producer.items():
        if made[0] > group_last_use[root[s]]:
            group_last_use[root[s]] = made[0]
    for s, readers in index.consumers.items():
        if readers[-1] > group_last_use[root[s]]:
            group_last_use[root[s]] = readers[-1]

    records: list[dict[str, Any]] = []
    for idx, desc in enumerate(descs):
        if desc["kind"] not in _INPLACE_KINDS or len(desc["out_slots"]) != 1:
            continue
        o = desc["out_slots"][0]
        if parent[o] != o or o in pinned:
            continue  # batched member / already aliased / escaping group
        node = desc["node"]
        spec = node.out_specs[0]
        if spec.nbytes <= 0:
            continue
        out_spec = (spec.shape, spec.dtype, spec.nbytes)
        roots_read: list[int] | None = None
        for slot, occurrences in _inplace_positions(desc):
            if occurrences != 1:
                continue
            r = find_root(parent, slot)
            if r in pinned or not arena_produced[r]:
                continue
            if storage_specs.get(r) != out_spec:
                continue
            if group_last_use[r] > idx:
                continue  # some group member is still live
            if roots_read is None:
                roots_read = [find_root(parent, s) for s in desc["in_slots"]]
            if roots_read.count(r) > 1:
                continue  # another operand aliases the same storage
            group = members[r]
            parent[o] = r
            members[r] = group + members.pop(o)
            group_last_use[r] = max(group_last_use[r], group_last_use.pop(o))
            records.append(
                {
                    "instr": idx,
                    "out": o,
                    "target": slot,
                    "root": r,
                    "members": sorted(group),
                }
            )
            break

    if records:
        resolve_roots(parent)
        root[:] = parent
    return records


#: public names for the equivalence certifier's independent re-derivations
#: (deliberately the *same* functions the pass uses: the certifier checks
#: the lowered stream against them, not against the pass's records alone)
alias_view_indices = _alias_indices
inplace_positions = _inplace_positions
