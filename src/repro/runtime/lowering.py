"""Lowering: a schedule becomes a slot-indexed instruction stream with a
static buffer plan — every decision of a compiled plan except its code.

:func:`lower` runs once per (schedule, arena) and returns a
:class:`PlanLowering`:

* tensors get dense integer **slots** into a list register file;
* chains of single-consumer elementwise/activation nodes are **fused**
  into one instruction that streams a single accumulator buffer through
  the chain with ``out=`` kernels (the cuDNN-style pointwise fusion the
  paper's Figure 7a launch-bound story rests on). A chain may start at a
  GEMM and never makes a member wait, so fusion shortens the stream
  without lengthening a live range (``_fuse_chains``);
* because the stream repeats identically every iteration, buffer reuse is
  decided here (:mod:`repro.memplan`): copies become aliases, last-use
  writes land in their dying input, and every remaining intermediate gets
  a **static buffer** — a slice of one contiguous arena extent, packed by
  exact live interval;
* per-instruction **register clears** drop per-run arrays at their last
  use, and every rewrite leaves a **witness** for the equivalence
  certifier (:mod:`repro.analysis.equiv`).

Cost: one pass over the schedule and one buffer plan (which takes the
extent from the arena and parks it again). No closure is generated and
nothing executes — the analyzers in :mod:`repro.analysis`
check the record as it stands, and :mod:`repro.runtime.codegen` bakes it.

Numerics are untouched by every decision here: fusion only reorders
*where* a kernel runs (legal because a chain's interior values have
exactly one consumer) and never crosses a stage boundary, so Echo's
mirrored recompute regions keep their checkpoint semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.graph import Node, Tensor, dtype_name
from repro.memplan.planner import MemplanRecord, plan_buffers
from repro.memplan.slotindex import SlotIndex
from repro.runtime.arena import Arena, storage_base
from repro.runtime.memory import TensorKey

#: ops bound from the caller's feeds / params rather than computed
SOURCE_OPS = ("placeholder", "variable")


@dataclass
class PlanLowering:
    """Compile-time artifacts of one lowered schedule, for analysis.

    This is the contract the static analyzers in :mod:`repro.analysis`
    consume: everything the compiler decided — instruction descriptors,
    slot identities, alias roots, the simulated free replay, and the
    static buffer assignment — captured *before* any closure is baked,
    so a verifier can recompute liveness and storage reuse independently
    and cross-check the plan without executing it.

    ``descs`` entries are dicts with at least ``kind`` (``out`` /
    ``generic`` / ``view`` / ``fused`` / ``alias``), ``node``,
    ``in_slots`` and ``out_slots``; alias entries (copy elision) carry
    ``alias_index``. They are the compiler's own
    working records (shared, not copied) — treat them as read-only
    unless deliberately corrupting a fixture.
    """

    #: instruction descriptors, stream order
    descs: list[dict[str, Any]]
    #: tensor key -> register slot
    slot_of: dict[TensorKey, int]
    #: alias-group root of each slot (views share their input's storage)
    root: list[int]
    source_slots: frozenset[int]
    constant_slots: frozenset[int]
    output_slots: frozenset[int]
    #: whether each *root* slot's storage participates in the arena replay
    releasable: list[bool]
    #: instruction index -> [(slot, root, releasable)] freed after it
    frees_at: dict[int, list[tuple[int, int, bool]]]
    #: root slot -> permanently-assigned static buffer view
    static_views: dict[int, np.ndarray]
    #: the buffer planner's record (placements, elisions, in-place rewrites)
    memplan: MemplanRecord
    #: id(raw buffer) -> nbytes for every distinct static storage base
    static_bases: dict[int, int] = field(default_factory=dict)
    #: :class:`repro.analysis.witness.WitnessSet` of every rewrite the
    #: lowering performed (fusion/elision/in-place), consumed by
    #: the equivalence certifier; None only for hand-built fixtures
    witnesses: Any = None
    #: producer/consumer-by-slot index of ``descs``, built at lowering
    #: time; read through :meth:`slot_index`, which re-derives it when the
    #: descriptors were edited since
    index: SlotIndex | None = None
    #: instruction index -> slots whose per-run arrays die after it
    clears_at: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def slot_index(self) -> SlotIndex:
        """The :class:`SlotIndex` of ``descs`` as they are now."""
        if self.index is None or not self.index.is_current(self.descs):
            self.index = SlotIndex(self.descs)
        return self.index


def lower(
    order: Sequence[Node],
    outputs: Sequence[Tensor],
    arena: Arena,
    fuse: bool = True,
) -> PlanLowering:
    """Lower ``order`` into a :class:`PlanLowering`; no code is generated.

    ``fuse=False`` keeps every node its own instruction (the reference
    lowering fusion is measured against).
    """
    output_keys = {t.key for t in outputs}

    source_nodes = [n for n in order if n.op.name in SOURCE_OPS]
    constant_nodes = [n for n in order if n.op.name == "constant"]
    body = [
        n
        for n in order
        if n.op.name not in SOURCE_OPS and n.op.name != "constant"
    ]

    if fuse:
        chains = _fuse_chains(body, output_keys)
    else:
        chains = [[n] for n in body]

    # Slot assignment: sources, constants, and every materialized
    # instruction output. Fused-chain interiors never materialize.
    slot_of: dict[TensorKey, int] = {}

    def new_slot(key: TensorKey) -> int:
        slot_of[key] = len(slot_of)
        return slot_of[key]

    for node in source_nodes:
        new_slot((node.uid, 0))
    for node in constant_nodes:
        new_slot((node.uid, 0))
    for chain in chains:
        tail = chain[-1]
        for i in range(len(tail.out_specs)):
            new_slot((tail.uid, i))

    nslots = len(slot_of)

    # Alias roots: a view output shares its input's storage; the whole
    # group's storage is reusable only when every member is dead.
    root = list(range(nslots))
    arena_produced = [False] * nslots
    source_slots = {slot_of[(n.uid, 0)] for n in source_nodes}
    constant_slots = {slot_of[(n.uid, 0)] for n in constant_nodes}
    output_slots = {slot_of[t.key] for t in outputs}

    # First pass: instruction descriptors (kind, slots) + root/arena
    # marking, so releasability is known before buffers are assigned.
    descs: list[dict[str, Any]] = []
    for chain in chains:
        tail = chain[-1]
        out_slots = tuple(
            slot_of[(tail.uid, i)] for i in range(len(tail.out_specs))
        )
        if len(chain) > 1:
            interior = {(n.uid, 0) for n in chain[:-1]}
            patterns = []
            in_slots: list[int] = []
            for member in chain:
                pattern = tuple(
                    -1 if t.key in interior else slot_of[t.key]
                    for t in member.inputs
                )
                patterns.append((member.op, member, pattern))
                in_slots.extend(s for s in pattern if s >= 0)
            descs.append(
                {
                    "kind": "fused",
                    "chain": patterns,
                    "node": tail,
                    "in_slots": tuple(in_slots),
                    "out_slots": out_slots,
                    # Rewrite witness, stamped where the decision is
                    # made (position-independent: the planner may
                    # rewrite the stream's kinds, never its order).
                    "witness": {
                        "members": tuple(m.uid for m in chain),
                        "tail": tail.uid,
                        "shape": tail.out_specs[0].shape,
                        "dtype": dtype_name(tail.out_specs[0].dtype),
                    },
                }
            )
            arena_produced[out_slots[0]] = True
            continue
        node = tail
        in_slots = tuple(slot_of[t.key] for t in node.inputs)
        if node.op.may_alias and node.inputs:
            kind = "view"
            root[out_slots[0]] = root[in_slots[0]]
        elif node.op.supports_out:
            kind = "out"
            for s in out_slots:
                arena_produced[s] = True
        else:
            kind = "generic"
        descs.append(
            {
                "kind": kind,
                "node": node,
                "in_slots": in_slots,
                "out_slots": out_slots,
            }
        )

    # Buffer planning (repro.memplan): releasability, liveness, and
    # static storage assignment. The planner first rewrites the stream —
    # view-equivalent copies become ``alias`` instructions, last-use
    # in-place-capable writes take over their dying input's storage —
    # then packs every group's exact live interval into one contiguous
    # arena extent by first-fit-decreasing coloring. Outputs and groups
    # that escape through an output stay dynamic — they are handed to
    # the caller every run and must never be overwritten.
    # The stream is final from here on (planning rewrites kinds and
    # alias groups, never an instruction's slots): index it once.
    index = SlotIndex(descs)
    assignment = plan_buffers(
        descs,
        root,
        nslots,
        arena_produced,
        source_slots,
        constant_slots,
        output_slots,
        arena,
        index,
    )
    frees_at = assignment.frees_at
    static_views = assignment.static_views

    # Per-instruction register clears: drop references to per-run
    # arrays (outputs of generic/dynamic instructions and views of
    # them) when dead. A slot whose alias-group *root* is static —
    # the buffer itself, a view of it, an in-place-merged output —
    # holds at most an array header over storage that persists by
    # design, in a register file that lives for one run, so it is
    # filtered out of the hot loop entirely.
    clears_at: dict[int, tuple[int, ...]] = {
        idx: tuple(s for s, r, _rel in fs if r not in static_views)
        for idx, fs in frees_at.items()
    }

    raws: dict[int, int] = {}
    for view in static_views.values():
        base = storage_base(view)
        raws[id(base)] = base.nbytes

    return PlanLowering(
        descs=descs,
        slot_of=dict(slot_of),
        root=list(root),
        source_slots=frozenset(source_slots),
        constant_slots=frozenset(constant_slots),
        output_slots=frozenset(output_slots),
        releasable=list(assignment.releasable),
        frees_at={idx: list(fs) for idx, fs in frees_at.items()},
        static_views=dict(static_views),
        static_bases=dict(raws),
        memplan=assignment.record,
        witnesses=_witnesses(descs, assignment.record),
        index=index,
        clears_at=clears_at,
    )


def _witnesses(descs: list[dict[str, Any]], record: MemplanRecord) -> Any:
    """Every rewrite witness of the stream as one plan-level set."""
    # Imported lazily: repro.analysis imports the runtime at package
    # level, and the witness dataclasses are deliberately dependency-free.
    from repro.analysis.witness import (
        AliasWitness,
        FusionWitness,
        InplaceWitness,
        WitnessSet,
    )

    witness_set = WitnessSet()
    for idx, desc in enumerate(descs):
        payload = desc.get("witness")
        if payload is not None:
            witness_set.fusions[idx] = FusionWitness(
                instr=idx,
                tail_uid=payload["tail"],
                members=payload["members"],
                shape=payload["shape"],
                dtype=payload["dtype"],
            )
    for rec in record.elided:
        witness_set.aliases[rec["instr"]] = AliasWitness(
            instr=rec["instr"],
            op=rec["op"],
            src_slot=rec["src_slot"],
            out_slots=tuple(rec["out_slots"]),
            indices=tuple(rec.get("indices", ())),
        )
    witness_set.inplace = tuple(
        InplaceWitness(
            instr=rec["instr"],
            out=rec["out"],
            target=rec["target"],
            root=rec["root"],
            members=tuple(rec["members"]),
        )
        for rec in record.inplace
    )
    return witness_set


def _fuse_chains(
    body: list[Node], output_keys: set[TensorKey]
) -> list[list[Node]]:
    """Group the body into maximal single-consumer chains.

    An edge producer->consumer fuses when both ops are single-output
    and ``fusion_eligible``, the producer's only consumer is this node
    (once, at an in-place-capable operand position), shapes and dtypes
    match (so one accumulator buffer serves the whole chain), the
    value does not escape as a graph output, and both nodes belong to
    the same stage — fusion never crosses a checkpoint boundary, so
    Echo's mirrored recompute regions stay intact.

    A chain executes at its tail's position, so every member it makes
    wait keeps that member's operands live. Two rules therefore keep
    fusion from lengthening a live range: a chain may also *start* at a
    ``fusion_head`` GEMM, and of a consumer's fusable producers the one
    scheduled *last* takes it — the others are complete by then and are
    read as external operands. Gradient accumulation ``add(acc,
    matmul(..))`` then lowers to one ``[matmul -> add]`` per timestep at
    the matmul's own position, reading the running sum: two live buffers
    per shared weight. First-producer-wins chains every ``add`` at the end
    of backward instead and keeps all T partial products live until then.
    """
    consumers: dict[TensorKey, list[tuple[Node, int]]] = {}
    for n in body:
        for pos, t in enumerate(n.inputs):
            consumers.setdefault(t.key, []).append((n, pos))

    next_of: dict[int, Node] = {}
    prev_of: dict[int, Node] = {}
    # Claims are first come, first served: walking the stream backwards
    # hands each consumer to its last-scheduled producer.
    for a in reversed(body):
        if len(a.out_specs) != 1 or not (
            a.op.fusion_eligible or a.op.fusion_head
        ):
            continue
        key = (a.uid, 0)
        if key in output_keys:
            continue
        cons = consumers.get(key, [])
        if len(cons) != 1:
            continue
        b, pos = cons[0]
        if not b.op.fusion_eligible or len(b.out_specs) != 1:
            continue
        if pos not in b.op.inplace_operands:
            continue
        if b.uid in prev_of:
            continue
        if a.out_specs[0].shape != b.out_specs[0].shape:
            continue
        if a.out_specs[0].dtype != b.out_specs[0].dtype:
            continue
        if a.stage is not b.stage:
            continue
        next_of[a.uid] = b
        prev_of[b.uid] = a

    chains: list[list[Node]] = []
    for n in body:
        if n.uid in next_of:
            continue  # absorbed into its consumer's instruction
        chain = [n]
        cur = n
        while cur.uid in prev_of:
            cur = prev_of[cur.uid]
            chain.append(cur)
        chain.reverse()
        chains.append(chain)
    return chains
