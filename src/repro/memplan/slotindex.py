"""Producer/consumer-by-slot index over one lowered instruction stream.

Liveness, in-place eligibility and the packing analyzer all ask the same
two questions of a stream — which instruction defines this slot, and which
instructions read it — and each used to answer by walking every
descriptor (the analyzer once per in-place write). :class:`SlotIndex`
answers both from one pass, built where the stream is final (after GEMM
batching) and carried on the plan's lowering record.

The index holds positions only, never specs or kinds: those are read from
the descriptor an entry points at, at lookup time. And it knows whether it
still describes a stream — :meth:`SlotIndex.is_current` compares every
descriptor's slot tuples by identity — so an analyzer handed a lowering
whose descriptors were edited after compilation (the seeded-corruption
fixtures) re-derives the index instead of trusting a stale one.
"""

from __future__ import annotations

from typing import Any, Sequence

#: (shape, dtype, nbytes) of the buffer backing an alias group
StorageSpec = tuple[tuple[int, ...], Any, int]


class SlotIndex:
    """Who defines and who reads each slot of ``descs``."""

    __slots__ = ("producer", "consumers", "_ins", "_outs")

    def __init__(self, descs: Sequence[dict[str, Any]]) -> None:
        #: slot -> (defining instruction, position among its outputs);
        #: the first definition, for a slot a corrupt stream defines twice
        self.producer: dict[int, tuple[int, int]] = {}
        #: slot -> reading instructions, ascending, each once
        self.consumers: dict[int, list[int]] = {}
        self._ins = [desc["in_slots"] for desc in descs]
        self._outs = [desc["out_slots"] for desc in descs]
        producer, consumers = self.producer, self.consumers
        for idx, in_slots in enumerate(self._ins):
            for s in in_slots:
                readers = consumers.get(s)
                if readers is None:
                    consumers[s] = [idx]
                elif readers[-1] != idx:
                    readers.append(idx)
            for pos, s in enumerate(self._outs[idx]):
                if s not in producer:
                    producer[s] = (idx, pos)

    def is_current(self, descs: Sequence[dict[str, Any]]) -> bool:
        """Whether ``descs`` is still the stream this index was built on."""
        if len(descs) != len(self._ins):
            return False
        for desc, in_slots, out_slots in zip(descs, self._ins, self._outs):
            if (
                desc["in_slots"] is not in_slots
                or desc["out_slots"] is not out_slots
            ):
                return False
        return True

    def producer_spec(
        self, descs: Sequence[dict[str, Any]], slot: int
    ) -> StorageSpec | None:
        """Spec of the arena buffer ``slot``'s producer writes, or None
        when no ``out=`` kernel produces it (views, aliases, generic ops
        and batched members other than the group's first)."""
        made = self.producer.get(slot)
        if made is None:
            return None
        idx, pos = made
        desc = descs[idx]
        kind = desc["kind"]
        if kind in ("out", "fused"):
            spec = desc["node"].out_specs[pos]
            return (spec.shape, spec.dtype, spec.nbytes)
        if kind == "batched" and pos == 0:
            spec = desc["node"].out_specs[0]
            group = len(desc["out_slots"])
            return ((group,) + spec.shape, spec.dtype, group * spec.nbytes)
        return None


def find_root(root: list[int], slot: int) -> int:
    """Group root of ``slot`` in a parent-pointer ``root`` table (halves
    the path it walks)."""
    while root[slot] != slot:
        root[slot] = root[root[slot]]
        slot = root[slot]
    return slot


def resolve_roots(root: list[int]) -> None:
    """Point every slot of a parent-pointer ``root`` table straight at its
    group's root, in place (one pass; chains compress as they are chased).

    The rewriting passes merge alias groups by point updates — ``root[o] =
    target`` — and call this once at the end, instead of rewriting the
    whole table after every merge.
    """
    for slot in range(len(root)):
        r = root[slot]
        if root[r] == r:
            continue
        r = find_root(root, r)
        hop = slot
        while root[hop] != r:
            root[hop], hop = r, root[hop]
