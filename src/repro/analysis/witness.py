"""Rewrite witnesses: machine-checkable claims attached to a compiled plan.

Every semantics-preserving rewrite in the pipeline leaves a small record
of *why* it is legal, in terms the equivalence certifier
(:mod:`repro.analysis.equiv`) can re-check without re-running the pass:

* :class:`FusionWitness` — "instruction ``i`` computes the composition of
  these chain members, accumulated in one buffer of this shape/dtype";
* :class:`AliasWitness` — "instruction ``i``'s copy kernel was elided:
  each output is exactly this view of the source register";
* :class:`InplaceWitness` — "instruction ``i`` overwrites its dying
  ``target`` operand's storage; the target's whole alias group is dead";
* :class:`MirrorWitness` — "recompute node ``mirror_uid`` denotes the
  same value as forward node ``original_uid``" (the Echo rewrite; the
  mirror additionally carries ``mirror_of`` on the node itself).

A :class:`WitnessSet` aggregates the plan-level witnesses and travels on
:class:`repro.runtime.lowering.PlanLowering`. The certifier treats a
rewrite *without* a witness as a finding (EQ602) and a witness that fails
its own checks as EQ603/EQ604/EQ605 — the witnesses are claims to be
verified, never trusted. This module is dependency-free so every layer
of the pipeline can emit witnesses without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FusionWitness",
    "AliasWitness",
    "InplaceWitness",
    "MirrorWitness",
    "WitnessSet",
]


@dataclass(frozen=True)
class FusionWitness:
    """One fused elementwise chain: instruction = compose(members)."""

    instr: int
    tail_uid: int
    #: member node uids, chain (execution) order; the tail is last
    members: tuple[int, ...]
    #: shape/dtype of the single accumulator buffer (= every member's)
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class AliasWitness:
    """One elided copy: each output is a dense view of the source slot.

    ``indices`` holds one serialized index descriptor per output (see
    :func:`repro.memplan.elision.describe_index`): ``("rebind",)`` for a
    whole-register rebind, else the normalized slice expression applied
    to the source register.
    """

    instr: int
    op: str
    src_slot: int
    out_slots: tuple[int, ...]
    indices: tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class InplaceWitness:
    """One in-place redirect: the output takes over ``target``'s storage.

    ``members`` is the target's whole alias group at rewrite time — the
    certifier re-derives that no member is read after ``instr`` and that
    the group escapes through no source/constant/output slot.
    """

    instr: int
    out: int
    target: int
    root: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class MirrorWitness:
    """One Echo recompute mirror: ``mirror_uid`` ≡ ``original_uid``."""

    mirror_uid: int
    original_uid: int
    op: str


@dataclass
class WitnessSet:
    """All plan-level witnesses of one lowering, keyed by instruction."""

    fusions: dict[int, FusionWitness] = field(default_factory=dict)
    aliases: dict[int, AliasWitness] = field(default_factory=dict)
    inplace: tuple[InplaceWitness, ...] = ()

    def __len__(self) -> int:
        return (
            len(self.fusions)
            + len(self.aliases)
            + len(self.inplace)
        )
