"""Recomputation safety checker for Echo's mirrored regions.

Echo's promise is that recomputing instead of stashing never changes
training results. That holds only if every mirrored region satisfies the
invariants the rewrite (`echo/rewrite.py`) is supposed to establish:
its stash borders are scheduled before it (dominance), replaying it is
deterministic, and the stage structure still forms valid barriers. This
checker takes a *schedule* (the node order a plan will execute) and
re-verifies each invariant from scratch:

* **EC301** — a RECOMPUTE node consumes a BACKWARD value: the region's
  borders are not all stashes, so it is not a pure replay of forward
  state;
* **EC302** — a mirror disagrees with its ``mirror_of`` original: wrong
  op, wrong output specs, or inputs that are neither the original's
  inputs nor their mirrors (``_clone_as_mirror`` copies specs without
  re-inference, so nothing else ever cross-checks this);
* **EC303** — a non-deterministic op (RNG: dropout) inside a recompute
  region whose seed is not a plain int from the stable crc32 scheme —
  replay would draw a different mask than the forward pass;
* **EC304** — a mirror's attrs differ from its original's (same mask
  seed, same dropout rate, same axis... attrs are the kernel's compile
  -time constants);
* **EC305** — a FORWARD node consumes a RECOMPUTE value (the Echo stage
  barrier lowering relies on would be violated);
* **EC306** — a recompute node none of whose outputs reach a BACKWARD or
  RECOMPUTE consumer (warning: a dead mirror, typically rollback debris —
  wasted replay work but no wrong numerics);
* **EC307** — the schedule orders a consumer before its producer;
* **EC308** — a scheduled node consumes a value whose producer is not in
  the schedule at all.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graph import Node, Stage

from repro.analysis.findings import Finding, finding

__all__ = ["check_recompute_safety"]

_ANALYZER = "recompute"

#: op names whose kernels draw randomness; extend this set when adding a
#: stochastic op, and make its determinism contract checkable from attrs
_RNG_OPS = frozenset({"dropout"})

#: attrs that are scheduling provenance, not kernel inputs — kernels never
#: read them, so a mirror carrying one its original lacks is not a
#: numerics divergence. `echo_manual_recompute` is consumed (and popped
#: from originals) by `echo/manual.py`; mirrors keep the copied mark.
_PROVENANCE_ATTRS = frozenset({"echo_manual_recompute"})


def _attrs_equal(a: dict, b: dict) -> bool:
    a = {k: v for k, v in a.items() if k not in _PROVENANCE_ATTRS}
    b = {k: v for k, v in b.items() if k not in _PROVENANCE_ATTRS}
    if a.keys() != b.keys():
        return False
    for k, va in a.items():
        vb = b[k]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not (
                isinstance(va, np.ndarray)
                and isinstance(vb, np.ndarray)
                and va.shape == vb.shape
                and va.dtype == vb.dtype
                and np.array_equal(va, vb)
            ):
                return False
        elif va is not vb and va != vb:
            return False
    return True


def check_recompute_safety(
    order: Sequence[Node],
    output_keys: Iterable[tuple[int, int]] = (),
) -> list[Finding]:
    """Verify Echo's recompute invariants over a scheduled node order."""
    findings: list[Finding] = []
    position = {n.uid: i for i, n in enumerate(order)}
    output_keys = set(output_keys)

    # EC307 / EC308: schedule integrity (meaningful with or without Echo).
    for node in order:
        for t in node.inputs:
            producer_pos = position.get(t.node.uid)
            if producer_pos is None:
                findings.append(
                    finding(
                        "EC308",
                        f"{node.name!r} consumes {t.short_name!r}, whose "
                        "producer is not in the schedule",
                        _ANALYZER,
                        node=node.name,
                    )
                )
            elif producer_pos >= position[node.uid]:
                findings.append(
                    finding(
                        "EC307",
                        f"{node.name!r} (position {position[node.uid]}) "
                        f"consumes {t.short_name!r} scheduled at "
                        f"{producer_pos}",
                        _ANALYZER,
                        node=node.name,
                    )
                )

    recompute_nodes = [n for n in order if n.stage is Stage.RECOMPUTE]
    if not recompute_nodes:
        return findings
    recompute_uids = {n.uid for n in recompute_nodes}

    # EC305: the forward pass must be closed under the stage barrier.
    for node in order:
        if node.stage is not Stage.FORWARD:
            continue
        for t in node.inputs:
            if t.node.uid in recompute_uids:
                findings.append(
                    finding(
                        "EC305",
                        f"forward node {node.name!r} consumes recompute "
                        f"value {t.short_name!r}; stage runs are no "
                        "longer valid execution barriers",
                        _ANALYZER,
                        node=node.name,
                    )
                )

    # EC301: recompute borders must be stashes (forward), sources, or
    # other mirrors — never backward values.
    for node in recompute_nodes:
        for t in node.inputs:
            if t.node.stage is Stage.BACKWARD:
                findings.append(
                    finding(
                        "EC301",
                        f"recompute node {node.name!r} consumes backward "
                        f"value {t.short_name!r}; its region is not a "
                        "replay of forward state",
                        _ANALYZER,
                        node=node.name,
                    )
                )

    # EC302 / EC304: mirror fidelity against the forward original.
    for node in recompute_nodes:
        original = node.mirror_of
        if original is None:
            findings.append(
                finding(
                    "EC302",
                    f"recompute node {node.name!r} has no mirror_of "
                    "original to validate against",
                    _ANALYZER,
                    node=node.name,
                )
            )
            continue
        if node.op is not original.op:
            findings.append(
                finding(
                    "EC302",
                    f"mirror {node.name!r} runs op {node.op.name!r} but "
                    f"its original runs {original.op.name!r}",
                    _ANALYZER,
                    node=node.name,
                )
            )
        if tuple(node.out_specs) != tuple(original.out_specs):
            findings.append(
                finding(
                    "EC302",
                    f"mirror {node.name!r} annotates {node.out_specs} "
                    f"but its original annotates {original.out_specs}",
                    _ANALYZER,
                    node=node.name,
                )
            )
        if len(node.inputs) != len(original.inputs):
            findings.append(
                finding(
                    "EC302",
                    f"mirror {node.name!r} has {len(node.inputs)} inputs "
                    f"but its original has {len(original.inputs)}",
                    _ANALYZER,
                    node=node.name,
                )
            )
        else:
            for pos, (mt, ot) in enumerate(zip(node.inputs, original.inputs)):
                if mt.key == ot.key:
                    continue  # stash border: reads the original value
                if (
                    mt.node.mirror_of is ot.node
                    and mt.index == ot.index
                ):
                    continue  # interior edge re-pointed at a sibling mirror
                findings.append(
                    finding(
                        "EC302",
                        f"mirror {node.name!r} input {pos} reads "
                        f"{mt.short_name!r}, which is neither the "
                        f"original's input {ot.short_name!r} nor its "
                        "mirror",
                        _ANALYZER,
                        node=node.name,
                    )
                )
        if not _attrs_equal(node.attrs, original.attrs):
            findings.append(
                finding(
                    "EC304",
                    f"mirror {node.name!r} attrs {node.attrs!r} differ "
                    f"from the original's {original.attrs!r}",
                    _ANALYZER,
                    node=node.name,
                )
            )

    # EC303: determinism of replayed RNG ops. The dropout kernel redraws
    # its mask from (seed, global step); a replay is bit-identical only
    # when the seed is a plain int (the stable_seed crc32 scheme), not
    # None/float/absent — anything else re-seeds differently or crashes.
    for node in recompute_nodes:
        if node.op.name not in _RNG_OPS:
            continue
        seed = node.attrs.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            findings.append(
                finding(
                    "EC303",
                    f"recomputed RNG node {node.name!r} has seed "
                    f"{seed!r}; replay cannot reproduce the forward "
                    "pass's draw without a stable integer seed",
                    _ANALYZER,
                    node=node.name,
                )
            )

    # EC306: mirrors that never drain into the backward pass.
    drained: set[int] = set()
    for node in order:
        if node.stage is Stage.FORWARD:
            continue
        for t in node.inputs:
            if t.node.uid in recompute_uids and t.node.uid != node.uid:
                drained.add(t.node.uid)
    for node in recompute_nodes:
        if node.uid in drained:
            continue
        if any((node.uid, i) in output_keys for i in range(len(node.out_specs))):
            continue
        findings.append(
            finding(
                "EC306",
                f"recompute node {node.name!r} has no backward or "
                "recompute consumer; it replays for nothing",
                _ANALYZER,
                node=node.name,
            )
        )
    return findings
