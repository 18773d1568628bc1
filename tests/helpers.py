"""Shared test utilities: numerical gradient checking against autodiff,
and reference implementations kept as oracles for optimized code."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Mapping, Sequence

import numpy as np

import repro.ops as O
from repro.autodiff import build_gradients
from repro.gpumodel import DeviceModel
from repro.graph import Tensor
from repro.graph.traversal import topo_order
from repro.memplan.coloring import PackResult, waterline
from repro.ops.dropout import set_global_step
from repro.runtime import ExecutionError, GraphExecutor
from repro.runtime.arena import round_up


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class AboveGateDevice(DeviceModel):
    """Prices every kernel at one host second — far above the wavefront
    gate's hand-off — so every level with independent instructions goes
    parallel however small the tensors are. The one device every
    parallel-execution test compiles with: tiny test graphs would
    otherwise (correctly) fall back to the serial body and the test would
    silently stop covering the worker pool. Users assert
    ``plan.parallel_level_count > 0``. Simulated-GPU pricing
    (``node_cost``) is the plain analytic model's."""

    @property
    def cache_token(self) -> tuple:
        return ("above-gate", "test")

    def predict_host_seconds(self, node) -> float:
        return 1.0


def check_gradients(
    build: Callable[[Sequence[Tensor]], Tensor],
    input_arrays: Sequence[np.ndarray],
    eps: float = 1e-6,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    seed: int = 0,
) -> None:
    """Verify autodiff gradients of ``build(inputs) -> output tensor``.

    Inputs are float64 placeholders; the output is contracted with a fixed
    random cotangent to produce a scalar, whose gradient is compared to
    central differences.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in input_arrays]
    placeholders = [
        O.placeholder(a.shape, np.float64, name=f"gc_in{i}")
        for i, a in enumerate(arrays)
    ]
    out = build(placeholders)
    cotangent = rng(seed).standard_normal(out.shape)
    weights = O.constant(cotangent.astype(np.float64))
    loss = O.reduce_sum(O.mul(out, weights)) if out.shape else O.mul(out, weights)

    grad_map = build_gradients(loss, placeholders)
    grad_tensors = [grad_map[p.key] for p in placeholders]
    missing = [i for i, g in enumerate(grad_tensors) if g is None]
    assert not missing, f"no gradient flowed to inputs {missing}"

    executor = GraphExecutor([loss, *grad_tensors])

    def feeds_for(values: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        return {f"gc_in{i}": v for i, v in enumerate(values)}

    result = executor.run(feeds_for(arrays))
    analytic = result.outputs[1:]

    loss_exec = GraphExecutor([loss])

    def loss_at(values: Sequence[np.ndarray]) -> float:
        return float(loss_exec.run(feeds_for(values)).outputs[0])

    for idx, base in enumerate(arrays):
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss_at(arrays)
            flat[j] = orig - eps
            down = loss_at(arrays)
            flat[j] = orig
            num_flat[j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(
            analytic[idx],
            numeric,
            rtol=rtol,
            atol=atol,
            err_msg=f"gradient mismatch for input {idx}",
        )


def reference_run(
    outputs: Sequence[Tensor],
    feeds: Mapping[str, np.ndarray] | None = None,
    params: Mapping[str, np.ndarray] | None = None,
    step: int = 0,
) -> list[np.ndarray]:
    """The arena-free evaluator compiled plans must match bitwise.

    A plain topological walk calling each node's ``op.compute``: no
    schedule, memory plan, arena or generated closure, so it shares no
    storage code with the path under test. ``step`` is the iteration the
    counter-based dropout masks are drawn for (an executor's n-th ``run``
    is step n-1). Bad bindings and kernel failures raise
    :class:`ExecutionError` naming the node, like the executor; so does a
    kernel whose result breaks its op's contract (a dtype or shape other
    than the spec's, or a non-C-ordered result from an ``out=`` op).
    """
    set_global_step(step)
    values: dict[tuple[int, int], np.ndarray] = {}
    for node in topo_order(outputs):
        kind = node.op.name
        if kind in ("placeholder", "variable"):
            table = (feeds if kind == "placeholder" else params) or {}
            if node.name not in table:
                raise ExecutionError(f"{kind} {node.name!r} was not bound")
            arr = np.asarray(table[node.name])
            spec = node.out_specs[0]
            if tuple(arr.shape) != spec.shape:
                raise ExecutionError(
                    f"{kind} {node.name!r}: bound shape {arr.shape} != "
                    f"declared {spec.shape}"
                )
            values[(node.uid, 0)] = arr.astype(spec.dtype, copy=False)
            continue
        try:
            results = node.op.compute(node, [values[t.key] for t in node.inputs])
        except Exception as exc:
            raise ExecutionError(f"kernel failure in {node!r}: {exc}") from exc
        for i, (arr, spec) in enumerate(zip(results, node.out_specs)):
            if tuple(arr.shape) != spec.shape or arr.dtype != spec.dtype:
                raise ExecutionError(
                    f"{node.name} output {i}: kernel produced "
                    f"{arr.dtype}{arr.shape}, spec says "
                    f"{spec.dtype}{spec.shape}"
                )
            # An ``out=`` op's plan writes a C-ordered buffer; its
            # ``compute`` must hand downstream reductions the same order.
            if node.op.supports_out and not arr.flags.c_contiguous:
                raise ExecutionError(
                    f"{node.name} output {i}: kernel produced a "
                    f"non-C-contiguous array"
                )
            values[(node.uid, i)] = arr
    return [values[t.key] for t in outputs]


def reference_size_class_bytes(placements) -> int:
    """Bytes a size-class free-list allocator reserves for ``placements``.

    The allocator interval packing replaced, replayed over a plan's
    ``MemplanRecord.placements`` (key -> ``(first_instr, last_instr,
    offset, nbytes)``): each buffer comes off its page-rounded class's free
    list at its first instruction, or is reserved fresh, and goes back after
    its last. A packed plan must never hold more static bytes than this.
    """
    starts: dict[int, list[int]] = defaultdict(list)
    ends: dict[int, list[int]] = defaultdict(list)
    for lo, hi, _off, nbytes in placements.values():
        starts[lo].append(round_up(nbytes))
        ends[hi].append(round_up(nbytes))
    free: Counter = Counter()
    reserved = 0
    for idx in sorted(set(starts) | set(ends)):
        for cls in starts[idx]:
            if free[cls]:
                free[cls] -= 1
            else:
                reserved += cls
        for cls in ends[idx]:
            free[cls] += 1
    return reserved


def reference_pack_intervals(requests, align: int = 64):
    """The pre-tightening ``pack_intervals`` body, kept as the test oracle.

    Full sorted sweep for every request (mask, stable argsort, running max
    of ends, first fitting gap); the production packer must reproduce its
    offsets, extent and planned peak exactly.
    """
    live = [(k, lo, hi, nb) for (k, lo, hi, nb) in requests if nb > 0]
    n = len(live)
    order = sorted(range(n), key=lambda i: (-live[i][3], live[i][1], i))
    lo_a = np.empty(n, dtype=np.int64)
    hi_a = np.empty(n, dtype=np.int64)
    off_a = np.empty(n, dtype=np.int64)
    end_a = np.empty(n, dtype=np.int64)
    offsets = {}
    extent = 0
    count = 0
    for i in order:
        key, lo, hi, nbytes = live[i]
        off = 0
        if count:
            mask = (lo_a[:count] <= hi) & (hi_a[:count] >= lo)
            if mask.any():
                starts = off_a[:count][mask]
                ends = end_a[:count][mask]
                by_start = np.argsort(starts, kind="stable")
                starts = starts[by_start]
                ends = np.maximum.accumulate(ends[by_start])
                cursors = np.empty(len(starts) + 1, dtype=np.int64)
                cursors[0] = 0
                cursors[1:] = -(-ends // align) * align
                avail = np.empty(len(starts) + 1, dtype=np.int64)
                avail[:-1] = starts
                avail[-1] = np.iinfo(np.int64).max
                fits = np.nonzero(avail - cursors >= nbytes)[0]
                off = int(cursors[fits[0]])
        offsets[key] = off
        lo_a[count] = lo
        hi_a[count] = hi
        off_a[count] = off
        end_a[count] = off + nbytes
        count += 1
        if off + nbytes > extent:
            extent = off + nbytes
    return PackResult(
        offsets=offsets,
        extent_bytes=extent,
        planned_peak_bytes=waterline(live),
    )


def reference_elide_copies(descs, root, output_slots):
    """The pre-union-find ``elide_copies``, kept as the test oracle.

    Rewrites the *whole* alias-root table once per elided copy (every slot
    rooted at one of the copy's outputs is re-rooted at its source's
    group); the production pass must leave the same table and records.
    """
    from repro.memplan.elision import alias_view_indices, describe_index

    records = []
    for idx, desc in enumerate(descs):
        if desc["kind"] not in ("out", "generic"):
            continue
        if any(s in output_slots for s in desc["out_slots"]):
            continue
        indices = alias_view_indices(desc)
        if indices is None:
            continue
        src = desc["in_slots"][0]
        desc["kind"] = "alias"
        desc["alias_index"] = indices
        target = root[src]
        remap = {o: target for o in desc["out_slots"]}
        for i, r in enumerate(root):
            root[i] = remap.get(r, r)
        records.append(
            {
                "instr": idx,
                "op": desc["node"].op.name,
                "src_slot": src,
                "out_slots": list(desc["out_slots"]),
                "indices": [describe_index(ix) for ix in indices],
            }
        )
    return records


def reference_producer_spec(descs, r):
    """The packing analyzer's old per-lookup scan, kept as the test oracle:
    (shape, dtype, nbytes) of the buffer backing group root ``r``."""
    for desc in descs:
        kind = desc["kind"]
        if kind in ("out", "fused"):
            for j, s in enumerate(desc["out_slots"]):
                if s == r:
                    spec = desc["node"].out_specs[j]
                    return (spec.shape, spec.dtype, spec.nbytes)
        elif kind == "batched" and desc["out_slots"][0] == r:
            spec = desc["node"].out_specs[0]
            group = len(desc["out_slots"])
            return ((group,) + spec.shape, spec.dtype, group * spec.nbytes)
    return None


def reference_apply_candidate(candidate, order, output_keys,
                              workspace_sharing=True):
    """Echo's old whole-schedule re-pointing scan, kept as the test oracle
    for :class:`repro.echo.rewrite.ConsumerIndex`: mirror the region, then
    visit *every* non-forward node of ``order`` and re-point its inputs."""
    from repro.echo.rewrite import (
        AppliedCandidate,
        _assign_priorities,
        _clone_as_mirror,
    )
    from repro.graph import Stage

    region_uids = {n.uid for n in candidate.nodes}
    input_map = {}
    mirrors = {}
    for node in candidate.nodes:
        mirror = _clone_as_mirror(node, input_map)
        mirrors[node.uid] = mirror
        for i in range(len(node.out_specs)):
            input_map[(node.uid, i)] = Tensor(mirror, i)
    applied = AppliedCandidate(candidate=candidate, mirrors=mirrors)
    first_consumer_priority = {}
    for consumer in order:
        if consumer.stage is Stage.FORWARD:
            continue
        new_inputs = None
        for idx, t in enumerate(consumer.inputs):
            if (
                t.node.uid not in region_uids
                or t.key in output_keys
                or t.key in candidate.preserved
            ):
                continue
            if new_inputs is None:
                new_inputs = list(consumer.inputs)
            new_inputs[idx] = input_map[t.key]
            mirror_uid = input_map[t.key].node.uid
            prio = first_consumer_priority.get(mirror_uid, consumer.priority)
            first_consumer_priority[mirror_uid] = min(prio, consumer.priority)
        if new_inputs is not None:
            applied.repointed.append((consumer, consumer.inputs))
            consumer.inputs = tuple(new_inputs)
    _assign_priorities(
        candidate, mirrors, first_consumer_priority, order, workspace_sharing
    )
    return applied
