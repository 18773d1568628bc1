"""Shared test utilities: numerical gradient checking against autodiff,
and reference implementations kept as oracles for optimized code."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Mapping, Sequence

import numpy as np

import repro.ops as O
from repro.autodiff import build_gradients
from repro.graph import Tensor
from repro.graph.traversal import topo_order
from repro.memplan.coloring import PackResult, waterline
from repro.ops.dropout import set_global_step
from repro.runtime import ExecutionError, GraphExecutor
from repro.runtime.arena import round_up


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def same_bits(got, want) -> bool:
    """Equal dtype, shape and bytes: unlike ``np.array_equal`` this tells
    -0.0 from +0.0 and matches a NaN (payload and sign included)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


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
        if desc["kind"] in ("out", "fused"):
            for j, s in enumerate(desc["out_slots"]):
                if s == r:
                    spec = desc["node"].out_specs[j]
                    return (spec.shape, spec.dtype, spec.nbytes)
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


def reference_lt103(intervals):
    """The lifetime sanitizer's old nested-loop LT103 sweep, kept as the
    test oracle for :func:`repro.analysis.overlap.overlapping_pairs`:
    ``(lo, hi, byte_lo, byte_hi, label)`` intervals per raw buffer."""
    from repro.analysis.findings import finding

    findings = []
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
                            "lifetime",
                            instr=lo_b,
                        )
                    )
    return findings


def reference_check_placements(record):
    """The packing analyzer's old nested-loop MP402 sweep over a memplan
    record's placements (extent bounds first), kept as the test oracle."""
    from repro.analysis.findings import finding

    findings = []
    extent = record.extent_bytes
    placed = []
    for key, (lo, hi, off, nbytes) in record.placements.items():
        if off < 0 or off + nbytes > extent:
            findings.append(
                finding(
                    "MP402",
                    f"placement {key!r} spans bytes [{off}, {off + nbytes}) "
                    f"outside the {extent}-byte extent",
                    "packing",
                    instr=lo,
                )
            )
        placed.append((lo, hi, off, nbytes, key))
    placed.sort(key=lambda p: (p[0], p[2]))
    for i, (lo_a, hi_a, off_a, nb_a, key_a) in enumerate(placed):
        for lo_b, hi_b, off_b, nb_b, key_b in placed[i + 1:]:
            if lo_b > hi_a:
                break  # sorted by lo: nothing later overlaps a in time
            if off_a < off_b + nb_b and off_b < off_a + nb_a:
                findings.append(
                    finding(
                        "MP402",
                        f"placements {key_a!r} (live [{lo_a}, {hi_a}], "
                        f"bytes [{off_a}, {off_a + nb_a})) and {key_b!r} "
                        f"(live [{lo_b}, {hi_b}], bytes "
                        f"[{off_b}, {off_b + nb_b})) overlap in time and "
                        "memory",
                        "packing",
                        instr=lo_b,
                    )
                )
    return findings


def reference_lint_graph(outputs, sources=(), facts=None):
    """The IR linter's old DFS-first form, kept as the test oracle: the
    three-color cycle search runs on every call, before the graph's
    topological order is taken (or read from ``facts``)."""
    from repro.analysis.ir_lint import _cycle_finding, _find_cycle, _lint_acyclic
    from repro.graph import GraphFacts

    cycle = _find_cycle([t.node for t in outputs])
    if cycle is not None:
        return [_cycle_finding(cycle)]
    if facts is None:
        facts = GraphFacts(outputs)
    return _lint_acyclic(outputs, sources, facts)


def reference_backward_uids(loss, grads):
    """uids ``build_gradients`` used to tag BACKWARD with a second whole-
    graph walk: every node under the gradients outside the forward graph
    of ``loss``, kept as the test oracle for the walk that stops there."""
    forward = {n.uid for n in topo_order([loss])}
    return {
        n.uid for n in topo_order([g for g in grads if g is not None])
        if n.uid not in forward
    }


def reference_check_roots(low, witnesses):
    """The equivalence certifier's old EQ602 root check, kept as the test
    oracle: both alias partitions built as groups and compared per slot."""
    from repro.analysis.findings import finding

    nslots = len(low.root)
    parent = list(range(nslots))

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for desc in low.descs:
        if desc["kind"] in ("view", "alias") and desc["in_slots"]:
            for o in desc["out_slots"]:
                union(desc["in_slots"][0], o)
    for w in witnesses.inplace:
        if 0 <= w.out < nslots and 0 <= w.target < nslots:
            union(w.out, w.target)

    expected_groups = {}
    actual_groups = {}
    for s in range(nslots):
        expected_groups.setdefault(find(s), []).append(s)
        actual_groups.setdefault(low.root[s], []).append(s)

    findings = []
    expected_of = {s: tuple(g) for g in expected_groups.values() for s in g}
    actual_of = {s: tuple(g) for g in actual_groups.values() for s in g}
    reported = set()
    for s in range(nslots):
        if expected_of[s] != actual_of[s] and actual_of[s] not in reported:
            reported.add(actual_of[s])
            findings.append(
                finding(
                    "EQ602",
                    f"alias-root table merges slots {list(actual_of[s])} "
                    "but no view/alias/batch/in-place witness explains "
                    f"that group (expected {list(expected_of[s])})",
                    "equiv",
                    slot=s,
                )
            )
            if len(findings) >= 8:
                break
    return findings


# -- kernel oracles: the hot kernels as they were before they were made to
# compute each value once ------------------------------------------------------

_LN_EPS = 1e-5


def reference_layer_norm(x, gamma, beta):
    """Layer norm's old forward: ``x - mean`` twice (in np.var and in the
    output), every result re-wrapped to ``x``'s dtype."""
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + _LN_EPS)
    y = gamma * (x - mean) * rstd + beta
    dtype = x.dtype
    return [np.asarray(a, dtype=dtype) for a in (y, mean, rstd)]


def reference_layer_norm_grad(x, gamma, mean, rstd, dy):
    """Layer norm's old backward: the identities as one expression tree."""
    xhat = (x - mean) * rstd
    dxhat = dy * gamma
    dx = rstd * (
        dxhat
        - np.mean(dxhat, axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )
    reduce_axes = tuple(range(x.ndim - 1))
    dgamma = np.sum(dy * xhat, axis=reduce_axes)
    dbeta = np.sum(dy, axis=reduce_axes)
    return [np.asarray(a, dtype=x.dtype) for a in (dx, dgamma, dbeta)]


def reference_softmax_cross_entropy(logits, labels, ignore_label=-1):
    """The loss's old forward: subtract-and-widen through numpy's buffered
    casting (``np.subtract(..., dtype=float64)``)."""
    e = np.subtract(
        logits, np.max(logits, axis=-1, keepdims=True), dtype=np.float64
    )
    np.exp(e, out=e)
    total = np.sum(e, axis=-1)
    valid = labels != ignore_label
    count = max(int(valid.sum()), 1)
    rows = np.arange(logits.shape[0])[valid]
    picked = e[rows, labels[valid]] / total[rows]
    loss = -np.sum(np.log(np.maximum(picked, 1e-30))) / count
    return np.asarray(loss, dtype=logits.dtype)


def reference_adam_update_one(opt, name, param, grad):
    """``Adam._update_one`` as one expression per moment and one for the
    step (nine parameter-sized temporaries); bind it over an instance's
    ``_update_one`` to run the old update."""
    m = opt._m.get(name)
    if m is None:
        m = opt._m[name] = np.zeros_like(param)
    v = opt._v.get(name)
    if v is None:
        v = opt._v[name] = np.zeros_like(param)
    m *= opt.beta1
    m += (1 - opt.beta1) * grad
    v *= opt.beta2
    v += (1 - opt.beta2) * grad * grad
    m_hat = m / (1 - opt.beta1 ** opt._step)
    v_hat = v / (1 - opt.beta2 ** opt._step)
    param -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.epsilon)


def _reference_split_gates(gates):
    from repro.ops.activation import _sigmoid

    h = gates.shape[-1] // 4
    act = _sigmoid(gates)
    return (
        act[:, 0 * h:1 * h],
        act[:, 1 * h:2 * h],
        np.tanh(gates[:, 2 * h:3 * h]),
        act[:, 3 * h:4 * h],
    )


def reference_lstm_gates_into(gates, c_prev, h_out, c_out):
    """The old LSTM forward kernel: gate blocks sliced per call."""
    i, f, g, o = _reference_split_gates(gates)
    np.multiply(f, c_prev, out=c_out)
    np.multiply(i, g, out=i)
    np.add(c_out, i, out=c_out)
    np.tanh(c_out, out=g)
    np.multiply(o, g, out=h_out)


def reference_lstm_gates_grad_into(gates, c_prev, c, dh, dc, dgates_out,
                                   dc_prev_out):
    """The old LSTM backward kernel: gate blocks sliced per call."""
    h = c_prev.shape[-1]
    bi, bf, bg, bo = [(slice(None), slice(j * h, (j + 1) * h))
                      for j in range(4)]
    i, f, g, o = _reference_split_gates(gates)
    tanh_c = np.tanh(c)
    dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
    do = dh * tanh_c
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    np.multiply(dc_total, f, out=dc_prev_out)
    dgates_out[bi] = di * i * (1.0 - i)
    dgates_out[bf] = df * f * (1.0 - f)
    dgates_out[bg] = dg * (1.0 - g * g)
    dgates_out[bo] = do * o * (1.0 - o)
