"""Ring collectives with a fixed, canonical reduction order.

**Why the order matters.** Float addition is not associative, so "the
sum of per-rank gradients" is not one number — it is one number *per
summation order*. The classic rotated ring all-reduce (reduce-scatter +
all-gather) reduces chunk ``c`` along the ring walk starting at rank
``c+1``: deterministic, but a *different* order per chunk, so the result
depends on the chunking and can never equal a plain serial sum bitwise.

This implementation pins one canonical order instead: **every chunk is
reduced in ascending ring position** — ``((x₀ + x₁) + x₂) + …`` — by
rooting the reduction at position 0 and pipelining chunks along the
ring (position 0 streams its chunks right; each position adds its own
contribution and forwards; the last position holds the full sums and
streams them back around). The two passes are one pipeline: the last
position sends chunk ``c``'s sum on the moment it has it, and position 0
keeps ``K - 1`` chunks of contributions ahead of the sums it has read
back, so both directions of every link are busy at once (ten separate
reduce-then-broadcast collectives for 1.3 MB measured 4.0-4.4 ms of
communicator wait per step on two ranks; the same bytes cross a bare
pipe in 1.2 ms). Consequences:

* the result is bitwise identical across runs, backends, thread counts,
  and — crucially — **chunk sizes**, because elementwise addition order
  is the same no matter where the chunk boundaries fall;
* the result equals :func:`reference_allreduce`, a five-line serial
  fold, which is what the single-process data-parallel baseline uses —
  so "N-rank training matches 1-rank training bitwise" is checkable;
* per-rank traffic stays the ring-optimal ~2·S bytes (each rank sends
  every byte at most twice); the price is one extra ring latency term
  versus the rotated variant, irrelevant at gradient sizes.

``op="mean"`` divides the completed sum by the live-rank count on every
rank *after* the ring finishes, with the same dtype-preserving
expression everywhere (including the reference), keeping the mean
bitwise identical too. The degrade path gets its loss re-weighting for
free: after a reform shrinks the ring to K survivors, ``mean`` divides
by K.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.dist.channels import PIPE_BUFFER_BYTES
from repro.dist.group import ProcessGroup
from repro.obs import trace as obs_trace

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ring_allreduce",
    "ring_allgather",
    "ring_broadcast",
    "barrier",
    "reference_allreduce",
    "allreduce_named",
]

#: default all-reduce chunk granularity (pipelining quantum)
DEFAULT_CHUNK_BYTES = 1 << 16

#: Payload bytes the all-reduce lets sit unread towards any one peer. The
#: lead position sends ahead of what it reads back, so it must never block
#: in ``send`` (nobody would be left to drain the ring): half of every
#: pipe's send buffer, the other half being headers and kernel overhead.
_MAX_IN_FLIGHT_BYTES = PIPE_BUFFER_BYTES // 2


def _chunk_slices(size: int, itemsize: int, chunk_bytes: int) -> list[slice]:
    """Contiguous chunk slices over a flat array of ``size`` elements."""
    elems = max(1, int(chunk_bytes) // max(1, itemsize))
    return [slice(lo, min(lo + elems, size)) for lo in range(0, size, elems)]


def _traced_io(group: ProcessGroup) -> tuple[Any, Any]:
    """Span-wrapped ``(send, recv)`` for per-chunk wire visibility.

    Only built when tracing is on; the spans land on the calling rank's
    thread, tagged with peer/seq/tag so :func:`repro.obs.trace.
    merge_chrome_traces` can align send/recv pairs across ranks.
    """

    def send(peer: int, seq: int, tag: Any, payload: Any) -> None:
        with obs_trace.span(
            "dist.chunk.send", "dist",
            {"to": peer, "seq": seq, "tag": str(tag)},
        ):
            group.send(peer, seq, tag, payload)

    def recv(
        peer: int, seq: int, tag: Any, timeout_s: float | None,
        into: np.ndarray | None = None,
    ) -> Any:
        with obs_trace.span(
            "dist.chunk.recv", "dist",
            {"from": peer, "seq": seq, "tag": str(tag)},
        ):
            return group.recv(peer, seq, tag, timeout_s, into)

    return send, recv


def _io(group: ProcessGroup) -> tuple[Any, Any]:
    """The group's raw ``(send, recv)``, traced when tracing is on."""
    if obs_trace.TRACING:
        return _traced_io(group)
    return group.send, group.recv


def _apply_mean(total: np.ndarray, count: int) -> np.ndarray:
    """Divide by the rank count, identically on every rank and in the
    serial reference (same expression → same rounding → same bits)."""
    np.divide(total, total.dtype.type(count), out=total)
    return total


def ring_allreduce(
    group: ProcessGroup,
    array: np.ndarray,
    op: str = "sum",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    timeout_s: float | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """All-reduce ``array`` over the live ring; returns a new array.

    Every rank must pass the same shape and dtype. The reduction order
    is canonical (ascending ring position, chunk-independent); see the
    module docstring. ``op`` is ``"sum"`` or ``"mean"``. ``out`` — a
    flat, contiguous array of ``array``'s dtype and size, distinct from
    it — receives the result instead of a new array (a caller reducing
    the same megabytes every step keeps one and spares the allocator).
    """
    if op not in ("sum", "mean"):
        raise ValueError(f"unsupported op {op!r}")
    group.stats.on_collective(f"allreduce_{op}")
    k = group.live_size
    flat = np.ascontiguousarray(array).reshape(-1)
    if out is None:
        out = np.empty_like(flat)
    elif (out.shape != flat.shape or out.dtype != flat.dtype
          or not out.flags.c_contiguous):
        raise ValueError(
            f"out must be a contiguous {flat.dtype}{flat.shape} array"
        )
    if k == 1:
        out[...] = flat
        if op == "mean":
            _apply_mean(out, 1)
        return out.reshape(array.shape)

    seq = group.next_seq()
    pos, right, left = group.position, group.right, group.left
    # Position 0 runs ``lag`` chunks of contributions ahead of the sums it
    # has read back — one per hop of the round trip, so the pipeline stays
    # full. Towards its right neighbour that leaves at most ``lag + 1``
    # contributions unread, plus (rings of three and up, where it also
    # forwards the sums) ``lag`` forwarded chunks; the chunk size is
    # capped so that window fits the in-flight budget and no send blocks.
    lag = k - 1
    window = lag + 1 + (lag if k > 2 else 0)
    slices = _chunk_slices(
        flat.size, flat.itemsize,
        min(int(chunk_bytes), _MAX_IN_FLIGHT_BYTES // window),
    )
    n = len(slices)
    send, recv = _io(group)

    with obs_trace.span(
        "dist.allreduce", "dist",
        {"gen": group.generation, "seq": seq, "rank": group.rank,
         "op": op, "chunks": n, "bytes": int(flat.nbytes)},
    ):
        if pos == k - 1:
            # Last position: finish each chunk's canonical fold and start
            # it back round the ring at once.
            for c, sl in enumerate(slices):
                total = recv(left, seq, ("ar", c, "red"), timeout_s, out[sl])
                np.add(total, flat[sl], out=total)
                send(right, seq, ("ar", c, "bc"), total)
        else:
            # Every other position handles contribution ``t`` and then sum
            # ``t - lag``; its left neighbour sends in exactly that order.
            # ``out[sl]`` doubles as the partial-sum scratch: the partial
            # is on the wire before the chunk's sum arrives to replace it.
            for t in range(n + lag):
                if t < n:
                    sl = slices[t]
                    if pos == 0:
                        send(right, seq, ("ar", t, "red"), flat[sl])
                    else:
                        part = recv(
                            left, seq, ("ar", t, "red"), timeout_s, out[sl]
                        )
                        np.add(part, flat[sl], out=part)
                        send(right, seq, ("ar", t, "red"), part)
                c = t - lag
                if c >= 0:
                    sl = slices[c]
                    recv(left, seq, ("ar", c, "bc"), timeout_s, out[sl])
                    if pos < k - 2:
                        send(right, seq, ("ar", c, "bc"), out[sl])

    if op == "mean":
        _apply_mean(out, k)
    return out.reshape(array.shape)


def reference_allreduce(
    arrays: Sequence[np.ndarray], op: str = "sum"
) -> np.ndarray:
    """The serial fold the ring reproduces bitwise: ``((a₀+a₁)+a₂)+…``.

    ``arrays`` must be ordered by ring position (ascending surviving
    rank). This is the single-process baseline distributed training is
    compared against.
    """
    if op not in ("sum", "mean"):
        raise ValueError(f"unsupported op {op!r}")
    if not arrays:
        raise ValueError("need at least one array")
    acc = np.array(arrays[0], copy=True)
    for contribution in arrays[1:]:
        np.add(acc, contribution, out=acc)
    if op == "mean":
        _apply_mean(acc.reshape(-1), len(arrays))
    return acc


def ring_allgather(
    group: ProcessGroup,
    array: np.ndarray,
    timeout_s: float | None = None,
) -> dict[int, np.ndarray]:
    """Gather every live rank's array; returns ``{rank: array}``.

    Pure data movement (no arithmetic): each rank's piece travels K-1
    hops around the ring. Shapes may differ across ranks.
    """
    group.stats.on_collective("allgather")
    k = group.live_size
    gathered: dict[int, np.ndarray] = {group.rank: np.array(array, copy=True)}
    if k == 1:
        return gathered
    seq = group.next_seq()
    current = gathered[group.rank]
    send, recv = _io(group)
    with obs_trace.span(
        "dist.allgather", "dist",
        {"gen": group.generation, "seq": seq, "rank": group.rank},
    ):
        for step in range(k - 1):
            send(group.right, seq, ("ag", step), current)
            current = recv(group.left, seq, ("ag", step), timeout_s)
            source = group.neighbor(-(step + 1))
            gathered[source] = current
    return gathered


def ring_broadcast(
    group: ProcessGroup,
    array: np.ndarray | None,
    root: int = 0,
    timeout_s: float | None = None,
) -> np.ndarray:
    """Broadcast ``array`` from ``root`` (a live rank) around the ring."""
    if root not in group.live:
        raise ValueError(f"root {root} is not a live rank {group.live}")
    group.stats.on_collective("broadcast")
    k = group.live_size
    if k == 1:
        return np.array(array, copy=True)
    seq = group.next_seq()
    root_pos = group.live.index(root)
    distance = (group.position - root_pos) % k
    send, recv = _io(group)
    with obs_trace.span(
        "dist.broadcast", "dist",
        {"gen": group.generation, "seq": seq, "rank": group.rank,
         "root": root},
    ):
        if distance == 0:
            value = np.asarray(array)
            send(group.right, seq, ("bc",), value)
            return np.array(value, copy=True)
        value = recv(group.left, seq, ("bc",), timeout_s)
        if distance < k - 1:
            send(group.right, seq, ("bc",), value)
        return value


def barrier(group: ProcessGroup, timeout_s: float | None = None) -> None:
    """Two full laps of a token around the ring.

    After lap one, every rank has entered the barrier; after lap two,
    every rank knows that, and may leave.
    """
    group.stats.on_collective("barrier")
    if group.live_size == 1:
        return
    seq = group.next_seq()
    send, recv = _io(group)
    with obs_trace.span(
        "dist.barrier", "dist",
        {"gen": group.generation, "seq": seq, "rank": group.rank},
    ):
        for lap in (0, 1):
            tag = ("bar", lap)
            if group.position == 0:
                send(group.right, seq, tag, None)
                recv(group.left, seq, tag, timeout_s)
            else:
                recv(group.left, seq, tag, timeout_s)
                send(group.right, seq, tag, None)


def allreduce_named(
    group: ProcessGroup,
    arrays: Mapping[str, np.ndarray],
    op: str = "sum",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    timeout_s: float | None = None,
) -> dict[str, np.ndarray]:
    """All-reduce a named family of arrays as one flat ring transfer.

    Concatenation order is the sorted key order — fixed on every rank —
    so the result is a pure function of the values, not of dict
    insertion history. Convenience for callers without a bucket plan.
    """
    keys = sorted(arrays)
    flats = [np.ascontiguousarray(arrays[k]).reshape(-1) for k in keys]
    if not flats:
        return {}
    dtype = flats[0].dtype
    if any(f.dtype != dtype for f in flats):
        raise ValueError("all arrays must share one dtype")
    packed = np.concatenate(flats)
    reduced = ring_allreduce(
        group, packed, op=op, chunk_bytes=chunk_bytes, timeout_s=timeout_s
    )
    out: dict[str, np.ndarray] = {}
    offset = 0
    for key in keys:
        size = int(np.prod(arrays[key].shape, dtype=np.int64))
        out[key] = reduced[offset:offset + size].reshape(arrays[key].shape)
        offset += size
    return out
