"""Interference-interval buffer coloring: offsets into one arena extent.

A size-class free-list allocator rounds every request up to a page class
and never splits or coalesces, so its footprint carries both rounding
slack and free-list fragmentation
(``tests/helpers.reference_size_class_bytes`` replays one as the upper
bound packed plans are held to). This module is classic interference
coloring over *exact* liveness intervals instead: every storage
request is an interval ``[lo, hi]`` over instruction indices plus a byte
size, two requests interfere iff their intervals overlap, and a
first-fit-decreasing sweep assigns each request the lowest aligned offset
whose byte range is free for its whole lifetime. The result is one
contiguous extent per plan whose size is the achieved peak; the
waterline of the interval set (max live bytes at any instruction) is the
planned lower bound, and the gap between the two is fragmentation the
packer could not close.

The first-fit scan is vectorized: placed intervals are kept in one numpy
array sorted by offset, the time-overlapping subset is selected with one
mask (already in sweep order — no per-request sort), and the lowest
fitting gap falls out of a cumulative-max sweep over the overlapping byte
ranges. The buffer planner (:mod:`repro.memplan.planner`) is its one
caller; ``tests/helpers.reference_pack_intervals`` is the unoptimized
sweep the placements are checked against.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics

#: byte alignment of every placed offset; covers any dtype itemsize the
#: graph layer produces and keeps rows cache-line aligned
ALIGN = 64

#: one storage request: (key, first instr, last instr, nbytes);
#: the interval is closed — [lo, hi] both occupied
Request = tuple[Hashable, int, int, int]


def _align_up(x: int, align: int = ALIGN) -> int:
    return -(-x // align) * align


@dataclass
class PackResult:
    """Offsets plus the two peak-bytes figures coloring reports."""

    #: request key -> byte offset into the extent (zero-byte requests absent)
    offsets: dict[Hashable, int]
    #: achieved peak: the extent size the placement actually needs
    extent_bytes: int
    #: planned peak: the interval waterline (max simultaneously-live bytes),
    #: i.e. the lower bound any placement of these intervals must respect
    planned_peak_bytes: int


def waterline(requests: Sequence[Request]) -> int:
    """Max simultaneously-live bytes over the instruction stream."""
    events: list[tuple[int, int]] = []
    for _key, lo, hi, nbytes in requests:
        if nbytes <= 0:
            continue
        events.append((lo, nbytes))
        events.append((hi + 1, -nbytes))
    events.sort()
    cur = peak = 0
    for _t, delta in events:
        cur += delta
        if cur > peak:
            peak = cur
    return peak


def pack_intervals(
    requests: Sequence[Request], align: int = ALIGN
) -> PackResult:
    """First-fit-decreasing offset assignment for interfering intervals.

    Requests are placed largest-first (ties broken by start index, then
    input order, so the result is deterministic); each takes the lowest
    ``align``-multiple offset whose byte range does not intersect any
    already-placed request with an overlapping lifetime.
    """
    reg = obs_metrics.registry()
    start = time.perf_counter() if reg is not None else 0.0
    live = [(k, lo, hi, nb) for (k, lo, hi, nb) in requests if nb > 0]
    n = len(live)
    order = sorted(range(n), key=lambda i: (-live[i][3], live[i][1], i))
    # Placed intervals as rows (lo, hi, offset, aligned end), columns kept
    # sorted by offset: the time-overlapping subset then comes out of the
    # mask already in sweep order, and rounding ends up once at placement
    # commutes with the running max below (both are monotone).
    placed = np.empty((4, n), dtype=np.int64)
    lo_a, hi_a, off_a, end_a = placed
    offsets: dict[Hashable, int] = {}
    extent = 0
    for count, i in enumerate(order):
        key, lo, hi, nbytes = live[i]
        off = 0
        mask = (lo_a[:count] <= hi) & (hi_a[:count] >= lo)
        starts = off_a[:count][mask]
        # The lowest gap is [0, first blocked start); otherwise the cursor
        # moves past each blocked prefix and the request takes the first
        # gap before the next blocked start with ``nbytes`` of room, or
        # the end of the last blocked range.
        if starts.size and starts[0] < nbytes:
            cursors = np.maximum.accumulate(end_a[:count][mask])
            fits = starts[1:] - cursors[:-1] >= nbytes
            j = int(fits.argmax()) if fits.size else 0  # first True, if any
            off = int(cursors[j] if fits.size and fits[j] else cursors[-1])
        end = off + nbytes
        pos = int(off_a[:count].searchsorted(off))
        placed[:, pos + 1:count + 1] = placed[:, pos:count]
        placed[:, pos] = (lo, hi, off, _align_up(end, align))
        offsets[key] = off
        if end > extent:
            extent = end
    if reg is not None:
        reg.counter("memplan.pack.calls").inc()
        reg.histogram("memplan.pack_s").observe(time.perf_counter() - start)
    return PackResult(
        offsets=offsets,
        extent_bytes=extent,
        planned_peak_bytes=waterline(live),
    )


def atomic_tokens(
    placements: Mapping[Hashable, tuple[int, int]]
) -> dict[Hashable, tuple[int, ...]]:
    """Storage-hazard tokens for byte ranges sharing one extent.

    With every static buffer carved from a single raw extent, the rule
    "same storage base ⇒ serialize" would serialize the whole plan.
    Instead the extent is cut into *atomic intervals* at every placement
    boundary and each placement is labeled with the atoms its byte range
    covers: two placements intersect in memory iff they share an atom, so
    the wavefront hazard edges stay exact. ``placements`` maps a key to
    ``(offset, nbytes)``; zero-byte entries get no tokens.
    """
    bounds: set[int] = set()
    for off, nbytes in placements.values():
        if nbytes > 0:
            bounds.add(off)
            bounds.add(off + nbytes)
    cuts = sorted(bounds)
    tokens: dict[Hashable, tuple[int, ...]] = {}
    for key, (off, nbytes) in placements.items():
        if nbytes <= 0:
            tokens[key] = ()
            continue
        a = bisect_left(cuts, off)
        b = bisect_left(cuts, off + nbytes)
        tokens[key] = tuple(range(a, b))
    return tokens
