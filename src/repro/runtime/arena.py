"""Host storage behind compiled plans: one extent pool per arena.

A plan's static buffers are views into one contiguous raw extent that the
buffer planner (:mod:`repro.memplan`) takes from an :class:`Arena` at
compile time and parks again, so plans sharing an arena (the bucketed
trainer) overlay the same storage — the host-side analogue of the paper's
executors sharing one memory pool. A parked extent never grows: sibling
plans built largest-first share one extent; built smallest-first (the
order ``default_buckets`` and the harness use) every plan outgrows what is
parked and takes its own, so footprint is then the *sum* over buckets
(``reuse_count`` 0; ROADMAP item 3). Sharing is safe because executors
run one iteration to completion at a time and outputs never alias plan
storage.

Outputs that escape a plan are plain ``np.empty`` arrays the plan's steps
allocate themselves; the arena only counts them, once per completed run
(:meth:`Arena.count_fresh`), so no run takes its lock per output.
"""

from __future__ import annotations

import threading

import numpy as np

#: Allocation granularity: extents are rounded up to a multiple of this
#: (cudaMalloc alignment and a device pool's page size).
PAGE_BYTES = 4096


def round_up(nbytes: int, page: int = PAGE_BYTES) -> int:
    """Size class of a request: next multiple of the page size.

    Zero-byte requests (empty tensors: a zero-length bucket, an all-padding
    batch) map to class 0 — real allocators hand back a distinguished empty
    pointer. Negative sizes are always a caller bug.
    """
    if nbytes < 0:
        raise ValueError(f"negative allocation request: {nbytes}")
    if nbytes == 0:
        return 0
    return ((nbytes + page - 1) // page) * page


class Arena:
    """Extent pool and allocation counters behind a plan's ``out=`` kernels.

    The buffer planner takes a plan's extent with :meth:`acquire_extent`
    at compile time and parks it again with :meth:`release_extent`. At
    runtime only :meth:`count_fresh` is called, once per completed run,
    with the outputs that escaped the plan.

    The extent list and the counters each sit behind their own lock:
    concurrent session compiles and thread-backend ranks can reach one
    arena.
    """

    def __init__(self) -> None:
        self._stats_lock = threading.Lock()
        #: parked contiguous extents, reusable by later plans
        self._extents: list[np.ndarray] = []
        self._extent_lock = threading.Lock()
        #: buffers created fresh (extent misses and escaping outputs);
        #: steady-state iterations add only the run's outputs
        self.fresh_count = 0
        #: extent acquisitions served from the parked list
        self.reuse_count = 0
        #: zero-byte acquisitions (served fresh, never pooled)
        self.zero_byte_count = 0
        #: cumulative bytes of fresh buffers
        self.fresh_bytes = 0

    def count_fresh(self, count: int, nbytes: int, zero_bytes: int) -> None:
        """Count buffers that escaped a plan run: ``count`` of ``nbytes``
        in total, plus ``zero_bytes`` empty ones.

        Those buffers are ``np.empty`` arrays, never served from a parked
        extent: that may be some plan's static storage, and an output must
        survive later iterations.
        """
        with self._stats_lock:
            self.fresh_count += count
            self.fresh_bytes += nbytes
            self.zero_byte_count += zero_bytes

    def acquire_extent(self, nbytes: int) -> np.ndarray:
        """One contiguous raw extent for a plan's static buffers.

        Served from the parked-extent list when a large-enough extent is
        available (smallest fit first), else allocated fresh, page-rounded
        — a parked extent never grows, so sibling plans overlay one extent
        only when the largest was built first.
        """
        best = None
        with self._extent_lock:
            for i, raw in enumerate(self._extents):
                if raw.nbytes >= nbytes and (
                    best is None or raw.nbytes < self._extents[best].nbytes
                ):
                    best = i
            if best is not None:
                found = self._extents.pop(best)
        if best is not None:
            with self._stats_lock:
                self.reuse_count += 1
            return found
        size = round_up(max(nbytes, 1))
        raw = np.empty(size, dtype=np.uint8)
        with self._stats_lock:
            self.fresh_count += 1
            self.fresh_bytes += size
        return raw

    def release_extent(self, raw: np.ndarray) -> None:
        """Park an extent for reuse by later plans sharing this arena."""
        with self._extent_lock:
            self._extents.append(raw)

    @property
    def held_bytes(self) -> int:
        """Bytes currently parked on the extent list."""
        with self._extent_lock:
            return sum(raw.nbytes for raw in self._extents)


def storage_base(arr: np.ndarray) -> np.ndarray:
    """The raw buffer ultimately backing ``arr`` (walks ``.base``)."""
    raw = arr
    while raw.base is not None:
        raw = raw.base
    return raw
