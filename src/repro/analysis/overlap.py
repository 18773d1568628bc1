"""Pairs of intervals that overlap in both time and bytes.

LT103 (:mod:`repro.analysis.lifetime`) and MP402
(:mod:`repro.analysis.packing`) both ask which of a plan's storage
intervals share a byte of one buffer while both are live. A Python sweep
over the pairs costs O(n x live); :func:`overlapping_pairs` answers in a
few numpy passes and yields the pairs in exactly the order the nested
sweep does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["overlapping_pairs"]

#: candidate pairs tested per numpy pass (bounds the temporaries)
_CHUNK_PAIRS = 1 << 20


def overlapping_pairs(
    lo: Sequence[int],
    hi: Sequence[int],
    byte_lo: Sequence[int],
    byte_hi: Sequence[int],
) -> list[tuple[int, int]]:
    """``(a, b)`` index pairs, ``a < b``, overlapping in time and bytes.

    Interval ``k`` is live over ``[lo[k], hi[k]]`` (both inclusive) and
    holds bytes ``[byte_lo[k], byte_hi[k])``; the intervals come sorted by
    ``lo``. Interval ``b`` overlaps ``a`` in time when ``lo[b] <= hi[a]``
    — the window ``searchsorted`` finds — and in bytes when each range
    starts below the other's end, so empty and touching ranges overlap
    nothing. Pairs come ordered by ``a``, then ``b``: the order of a
    nested loop that breaks at the first ``b`` starting after ``a`` ends.
    """
    n = len(lo)
    if n < 2:
        return []
    lo_a = np.asarray(lo, dtype=np.int64)
    hi_a = np.asarray(hi, dtype=np.int64)
    blo = np.asarray(byte_lo, dtype=np.int64)
    bhi = np.asarray(byte_hi, dtype=np.int64)
    first = np.arange(1, n + 1, dtype=np.int64)
    # Row a's candidates are b in [a + 1, end[a]).
    counts = np.maximum(
        np.searchsorted(lo_a, hi_a, side="right") - first, 0
    )
    bounds = np.cumsum(counts)
    pairs: list[tuple[int, int]] = []
    start = 0
    while start < n:
        # The rows whose candidates fit in one chunk (at least one row).
        base = int(bounds[start - 1]) if start else 0
        stop = int(np.searchsorted(bounds, base + _CHUNK_PAIRS, "right"))
        stop = max(stop, start + 1)
        c = counts[start:stop]
        total = int(bounds[stop - 1]) - base
        if total:
            a = np.repeat(np.arange(start, stop, dtype=np.int64), c)
            skip = np.repeat(np.cumsum(c) - c, c)
            b = a + 1 + np.arange(total, dtype=np.int64) - skip
            hit = (blo[a] < bhi[b]) & (blo[b] < bhi[a])
            pairs.extend(zip(a[hit].tolist(), b[hit].tolist()))
        start = stop
    return pairs
