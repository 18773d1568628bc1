"""Gradient bucketing: flatten per-parameter grads into ring transfers.

Reducing each parameter gradient as its own collective would pay the
ring's latency term once per parameter; packing *everything* into one
flat buffer would serialize communication behind the full backward
pass. Buckets are the standard middle ground: parameters are assigned —
in parameter order, greedily, capped at ``bucket_bytes`` — to flat
float buffers, and each bucket becomes one chunked ring all-reduce that
could launch as soon as the *last* gradient it covers is produced
(see :class:`~repro.dist.trainer.DistributedTrainer`'s completion
hook, which today fires once, after backward).

Bitwise note: packing is pure data movement. Concatenating gradients
into a bucket, ring-reducing the bucket, and slicing the results back
out performs exactly the same elementwise additions in exactly the same
order as reducing each parameter alone — chunk and bucket boundaries
cannot move a float across an addition. The single-rank reference
therefore reduces per-parameter and still matches bitwise.

The plan is deterministic from (names, specs, bucket_bytes) alone and
:meth:`GradBucketPlan.fingerprint` digests it with sha256; ranks
all-gather fingerprints at startup so a layout divergence (mismatched
model builds, different bucket caps) is caught before the first step
rather than surfacing as garbage numerics. The DS5xx analyzer family
(:mod:`repro.analysis.distcheck`) statically re-derives the coverage
invariants: every trainable parameter reduced exactly once, segments
disjoint and in-bounds, layouts consistent across ranks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_BUCKET_BYTES",
    "BucketSegment",
    "GradBucket",
    "GradBucketPlan",
    "plan_grad_buckets",
]

#: default bucket cap — a few LSTM-sized weight matrices per transfer
DEFAULT_BUCKET_BYTES = 1 << 20


@dataclass(frozen=True)
class BucketSegment:
    """One parameter's slice of a bucket's flat buffer."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int  # element offset into the bucket

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1


@dataclass(frozen=True)
class GradBucket:
    """One flat reduction unit: a run of parameter-order segments."""

    index: int
    dtype: str
    segments: tuple[BucketSegment, ...]

    @property
    def elements(self) -> int:
        return sum(s.size for s in self.segments)

    @property
    def nbytes(self) -> int:
        return self.elements * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class GradBucketPlan:
    """The full bucket layout for one parameter set."""

    buckets: tuple[GradBucket, ...]
    bucket_bytes: int

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(
            seg.name for bucket in self.buckets for seg in bucket.segments
        )

    def fingerprint(self) -> str:
        """Stable digest of the layout; equal across ranks iff the plans
        agree segment for segment (names, shapes, dtypes, offsets)."""
        digest = hashlib.sha256()
        digest.update(str(self.bucket_bytes).encode())
        for bucket in self.buckets:
            digest.update(f"|B{bucket.index}:{bucket.dtype}".encode())
            for seg in bucket.segments:
                digest.update(
                    f"|{seg.name}:{seg.shape}:{seg.dtype}:{seg.offset}".encode()
                )
        return digest.hexdigest()

    # -- packing -------------------------------------------------------------

    def flatten(
        self,
        bucket: GradBucket,
        grads: Mapping[str, np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Copy the bucket's gradients into one flat buffer.

        ``out`` (``bucket.elements`` of the bucket's dtype, e.g. the
        bucket's span of a buffer shared by several buckets) is filled
        and returned when given; otherwise a fresh buffer is.
        """
        flat = (
            np.empty(bucket.elements, dtype=np.dtype(bucket.dtype))
            if out is None
            else out
        )
        for seg in bucket.segments:
            grad = grads[seg.name]
            if tuple(grad.shape) != seg.shape:
                raise ValueError(
                    f"gradient {seg.name!r} has shape {grad.shape}, "
                    f"bucket plan says {seg.shape}"
                )
            flat[seg.offset:seg.offset + seg.size] = grad.reshape(-1)
        return flat

    def unflatten(
        self, bucket: GradBucket, flat: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Slice reduced gradients back out of a bucket buffer.

        Returned arrays are views into ``flat`` — the optimizer consumes
        them immediately and never writes gradients in place.
        """
        return {
            seg.name: flat[seg.offset:seg.offset + seg.size].reshape(seg.shape)
            for seg in bucket.segments
        }


def plan_grad_buckets(
    names: Sequence[str],
    specs: Mapping[str, tuple[tuple[int, ...], str]],
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
) -> GradBucketPlan:
    """Assign parameters to buckets, greedily, in parameter order.

    ``names`` fixes the order (the training graph's parameter order —
    identical on every rank by construction); ``specs`` maps each name
    to ``(shape, dtype_str)``. A bucket closes when adding the next
    parameter would exceed ``bucket_bytes`` or change dtype; a single
    parameter larger than the cap gets a bucket of its own.
    """
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")
    buckets: list[GradBucket] = []
    current: list[BucketSegment] = []
    current_dtype: str | None = None
    offset = 0

    def close() -> None:
        nonlocal current, current_dtype, offset
        if current:
            buckets.append(
                GradBucket(len(buckets), current_dtype, tuple(current))
            )
        current, current_dtype, offset = [], None, 0

    for name in names:
        shape, dtype = specs[name]
        dtype = str(np.dtype(dtype))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = size * np.dtype(dtype).itemsize
        if current and (
            dtype != current_dtype
            or (offset * np.dtype(current_dtype).itemsize) + nbytes
            > bucket_bytes
        ):
            close()
        current.append(BucketSegment(name, tuple(shape), dtype, offset))
        current_dtype = dtype
        offset += size
    close()
    return GradBucketPlan(tuple(buckets), bucket_bytes)
