"""Estimators and exact counters shared by every workload.

Timings are summarised by the nearest-rank 10th percentile: on the shared
2-core host the median of identical runs moved 14% while p10 moved 3-5%
(README, "Estimators"). Every timing therefore has an exact-count
companion taken with the interpreter's own profile/trace hooks.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from typing import Callable, Iterable, Sequence


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in [0, 100]; the sample itself, never
    an interpolation, so an exact count stays exact."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def p10(samples: Sequence[float]) -> float:
    """The gated estimator (the minimum when fewer than 10 samples)."""
    return percentile(samples, 10)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def loss_digest(losses: Iterable[float]) -> int:
    """First 48 bits of sha256 over the float64 bit patterns of ``losses``.

    48 bits survive a round trip through a JSON double exactly, so the
    digest can travel as an ordinary metric value.
    """
    blob = b"".join(struct.pack("<d", float(x)) for x in losses)
    return int(hashlib.sha256(blob).hexdigest()[:12], 16)


def count_calls(fn: Callable[[], object]) -> int:
    """``call`` + ``c_call`` profile events on this thread while ``fn`` runs."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    # the setprofile(None) call above is itself one c_call event
    return count - 1


#: code objects compiled from generated closure source carry this filename
COMPILED_PLAN_FRAME = "<compiled-plan>"


def count_bytecodes(fn: Callable[[], object], roots: Sequence[str]) -> int:
    """Bytecodes executed on this thread, while ``fn`` runs, in frames whose
    filename contains one of ``roots``. Frames elsewhere (numpy, stdlib)
    are not descended into, so kernels cost nothing here."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        filename = frame.f_code.co_filename
        if not any(root in filename for root in roots):
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count
