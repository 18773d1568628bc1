"""Calibration records: measured per-(opcode, shape-class) kernel costs.

The analytical :class:`repro.gpumodel.DeviceModel` prices every node from
first principles (roofline + launch constants). This module holds the
*measured* side of the loop: host wall-clock samples of the same kernels,
keyed by a shape class coarse enough to generalize across node instances
but fine enough to separate a 512-wide GEMM from a 64-wide one. The
:class:`CalibrationDB` merges repeated observations with exponential decay
— old runs fade, repeated runs sharpen — and survives JSON round-trips
through :class:`repro.pgo.store.TuneStore`.

Host seconds and simulated device seconds live in different domains (numpy
kernels are ~100x the simulated GPU times for the same bytes/flops), so
records keep, next to each measurement, the analytical *reference* cost of
the same class. The geometric mean of reference/measured over all covered
classes is the domain scale that maps measured structure back into model
units — see :class:`repro.pgo.calibrated.CalibratedDeviceModel`.

Also home to :func:`robust_best`, the best-of-k timing reducer with an
interquartile outlier fence shared by the microbenchmark and the per-node
measurement harness: a single descheduled run (or a timer glitch on the
fast side) must not poison a calibration record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph import Node

__all__ = [
    "DB_VERSION",
    "DECAY",
    "RobustTiming",
    "robust_best",
    "shape_class",
    "CostRecord",
    "CalibrationDB",
]

#: schema version of serialized calibration payloads
DB_VERSION = 1

#: per-observation exponential decay: a new sample carries weight 1 and
#: every existing sample's weight is multiplied by this first, so the
#: estimate tracks drift while repeated runs sharpen it (the effective
#: sample count converges to 1 / (1 - DECAY))
DECAY = 0.85

_WEIGHT_CAP = 1.0 / (1.0 - DECAY)

#: ops that produce no kernel work and must never be calibrated
_UNCOSTED_OPS = ("placeholder", "variable", "constant")


# -- robust timing ----------------------------------------------------------


@dataclass(frozen=True)
class RobustTiming:
    """Best-of-k wall-clock measurement with an IQR sanity check."""

    #: the reported time: the minimum of the samples inside the fence
    seconds: float
    #: all raw samples, sorted ascending
    samples: tuple[float, ...]
    #: samples discarded by the interquartile fence
    discarded: int
    #: whether the surviving samples agree (IQR small vs. the median);
    #: an unstable timing is still usable — min-of-k is itself robust to
    #: slow outliers — but callers may weigh it down or re-measure
    stable: bool

    @property
    def median_seconds(self) -> float:
        kept = self.samples
        n = len(kept)
        mid = n // 2
        if n % 2:
            return kept[mid]
        return 0.5 * (kept[mid - 1] + kept[mid])


def _quartiles(xs: list[float]) -> tuple[float, float]:
    """(Q1, Q3) by linear interpolation over a sorted sample."""

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return xs[lo]
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.75)


def robust_best(samples: Iterable[float]) -> RobustTiming:
    """Reduce repeated timings to best-of-k inside an interquartile fence.

    The minimum is the classic microbenchmark statistic (the run with the
    least interference), but a raw min is vulnerable to below-resolution
    timer glitches and a raw mean to scheduler jitter. So: sort, fence at
    ``[Q1 - 1.5 IQR, Q3 + 1.5 IQR]``, take the minimum of what survives.
    """
    xs = sorted(float(s) for s in samples if math.isfinite(s) and s >= 0.0)
    if not xs:
        raise ValueError("robust_best needs at least one sample")
    if len(xs) < 4:
        # Too few points for quartiles; fence nothing.
        spread = xs[-1] - xs[0]
        stable = spread <= 0.25 * max(xs[0], 1e-12)
        return RobustTiming(xs[0], tuple(xs), 0, stable or len(xs) == 1)
    q1, q3 = _quartiles(xs)
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    kept = [x for x in xs if lo <= x <= hi]
    if not kept:  # degenerate (all identical handled above; be safe)
        kept = xs
    median = kept[len(kept) // 2]
    stable = iqr <= 0.25 * max(median, 1e-12)
    return RobustTiming(
        seconds=kept[0],
        samples=tuple(xs),
        discarded=len(xs) - len(kept),
        stable=stable,
    )


# -- shape classes ----------------------------------------------------------


def shape_class(node: "Node") -> str | None:
    """Calibration key of one node, or None when the node has no kernel.

    GEMM-family nodes key by their exact ``(m, n, k, batch)`` — GEMM time
    is strongly shape-dependent and the dims recur across instances (every
    decoder step runs the same attention GEMM). Everything else keys by op
    name and quarter-octave-bucketed bytes accessed, the same quantity the
    analytical model's bandwidth term reads.
    """
    op = node.op
    if op.name in _UNCOSTED_OPS:
        return None
    gemm_dims = getattr(op, "gemm_dims", None)
    if gemm_dims is not None:
        m, n, k = gemm_dims(node)
        batch = node.inputs[0].shape[0] if op.name == "batch_dot" else 1
        return f"{op.name}:g{m}x{n}x{k}x{batch}"
    nbytes = op.bytes_accessed(node)
    if nbytes <= 0:
        return None  # views and other zero-traffic nodes
    bucket = int(round(4.0 * math.log2(nbytes)))
    return f"{op.name}:b{bucket}"


# -- records ----------------------------------------------------------------


@dataclass
class CostRecord:
    """Decayed running estimate of one shape class's measured kernel time."""

    #: exponentially-decayed mean of the observed (best-of-k) seconds
    seconds: float
    #: effective sample count (capped at 1 / (1 - DECAY))
    weight: float = 1.0
    #: total observations ever folded in
    count: int = 1
    #: fastest observation ever seen
    min_seconds: float = 0.0
    #: analytical model's kernel seconds for the same class (latest)
    ref_seconds: float = 0.0

    def observe(self, seconds: float, ref_seconds: float) -> None:
        decayed = self.weight * DECAY
        self.seconds = (self.seconds * decayed + seconds) / (decayed + 1.0)
        self.weight = min(decayed + 1.0, _WEIGHT_CAP)
        self.count += 1
        self.min_seconds = min(self.min_seconds, seconds)
        if ref_seconds > 0.0:
            self.ref_seconds = ref_seconds

    def merged_with(self, other: "CostRecord") -> "CostRecord":
        """Weight-weighted combination (concurrent-writer reconciliation)."""
        w = self.weight + other.weight
        return CostRecord(
            seconds=(self.seconds * self.weight + other.seconds * other.weight)
            / w,
            weight=min(w, _WEIGHT_CAP),
            count=self.count + other.count,
            min_seconds=min(self.min_seconds, other.min_seconds),
            ref_seconds=other.ref_seconds or self.ref_seconds,
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "s": self.seconds,
            "w": self.weight,
            "n": self.count,
            "min": self.min_seconds,
            "ref": self.ref_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CostRecord":
        return cls(
            seconds=float(payload["s"]),
            weight=float(payload["w"]),
            count=int(payload["n"]),
            min_seconds=float(payload["min"]),
            ref_seconds=float(payload["ref"]),
        )


@dataclass
class CalibrationDB:
    """All cost records of one tuning directory, plus the epoch counter.

    The *epoch* increments on every persisted save and is part of every
    calibrated device's ``cache_token``, so autotune results tuned against
    one calibration state never serve a process holding a newer one.
    """

    records: dict[str, CostRecord] = field(default_factory=dict)
    epoch: int = 0

    def observe(self, cls: str, seconds: float, ref_seconds: float) -> None:
        if seconds <= 0.0 or not math.isfinite(seconds):
            return
        rec = self.records.get(cls)
        if rec is None:
            self.records[cls] = CostRecord(
                seconds=seconds, min_seconds=seconds, ref_seconds=ref_seconds
            )
        else:
            rec.observe(seconds, ref_seconds)

    def record_for(
        self, cls: str | None, min_weight: float = 1.0
    ) -> CostRecord | None:
        """The record covering ``cls``, or None below the coverage bar."""
        if cls is None:
            return None
        rec = self.records.get(cls)
        if rec is None or rec.weight < min_weight:
            return None
        return rec

    def coverage(self) -> int:
        return len(self.records)

    def model_scale(self) -> float:
        """Geometric-mean measured-to-model domain scale.

        ``model_seconds ~= measured_seconds * model_scale()``: multiplying
        a measured record by this lands it in the analytical model's unit
        system, so calibrated and analytical costs mix freely in the same
        accept/reject comparisons and cost gates.
        """
        logs = [
            math.log(rec.ref_seconds / rec.seconds)
            for rec in self.records.values()
            if rec.ref_seconds > 0.0 and rec.seconds > 0.0
        ]
        if not logs:
            return 1.0
        return math.exp(sum(logs) / len(logs))

    def merge(self, other: "CalibrationDB") -> None:
        """Fold another DB in (disk state + this process's observations)."""
        for cls, rec in other.records.items():
            mine = self.records.get(cls)
            self.records[cls] = (
                CostRecord(**vars(rec)) if mine is None
                else mine.merged_with(rec)
            )
        self.epoch = max(self.epoch, other.epoch)

    def to_payload(self) -> dict[str, Any]:
        return {
            "version": DB_VERSION,
            "epoch": self.epoch,
            "records": {
                cls: rec.to_payload() for cls, rec in self.records.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CalibrationDB":
        if not isinstance(payload, dict):
            raise ValueError("calibration payload is not an object")
        if payload.get("version") != DB_VERSION:
            raise ValueError(
                f"calibration version {payload.get('version')!r} != "
                f"{DB_VERSION}"
            )
        records = {
            str(k): CostRecord.from_payload(v)
            for k, v in payload.get("records", {}).items()
        }
        return cls(records=records, epoch=int(payload.get("epoch", 0)))
