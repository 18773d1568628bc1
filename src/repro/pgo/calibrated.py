"""The calibrated device model: measured records first, roofline fallback.

Every cost-driven decision in the stack — Echo accept/reject, FC layout
selection — asks a
:class:`repro.gpumodel.DeviceModel` to price nodes. This module swaps in a
subclass that answers from the calibration database whenever a node's
shape class has measured coverage, and defers to the analytical model
otherwise, so coverage improves decisions incrementally without ever
degrading the uncovered ones.

Measured host seconds and simulated device seconds differ by a large
constant factor (numpy vs. a modeled GPU), so for the *simulated* unit
system (:meth:`CalibratedDeviceModel.node_cost`) measured values are
mapped through the database's geometric-mean domain scale before mixing
— relative structure (which op dominates, which GEMM shape is slower) is
what transfers. :meth:`CalibratedDeviceModel.predict_host_seconds`
answers in host seconds, with the records unscaled.
"""

from __future__ import annotations

from repro.gpumodel.devices import (
    TITAN_XP,
    DeviceModel,
    DeviceSpec,
    KernelCost,
)
from repro.graph.node import Node
from repro.pgo.records import CalibrationDB, shape_class

__all__ = [
    "CalibratedDeviceModel",
    "default_device",
    "device_token",
]


class CalibratedDeviceModel(DeviceModel):
    """A :class:`DeviceModel` that prefers measured cost records.

    ``min_weight`` is the coverage bar: a record must have accumulated at
    least that much effective sample weight before it overrides the
    analytical estimate (one clean observation suffices by default).
    """

    def __init__(
        self,
        db: CalibrationDB,
        spec: DeviceSpec = TITAN_XP,
        min_weight: float = 1.0,
    ) -> None:
        super().__init__(spec)
        self.db = db
        self.min_weight = min_weight
        self._scale = db.model_scale()
        self.calibrated_hits = 0
        self.analytic_fallbacks = 0

    def __repr__(self) -> str:
        return (
            f"CalibratedDeviceModel({self.spec.name}, "
            f"coverage={self.db.coverage()}, epoch={self.db.epoch})"
        )

    @property
    def cache_token(self) -> tuple:
        return (self.spec.name, "calibrated", self.db.epoch)

    def node_cost(self, node: Node) -> KernelCost:
        base = super().node_cost(node)
        if base.kernel_seconds <= 0.0:
            return base  # uncosted op or pure view; nothing to calibrate
        rec = self.db.record_for(shape_class(node), self.min_weight)
        if rec is None:
            self.analytic_fallbacks += 1
            return base
        self.calibrated_hits += 1
        return KernelCost(
            kernel_seconds=rec.seconds * self._scale,
            api_seconds=base.api_seconds,
            dram_bytes=base.dram_bytes,
            launches=base.launches,
        )

    def predict_host_seconds(self, node: Node) -> float:
        """Predicted *host* wall-clock of one node (the calibration
        benchmark's comparison against measured timings).

        Covered classes answer in measured units directly; uncovered ones
        fall back to the fixed host roofline of the base model.
        """
        rec = self.db.record_for(shape_class(node), self.min_weight)
        if rec is not None:
            self.calibrated_hits += 1
            return rec.seconds
        self.analytic_fallbacks += 1
        return super().predict_host_seconds(node)


def default_device(spec: DeviceSpec = TITAN_XP) -> DeviceModel:
    """The ambient device model: calibrated iff a tuning store has data.

    With no ``REPRO_TUNE_DIR`` (or an empty/corrupt calibration file) this
    is exactly ``DeviceModel(spec)`` — behavior without the env var is
    bit-for-bit the pre-PGO default.
    """
    from repro.pgo.store import default_store

    store = default_store()
    if store is None:
        return DeviceModel(spec)
    db = store.calibration()
    if db.coverage() == 0:
        return DeviceModel(spec)
    return CalibratedDeviceModel(db, spec)


def device_token(device: DeviceModel | None = None) -> tuple:
    """The cache token of ``device`` (or of the ambient default)."""
    if device is None:
        device = default_device()
    token = getattr(device, "cache_token", None)
    if token is None:
        return (device.spec.name, "analytic")
    return token
