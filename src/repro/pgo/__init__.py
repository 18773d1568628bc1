"""Profile-guided optimization (DESIGN.md S9): measured costs, persisted.

Closes the loop from measurement to decision: calibration records map
host wall-clock back onto the analytical device model
(:mod:`repro.pgo.records`, :mod:`repro.pgo.calibrated`), and the
persistent tuning store (:mod:`repro.pgo.store`) carries them — and the
backend autotuner's results — to the next process. Plans are never
persisted: every process computes them from the graph and the cost model.
Everything activates via ``REPRO_TUNE_DIR``; without it the stack behaves
exactly as before.

:mod:`repro.pgo.harvest` (the measurement driver) is imported lazily by
callers — it pulls in the profiler and scheduler, which this package must
not load eagerly.
"""

from repro.pgo.calibrated import (
    CalibratedDeviceModel,
    default_device,
    device_token,
)
from repro.pgo.records import (
    DECAY,
    CalibrationDB,
    CostRecord,
    RobustTiming,
    robust_best,
    shape_class,
)
from repro.pgo.store import (
    TuneStore,
    default_store,
    reset_default_stores,
)

__all__ = [
    "DECAY",
    "RobustTiming",
    "robust_best",
    "shape_class",
    "CostRecord",
    "CalibrationDB",
    "CalibratedDeviceModel",
    "default_device",
    "device_token",
    "TuneStore",
    "default_store",
    "reset_default_stores",
]
