"""Profile-guided optimization (DESIGN.md S9): measured costs + warm caches.

Closes the loop from measurement to decision: calibration records map
host wall-clock back onto the analytical device model
(:mod:`repro.pgo.records`, :mod:`repro.pgo.calibrated`), and the
persistent tuning store (:mod:`repro.pgo.store`) lets a warm process skip
scheduling, wavefront analysis, and backend autotuning. Everything
activates via ``REPRO_TUNE_DIR``; without it the stack behaves exactly as
before.

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
    graph_fingerprint,
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
    "graph_fingerprint",
    "reset_default_stores",
]
