"""Harvesting: turn host measurements into calibration records.

The bridge between :func:`repro.profiler.measure_node_timings` (raw
wall-clock per node) and :class:`repro.pgo.records.CalibrationDB` (decayed
per-shape-class estimates). Each measured node contributes one observation
to its shape class, paired with the analytical model's kernel estimate for
the same node so the database can maintain the measured-to-model domain
scale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.gpumodel.devices import DeviceModel
from repro.obs import trace as obs_trace
from repro.pgo.records import CalibrationDB, shape_class
from repro.profiler.runtime import measure_node_timings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autodiff.training import TrainingGraph
    from repro.graph import Node
    from repro.pgo.store import TuneStore

__all__ = [
    "harvest_node_timings",
    "harvest_training_graph",
    "calibrate_and_save",
]


def harvest_node_timings(
    order: Sequence["Node"],
    feeds: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    db: CalibrationDB,
    device: DeviceModel | None = None,
    repeats: int = 5,
) -> int:
    """Measure every kernel in ``order`` and fold it into ``db``.

    Returns the number of observations recorded. Unstable timings (IQR
    check failed) still contribute — best-of-k is already robust to slow
    outliers — but nodes whose shape class is None (placeholders, views)
    are skipped, as are zero/negative samples.
    """
    device = device or DeviceModel()
    observed = 0
    for timing in measure_node_timings(order, feeds, params, repeats=repeats):
        cls = shape_class(timing.node)
        if cls is None:
            continue
        ref = device.node_cost(timing.node).kernel_seconds
        db.observe(cls, timing.seconds, ref)
        observed += 1
    return observed


def harvest_training_graph(
    graph: "TrainingGraph",
    feeds: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    db: CalibrationDB,
    device: DeviceModel | None = None,
    repeats: int = 5,
) -> int:
    """Harvest a whole training graph (forward + backward kernels)."""
    from repro.runtime.scheduler import schedule

    order = schedule(graph.outputs)
    return harvest_node_timings(
        order, feeds, params, db, device=device, repeats=repeats
    )


def calibrate_and_save(
    graph: "TrainingGraph",
    feeds: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    store: "TuneStore",
    device: DeviceModel | None = None,
    repeats: int = 5,
) -> CalibrationDB:
    """Measure ``graph``, merge into ``store``, return the merged DB.

    The persisted epoch bumps, so cost-derived results keyed by a
    calibrated device's token (autotune entries) stop matching and are
    redone against the fresh records.
    """
    with obs_trace.span(
        "pgo.calibrate", "pgo", {"repeats": repeats}
    ) as sp:
        db = store.calibration()
        harvested = harvest_training_graph(
            graph, feeds, params, db, device=device, repeats=repeats
        )
        sp["kernels"] = harvested
        return store.save_calibration(db)
