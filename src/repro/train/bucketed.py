"""Bucketed NMT training: one compiled graph per length bucket, shared
parameters (the MXNet BucketingModule pattern Sockeye trains with).

The Echo pass runs on *every* bucket graph — recomputation is a graph
property, so each shape gets its own rewrite — and the device-visible
footprint is the maximum over buckets (executors share the memory pool).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

import numpy as np

from repro.data.bucketing import BucketSpec
from repro.echo import EchoConfig, EchoPass
from repro.gpumodel import DeviceModel
from repro.models.nmt import NmtConfig, build_nmt
from repro.nn import ParamStore
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Arena, PlanCache
from repro.runtime.collector import pauses_collector
from repro.train.optimizer import Optimizer
from repro.train.trainer import TrainRecord, Trainer, check_threads


class BucketedTrainer:
    """Dispatches batches to per-bucket training graphs.

    All buckets share one :class:`ParamStore` (hence one parameter set and
    one optimizer state); per-bucket trainers share the same params dict,
    so an update made through any bucket is visible to all. ``threads`` is
    accepted and ignored (see :func:`repro.train.trainer.check_threads`).
    """

    @pauses_collector
    def __init__(
        self,
        base_config: NmtConfig,
        buckets: tuple[BucketSpec, ...],
        optimizer: Optimizer,
        echo: bool = False,
        echo_config: EchoConfig | None = None,
        device: DeviceModel | None = None,
        threads: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        check_threads(threads)
        if not buckets:
            raise ValueError("need at least one bucket")
        self.buckets = buckets
        self.metrics = metrics
        if device is None:
            # Calibrated when a tuning store has coverage.
            from repro.pgo.calibrated import default_device

            device = default_device()
        self.device = device
        store = ParamStore()
        self.params: dict[str, np.ndarray] | None = None
        self._trainers: dict[BucketSpec, Trainer] = {}
        self.echo_reports = {}
        #: one arena + plan cache shared by every bucket's executor, the
        #: host-side analogue of "executors share the memory pool"
        self.arena = Arena()
        self.plan_cache = PlanCache()

        for bucket in buckets:
            cfg = replace(
                base_config, src_len=bucket.src_len, tgt_len=bucket.tgt_len
            )
            model = build_nmt(cfg, store=store)
            if echo:
                self.echo_reports[bucket] = EchoPass(
                    echo_config, self.device, plan_cache=self.plan_cache
                ).run(model.graph)
            if self.params is None:
                self.params = store.initialize()
            # Buckets share the arena: the plan cache keys compiled plans
            # by it, so every bucket's plan overlays the same storage.
            self._trainers[bucket] = Trainer(
                model.graph,
                self.params,
                optimizer,
                device=self.device,
                batch_size=cfg.batch_size,
                arena=self.arena,
                plan_cache=self.plan_cache,
                metrics=metrics,
            )
        self.store = store
        self.history: list[TrainRecord] = []

    @property
    def peak_bytes(self) -> int:
        """Device footprint: the largest bucket's plan (pooled executors)."""
        return max(t.peak_bytes for t in self._trainers.values())

    def trainer_for(self, bucket: BucketSpec) -> Trainer:
        try:
            return self._trainers[bucket]
        except KeyError:
            raise ValueError(f"unknown bucket {bucket}") from None

    def step(
        self, bucket: BucketSpec, feeds: Mapping[str, np.ndarray]
    ) -> TrainRecord:
        record = self.trainer_for(bucket).step(feeds)
        self.history.append(record)
        return record

    def mean_iteration_seconds(self) -> float:
        """Average per-bucket iteration time (uniform bucket mix)."""
        times = [t.iteration_seconds for t in self._trainers.values()]
        return sum(times) / len(times)
