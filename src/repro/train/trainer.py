"""Training loop with curve recording and an MXNet-style speedometer.

Training *numerics* run on numpy; training *time* is accounted in
simulated GPU seconds (the per-iteration cost of the compiled graph on the
device model, plus a host-side update term), so time-axis comparisons —
"EcoRNN converges 1.5x faster in wall clock" — reflect the modeled GPU,
not this machine's CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.autodiff.training import TrainingGraph
from repro.gpumodel import DeviceModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Arena, PlanCache, TrainingExecutor
from repro.runtime.collector import pauses_collector
from repro.train.metrics import perplexity
from repro.train.optimizer import Optimizer

#: host-side time per parameter element per update (optimizer arithmetic
#: overlaps poorly with GPU work in the paper-era frameworks)
_UPDATE_SECONDS_PER_PARAM = 2.0e-11


def check_threads(threads: int | None) -> None:
    """Validate an inert ``threads=`` argument: None or an int >= 1.

    A plan has one shape and runs on the calling thread whatever thread
    count it is given, so the value is otherwise ignored. The argument
    stays only because ``benchmarks/harness`` passes it (ROADMAP item 1
    removes it).
    """
    if threads is not None and (
        not isinstance(threads, int) or isinstance(threads, bool)
        or threads < 1
    ):
        raise ValueError(f"threads must be an int >= 1, got {threads!r}")


@dataclass
class TrainRecord:
    """One training step on the curves."""

    step: int
    samples_seen: int
    sim_seconds: float  # cumulative simulated wall clock
    loss: float
    perplexity: float
    grad_norm: float


@dataclass
class Speedometer:
    """Windowed samples/second readout (MXNet callback equivalent)."""

    window: int = 20
    _records: list[tuple[int, float]] = field(default_factory=list)

    def update(self, samples: int, sim_seconds: float) -> None:
        self._records.append((samples, sim_seconds))

    def throughput(self) -> float:
        recent = self._records[-self.window:]
        if len(recent) < 2:
            return 0.0
        samples = recent[-1][0] - recent[0][0]
        seconds = recent[-1][1] - recent[0][1]
        return samples / seconds if seconds > 0 else 0.0


class Trainer:
    """Drives iterations of one compiled training graph.

    ``threads`` is accepted and ignored (see :func:`check_threads`).
    """

    @pauses_collector
    def __init__(
        self,
        graph: TrainingGraph,
        params: dict[str, np.ndarray],
        optimizer: Optimizer,
        device: DeviceModel | None = None,
        batch_size: int | None = None,
        arena: Arena | None = None,
        plan_cache: PlanCache | None = None,
        threads: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        check_threads(threads)
        self.graph = graph
        self.params = params
        self.optimizer = optimizer
        #: explicit metrics sink; falls back to the global registry (when
        #: enabled) so ``REPRO_METRICS=1`` instruments existing callers.
        self.metrics = metrics if metrics is not None else obs_metrics.registry()
        self.device = device or DeviceModel()
        self.executor = TrainingExecutor(
            graph,
            device=self.device,
            arena=arena,
            plan_cache=plan_cache,
        )
        self.executor.executor.compile()
        self.batch_size = batch_size or _infer_batch(graph)
        num_params = sum(int(p.size) for p in params.values())
        cost = self.executor.simulate_cost()
        #: simulated GPU seconds per iteration (fixed for a static graph)
        self.iteration_seconds = (
            cost.sim_seconds + num_params * _UPDATE_SECONDS_PER_PARAM
        )
        self._kernel_busy = cost.sim_kernel_seconds / max(cost.sim_seconds, 1e-30)
        self.history: list[TrainRecord] = []
        self.speedometer = Speedometer()
        self._sim_clock = 0.0
        self._samples = 0

    @property
    def peak_bytes(self) -> int:
        return self.executor.peak_bytes

    def throughput(self) -> float:
        """Steady-state samples/second on the modeled device."""
        return self.batch_size / self.iteration_seconds

    def power_watts(self) -> float:
        return self.device.power_watts(self._kernel_busy)

    def step(self, feeds: Mapping[str, np.ndarray]) -> TrainRecord:
        with obs_trace.span(
            "train.step", "train", {"step": len(self.history) + 1}
        ):
            loss, grads, _ = self.executor.run(feeds, self.params)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"loss diverged to {loss} at step {len(self.history)}"
                )
            grad_norm = self.optimizer.update(self.params, grads)
        self._sim_clock += self.iteration_seconds
        self._samples += self.batch_size
        record = TrainRecord(
            step=len(self.history) + 1,
            samples_seen=self._samples,
            sim_seconds=self._sim_clock,
            loss=loss,
            perplexity=perplexity(loss),
            grad_norm=grad_norm,
        )
        self.history.append(record)
        self.speedometer.update(self._samples, self._sim_clock)
        self._record_metrics(record)
        return record

    def _record_metrics(self, record: TrainRecord) -> None:
        """Stream one step's observations into the metrics sink (if any)."""
        reg = self.metrics
        if reg is None:
            return
        reg.counter("train.steps").inc()
        reg.gauge("train.samples_seen").set(record.samples_seen)
        reg.gauge("train.loss").set(record.loss)
        reg.histogram("train.grad_norm").observe(record.grad_norm)
        reg.gauge("train.throughput").set(self.speedometer.throughput())

    def run_epoch(self, batches: Iterable[Mapping[str, np.ndarray]]
                  ) -> list[TrainRecord]:
        return [self.step(feeds) for feeds in batches]


def _infer_batch(graph: TrainingGraph) -> int:
    """Batch size from the trailing dim of the first [T x B] placeholder."""
    for t in graph.placeholders.values():
        if len(t.shape) == 2:
            return t.shape[1]
    raise ValueError("cannot infer batch size; pass batch_size explicitly")
