"""Distributed data-parallel training over the ring collectives.

:class:`DistributedTrainer` wraps the single-device
:class:`~repro.train.Trainer` for one rank of a data-parallel cohort:

* **shard-by-rank sampling** — every rank receives the same global
  batch and keeps its contiguous slice (:func:`repro.data.sharding.\
shard_feeds`), so the cohort consumes exactly the batches a single
  device would;
* **synchronized start** — initial parameters are ring-broadcast from
  the leader, and every rank's gradient-bucket layout fingerprint is
  all-gathered and compared before step one (a mismatched model build
  fails loudly instead of producing garbage numerics);
* **one gradient collective per step** — gradients are packed into flat
  buckets (:mod:`repro.dist.bucketing`); when the plan's body has run
  (the ``on_item`` completion hook), every same-dtype run of buckets is
  flattened into *one* buffer and handed to a per-rank communicator
  thread as one chunk-pipelined ring all-reduce, so a step is one
  gradient collective plus the loss. Cutting the body at the points
  where buckets become ready, to overlap reduction with the tail of
  backward, was measured and rejected: 17.2 ms against 16.0 ms per step
  on the 2-core host, where the communicator only takes the interpreter
  lock away from a dispatch-bound main thread;
* **global clipping** — the optimizer update (and hence ``clip_norm``)
  runs on the *reduced* mean gradients, so the clip norm is the global
  norm — identical on every rank — not a per-shard norm;
* **degrade path** — a :class:`~repro.dist.group.CollectiveTimeout` or
  :class:`~repro.dist.group.PeerGone` aborts the step, survivors
  re-form the ring (:meth:`~repro.dist.group.ProcessGroup.reform`) at
  the step boundary, and the step reruns over the smaller ring. The
  ``mean`` reduction divides by the live count, so loss weighting
  rescales automatically; the dead rank's shard is dropped.

**Bitwise determinism.** Every collective reduces in the canonical
ascending-rank order (:mod:`repro.dist.collectives`), bucket packing is
pure data movement, and the mean divides with one shared expression —
so an N-rank run's parameter trajectory is bitwise identical across
runs, backends, bucket caps, and chunk sizes, and equals
:func:`data_parallel_reference`, the single-process fold over the same
shards. (A *single-graph* full-batch run can never match bitwise — the
GEMMs would reduce over the batch in a different order — which is why
the reference replays the shard graphs, not the fused batch.)

**Dropout.** Masks are seeded by (node name, global step); every rank
sets the same global step each iteration, so shards share masks with
each other and with the reference. The per-step loss all-reduce
doubles as a step barrier: no rank can enter step ``N+1``'s compute —
and bump the process-global dropout step, visible to sibling rank
threads under the thread backend — before every rank has finished step
``N``'s compute.

Ranks share one profile-guided tuning store (``REPRO_TUNE_DIR``): the
PR-5 :class:`~repro.pgo.store.TuneStore` is file-locked, so concurrent
writers are safe, and :func:`calibrate_shared` has the leader measure
once for the whole cohort.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import defaultdict
from typing import Any, Iterable, Mapping

import numpy as np

from repro.autodiff.training import TrainingGraph
from repro.data.sharding import shard_feeds
from repro.dist.bucketing import (
    DEFAULT_BUCKET_BYTES,
    GradBucket,
    plan_grad_buckets,
)
from repro.dist.collectives import (
    DEFAULT_CHUNK_BYTES,
    barrier,
    reference_allreduce,
    ring_allgather,
    ring_allreduce,
    ring_broadcast,
)
from repro.dist.group import (
    CollectiveTimeout,
    DistError,
    PeerGone,
    ProcessGroup,
    ProtocolError,
)
from repro.obs import trace as obs_trace
from repro.runtime import PlanCache, TrainingExecutor
from repro.runtime.collector import pauses_collector
from repro.train.metrics import perplexity
from repro.train.optimizer import Optimizer
from repro.train.trainer import Trainer, TrainRecord

__all__ = [
    "DistributedTrainer",
    "data_parallel_reference",
    "calibrate_shared",
]


class _Run:
    """Same-dtype buckets one program item finalizes: one collective."""

    def __init__(self, buckets: list[GradBucket]) -> None:
        self.buckets = buckets
        self.spans: list[slice] = []
        offset = 0
        for bucket in buckets:
            self.spans.append(slice(offset, offset + bucket.elements))
            offset += bucket.elements
        dtype = np.dtype(buckets[0].dtype)
        self.flat = np.empty(offset, dtype)  # this rank's gradients
        self.reduced = np.empty(offset, dtype)  # the cohort's mean


class DistributedTrainer(Trainer):
    """One rank of a synchronous data-parallel cohort.

    ``threads`` (among ``trainer_kwargs``) is accepted and ignored, as on
    :class:`~repro.train.Trainer`.
    """

    @pauses_collector
    def __init__(
        self,
        group: ProcessGroup,
        graph: TrainingGraph,
        params: dict[str, np.ndarray],
        optimizer: Optimizer,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        shard_inputs: bool = True,
        batch_axes: Mapping[str, int] | None = None,
        sync_params: bool = True,
        check_layout: bool = True,
        **trainer_kwargs: Any,
    ) -> None:
        # Each rank compiles privately: under the thread backend a shared
        # plan cache would hand sibling rank threads one CompiledPlan
        # (and one arena) to race over.
        trainer_kwargs.setdefault("plan_cache", PlanCache())
        super().__init__(graph, params, optimizer, **trainer_kwargs)
        self.group = group
        self.chunk_bytes = chunk_bytes
        self.shard_inputs = shard_inputs
        self.batch_axes = dict(batch_axes) if batch_axes else None

        names = list(graph.grads)
        specs = {
            name: (tuple(params[name].shape), str(params[name].dtype))
            for name in names
        }
        self.bucket_plan = plan_grad_buckets(names, specs, bucket_bytes)
        self._grad_out_index = {name: 1 + i for i, name in enumerate(names)}

        # Static DS5xx coverage check before the first step: every
        # parameter reduced exactly once, segments tiling their buffers.
        # (Import is local: repro.analysis depends on dist.bucketing.)
        from repro.analysis.distcheck import check_bucket_plan

        issues = [
            f
            for f in check_bucket_plan(self.bucket_plan, specs)
            if f.severity.value == "error"
        ]
        if issues:
            raise ProtocolError(
                "gradient bucket plan failed verification:\n"
                + "\n".join(f.format() for f in issues)
            )

        plan = self.executor.executor.plan
        ready = plan.output_ready_items()
        #: the plan's one run item: every bucket is reduced after it
        self._last_item = max(ready, default=0)
        # Buckets by the program item that finalizes their last gradient,
        # in bucket order (identical on every rank), split where the
        # dtype changes.
        runs_at: dict[int, list[list[GradBucket]]] = defaultdict(list)
        for bucket in self.bucket_plan.buckets:
            item = max(
                ready[self._grad_out_index[seg.name]]
                for seg in bucket.segments
            )
            runs = runs_at[item]
            if runs and runs[-1][0].dtype == bucket.dtype:
                runs[-1].append(bucket)
            else:
                runs.append([bucket])
        #: program item -> its runs, each reduced as one collective over
        #: one flat buffer. The send and result buffers live as long as
        #: the trainer instead of being allocated by the megabyte every
        #: step (steps are synchronous: neither is read once the next
        #: step starts to fill it).
        self._runs_at: dict[int, list[_Run]] = {
            item: [_Run(run) for run in runs]
            for item, runs in runs_at.items()
        }

        if check_layout:
            self._check_layout()
        if sync_params:
            self._sync_params()

        # One communicator thread per rank: the single consumer the
        # ProcessGroup requires, draining bucket jobs in the agreed order.
        self._jobs: queue.Queue = queue.Queue()
        self._reduced_buckets: dict[int, np.ndarray] = {}
        self._reduced_loss: float | None = None
        self._comm_error: BaseException | None = None
        self._step_done = threading.Event()
        #: attempt counter; jobs carry it so a retried step cannot
        #: accidentally run leftovers of the aborted attempt
        self._epoch = 0
        self._comm = threading.Thread(
            target=self._comm_loop,
            name=f"dist-comm-{group.rank}",
            daemon=True,
        )
        self._comm.start()

    # -- startup synchronization ---------------------------------------------

    def _check_layout(self) -> None:
        """All-gather bucket-layout fingerprints; any divergence raises."""
        mine = np.frombuffer(
            self.bucket_plan.fingerprint().encode(), dtype=np.uint8
        )
        gathered = ring_allgather(self.group, mine)
        for rank, fp in sorted(gathered.items()):
            if fp.shape != mine.shape or not np.array_equal(fp, mine):
                raise ProtocolError(
                    f"rank {self.group.rank}: gradient bucket layout "
                    f"diverges from rank {rank} — ranks built different "
                    "models or bucket caps"
                )

    def _sync_params(self) -> None:
        """Adopt the leader's initial parameters, name by sorted name."""
        root = self.group.live[0]
        for name in sorted(self.params):
            self.params[name] = ring_broadcast(
                self.group, self.params[name], root=root
            )

    # -- communicator thread -------------------------------------------------

    def _comm_loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            epoch, kind = job[0], job[1]
            if epoch != self._epoch:
                # Leftover of an aborted attempt; the retry bumped the
                # epoch. Never runs a collective, never releases waiters.
                continue
            if self._comm_error is not None:
                # Step already failed: swallow its leftovers, but still
                # release the waiter when its last job arrives.
                if kind == "loss":
                    self._step_done.set()
                continue
            try:
                if kind == "buckets":
                    _, _, run, overlapped = job
                    ring_allreduce(
                        self.group,
                        run.flat,
                        op="mean",
                        chunk_bytes=self.chunk_bytes,
                        out=run.reduced,
                    )
                    for bucket, span in zip(run.buckets, run.spans):
                        self.group.stats.on_bucket(overlapped)
                        self._reduced_buckets[bucket.index] = run.reduced[
                            span
                        ]
                else:  # "loss" — always the step's final job
                    _, _, value = job
                    arr = np.array([value], dtype=np.float64)
                    self._reduced_loss = float(
                        ring_allreduce(
                            self.group,
                            arr,
                            op="mean",
                            chunk_bytes=self.chunk_bytes,
                        )[0]
                    )
                    self._step_done.set()
            except BaseException as exc:  # noqa: BLE001 - ferried to step()
                self._comm_error = exc
                if kind == "loss":
                    self._step_done.set()

    def _on_item(self, item_idx: int, regs: list) -> None:
        """Completion hook: launch ready buckets' reductions."""
        if self._comm_error is not None:
            raise self._comm_error
        plan = self.executor.executor.plan
        for run in self._runs_at.get(item_idx, ()):
            for bucket, span in zip(run.buckets, run.spans):
                grads = {
                    seg.name: plan.output_value(
                        regs, self._grad_out_index[seg.name]
                    )
                    for seg in bucket.segments
                }
                self.bucket_plan.flatten(bucket, grads, out=run.flat[span])
            self._jobs.put(
                (self._epoch, "buckets", run, item_idx < self._last_item)
            )

    # -- stepping ------------------------------------------------------------

    def step(self, feeds: Mapping[str, np.ndarray]) -> TrainRecord:
        """One synchronous data-parallel step over the live ring.

        ``feeds`` is the *global* batch (every rank passes the same one);
        this rank keeps its shard. On a peer fault the ring re-forms and
        the step reruns over the survivors — the returned record reflects
        the attempt that succeeded.
        """
        local = (
            shard_feeds(
                feeds,
                self.group.world_size,
                self.group.rank,
                self.batch_axes,
            )
            if self.shard_inputs
            else dict(feeds)
        )
        attempts = self.group.live_size
        for _ in range(attempts):
            try:
                return self._try_step(local)
            except (CollectiveTimeout, PeerGone):
                # Degrade: re-form over the survivors at this step
                # boundary, then rerun. reform() itself raises if this
                # rank was evicted or isolated.
                self.group.reform()
        raise DistError(
            f"rank {self.group.rank}: step kept failing through "
            f"{attempts} ring re-formations"
        )

    @property
    def step_done(self) -> threading.Event:
        """Set when the communicator finishes the current step's jobs.

        Event-driven synchronization point for tests: waiting on it (after
        ``step`` returns it is already set) replaces wall-clock sleeps.
        """
        return self._step_done

    def _try_step(self, local: Mapping[str, np.ndarray]) -> TrainRecord:
        with obs_trace.span(
            "dist.step", "dist",
            {"rank": self.group.rank, "gen": self.group.generation,
             "step": len(self.history) + 1},
        ):
            return self._try_step_inner(local)

    def _try_step_inner(self, local: Mapping[str, np.ndarray]) -> TrainRecord:
        self._epoch += 1
        self._reduced_buckets.clear()
        self._reduced_loss = None
        self._comm_error = None
        self._step_done.clear()

        loss, _, _ = self.executor.run(local, self.params, on_item=self._on_item)
        self._jobs.put((self._epoch, "loss", loss))
        # Worst case the communicator times out once (the first dead
        # collective) and skips the rest; anything beyond that budget
        # means the communicator itself is wedged.
        budget = 2.0 * self.group.timeout_s + 60.0
        waiting = time.perf_counter()
        if not self._step_done.wait(timeout=budget):
            raise DistError(
                f"rank {self.group.rank}: communicator made no progress "
                f"for {budget:.0f}s"
            )
        if self.metrics is not None:
            # What the step pays for communication once compute is done.
            self.metrics.histogram("dist.comm_wait_s").observe(
                time.perf_counter() - waiting
            )
        if self._comm_error is not None:
            raise self._comm_error

        mean_loss = self._reduced_loss
        if not np.isfinite(mean_loss):
            raise FloatingPointError(
                f"loss diverged to {mean_loss} at step {len(self.history)}"
            )
        reduced: dict[str, np.ndarray] = {}
        for bucket in self.bucket_plan.buckets:
            reduced.update(
                self.bucket_plan.unflatten(
                    bucket, self._reduced_buckets[bucket.index]
                )
            )
        grad_norm = self.optimizer.update(self.params, reduced)

        self._sim_clock += self.iteration_seconds
        self._samples += self.batch_size * self.group.live_size
        record = TrainRecord(
            step=len(self.history) + 1,
            samples_seen=self._samples,
            sim_seconds=self._sim_clock,
            loss=mean_loss,
            perplexity=perplexity(mean_loss),
            grad_norm=grad_norm,
        )
        self.history.append(record)
        self.speedometer.update(self._samples, self._sim_clock)
        self._record_metrics(record)
        if self.metrics is not None:
            snap = self.group.stats.snapshot()
            self.metrics.absorb(f"dist.rank{self.group.rank}", snap)
            total = (
                snap["overlap_reduced_buckets"] + snap["tail_reduced_buckets"]
            )
            self.metrics.gauge(
                f"dist.rank{self.group.rank}.overlap_fraction"
            ).set(
                snap["overlap_reduced_buckets"] / total if total else 0.0
            )
        return record

    def close(self) -> None:
        """Stop the communicator thread (the group stays open)."""
        if self._comm.is_alive():
            self._jobs.put(None)
            self._comm.join(timeout=10.0)

    def __enter__(self) -> "DistributedTrainer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def data_parallel_reference(
    graph: TrainingGraph,
    params: dict[str, np.ndarray],
    optimizer: Optimizer,
    batches: Iterable[Mapping[str, np.ndarray]],
    world_size: int,
    batch_axes: Mapping[str, int] | None = None,
    **executor_kwargs: Any,
) -> list[dict[str, float]]:
    """The single-process baseline N-rank training must match bitwise.

    Replays the cohort serially: per step, each "rank" runs the same
    shard-sized graph on its shard (one private executor per rank, so
    dropout iteration counters advance exactly as each real rank's
    executor does), gradients and losses fold in ascending rank order
    via :func:`reference_allreduce` (mean), and the optimizer update —
    with its global clip — applies to the shared parameters. Returns
    per-step ``{"loss", "grad_norm"}`` dicts; ``params`` is updated in
    place, exactly like the trainer's.
    """
    executor_kwargs.setdefault("plan_cache", PlanCache())
    executors = [
        TrainingExecutor(graph, **executor_kwargs) for _ in range(world_size)
    ]
    names = list(graph.grads)
    records: list[dict[str, float]] = []
    for feeds in batches:
        shard_losses: list[np.ndarray] = []
        shard_grads: list[dict[str, np.ndarray]] = []
        for rank in range(world_size):
            local = shard_feeds(feeds, world_size, rank, batch_axes)
            loss, grads, _ = executors[rank].run(local, params)
            shard_losses.append(np.array([loss], dtype=np.float64))
            # Executors reuse arena buffers across runs; keep copies.
            shard_grads.append(
                {name: np.array(grads[name], copy=True) for name in names}
            )
        mean_loss = float(reference_allreduce(shard_losses, op="mean")[0])
        reduced = {
            name: reference_allreduce(
                [g[name] for g in shard_grads], op="mean"
            )
            for name in names
        }
        grad_norm = optimizer.update(params, reduced)
        records.append({"loss": mean_loss, "grad_norm": grad_norm})
    return records


def calibrate_shared(
    group: ProcessGroup,
    graph: TrainingGraph,
    feeds: Mapping[str, np.ndarray],
    params: Mapping[str, np.ndarray],
    device: Any | None = None,
    repeats: int = 3,
    store: Any | None = None,
):
    """Leader-only profile-guided calibration for the whole cohort.

    The live leader measures the graph and merges into the shared
    :class:`~repro.pgo.store.TuneStore` (``REPRO_TUNE_DIR``; file-locked,
    so a concurrent writer from another job is safe); everyone else
    waits at the barrier and then builds plans against the same tuned
    costs. Call *before* constructing trainers.
    """
    from repro.pgo.harvest import calibrate_and_save
    from repro.pgo.store import default_store

    store = store if store is not None else default_store()
    if group.rank == group.live[0]:
        calibrate_and_save(
            graph, feeds, params, store=store, device=device, repeats=repeats
        )
    barrier(group)
    return store
