"""Persistent worker pool executing compiled-plan chunks in parallel.

Workers are long-lived daemon threads fed through one C-implemented
:class:`queue.SimpleQueue`; dispatching a chunk is one queue put plus one
lock-protected counter decrement. That hand-off is *not* free, and chunks
do not simply overlap because numpy releases the interpreter lock inside
its kernels: the woken worker and the caller both need the lock to
dispatch, a kernel that keeps it runs alone, and on the 2-core CI-class
host even same-sized sgemm pairs overlapped for some operand layouts and
not for others. Measured there: 12 us for a level of two no-op chunks,
73-80 us over the heavier chunk for two 46 us sgemms or two 64 KiB
``np.add`` calls, and 0.7-3.0 ms inside a training iteration, where the
worker has idled since the previous level — which is why the wavefront
gate (:mod:`repro.runtime.wavefront`) charges every chunk given to a
worker ``HANDOFF_SECONDS`` of host time and hands this pool only levels
whose modelled saving exceeds it.

The calling thread always executes the first chunk itself, so a pool built
for ``threads`` execution lanes owns ``threads - 1`` workers and a
one-chunk level degenerates to a plain call with no synchronization at
all. Pools are shared process-wide by lane count (executors share worker
threads the way they share arenas), and chunk exceptions propagate to the
caller after the level barrier — the plan's serial replay fallback then
attributes the failure to a node.

Pools do not survive ``fork``: only the forking thread exists in the
child, so an inherited pool would queue chunks nobody drains. The shared
table is emptied in the child (``os.register_at_fork``) and plans resolve
their pool through :func:`shared_pool` on every run instead of holding
one.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Sequence

from repro.obs import trace as obs_trace

__all__ = [
    "WorkerPool",
    "shared_pool",
    "default_thread_count",
    "max_execution_lanes",
]


def default_thread_count() -> int:
    """Execution-lane default: the ``REPRO_THREADS`` env var, else 1.

    Parallel execution is opt-in (serial plans are the PR-1 baseline and
    bitwise-identical by construction), so the default stays 1 unless the
    environment — e.g. the CI matrix leg — asks for more.
    """
    try:
        return max(1, int(os.environ.get("REPRO_THREADS", "1")))
    except ValueError:
        return 1


def max_execution_lanes() -> int:
    """Process-wide lane budget that :func:`shared_pool` enforces.

    ``REPRO_THREADS`` when set (the operator's explicit budget), else the
    host's core count — the point past which more worker threads only
    contend. Every consumer of worker threads (wavefront execution,
    serving) routes through :func:`shared_pool`, so the budget holds even
    when several subsystems each ask for their own parallelism.
    """
    try:
        env = int(os.environ.get("REPRO_THREADS", "0"))
    except ValueError:
        env = 0
    if env >= 1:
        return env
    return max(1, os.cpu_count() or 1)


class _LevelBarrier:
    """Completion tracking for one dispatched wavefront level."""

    __slots__ = ("lock", "remaining", "done", "error")

    def __init__(self, remaining: int) -> None:
        self.lock = threading.Lock()
        self.remaining = remaining
        self.done = threading.Event()
        self.error: BaseException | None = None


class WorkerPool:
    """Fixed set of daemon threads running ``chunk(regs)`` callables."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        self.num_workers = num_workers
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-wavefront-{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for t in self._threads:
            t.start()

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            chunk, regs, barrier = task
            try:
                chunk(regs)
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                with barrier.lock:
                    if barrier.error is None:
                        barrier.error = exc
            finally:
                with barrier.lock:
                    barrier.remaining -= 1
                    if barrier.remaining == 0:
                        barrier.done.set()

    def run_level(
        self, chunks: Sequence[Callable[[list], None]], regs: list
    ) -> None:
        """Execute one wavefront level: all chunks, then barrier.

        The caller runs ``chunks[0]`` inline while workers drain the rest,
        so every execution lane (including this thread) does kernel work.
        Raises the first chunk exception after all chunks finish — chunks
        write disjoint slots, so a failed level leaves no torn state a
        serial replay could not reproduce.
        """
        if obs_trace.TRACING:
            # Spans are emitted on the thread that executes the chunk, so
            # worker-run chunks land on their worker's timeline row.
            chunks = [self._traced_chunk(c, i) for i, c in enumerate(chunks)]
        if len(chunks) == 1:
            chunks[0](regs)
            return
        barrier = _LevelBarrier(remaining=len(chunks) - 1)
        for chunk in chunks[1:]:
            self._tasks.put((chunk, regs, barrier))
        try:
            chunks[0](regs)
        except BaseException as exc:  # noqa: BLE001 - re-raised after barrier
            barrier.done.wait()
            raise exc
        barrier.done.wait()
        if barrier.error is not None:
            raise barrier.error

    @staticmethod
    def _traced_chunk(
        chunk: Callable[[list], None], index: int
    ) -> Callable[[list], None]:
        def run(regs: list) -> None:
            with obs_trace.span(
                "wavefront.chunk", "exec", {"chunk": index}
            ):
                chunk(regs)

        return run

    def close(self) -> None:
        """Stop the workers (used by tests; shared pools live forever)."""
        for _ in self._threads:
            self._tasks.put(None)
        for t in self._threads:
            t.join(timeout=5.0)


_SHARED_POOLS: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def _forget_pools_in_child() -> None:
    """After ``fork``: the parent's worker threads do not exist here."""
    global _SHARED_LOCK
    _SHARED_LOCK = threading.Lock()  # a parent thread may have held it
    _SHARED_POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools_in_child)


def shared_pool(num_workers: int) -> WorkerPool:
    """The process-wide pool with ``num_workers`` workers (created once).

    Compiled plans with the same thread config share workers just as they
    share the default plan cache; daemon threads idle on the task queue
    between iterations.

    The request is clamped to ``max_execution_lanes() - 1`` workers (the
    caller's own thread is a lane) so a plan compiled for more threads
    than the process budget cannot oversubscribe the host: ``run_level``
    queues excess chunks and the smaller pool simply drains them. At
    least one worker always exists — a pool, once requested, must be able
    to make progress.
    """
    num_workers = max(1, min(num_workers, max_execution_lanes() - 1))
    with _SHARED_LOCK:
        pool = _SHARED_POOLS.get(num_workers)
        if pool is None:
            pool = WorkerPool(num_workers)
            _SHARED_POOLS[num_workers] = pool
        return pool
