"""Launchers: run one function per rank, on threads or real processes.

``run_distributed(fn, world_size, backend=...)`` drives ``fn(group,
*args)`` on every rank and returns the per-rank results.

* **thread backend** — ranks are threads of this process, the mesh is
  in-memory deques. Fast (no fork, no pickling), fully deterministic,
  and a debugger sees every rank at once: the backend the test suite
  runs hundreds of collectives through. Ranks share one interpreter
  lock, so their compute overlaps only inside large numpy kernels —
  a correctness backend, not a performance one.
* **process backend** — ranks are ``multiprocessing`` children (fork
  where available, spawn otherwise), the mesh is duplex pipes. Real
  address-space isolation: a rank dying — even by ``os._exit`` — closes
  its pipe fds and its peers observe :class:`~repro.dist.group.PeerGone`
  or a timeout, exactly the failure modes the degrade path handles.
  Under spawn, ``fn`` and ``args`` must be picklable (module-level
  functions).

Both backends produce bitwise-identical numerics: the collectives pin
one canonical reduction order (see :mod:`repro.dist.collectives`), and
every rank's kernels are the same numpy running on the same host.

Fan-in of results: each rank's return value (or exception). With
``return_exceptions=True`` failures come back in the result list as
exception objects — fault-injection tests want to see *which* ranks
died and *which* degraded gracefully — otherwise the first failure
re-raises in the caller.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from typing import Any, Callable, Sequence

from repro.dist.channels import PipeChannel, ThreadChannel
from repro.obs import trace as obs_trace
from repro.dist.group import DEFAULT_TIMEOUT_S, DistError, ProcessGroup
from repro.dist.stats import DistStats

__all__ = ["DistWorkerError", "create_thread_groups", "run_distributed"]

#: wall-clock budget for a whole distributed run (launcher-level guard)
DEFAULT_JOIN_TIMEOUT_S = 300.0


class DistWorkerError(DistError):
    """A rank failed; carries the rank and its formatted traceback."""

    def __init__(self, rank: int, detail: str):
        self.rank = rank
        self.detail = detail
        super().__init__(f"rank {rank} failed:\n{detail}")


def create_thread_groups(
    world_size: int,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    straggler_threshold_s: float | None = None,
) -> list[ProcessGroup]:
    """A full in-process mesh: one :class:`ProcessGroup` per rank thread."""
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    mesh: dict[tuple[int, int], ThreadChannel] = {
        (src, dst): ThreadChannel()
        for src in range(world_size)
        for dst in range(world_size)
        if src != dst
    }
    groups = []
    for rank in range(world_size):
        stats = DistStats(rank)
        if straggler_threshold_s is not None:
            stats.straggler_threshold_s = straggler_threshold_s
        groups.append(
            ProcessGroup(
                rank,
                world_size,
                outgoing={
                    dst: mesh[(rank, dst)]
                    for dst in range(world_size)
                    if dst != rank
                },
                incoming={
                    src: mesh[(src, rank)]
                    for src in range(world_size)
                    if src != rank
                },
                timeout_s=timeout_s,
                stats=stats,
            )
        )
    return groups


def _collect(
    results: list[Any], return_exceptions: bool
) -> list[Any]:
    if not return_exceptions:
        for result in results:
            if isinstance(result, BaseException):
                raise result
    return results


def _run_threads(
    fn: Callable[..., Any],
    world_size: int,
    args: Sequence[Any],
    timeout_s: float,
    join_timeout_s: float,
    return_exceptions: bool,
) -> list[Any]:
    groups = create_thread_groups(world_size, timeout_s=timeout_s)
    results: list[Any] = [None] * world_size

    def worker(rank: int) -> None:
        try:
            results[rank] = fn(groups[rank], *args)
        except BaseException as exc:  # noqa: BLE001 - ferried to the caller
            results[rank] = exc

    threads = [
        threading.Thread(
            target=worker, args=(rank,), name=f"dist-rank-{rank}", daemon=True
        )
        for rank in range(world_size)
    ]
    for thread in threads:
        thread.start()
    for rank, thread in enumerate(threads):
        thread.join(timeout=join_timeout_s)
        if thread.is_alive():
            # Close every channel: blocked ranks wake with ChannelClosed
            # instead of leaking threads for the rest of the process.
            for group in groups:
                group.close()
            thread.join(timeout=5.0)
            results[rank] = DistWorkerError(
                rank, f"rank thread still running after {join_timeout_s}s"
            )
    for group in groups:
        group.close()
    return _collect(results, return_exceptions)


def _process_worker(
    rank: int,
    world_size: int,
    conns: dict[int, Any],
    close_conns: list[Any],
    result_conn: Any,
    fn: Callable[..., Any],
    args: Sequence[Any],
    timeout_s: float,
) -> None:
    # Drop inherited fds for other pairs: a dead peer's pipe only reads
    # EOF once *no* surviving process holds its write end.
    for conn in close_conns:
        try:
            conn.close()
        except OSError:
            pass
    channels = {peer: PipeChannel(conn) for peer, conn in conns.items()}
    group = ProcessGroup(
        rank,
        world_size,
        outgoing=channels,
        incoming=channels,
        timeout_s=timeout_s,
        stats=DistStats(rank),
    )
    # An env-armed tracer was inherited across the fork still tagged
    # with the parent's pid; retag so ranks merge as distinct processes.
    obs_trace.set_process(rank, f"rank{rank}")
    try:
        result = fn(group, *args)
    except BaseException:  # noqa: BLE001 - ferried to the parent
        result_conn.send(("err", traceback.format_exc()))
    else:
        result_conn.send(("ok", result))
    finally:
        result_conn.close()
        group.close()
        # Children exit via os._exit and skip atexit — flush any
        # env-armed trace export (pid-suffixed) before that happens.
        obs_trace.flush_exit_exports()


def _run_processes(
    fn: Callable[..., Any],
    world_size: int,
    args: Sequence[Any],
    timeout_s: float,
    join_timeout_s: float,
    return_exceptions: bool,
) -> list[Any]:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    # One duplex pipe per unordered pair; each rank keeps one end.
    conns_by_rank: dict[int, dict[int, Any]] = {
        r: {} for r in range(world_size)
    }
    for a in range(world_size):
        for b in range(a + 1, world_size):
            end_a, end_b = ctx.Pipe(duplex=True)
            PipeChannel.widen(end_a)
            PipeChannel.widen(end_b)
            conns_by_rank[a][b] = end_a
            conns_by_rank[b][a] = end_b
    result_pipes = [ctx.Pipe(duplex=False) for _ in range(world_size)]

    all_conns = [
        conn for per_rank in conns_by_rank.values() for conn in per_rank.values()
    ] + [end for pair in result_pipes for end in pair]
    procs = []
    for rank in range(world_size):
        own = set(
            id(c) for c in conns_by_rank[rank].values()
        ) | {id(result_pipes[rank][1])}
        close_conns = [c for c in all_conns if id(c) not in own]
        procs.append(
            ctx.Process(
                target=_process_worker,
                args=(
                    rank,
                    world_size,
                    conns_by_rank[rank],
                    close_conns,
                    result_pipes[rank][1],
                    fn,
                    args,
                    timeout_s,
                ),
                name=f"dist-rank-{rank}",
                daemon=True,
            )
        )
    for proc in procs:
        proc.start()
    # The parent's copies must go too, or peers of a dead rank never
    # see EOF on its pipes.
    for conn in all_conns:
        if not any(conn is recv_end for recv_end, _ in result_pipes):
            conn.close()

    results: list[Any] = [None] * world_size
    for rank, (recv_end, _) in enumerate(result_pipes):
        try:
            if recv_end.poll(join_timeout_s):
                status, payload = recv_end.recv()
                results[rank] = (
                    payload
                    if status == "ok"
                    else DistWorkerError(rank, payload)
                )
            else:
                results[rank] = DistWorkerError(
                    rank, f"no result within {join_timeout_s}s"
                )
        except EOFError:
            results[rank] = DistWorkerError(
                rank, "rank died without reporting a result"
            )
        finally:
            recv_end.close()
    for proc in procs:
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    return _collect(results, return_exceptions)


def run_distributed(
    fn: Callable[..., Any],
    world_size: int,
    backend: str = "thread",
    args: Sequence[Any] = (),
    timeout_s: float = DEFAULT_TIMEOUT_S,
    join_timeout_s: float = DEFAULT_JOIN_TIMEOUT_S,
    return_exceptions: bool = False,
) -> list[Any]:
    """Run ``fn(group, *args)`` on every rank; return per-rank results.

    ``timeout_s`` is the per-recv collective deadline handed to each
    rank's group; ``join_timeout_s`` bounds the whole run. See the
    module docstring for backend semantics.
    """
    if backend == "thread":
        return _run_threads(
            fn, world_size, args, timeout_s, join_timeout_s,
            return_exceptions,
        )
    if backend == "process":
        return _run_processes(
            fn, world_size, args, timeout_s, join_timeout_s,
            return_exceptions,
        )
    raise ValueError(f"unknown backend {backend!r} (thread|process)")
