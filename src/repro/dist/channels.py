"""Point-to-point channels under the distributed process group.

Both backends expose the same contract: a full mesh of FIFO, typed
channels — one per ordered ``(src, dst)`` rank pair — carrying small
python objects and numpy arrays. Collectives only ever talk to ring
neighbours, but the mesh is built up front because the fault-tolerance
protocol (:meth:`repro.dist.group.ProcessGroup.reform`) needs any
survivor to reach any other survivor once the ring is broken.

* :class:`ThreadChannel` — an in-process deque + condition variable.
  Arrays are copied on send so a sender mutating its buffer after the
  fact (the all-reduce accumulates in place) can never alias a
  receiver's view. Fast, deterministic, and debuggable: the backend the
  test suite leans on.
* :class:`PipeChannel` — a ``multiprocessing`` connection between two
  real processes. Small objects are pickled; an array payload travels as
  a pickled header followed by its bytes as one raw buffer
  (``send_bytes`` / ``recv_bytes_into``), read directly into the
  receiver's destination when it offers one — 1.3 MB in 64 KiB chunks
  over a bare pipe measured 2.0 ms pickled against 1.2 ms raw.
  ``poll(timeout)`` provides the recv timeout and a closed peer surfaces
  as :class:`ChannelClosed` (the OS closes the fd when a rank dies, even
  ungracefully).

A channel carries *messages*, not raw bytes: tuples tagged by the group
layer with ``(generation, seq, tag)`` headers. Channels know nothing
about the headers beyond transporting them.

``recv(timeout, into=array)`` is a placement *hint*: a channel that can
deliver a same-dtype, same-shape array payload in ``into`` does so and
returns ``into`` as the payload; one that cannot (the thread backend's
payload already is a private copy) ignores it. The group layer turns the
hint into a guarantee.
"""

from __future__ import annotations

import os
import socket
import threading
from collections import deque
from typing import Any

import numpy as np

from repro.dist.wire import ArrayHeader, Message, copy_message

__all__ = [
    "ChannelClosed",
    "ChannelTimeout",
    "ThreadChannel",
    "PipeChannel",
    "PIPE_BUFFER_BYTES",
]

#: Send-buffer bytes every pipe end is given (:meth:`PipeChannel.widen`).
#: The pipelined all-reduce keeps at most half of this in flight towards
#: any one peer, so its lead rank never blocks in ``send`` while the sums
#: it is waiting for are still on their way round the ring.
PIPE_BUFFER_BYTES = 1 << 18


class ChannelTimeout(Exception):
    """No message arrived within the deadline."""


class ChannelClosed(Exception):
    """The peer's end of the channel is gone (rank death or shutdown)."""


class ThreadChannel:
    """One-directional FIFO between two rank *threads* in one process."""

    def __init__(self) -> None:
        self._items: deque[Any] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def send(self, message: Any) -> None:
        with self._cond:
            if self._closed:
                raise ChannelClosed("channel closed")
            # Copy arrays now: the sender reuses its accumulation buffers.
            self._items.append(copy_message(message))
            self._cond.notify()

    def recv(
        self, timeout: float | None = None, into: np.ndarray | None = None
    ) -> Any:
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._items or self._closed, timeout=timeout
            ):
                raise ChannelTimeout(f"no message within {timeout}s")
            if self._items:
                return self._items.popleft()
            raise ChannelClosed("peer closed the channel")

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed


class PipeChannel:
    """One *end* of a duplex ``multiprocessing`` pipe between two ranks.

    Each unordered rank pair shares one duplex pipe; each process keeps
    its own end, so the pair provides both directions of the mesh.
    Send failures on a dead peer (``BrokenPipeError``) and EOF on recv
    both normalize to :class:`ChannelClosed` — the caller treats them
    identically as "that rank is gone".
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    @staticmethod
    def widen(conn: Any) -> None:
        """Give a duplex pipe end :data:`PIPE_BUFFER_BYTES` of send buffer.

        Duplex ``multiprocessing`` pipes are socket pairs on POSIX; the
        default buffer is a sysctl (208 KiB on Linux, 8 KiB on macOS), so
        it is set rather than assumed. Anything that is not a socket
        (Windows named pipes) keeps its default.
        """
        try:
            with socket.socket(fileno=os.dup(conn.fileno())) as sock:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, PIPE_BUFFER_BYTES
                )
        except OSError:
            pass

    def send(self, message: Any) -> None:
        payload = message.payload if isinstance(message, Message) else None
        raw = None
        if isinstance(payload, np.ndarray) and not payload.dtype.hasobject:
            raw = np.ascontiguousarray(payload)
            message = message._replace(
                payload=ArrayHeader(raw.dtype.str, raw.shape)
            )
        try:
            with self._lock:
                self._conn.send(message)
                if raw is not None:
                    self._conn.send_bytes(raw.reshape(-1).view(np.uint8))
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(f"peer pipe broken: {exc}") from exc

    def recv(
        self, timeout: float | None = None, into: np.ndarray | None = None
    ) -> Any:
        try:
            if timeout is not None and not self._conn.poll(timeout):
                raise ChannelTimeout(f"no message within {timeout}s")
            message = self._conn.recv()
            header = message.payload if isinstance(message, Message) else None
            if not isinstance(header, ArrayHeader):
                return message
            # The sender wrote header and bytes under one lock; the bytes
            # are already in flight, so no second deadline is needed.
            if (
                into is not None
                and into.dtype.str == header.dtype
                and into.shape == header.shape
                and into.flags.c_contiguous
                and into.flags.writeable
            ):
                dest = into
            else:
                dest = np.empty(header.shape, np.dtype(header.dtype))
            self._conn.recv_bytes_into(dest.reshape(-1).view(np.uint8))
            return message._replace(payload=dest)
        except EOFError as exc:
            raise ChannelClosed("peer closed the pipe") from exc
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(f"peer pipe broken: {exc}") from exc

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
