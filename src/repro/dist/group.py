"""The process group: ranks, ring geometry, fault detection, re-forming.

A :class:`ProcessGroup` is one rank's handle on the cohort. It owns a
full mesh of point-to-point channels (see :mod:`repro.dist.channels`),
the ring geometry the collectives walk (``live`` — the sorted surviving
ranks — defines neighbour order), and the failure machinery:

* **timeouts** — every ``recv`` carries a deadline; a peer that doesn't
  produce within it raises :class:`CollectiveTimeout`;
* **death detection** — a closed channel (process backend: the OS closes
  a dead rank's pipe fds) raises :class:`PeerGone` immediately;
* **generations** — messages are tagged with the ring incarnation.
  After an aborted collective, leftover traffic from the old generation
  is silently dropped; traffic from a *newer* generation (a peer that
  already re-formed) is stashed until this rank catches up;
* **re-forming** — :meth:`reform` is the documented degrade path: at a
  step boundary, every survivor probes the cohort (HELLO), the lowest
  surviving rank assumes leadership and publishes the agreed roster
  (ROSTER), and the ring continues over the survivors with a bumped
  generation. A rank not on the roster raises :class:`RankEvicted`.

The group is deliberately single-consumer: within one rank, exactly one
thread may drive collectives at a time (the distributed trainer funnels
everything through its communicator thread). The mesh channels are
thread-safe; the ordering discipline is not, by design — collectives on
all ranks must run in one agreed sequence or the ``seq`` check trips.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any

import numpy as np

from repro.dist.channels import ChannelClosed, ChannelTimeout
from repro.dist.stats import DistStats
from repro.dist.wire import Message

__all__ = [
    "DistError",
    "CollectiveTimeout",
    "PeerGone",
    "ProtocolError",
    "RankEvicted",
    "ProcessGroup",
    "DEFAULT_TIMEOUT_S",
]

#: default per-recv deadline; generous for CI boxes under load
DEFAULT_TIMEOUT_S = 60.0


class DistError(RuntimeError):
    """Base class for distributed-runtime failures."""


class CollectiveTimeout(DistError):
    """A peer failed to produce a message within the deadline."""

    def __init__(self, rank: int, peer: int, tag: tuple, waited_s: float):
        self.rank, self.peer, self.tag = rank, peer, tag
        self.waited_s = waited_s
        super().__init__(
            f"rank {rank}: no message from rank {peer} for tag {tag} "
            f"within {waited_s:.3f}s"
        )


class PeerGone(DistError):
    """A peer's channel is closed — the rank is dead."""

    def __init__(self, rank: int, peer: int):
        self.rank, self.peer = rank, peer
        super().__init__(f"rank {rank}: rank {peer} is gone (channel closed)")


class ProtocolError(DistError):
    """Ranks disagreed on the collective sequence — a bug, not a fault."""


class RankEvicted(DistError):
    """This rank was left off the re-formed roster (judged dead/slow)."""


class ProcessGroup:
    """One rank's membership in the cohort, over any channel backend.

    ``outgoing``/``incoming`` map peer rank to the channel carrying
    messages to/from that peer. Both backends (threads, processes) build
    these maps and hand them here; everything above the channel layer —
    ring geometry, generations, reform — is backend-independent.
    """

    def __init__(
        self,
        rank: int,
        world_size: int,
        outgoing: dict[int, Any],
        incoming: dict[int, Any],
        timeout_s: float = DEFAULT_TIMEOUT_S,
        stats: DistStats | None = None,
    ) -> None:
        if rank not in range(world_size):
            raise ValueError(f"rank {rank} outside world of {world_size}")
        self.rank = rank
        self.world_size = world_size
        self.generation = 0
        self.live: tuple[int, ...] = tuple(range(world_size))
        self.timeout_s = timeout_s
        self.stats = stats or DistStats(rank)
        self._out = outgoing
        self._in = incoming
        self._seq = 0
        #: per-peer stash of messages from a newer generation than ours
        self._stash: dict[int, deque[Message]] = {
            p: deque() for p in range(world_size)
        }
        self._closed = False

    # -- ring geometry -------------------------------------------------------

    @property
    def live_size(self) -> int:
        return len(self.live)

    @property
    def position(self) -> int:
        """This rank's index on the current ring (sorted survivor order)."""
        return self.live.index(self.rank)

    def neighbor(self, offset: int) -> int:
        """Rank ``offset`` ring positions to the right (negative: left)."""
        return self.live[(self.position + offset) % self.live_size]

    @property
    def right(self) -> int:
        return self.neighbor(+1)

    @property
    def left(self) -> int:
        return self.neighbor(-1)

    # -- messaging -----------------------------------------------------------

    def next_seq(self) -> int:
        """Sequence number for the next collective; same on every rank."""
        self._seq += 1
        return self._seq

    def send(self, dst: int, seq: int, tag: tuple, payload: Any) -> None:
        message = Message(self.generation, seq, tag, payload)
        try:
            self._out[dst].send(message)
        except ChannelClosed as exc:
            self.stats.on_peer_gone()
            raise PeerGone(self.rank, dst) from exc
        nbytes = (
            payload.nbytes if isinstance(payload, np.ndarray) else 64
        )
        self.stats.on_send(nbytes)

    def recv(
        self,
        src: int,
        seq: int,
        tag: tuple,
        timeout_s: float | None = None,
        into: np.ndarray | None = None,
    ) -> Any:
        """Next in-generation message from ``src``; must match seq + tag.

        Older-generation traffic is dropped (leftovers of an aborted
        collective); newer-generation traffic is stashed for after the
        next :meth:`reform`. An in-generation mismatch of ``seq`` or
        ``tag`` is a protocol bug and raises — channels are FIFO and all
        ranks run the same collective program, so there is nothing else
        it could be.

        With ``into``, the payload must be an array of ``into``'s dtype
        and shape and is returned *in* ``into`` — received there directly
        when the channel can place it, copied otherwise (thread backend,
        stashed messages). ``into`` may be scribbled on by traffic that is
        then dropped; it is only meaningful once this call returns.
        """
        deadline = time.monotonic() + (
            self.timeout_s if timeout_s is None else timeout_s
        )
        started = time.monotonic()
        while True:
            message = self._next_message(src, deadline, tag, into)
            waited = time.monotonic() - started
            if message.generation < self.generation:
                self.stats.on_stale_dropped()
                continue
            if message.generation > self.generation:
                if into is not None and message.payload is into:
                    # The stash outlives this call; ``into`` does not.
                    message = message._replace(payload=into.copy())
                self._stash[src].append(message)
                continue
            if message.seq != seq or message.tag != tag:
                raise ProtocolError(
                    f"rank {self.rank}: expected seq={seq} tag={tag} from "
                    f"rank {src}, got seq={message.seq} tag={message.tag}"
                )
            self.stats.on_recv_wait(src, waited)
            payload = message.payload
            if into is not None and payload is not into:
                if (
                    not isinstance(payload, np.ndarray)
                    or payload.dtype != into.dtype
                    or payload.shape != into.shape
                ):
                    raise ProtocolError(
                        f"rank {self.rank}: payload for seq={seq} tag={tag} "
                        f"from rank {src} does not match the "
                        f"{into.dtype}{into.shape} destination"
                    )
                into[...] = payload
                payload = into
            return payload

    def _next_message(
        self,
        src: int,
        deadline: float,
        tag: tuple,
        into: np.ndarray | None = None,
    ) -> Message:
        stash = self._stash[src]
        for i, message in enumerate(stash):
            if message.generation == self.generation:
                del stash[i]
                return message
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            self.stats.on_timeout()
            raise CollectiveTimeout(self.rank, src, tag, 0.0)
        try:
            return self._in[src].recv(timeout=remaining, into=into)
        except ChannelTimeout:
            self.stats.on_timeout()
            raise CollectiveTimeout(self.rank, src, tag, remaining) from None
        except ChannelClosed:
            self.stats.on_peer_gone()
            raise PeerGone(self.rank, src) from None

    # -- fault handling ------------------------------------------------------

    def reform(self, timeout_s: float | None = None) -> tuple[int, ...]:
        """Re-form the ring over the surviving ranks (the degrade path).

        Called by every survivor after a collective failed, at a step
        boundary. Protocol, one round:

        1. **HELLO** — broadcast ``(gen+1, "hello")`` to every current
           peer (best-effort; sends to the dead are swallowed).
        2. **gather** — collect HELLOs until the deadline. Any newer-
           generation traffic from a peer counts as proof of life (a
           fast peer may already be past its own reform).
        3. **ROSTER** — the lowest rank heard (the leader) publishes the
           survivor set; everyone else adopts the leader's roster. A
           rank that finds itself off the roster raises
           :class:`RankEvicted`; a rank that hears no roster at all
           raises :class:`DistError` (it has been isolated).

        On success: ``generation`` bumps, ``live`` shrinks, per-
        generation sequence numbers restart, and the caller may rerun
        the failed step over the smaller ring (the trainer rescales its
        loss weighting by the survivor count).

        **Timing.** Survivors detect a failure at different moments: a
        dead rank's pipe neighbours see EOF instantly, everyone else
        waits out a collective timeout. That skew is bounded by the
        group's per-recv deadline, so both the HELLO gather and the
        roster wait run for ``timeout_s`` *plus* ``self.timeout_s`` —
        a gather window that ended before slow detectors even noticed
        the failure would re-form a partitioned (even solo) ring.
        """
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        budget = timeout_s + self.timeout_s
        new_gen = self.generation + 1
        peers = [r for r in self.live if r != self.rank]
        hello = Message(new_gen, 0, ("hello",), self.rank)
        for peer in peers:
            try:
                self._out[peer].send(hello)
            except ChannelClosed:
                pass

        alive = {self.rank}
        deadline = time.monotonic() + budget
        pending = set(peers)
        while pending and time.monotonic() < deadline:
            for peer in sorted(pending):
                if self._probe_alive(peer, new_gen):
                    alive.add(peer)
                    pending.discard(peer)
            if pending:
                time.sleep(0.005)

        leader = min(alive)
        roster: tuple[int, ...]
        if leader == self.rank:
            roster = tuple(sorted(alive))
            publish = Message(new_gen, 0, ("roster",), roster)
            for peer in roster:
                if peer == self.rank:
                    continue
                try:
                    self._out[peer].send(publish)
                except ChannelClosed:
                    pass
        else:
            # Fresh deadline: the gather loop above legitimately runs its
            # budget out waiting on the dead, and the leader — which may
            # have detected the failure a full collective timeout later —
            # only publishes after finishing its own gather.
            roster = self._await_roster(
                leader, new_gen, time.monotonic() + budget
            )
            if self.rank not in roster:
                raise RankEvicted(
                    f"rank {self.rank}: not on re-formed roster {roster}"
                )
        self.generation = new_gen
        self.live = roster
        self._seq = 0
        self.stats.on_reform()
        return roster

    def _probe_alive(self, peer: int, new_gen: int) -> bool:
        """Has ``peer`` produced any ``new_gen`` traffic yet?

        HELLO is consumed; anything else from the new generation (the
        peer's ROSTER, or even its first post-reform collective) is
        stashed as ordinary traffic and counts as proof of life.
        """
        stash = self._stash[peer]
        for i, message in enumerate(stash):
            if message.generation >= new_gen:
                if message.tag == ("hello",):
                    del stash[i]
                return True
        while True:
            try:
                message = self._in[peer].recv(timeout=0)
            except (ChannelTimeout, ChannelClosed):
                return False
            if message.generation < new_gen:
                self.stats.on_stale_dropped()
                continue
            if message.tag != ("hello",):
                stash.append(message)
            return True

    def _await_roster(
        self, leader: int, new_gen: int, deadline: float
    ) -> tuple[int, ...]:
        stash = self._stash[leader]
        while True:
            for i, message in enumerate(stash):
                if message.generation == new_gen and message.tag == (
                    "roster",
                ):
                    del stash[i]
                    return tuple(message.payload)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DistError(
                    f"rank {self.rank}: no roster from leader {leader} "
                    "after reform — isolated"
                )
            try:
                message = self._in[leader].recv(timeout=remaining)
            except (ChannelTimeout, ChannelClosed):
                raise DistError(
                    f"rank {self.rank}: no roster from leader {leader} "
                    "after reform — isolated"
                ) from None
            if message.generation < new_gen:
                self.stats.on_stale_dropped()
                continue
            stash.append(message)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close this rank's channel ends (wakes any blocked neighbour)."""
        if self._closed:
            return
        self._closed = True
        for chan in list(self._out.values()) + list(self._in.values()):
            try:
                chan.close()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
