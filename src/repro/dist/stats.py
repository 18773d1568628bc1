"""Distributed-training metrics: collective counts, bytes, stragglers.

The counters mirror :class:`repro.serve.stats.ServerStats` — the same
thread-safe accumulator shape, the same ``format_table`` report style —
but for the communication plane: how many collectives ran, how many
bytes this rank pushed onto the ring, how long it sat waiting for each
neighbour, and which peers are straggling (a recv that waited longer
than ``straggler_threshold_s`` before data arrived). Fault handling
shows up here too: timeouts, dead peers, and ring re-formations are all
counted, so a degraded run is legible from its stats dump alone.
"""

from __future__ import annotations

import threading

__all__ = ["DistStats"]

#: a recv that waits longer than this (seconds) marks the peer a straggler
DEFAULT_STRAGGLER_THRESHOLD_S = 0.25


class DistStats:
    """Thread-safe accumulator for one rank's communication lifetime."""

    def __init__(
        self,
        rank: int = 0,
        straggler_threshold_s: float = DEFAULT_STRAGGLER_THRESHOLD_S,
    ) -> None:
        self.rank = rank
        self.straggler_threshold_s = straggler_threshold_s
        self._lock = threading.Lock()
        self.collectives: dict[str, int] = {}
        self.bytes_sent = 0
        self.messages_sent = 0
        self.recv_wait_s = 0.0
        self.max_recv_wait_s = 0.0
        self.timeouts = 0
        self.peers_gone = 0
        self.reforms = 0
        self.stale_dropped = 0
        self.straggler_events: dict[int, int] = {}
        self.overlap_reduced = 0  # buckets reduced before backward finished
        self.tail_reduced = 0  # buckets reduced after the plan completed
        self._wait_samples: list[float] = []

    # -- recording (called by the group/collectives) ------------------------

    def on_collective(self, kind: str) -> None:
        with self._lock:
            self.collectives[kind] = self.collectives.get(kind, 0) + 1

    def on_send(self, nbytes: int) -> None:
        with self._lock:
            self.messages_sent += 1
            self.bytes_sent += nbytes

    def on_recv_wait(self, peer: int, waited_s: float) -> None:
        with self._lock:
            self.recv_wait_s += waited_s
            self.max_recv_wait_s = max(self.max_recv_wait_s, waited_s)
            self._wait_samples.append(waited_s)
            if len(self._wait_samples) > 4096:
                del self._wait_samples[: len(self._wait_samples) // 2]
            if waited_s > self.straggler_threshold_s:
                self.straggler_events[peer] = (
                    self.straggler_events.get(peer, 0) + 1
                )

    def on_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def on_peer_gone(self) -> None:
        with self._lock:
            self.peers_gone += 1

    def on_reform(self) -> None:
        with self._lock:
            self.reforms += 1

    def on_stale_dropped(self) -> None:
        with self._lock:
            self.stale_dropped += 1

    def on_bucket(self, overlapped: bool) -> None:
        with self._lock:
            if overlapped:
                self.overlap_reduced += 1
            else:
                self.tail_reduced += 1

    # -- derived ------------------------------------------------------------

    def stragglers(self) -> dict[int, int]:
        with self._lock:
            return dict(self.straggler_events)

    def snapshot(self) -> dict:
        """One machine-readable dict of everything."""
        with self._lock:
            return {
                "rank": self.rank,
                "collectives": dict(self.collectives),
                "bytes_sent": self.bytes_sent,
                "messages_sent": self.messages_sent,
                "recv_wait_s": self.recv_wait_s,
                "max_recv_wait_s": self.max_recv_wait_s,
                "timeouts": self.timeouts,
                "peers_gone": self.peers_gone,
                "reforms": self.reforms,
                "stale_dropped": self.stale_dropped,
                "stragglers": dict(self.straggler_events),
                "overlap_reduced_buckets": self.overlap_reduced,
                "tail_reduced_buckets": self.tail_reduced,
            }

    def format_report(self) -> str:
        """Human-readable report (experiments table style)."""
        from repro.experiments.common import format_table
        from repro.profiler import sparkline

        snap = self.snapshot()
        rows = []
        for key, val in snap.items():
            if isinstance(val, dict):
                val = ", ".join(f"{k}:{v}" for k, v in sorted(val.items()))
                val = val or "-"
            elif isinstance(val, float):
                val = f"{val:.4f}"
            rows.append((str(key), str(val)))
        with self._lock:
            waits = list(self._wait_samples)
        if waits:
            rows.append(("recv waits over time", sparkline(waits)))
        return format_table(
            ["metric", "value"], rows, f"rank {self.rank} comm report"
        )
