"""The harness's own in-memory span recorder.

Spans are recorded from outside the program, around each call into a
layer, and are named after the ``repro.obs`` taxonomy (``plan.schedule``,
``echo.pass``, ``serve.decode`` ...) so a later change can take them from
inside the program without renaming a metric. Everything stays in memory
until :meth:`Recorder.export_chrome` writes one Chrome-trace JSON file.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float  # perf_counter seconds
    end: float
    tid: int
    pid: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullRecorder:
    """The untraced run's recorder: ``span`` costs one generator frame."""

    enabled = False

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        yield


class Recorder:
    """Nested spans per thread; ``pid`` labels the rank of a forked worker."""

    enabled = True

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        self.spans: list[Span] = []
        #: async (overlapping) intervals such as one request's life
        self.flows: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, parent, name, start, end, tid, self.pid, args)
                )

    def add(self, name: str, start: float, end: float, *,
            flow: bool = False, **args: Any) -> None:
        """Record an interval measured elsewhere (callbacks, other clocks).

        ``flow=True`` files it as an async interval: it may overlap its
        neighbours and takes no part in nesting or self time.
        """
        span = Span(self._new_id(), None, name, start, end,
                    threading.get_ident(), self.pid, args)
        with self._lock:
            (self.flows if flow else self.spans).append(span)

    def extend(self, spans: Iterable[Span]) -> None:
        """Adopt spans shipped back from a worker process."""
        with self._lock:
            self.spans.extend(spans)

    # -- derived ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part covered by child spans."""
        child_time: dict[tuple[int, int], float] = {}
        for s in self.spans:
            if s.parent is not None:
                key = (s.pid, s.parent)
                child_time[key] = child_time.get(key, 0.0) + s.seconds
        out: dict[str, float] = {}
        for s in self.spans:
            own = s.seconds - child_time.get((s.pid, s.id), 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def total_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    # -- export ----------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        events = []
        for s in self.spans:
            events.append({
                "name": s.name, "ph": "X", "pid": s.pid, "tid": s.tid,
                "ts": s.start * 1e6, "dur": s.seconds * 1e6,
                "args": {**s.args, "id": s.id, "parent": s.parent},
            })
        for s in self.flows:
            common = {"name": s.name, "cat": "request", "pid": s.pid,
                      "tid": s.tid, "id": s.args.get("request", s.id)}
            events.append({**common, "ph": "b", "ts": s.start * 1e6,
                           "args": s.args})
            events.append({**common, "ph": "e", "ts": s.end * 1e6})
        events.sort(key=lambda e: e["ts"])
        return events

    def export_chrome(self, path: Path, metadata: dict | None = None) -> None:
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ms", "metadata": metadata or {}}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
