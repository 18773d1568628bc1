"""Structured tracing: nested spans exported as Chrome trace-event JSON.

One process-global :class:`Tracer` records **spans** — named, nested
intervals on a monotonic clock, tagged with the recording thread and
(for distributed runs) the rank — at every pipeline boundary: plan
compile/lower/verify, plan-cache lookups, Echo accept/reject, memplan
packing, plan body execution, ring-collective chunk send/recv, and the
serving request lifecycle. The export (:meth:`Tracer.export_chrome`) is
the Chrome trace-event format — strict ``B``/``E`` begin/end pairs per
thread, microsecond timestamps — loadable directly in Perfetto
(ui.perfetto.dev) or ``chrome://tracing``.

**Zero overhead when disabled.** Tracing is off unless ``REPRO_TRACE``
is set (or :func:`enable` is called): the module-level :data:`TRACING`
flag is False, :func:`span` returns a shared no-op context manager, and
hot loops guard on the flag so the disabled path costs one global read.
Recording never touches computed arrays — span args hold scalars and
strings only — so traced runs are bitwise-identical to untraced runs
(property-tested in ``tests/test_obs.py``).

**Determinism note.** Spans per *thread* are strictly nested because
they are context-managed (LIFO per thread); the per-thread event list
is therefore emitted in recording order with non-decreasing timestamps,
which is exactly what the trace-event spec requires.

Env vars:

* ``REPRO_TRACE=1`` — enable in-memory tracing (export explicitly).
* ``REPRO_TRACE=/path/trace.json`` — enable and export there at exit
  (one file per process; the pid lands in the filename for rank > 0
  children so concurrent ranks never clobber each other).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Any, Mapping, Sequence

__all__ = [
    "TRACING",
    "Tracer",
    "span",
    "tracer",
    "enable",
    "disable",
    "set_process",
    "merge_chrome_traces",
]

#: per-thread event cap — bounds tracer memory when a whole test suite
#: runs with REPRO_TRACE=1; beyond it new spans are counted, not stored
DEFAULT_MAX_EVENTS_PER_THREAD = 200_000


def _now_us() -> int:
    """Monotonic microseconds (the trace-event ``ts`` unit)."""
    return time.perf_counter_ns() // 1000


class _ThreadLog:
    """One thread's event buffer: strict B/E nesting by construction."""

    __slots__ = ("tid", "name", "events", "dropped")

    def __init__(self, tid: int, name: str) -> None:
        self.tid = tid
        self.name = name
        # ("B", name, cat, ts_us, args) / ("E", ts_us) in recording order
        self.events: list[tuple] = []
        self.dropped = 0


class _Span:
    """Context manager recording one B/E pair into a thread log.

    ``sp["key"] = value`` annotates the span after entry — the begin
    event holds a reference to the args dict, so late annotations (a
    cache lookup's hit/miss verdict, an Echo pass's accept count) land
    in the export without a second event.
    """

    __slots__ = ("_tracer", "_log", "name", "cat", "args", "_recorded")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: dict | None) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args if args is not None else {}
        self._log: _ThreadLog | None = None
        self._recorded = False

    def __enter__(self) -> "_Span":
        log = self._tracer._log_for_current_thread()
        self._log = log
        if len(log.events) < self._tracer.max_events_per_thread:
            log.events.append(("B", self.name, self.cat, _now_us(), self.args))
            self._recorded = True
        else:
            log.dropped += 1
        return self

    def __exit__(self, *exc: Any) -> None:
        # The E must land whenever the B did, or per-thread nesting
        # breaks — so the cap gates B events only.
        if self._recorded:
            self._log.events.append(("E", _now_us()))

    def __setitem__(self, key: str, value: Any) -> None:
        self.args[key] = value


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def __setitem__(self, key: str, value: Any) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Thread-safe span recorder with Chrome trace-event export.

    Each thread records into its own buffer (no lock on the hot path
    beyond registering the buffer once per thread), tagged with the
    thread's identity; :meth:`export_chrome` merges the buffers. The
    ``pid`` field carries the distributed *rank* when
    :meth:`set_process` was called, so per-rank traces merge into one
    timeline (see :func:`merge_chrome_traces`).
    """

    def __init__(
        self,
        pid: int | None = None,
        process_name: str | None = None,
        max_events_per_thread: int = DEFAULT_MAX_EVENTS_PER_THREAD,
    ) -> None:
        self.pid = os.getpid() if pid is None else int(pid)
        self.process_name = process_name or "repro"
        self.max_events_per_thread = max_events_per_thread
        self._lock = threading.Lock()
        self._logs: dict[int, _ThreadLog] = {}
        self._local = threading.local()
        self._next_tid = 0

    # -- recording ----------------------------------------------------------

    def _log_for_current_thread(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                tid = self._next_tid
                self._next_tid += 1
                log = _ThreadLog(tid, threading.current_thread().name)
                self._logs[threading.get_ident()] = log
            self._local.log = log
        return log

    def span(self, name: str, cat: str = "",
             args: dict | None = None) -> _Span:
        """A context manager recording one nested span on this thread."""
        return _Span(self, name, cat, args)

    def set_process(self, pid: int, name: str | None = None) -> None:
        """Tag this tracer's events with ``pid`` (the distributed rank)."""
        self.pid = int(pid)
        if name is not None:
            self.process_name = name

    # -- introspection ------------------------------------------------------

    def span_count(self) -> int:
        """Recorded (not dropped) spans across all threads."""
        with self._lock:
            logs = list(self._logs.values())
        return sum(
            sum(1 for e in log.events if e[0] == "B") for log in logs
        )

    def span_names(self) -> set[str]:
        """Distinct span names recorded so far (test/assertion helper)."""
        with self._lock:
            logs = list(self._logs.values())
        return {
            e[1] for log in logs for e in log.events if e[0] == "B"
        }

    def dropped_count(self) -> int:
        with self._lock:
            return sum(log.dropped for log in self._logs.values())

    # -- export -------------------------------------------------------------

    def export_payload(self) -> dict:
        """The Chrome trace-event payload as a plain dict.

        Per thread: one ``M`` (metadata) event naming the thread, then
        the thread's ``B``/``E`` stream in recording order. Unclosed
        spans (export called mid-span) get a synthetic ``E`` at the
        export timestamp so the payload always validates.
        """
        with self._lock:
            logs = [
                ( # snapshot under the lock; recording threads append only
                    log.tid, log.name, list(log.events),
                )
                for log in self._logs.values()
            ]
        events: list[dict] = [
            {
                "name": "process_name", "ph": "M", "pid": self.pid,
                "tid": 0, "args": {"name": self.process_name},
            }
        ]
        now = _now_us()
        for tid, tname, stream in logs:
            events.append(
                {
                    "name": "thread_name", "ph": "M", "pid": self.pid,
                    "tid": tid, "args": {"name": tname},
                }
            )
            depth = 0
            for ev in stream:
                if ev[0] == "B":
                    _, name, cat, ts, args = ev
                    record = {
                        "name": name, "cat": cat or "repro", "ph": "B",
                        "ts": ts, "pid": self.pid, "tid": tid,
                    }
                    if args:
                        record["args"] = _jsonable(args)
                    events.append(record)
                    depth += 1
                else:
                    events.append(
                        {"ph": "E", "ts": ev[1], "pid": self.pid, "tid": tid}
                    )
                    depth -= 1
            for _ in range(depth):  # close spans still open at export
                events.append(
                    {"ph": "E", "ts": now, "pid": self.pid, "tid": tid}
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str | None = None) -> dict:
        """Export the trace; write JSON to ``path`` when given."""
        payload = self.export_payload()
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        return payload

    def clear(self) -> None:
        with self._lock:
            self._logs.clear()
            self._next_tid = 0
        self._local = threading.local()


def _jsonable(value: Any) -> Any:
    """Args must serialize; anything exotic degrades to ``repr``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


# -- module-level switch (the zero-overhead disabled path) -------------------

#: True exactly when a tracer is installed; hot loops guard on this
TRACING: bool = False
_tracer: Tracer | None = None


def tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is disabled."""
    return _tracer


def span(name: str, cat: str = "", args: dict | None = None):
    """A span on the installed tracer — or the shared no-op when off.

    The disabled path is one global read plus returning a singleton;
    instrumentation sites in genuinely hot loops should additionally
    guard on :data:`TRACING` to skip building ``args`` dicts.
    """
    t = _tracer
    if t is None:
        return _NOOP
    return t.span(name, cat, args)


def enable(path: str | None = None, pid: int | None = None,
           fresh: bool = True) -> Tracer:
    """Install a tracer (a fresh one unless ``fresh=False`` and one
    exists); ``path`` registers an at-exit Chrome export."""
    global _tracer, TRACING
    if _tracer is None or fresh:
        _tracer = Tracer(pid=pid)
    TRACING = True
    if path:
        _register_exit_export(_tracer, path)
    return _tracer


def disable() -> None:
    """Uninstall the tracer; :func:`span` returns the no-op again."""
    global _tracer, TRACING
    TRACING = False
    _tracer = None


def set_process(pid: int, name: str | None = None) -> None:
    """Rank-tag the installed tracer (no-op when tracing is off)."""
    if _tracer is not None:
        _tracer.set_process(pid, name)


_exit_registered: set[int] = set()


def _register_exit_export(t: Tracer, path: str) -> None:
    if id(t) in _exit_registered:
        return
    _exit_registered.add(id(t))

    def _dump() -> None:
        target = path
        # Child processes (dist process backend) fork after import; give
        # each its own file instead of clobbering the parent's.
        if os.getpid() != _MAIN_PID:
            root, ext = os.path.splitext(path)
            target = f"{root}.{os.getpid()}{ext or '.json'}"
        try:
            t.export_chrome(target)
        except OSError:
            pass

    atexit.register(_dump)
    _exit_exports.append(_dump)


_exit_exports: list = []


def flush_exit_exports() -> None:
    """Run registered at-exit exports immediately.

    Multiprocessing children leave via ``os._exit`` and never run
    ``atexit`` handlers — the distributed launcher calls this in the
    child right before it reports its result, so an env-armed run
    still gets one pid-suffixed trace per rank.
    """
    for dump in list(_exit_exports):
        dump()


_MAIN_PID = os.getpid()


# -- cross-rank merge --------------------------------------------------------

def merge_chrome_traces(
    payloads: Sequence[Mapping[str, Any]], align: bool = True
) -> dict:
    """Merge per-rank Chrome trace payloads into one timeline.

    Each rank exports with ``pid = rank`` (via :func:`set_process`) on
    its own monotonic clock, so raw timestamps are not comparable
    across payloads. Collective spans carry ``gen``/``seq`` args from
    :class:`repro.dist.group.ProcessGroup` — the same (generation, seq)
    identifies the same collective on every rank — so with ``align``
    each payload after the first is shifted by a constant offset that
    makes its earliest shared collective start at the reference rank's
    timestamp. Constant shifts preserve per-thread monotonicity and
    B/E nesting.
    """
    if not payloads:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def anchors(payload: Mapping[str, Any]) -> dict[tuple, int]:
        """(gen, seq) -> earliest B timestamp among collective spans."""
        out: dict[tuple, int] = {}
        for ev in payload.get("traceEvents", []):
            if ev.get("ph") != "B":
                continue
            args = ev.get("args") or {}
            if "seq" not in args or "gen" not in args:
                continue
            key = (args["gen"], args["seq"])
            ts = ev["ts"]
            if key not in out or ts < out[key]:
                out[key] = ts
        return out

    ref = anchors(payloads[0])
    merged: list[dict] = [dict(ev) for ev in payloads[0].get("traceEvents", [])]
    for payload in payloads[1:]:
        offset = 0
        if align and ref:
            mine = anchors(payload)
            common = sorted(set(ref) & set(mine))
            if common:
                key = common[0]
                offset = ref[key] - mine[key]
        for ev in payload.get("traceEvents", []):
            ev = dict(ev)
            if "ts" in ev:
                ev["ts"] = ev["ts"] + offset
            merged.append(ev)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


# -- env activation ----------------------------------------------------------

def _activate_from_env() -> None:
    raw = os.environ.get("REPRO_TRACE", "").strip()
    if not raw or raw.lower() in ("0", "false", "no", "off"):
        return
    if raw.lower() in ("1", "true", "yes", "on"):
        enable()
    else:
        enable(path=raw)


_activate_from_env()
