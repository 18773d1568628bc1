"""The persistent tuning store: one directory of measured costs.

Layout under ``REPRO_TUNE_DIR``::

    calibration.json            decayed cost records (CalibrationDB)
    autotune.json               backend-selection results per config

Only measurements persist. Schedules, memory plans and wavefront layouts
are a deterministic function of the graph and the cost model and are
recomputed by every process; a ``plans/`` directory left behind by an
older checkout is never opened.

Both files are versioned JSON written atomically (temp file +
``os.replace``); a corrupted or truncated file is counted and ignored —
the caller proceeds as a cold process would. They are merged
read-modify-write under a best-effort lock file, so two processes tuning
into the same directory both land their observations.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.pgo.records import CalibrationDB

__all__ = [
    "STORE_VERSION",
    "TuneStore",
    "default_store",
    "reset_default_stores",
]

STORE_VERSION = 1

_COUNTER_KEYS = (
    "autotune_hits", "autotune_misses",
    "calibration_saves", "load_errors", "saves",
)


class TuneStore:
    """Calibration + autotune persistence for one ``REPRO_TUNE_DIR``.

    Thread-safe (one reentrant lock around mutable state; file writes are
    atomic) and tolerant of concurrent processes. All loads are
    *advisory*: any failure — missing file, bad JSON, wrong version —
    yields the empty state and the caller measures from scratch.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self.counters: dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        self._calibration: CalibrationDB | None = None
        self._autotune: dict[str, Any] | None = None

    # -- low-level JSON io ---------------------------------------------------

    def _bump(self, key: str, by: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + by

    def _read_json(self, path: Path) -> dict[str, Any] | None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._bump("load_errors")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != STORE_VERSION
        ):
            self._bump("load_errors")
            return None
        return payload

    def _write_json(self, path: Path, payload: dict[str, Any]) -> None:
        payload = dict(payload)
        payload.setdefault("version", STORE_VERSION)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
            self._bump("saves")
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @contextmanager
    def _file_lock(self, name: str = ".lock") -> Iterator[None]:
        """Best-effort cross-process mutex (O_EXCL lock file + timeout).

        A holder that died leaves a stale lock; after the timeout the
        waiter steals it — merges are read-modify-write over full
        payloads, so the worst case of a steal is one lost update, never
        a torn file (writes stay atomic via ``os.replace``).
        """
        path = self.root / name
        deadline = time.monotonic() + 5.0
        fd = None
        while fd is None:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if time.monotonic() > deadline:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    deadline = time.monotonic() + 5.0
                time.sleep(0.005)
            except OSError:
                break  # unwritable dir: proceed without the lock
        try:
            yield
        finally:
            if fd is not None:
                os.close(fd)
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- calibration ---------------------------------------------------------

    def calibration(self, reload: bool = False) -> CalibrationDB:
        """The persisted calibration DB (empty when absent or corrupt)."""
        with self._lock:
            if self._calibration is not None and not reload:
                return self._calibration
            payload = self._read_json(self.root / "calibration.json")
            db = CalibrationDB()
            if payload is not None:
                try:
                    db = CalibrationDB.from_payload(payload.get("db", {}))
                except (ValueError, KeyError, TypeError):
                    self._bump("load_errors")
                    db = CalibrationDB()
            self._calibration = db
            return db

    def save_calibration(self, db: CalibrationDB) -> CalibrationDB:
        """Merge ``db`` into the on-disk state and bump the epoch.

        Returns the merged DB (which this store also adopts as current).
        Safe under concurrent writers: the read-merge-write runs under the
        store's lock file, so both writers' records land.
        """
        with self._file_lock():
            payload = self._read_json(self.root / "calibration.json")
            merged = CalibrationDB()
            if payload is not None:
                try:
                    merged = CalibrationDB.from_payload(payload.get("db", {}))
                except (ValueError, KeyError, TypeError):
                    self._bump("load_errors")
            merged.merge(db)
            merged.epoch = max(merged.epoch, db.epoch) + 1
            self._write_json(
                self.root / "calibration.json", {"db": merged.to_payload()}
            )
        with self._lock:
            self._calibration = merged
            self._bump("calibration_saves")
        return merged

    # -- autotune ------------------------------------------------------------

    def load_autotune(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            if self._autotune is None:
                payload = self._read_json(self.root / "autotune.json")
                self._autotune = (
                    dict(payload.get("entries", {}))
                    if payload is not None
                    else {}
                )
            entry = self._autotune.get(key)
        if entry is None:
            self._bump("autotune_misses")
            return None
        self._bump("autotune_hits")
        return entry

    def save_autotune(self, key: str, entry: dict[str, Any]) -> None:
        with self._file_lock():
            payload = self._read_json(self.root / "autotune.json")
            entries = (
                dict(payload.get("entries", {})) if payload is not None else {}
            )
            entries[key] = entry
            self._write_json(self.root / "autotune.json",
                             {"entries": entries})
        with self._lock:
            if self._autotune is not None:
                self._autotune[key] = entry

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counter snapshot."""
        with self._lock:
            return dict(self.counters)


# -- process-wide default ---------------------------------------------------

_STORES: dict[str, TuneStore] = {}
_STORES_LOCK = threading.Lock()


def default_store() -> TuneStore | None:
    """The :class:`TuneStore` named by ``REPRO_TUNE_DIR``, or None.

    One instance per distinct directory per process, so every plan cache
    and autotuner in the process shares counters and in-memory state.
    """
    path = os.environ.get("REPRO_TUNE_DIR", "").strip()
    if not path:
        return None
    key = str(Path(path).expanduser())
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            try:
                store = TuneStore(key)
            except OSError:
                return None
            _STORES[key] = store
        return store


def reset_default_stores() -> None:
    """Drop memoized default stores (tests re-pointing ``REPRO_TUNE_DIR``)."""
    with _STORES_LOCK:
        _STORES.clear()
