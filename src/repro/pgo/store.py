"""The persistent tuning store: one directory of calibration + plan artifacts.

Layout under ``REPRO_TUNE_DIR``::

    calibration.json            decayed cost records (CalibrationDB)
    autotune.json               backend-selection results per config
    plans/<fp>.memaware.order.json  schedule order (canonical topo indices)
    plans/<fp>.<dev>...json     wavefront layout per (device, threads, ...)
    stats/<pid>.json            per-process counter dumps (opt-in)

Everything is versioned JSON written atomically (temp file +
``os.replace``); a corrupted or truncated artifact is counted and ignored
— the caller recomputes, exactly as a cold process would. Calibration and
autotune files are merged read-modify-write under a best-effort lock file,
so two processes tuning into the same directory both land their
observations.

Cross-process identity is the hard part: node uids (and default
priorities) are a process-global counter, so nothing uid-shaped may reach
disk. :func:`graph_fingerprint` renames every node to its index in the
deterministic ``topo_order`` walk and replaces priorities by their *rank*
— two processes building the same model agree on both — and hashes ops,
stages, edges, shapes, and attrs with sha256 (Python's ``hash`` is
per-process salted). Plan orders are stored as canonical-index
permutations and re-validated against the live graph on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Hashable, Iterator, Sequence

import numpy as np

from repro.graph.facts import GraphFacts
from repro.graph.node import Node, Tensor, dtype_name
from repro.pgo.records import CalibrationDB
from repro.runtime.scheduler import SchedulingError, validate_schedule

__all__ = [
    "STORE_VERSION",
    "graph_fingerprint",
    "TuneStore",
    "default_store",
    "reset_default_stores",
]

STORE_VERSION = 1

_COUNTER_KEYS = (
    "order_hits", "order_misses",
    "wavefront_hits", "wavefront_misses",
    "autotune_hits", "autotune_misses",
    "calibration_saves", "load_errors", "saves",
)


# -- graph fingerprint ------------------------------------------------------


def _attr_token(value: Any) -> Any:
    """A process-stable, repr-able stand-in for one attr value."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        digest = hashlib.sha256(arr.tobytes()).hexdigest()[:16]
        return ("nd", tuple(arr.shape), str(arr.dtype), digest)
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_attr_token(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            (str(k), _attr_token(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, np.dtype):
        return str(value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    # Unknown object (a Tensor, an Op, ...): its repr may embed uids, so
    # only the type name participates. Collisions here would have to agree
    # on every shape, edge, and op to matter.
    return type(value).__name__


def graph_fingerprint(
    outputs: Sequence[Tensor], facts: GraphFacts | None = None
) -> str:
    """Process-stable structural hash of the graph under ``outputs``.

    Unlike :func:`repro.runtime.plancache.graph_signature` (uid-based,
    process-local, cheap), this renames nodes to canonical topo indices
    and priorities to ranks, so the same model built in two processes
    yields the same string. ``facts`` is the state's
    :class:`~repro.graph.GraphFacts` record when the caller holds one.
    """
    if facts is None:
        facts = GraphFacts(outputs)
    nodes = facts.nodes
    index = facts.index
    by_priority = sorted(range(len(nodes)),
                         key=lambda i: (nodes[i].priority, i))
    rank = [0] * len(nodes)
    for r, i in enumerate(by_priority):
        rank[i] = r
    items: list[Any] = []
    for i, node in enumerate(nodes):
        items.append((
            i,
            node.op.name,
            node.stage.value,
            rank[i],
            node.scope,
            tuple((index[t.node.uid], t.index) for t in node.inputs),
            tuple([(s.shape, dtype_name(s.dtype)) for s in node.out_specs]),
            tuple(
                (str(k), _attr_token(v))
                for k, v in sorted(node.attrs.items())
            ),
        ))
    items.append(tuple((index[t.node.uid], t.index) for t in outputs))
    blob = repr(items).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:32]


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in text)


def device_token_string(token: Any) -> str:
    """Flatten a device ``cache_token`` (tuple) into a filename-safe slug."""
    if isinstance(token, (tuple, list)):
        return _slug("-".join(str(p) for p in token))
    return _slug(str(token))


# -- the store --------------------------------------------------------------


class TuneStore:
    """Artifact persistence for one ``REPRO_TUNE_DIR``.

    Thread-safe (one reentrant lock around mutable state; file writes are
    atomic) and tolerant of concurrent processes. All loads are
    *advisory*: any failure — missing file, bad JSON, wrong version,
    content that does not validate against the live graph — returns None
    and the caller rebuilds from scratch.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.plans_dir = self.root / "plans"
        self.plans_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self.counters: dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        self._calibration: CalibrationDB | None = None
        self._autotune: dict[str, Any] | None = None
        self._fingerprints: dict[Hashable, str] = {}
        if os.environ.get("REPRO_TUNE_STATS", "").strip():
            import atexit

            atexit.register(self.dump_stats)

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

    # -- fingerprints and plan orders ---------------------------------------

    def fingerprint_for(
        self, outputs: Sequence[Tensor], facts: GraphFacts | None = None
    ) -> str:
        """Memoized :func:`graph_fingerprint` (keyed by graph signature)."""
        if facts is None:
            return graph_fingerprint(outputs)
        sig = facts.signature
        with self._lock:
            fp = self._fingerprints.get(sig)
        if fp is None:
            fp = graph_fingerprint(outputs, facts)
            with self._lock:
                self._fingerprints[sig] = fp
        return fp

    def _order_path(self, fp: str) -> Path:
        # The ``memaware`` tag is kept: older stores hold plain-priority
        # orders (no footprint tie-break) under ``{fp}.order.json``, valid
        # permutations the loader would accept.
        return self.plans_dir / f"{fp}.memaware.order.json"

    def load_order(
        self,
        outputs: Sequence[Tensor],
        facts: GraphFacts | None = None,
    ) -> list[Node] | None:
        """A persisted schedule order, mapped onto the live graph's nodes."""
        if facts is None:
            facts = GraphFacts(outputs)
        fp = self.fingerprint_for(outputs, facts)
        payload = self._read_json(self._order_path(fp))
        if payload is None:
            self._bump("order_misses")
            return None
        nodes = facts.nodes
        perm = payload.get("order")
        if (
            not isinstance(perm, list)
            or len(perm) != len(nodes)
            or sorted(perm) != list(range(len(nodes)))
        ):
            self._bump("load_errors")
            self._bump("order_misses")
            return None
        order = [nodes[i] for i in perm]
        try:
            validate_schedule(order)
        except (SchedulingError, KeyError):
            self._bump("load_errors")
            self._bump("order_misses")
            return None
        self._bump("order_hits")
        return order

    def save_order(
        self,
        outputs: Sequence[Tensor],
        order: Sequence[Node],
        facts: GraphFacts | None = None,
    ) -> None:
        if facts is None:
            facts = GraphFacts(outputs)
        fp = self.fingerprint_for(outputs, facts)
        index = facts.index
        try:
            perm = [index[n.uid] for n in order]
        except KeyError:
            return  # order mentions nodes outside the graph; don't persist
        self._write_json(self._order_path(fp), {"order": perm})

    # -- wavefront layouts ---------------------------------------------------

    def _wavefront_path(
        self,
        fp: str,
        token: Any,
        threads: int,
        fuse: bool,
        batch_gemms: bool,
    ) -> Path:
        # The buffer planner's slot aliasing and hazard tokens are baked
        # into the layout, so the ``mcolor`` tag stays in the key (older
        # stores hold ``mgreedy`` layouts of a retired planner). So does
        # the gate that decided it: layouts written under the
        # simulated-seconds gate (``.wavefront.json``, no gate tag) share
        # the device token but mark nearly every level parallel, and the
        # structural validation on load would trust them.
        name = (
            f"{fp}.{device_token_string(token)}"
            f".t{threads}.f{int(fuse)}.g{int(batch_gemms)}"
            ".mcolor.hostgate.wavefront.json"
        )
        return self.plans_dir / name

    def load_wavefront(
        self,
        fp: str,
        token: Any,
        threads: int,
        fuse: bool,
        batch_gemms: bool,
    ) -> dict[str, Any] | None:
        """The persisted wavefront artifact for one compiled-plan key.

        The device ``token`` embeds the calibration epoch for calibrated
        devices, so recalibration silently invalidates stale layouts (the
        old file keys never match again).
        """
        path = self._wavefront_path(fp, token, threads, fuse, batch_gemms)
        payload = self._read_json(path)
        if payload is None or "artifact" not in payload:
            self._bump("wavefront_misses")
            return None
        self._bump("wavefront_hits")
        return payload["artifact"]

    def save_wavefront(
        self,
        fp: str,
        token: Any,
        threads: int,
        fuse: bool,
        batch_gemms: bool,
        artifact: dict[str, Any] | None,
    ) -> None:
        if artifact is None:
            return
        path = self._wavefront_path(fp, token, threads, fuse, batch_gemms)
        self._write_json(path, {"artifact": artifact})

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

    def dump_stats(self) -> Path | None:
        """Write this process's counters under ``stats/`` (CI warm check)."""
        stats_dir = self.root / "stats"
        try:
            stats_dir.mkdir(parents=True, exist_ok=True)
            # Instance-unique name: a process can hold several stores over
            # one directory (tests re-point and reset); their counters are
            # disjoint, so CI sums every dump rather than letting the last
            # atexit callback win.
            path = stats_dir / f"{os.getpid()}.{id(self):x}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"version": STORE_VERSION, **self.stats()}, fh)
        except OSError:
            return None
        return path


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
