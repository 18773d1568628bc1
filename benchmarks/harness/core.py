"""What one workload run receives and returns."""

from __future__ import annotations

import contextlib
import gc
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import spec
from .inputs import SeedTree
from .spans import NullRecorder, Recorder


@dataclass
class Context:
    tree: SeedTree
    seconds: float          # budget of the measured phases of this pass
    quick: bool
    scratch: Path
    t0: float               # perf_counter at process start (before imports)
    recorder: Recorder | NullRecorder = field(default_factory=NullRecorder)

    @property
    def traced(self) -> bool:
        return self.recorder.enabled

    def count(self, name: str) -> int:
        return spec.count(name, self.quick)


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, weight: int = 1) -> bool:
        """Count ``weight`` attempted operations; all failed unless ``ok``."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@contextlib.contextmanager
def tune_dir(path: Path | None) -> Iterator[None]:
    """Point ``REPRO_TUNE_DIR`` at ``path`` for the enclosed build.

    Default stores are memoized per process; dropping them on entry makes
    the build read the directory the way a fresh process would, and on
    exit keeps the store away from everything that follows.
    """
    from repro.pgo.store import reset_default_stores

    if path is None:
        yield
        return
    reset_default_stores()
    os.environ["REPRO_TUNE_DIR"] = str(path)
    try:
        yield
    finally:
        del os.environ["REPRO_TUNE_DIR"]
        reset_default_stores()


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """``(seconds, result)`` with the collector run first, outside the clock."""
    gc.collect()
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def record_pgo(metrics: dict, warm_stats: dict) -> None:
    """``pgo.*`` layer metrics from the store counters of a warm build."""
    for name in ("order_hits", "bytecode_hits", "bytecode_misses",
                 "load_errors"):
        metrics[f"pgo.{name}"] = warm_stats.get(name, 0)
