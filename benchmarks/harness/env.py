"""Host hygiene: pin what is measured before numpy or repro are imported.

``prepare()`` must run before the first ``import numpy``: BLAS reads its
thread-count variables once, at load. It also removes every ambient
``REPRO_*`` switch, so a CI leg that exports ``REPRO_THREADS=4`` or
``REPRO_VERIFY=1`` measures the same program as a bare shell, and puts the
repository's ``src/`` on ``sys.path`` so the driver's bare
``python3 -m benchmarks.harness`` finds the package under test.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: bumped whenever a metric is renamed, redefined or re-estimated
SCHEMA_VERSION = 1

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: checkout root: benchmarks/harness/env.py -> two levels up
ROOT = Path(__file__).resolve().parents[2]


def prepare() -> list[str]:
    """Pin BLAS to one thread and scrub ``REPRO_*``; returns what was scrubbed."""
    if "numpy" in sys.modules:
        raise RuntimeError("env.prepare() must run before numpy is imported")
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for var in scrubbed:
        del os.environ[var]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return scrubbed


def scratch_dir() -> Path:
    """Per-process scratch directory inside the checkout (tune stores, traces)."""
    path = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _blas_build() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def host_facts() -> dict:
    """Facts stamped on every output; ``loadavg`` is read again at exit."""
    import numpy as np

    return {
        "schema_version": SCHEMA_VERSION,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }
