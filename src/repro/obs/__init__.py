"""Runtime observability: structured tracing + unified metrics.

Two module-level switches, both zero-overhead when off:

* :mod:`repro.obs.trace` — nested spans at every pipeline boundary,
  exported as Chrome trace-event JSON (Perfetto-viewable). Enable with
  ``REPRO_TRACE=1`` (in-memory) or ``REPRO_TRACE=path.json`` (at-exit
  export), or programmatically via :func:`repro.obs.trace.enable`.
* :mod:`repro.obs.metrics` — counters/gauges/exact-bucket histograms
  behind one :class:`MetricsRegistry`. Enable with ``REPRO_METRICS=1``
  or pass an explicit registry through the ``metrics=`` hooks on
  ``InferenceServer`` / ``BucketedTrainer`` / ``DistributedTrainer``.

``python -m repro.obs.dump`` runs a small instrumented workload and
prints the merged registry snapshot (see :mod:`repro.obs.dump`).

Both switches are *inert by contract*: enabling them may never change a
computed value. The property test in ``tests/test_obs.py`` proves
traced and untraced runs bitwise-identical across the echo x memplan
matrix plus a 2-rank distributed leg.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Tracer, merge_chrome_traces, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "merge_chrome_traces",
    "span",
]
