"""``python -m repro.obs.dump`` — one snapshot of every metrics surface.

Runs a small instrumented workload (a few word-LM training steps, echo
on, through the compiled executor, then the same steps under two
data-parallel rank threads) with tracing and metrics enabled, absorbs
the scattered stats surfaces — plan-cache counters, tuning-store hits,
the verify wall share — into one :class:`MetricsRegistry`, and prints the
merged snapshot as JSON (default) or a table.

Options::

    --steps N        training steps to run (default 3)
    --table          human-readable table instead of JSON
    --trace PATH     also export the Chrome trace of the workload

The JSON output is the exact shape of ``MetricsRegistry.snapshot()``:
counters and gauges as scalars, histograms as
``{count, sum, min, max, p50, p95, p99}`` dicts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


def run_workload(steps: int = 3) -> dict:
    """Train a tiny word LM with obs enabled; returns the snapshot."""
    from dataclasses import replace

    import numpy as np  # noqa: F401 - ensures numpy present before models

    from repro.data import lm_batches, markov_corpus
    from repro.dist import DistributedTrainer, run_distributed
    from repro.echo import EchoPass
    from repro.models import WordLmConfig, build_word_lm
    from repro.runtime import PlanCache
    from repro.train import SGD, Trainer

    reg = obs_metrics.enable(fresh=False)
    obs_trace.enable(fresh=False)

    cfg = WordLmConfig(
        vocab_size=60, embed_size=16, hidden_size=16, num_layers=1,
        seq_len=8, batch_size=4, dropout=0.0,
    )
    model = build_word_lm(cfg)
    plan_cache = PlanCache()
    EchoPass(plan_cache=plan_cache).run(model.graph)
    params = model.store.initialize(seed=0)
    trainer = Trainer(
        model.graph, params, SGD(0.1), plan_cache=plan_cache, metrics=reg
    )
    corpus = markov_corpus(cfg.vocab_size, 600, seed=3)
    batches = list(itertools.islice(
        lm_batches(corpus, cfg.batch_size, cfg.seq_len), steps
    ))
    for feeds in batches:
        trainer.step(feeds)

    # The same global batches under two data-parallel ranks, for the
    # dist.* surfaces (per-rank DistStats mirror, dist.comm_wait_s).
    def rank(group) -> None:
        shard = build_word_lm(replace(cfg, batch_size=cfg.batch_size // 2))
        with DistributedTrainer(
            group, shard.graph, shard.store.initialize(seed=0), SGD(0.1),
            metrics=reg,
        ) as dist_trainer:
            for feeds in batches:
                dist_trainer.step(feeds)

    run_distributed(rank, 2, backend="thread")

    # Absorb the surfaces that don't stream into the registry live (the
    # plancache.hits/misses *counters* stream from memo() itself).
    hits, misses = plan_cache.counters()
    reg.gauge("plancache.hit_rate").set(
        hits / (hits + misses) if hits + misses else 1.0
    )
    store = plan_cache.store
    if store is not None:
        reg.absorb("tunestore", store.stats())
    compile_s = reg.histogram("plan.compile_s").sum
    verify_s = reg.histogram("plan.verify_s").sum
    reg.gauge("plan.verify_wall_share").set(
        verify_s / compile_s if compile_s > 0 else 0.0
    )
    return reg.snapshot()


def format_table(snapshot: dict) -> str:
    from repro.experiments.common import format_table as _table

    rows = []
    for name, value in snapshot.items():
        if isinstance(value, dict):
            value = ", ".join(
                f"{k}={v if v is not None else '-'}"
                for k, v in value.items()
            )
        elif isinstance(value, float):
            value = f"{value:.6g}"
        rows.append((name, str(value)))
    return _table(["metric", "value"], rows, "metrics snapshot")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dump",
        description="run a small instrumented workload and dump metrics",
    )
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--trace", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    snapshot = run_workload(steps=args.steps)
    if args.trace:
        t = obs_trace.tracer()
        if t is not None:
            t.export_chrome(args.trace)
            print(f"trace written to {args.trace}", file=sys.stderr)
    if args.table:
        print(format_table(snapshot))
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
