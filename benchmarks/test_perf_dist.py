"""Distributed data-parallel smoke benchmark: scaling + wire traffic.

Trains the word-level LM on a fixed global batch under 1, 2, and 4
thread-backend ranks and reports, per world size:

* wall-clock per step and strong-scaling efficiency vs the 1-rank run
  (``t1 / (N * tN)``; thread ranks share one interpreter, so this
  measures overhead, not true parallel speedup — the number that must
  not collapse is the *communication* share, reported separately);
* bytes moved per step per rank (the ring all-reduce's ~2.S plus the
  per-step loss reduction), straight from the ``DistStats`` counters;
* the overlap ratio — buckets reduced while backward was still running.
  At this model size the wavefront gate keeps the ``threads=2`` plan
  serial (one program item), so every bucket is reduced in the step's one
  gradient collective after backward and the ratio reads 0; the column
  stays so a plan that does keep parallel levels shows up here.

Correctness riding along: every world size must reproduce its
single-process :func:`data_parallel_reference` loss trajectory bitwise
(the acceptance property of the subsystem, here exercised at benchmark
scale), and all ranks must agree with each other.

Results print as a table, persist to ``benchmarks/results/dist.txt``
and, machine-readable for cross-PR tracking, ``BENCH_dist.json`` at the
repo root.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import time

import numpy as np

from repro.data import lm_batches, markov_corpus
from repro.dist import (
    DistributedTrainer,
    data_parallel_reference,
    run_distributed,
)
from repro.experiments import format_table
from repro.models import WordLmConfig, build_word_lm
from repro.train import SGD

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

VOCAB, HIDDEN, T = 60, 32, 8
GLOBAL_BATCH = 8
WARMUP_STEPS = 1
TIMED_STEPS = 4
WORLDS = (1, 2, 4)

CORPUS = markov_corpus(VOCAB, 6000, seed=7)


def _cfg(shard_batch: int) -> WordLmConfig:
    return WordLmConfig(
        vocab_size=VOCAB, embed_size=HIDDEN, hidden_size=HIDDEN,
        num_layers=1, seq_len=T, batch_size=shard_batch,
    )


def _batches(steps: int):
    return list(itertools.islice(lm_batches(CORPUS, GLOBAL_BATCH, T), steps))


def _bench_rank(group, cfg, warmup, timed):
    model = build_word_lm(cfg)
    params = model.store.initialize(seed=100 + group.rank)
    # threads=2 as in the harness's wordlm_dist2; the gate decides whether
    # any level (and hence any overlap with backward) survives.
    with DistributedTrainer(
        group, model.graph, params, SGD(0.2), bucket_bytes=1 << 14,
        threads=2,
    ) as trainer:
        for feeds in warmup:
            trainer.step(feeds)
        base = group.stats.snapshot()
        start = time.perf_counter()
        records = [trainer.step(feeds) for feeds in timed]
        elapsed = time.perf_counter() - start
    snap = group.stats.snapshot()
    return {
        "losses": [r.loss for r in records],
        "elapsed_s": elapsed,
        "bytes": snap["bytes_sent"] - base["bytes_sent"],
        "overlap": snap["overlap_reduced_buckets"],
        "tail": snap["tail_reduced_buckets"],
    }


def test_dist_scaling_smoke(save_result):
    warmup, timed = _batches(WARMUP_STEPS), _batches(
        WARMUP_STEPS + TIMED_STEPS
    )[WARMUP_STEPS:]

    measured = {}
    for world in WORLDS:
        cfg = _cfg(GLOBAL_BATCH // world)
        results = run_distributed(
            _bench_rank, world, backend="thread", args=(cfg, warmup, timed),
        )
        # Cross-rank agreement, bitwise.
        for rank in range(1, world):
            assert results[rank]["losses"] == results[0]["losses"], (
                f"world={world}: rank {rank} diverged from rank 0"
            )
        # Bitwise match with the single-process reference fold.
        model = build_word_lm(cfg)
        ref_params = model.store.initialize(seed=100)
        ref = data_parallel_reference(
            model.graph, ref_params, SGD(0.2), warmup + timed, world,
        )
        assert results[0]["losses"] == [
            r["loss"] for r in ref[WARMUP_STEPS:]
        ], f"world={world}: diverged from data_parallel_reference"
        measured[world] = results

    t1 = measured[1][0]["elapsed_s"] / TIMED_STEPS
    rows, record = [], {}
    for world in WORLDS:
        results = measured[world]
        step_s = max(r["elapsed_s"] for r in results) / TIMED_STEPS
        efficiency = t1 / (world * step_s)
        bytes_step = sum(r["bytes"] for r in results) / world / TIMED_STEPS
        reduced = sum(r["overlap"] + r["tail"] for r in results)
        overlap = (
            sum(r["overlap"] for r in results) / reduced if reduced else 0.0
        )
        if world > 1:
            assert bytes_step > 0, "no collective traffic measured"
        rows.append((
            str(world), f"{1e3 * step_s:.1f}", f"{efficiency:.2f}",
            f"{bytes_step / 1024:.1f}", f"{100 * overlap:.0f}%",
        ))
        record[f"world_{world}"] = {
            "step_seconds": step_s,
            "scaling_efficiency": efficiency,
            "bytes_per_step_per_rank": bytes_step,
            "overlap_reduced_fraction": overlap,
            "bitwise_match_reference": True,
        }

    text = format_table(
        ["ranks", "ms/step", "efficiency", "KiB/step/rank", "overlapped"],
        rows,
        f"data-parallel scaling, global batch {GLOBAL_BATCH} "
        f"(thread backend, {TIMED_STEPS} timed steps)",
    )
    save_result("dist", text)
    record["global_batch"] = GLOBAL_BATCH
    record["timed_steps"] = TIMED_STEPS
    record["backend"] = "thread"
    (REPO_ROOT / "BENCH_dist.json").write_text(
        json.dumps({"dist_scaling": record}, indent=2) + "\n"
    )
    assert np.isfinite(measured[1][0]["losses"]).all()
