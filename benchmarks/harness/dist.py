"""``wordlm_dist2``: the word-LM under two data-parallel rank processes.

Each rank builds the ``wordlm_train`` model at half the global batch with a
``threads=2`` wavefront plan, agrees with its peer on a step count, and
times every step; the parent takes the per-step maximum over ranks. Ranks
are compared with each other and with ``data_parallel_reference`` run in
the parent on an un-rewritten graph. The process backend is used because
two rank *threads* wandered 53-103 ms (p10) between identical runs on the
seed host, against 25-28 ms for processes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dist import (
    DistributedTrainer,
    data_parallel_reference,
    ring_broadcast,
    run_distributed,
)
from repro.echo import EchoConfig, EchoPass
from repro.gpumodel import DeviceModel
from repro.models import build_word_lm
from repro.runtime import PlanCache
from repro.train import SGD

from . import inputs, spec, stats
from .core import Context, Result, record_pgo, timed
from .spans import Recorder, Span
from .train import REPRO_FRAMES, WordLmTrain, build_verified

_WARMUP_STEPS = 3
_REFERENCE_STEPS = 5


def _rank(group, job: dict) -> dict:
    """One rank's whole run; everything returned must pickle."""
    entered = time.perf_counter()  # same clock as the parent's (fork)
    rank, world = group.rank, group.world_size
    result = Result()
    rec = Recorder(pid=rank) if job["traced"] else None
    batches = job["batches"]
    wl = WordLmTrain(threads=spec.DIST_THREADS,
                     batch_size=spec.WORDLM["batch_size"] // world)

    model = build_word_lm(wl.config)
    device = DeviceModel()
    cache = PlanCache(store=None)
    EchoPass(EchoConfig(), device, plan_cache=cache).run(model.graph)
    params = model.store.initialize(seed=job["param_seed"])
    trainer = DistributedTrainer(
        group, model.graph, params, SGD(spec.WORDLM_LR),
        bucket_bytes=spec.DIST_BUCKET_BYTES, threads=spec.DIST_THREADS,
        device=device, plan_cache=cache,
    )
    out: dict = {}
    with trainer:
        losses, warm_s = [], []
        for i in range(_WARMUP_STEPS):
            start = time.perf_counter()
            losses.append(trainer.step(batches[i % len(batches)]).loss)
            warm_s.append(time.perf_counter() - start)
        out["spawn_s"] = entered - job["forked_at"]
        out["warmup_s"] = sum(warm_s)

        # Both ranks must take the same number of steps: rank 0 sizes the
        # timed phase from its warm-up and tells the ring.
        steps = max(job["min_steps"], int(job["step_budget_s"] / min(warm_s)))
        steps = int(ring_broadcast(group, np.array([steps]), root=0)[0])

        base = group.stats.snapshot()
        plain_s, traced_s = [], []
        for i in range(steps):
            feeds = batches[(i + _WARMUP_STEPS) % len(batches)]
            traced = rec is not None and i % 2 == 1
            start = time.perf_counter()
            if traced:
                with rec.span("dist.step", rank=rank, step=i):
                    record = trainer.step(feeds)
            else:
                record = trainer.step(feeds)
            (traced_s if traced else plain_s).append(
                (i, time.perf_counter() - start)
            )
            losses.append(record.loss)
        snap = group.stats.snapshot()

        out["host_ops"] = stats.count_bytecodes(
            lambda: trainer.step(batches[0]), REPRO_FRAMES
        )
        plan = trainer.executor.executor.plan
        out.update(
            steps=steps, losses=losses, plain_s=plain_s, traced_s=traced_s,
            peak_bytes=trainer.peak_bytes,
            arena_bytes=plan.static_storage_bytes,
            sim_samples_per_s=trainer.throughput(),
            parallel_levels=plan.parallel_level_count,
            parallel_instructions=plan.parallel_instruction_count,
            max_width=plan.max_wavefront_width,
            bytes_sent=snap["bytes_sent"] - base["bytes_sent"],
            messages=snap["messages_sent"] - base["messages_sent"],
            collectives=(sum(snap["collectives"].values())
                         - sum(base["collectives"].values())),
            recv_wait_s=snap["recv_wait_s"] - base["recv_wait_s"],
            overlapped=(snap["overlap_reduced_buckets"]
                        - base["overlap_reduced_buckets"]),
            tail=snap["tail_reduced_buckets"] - base["tail_reduced_buckets"],
            timeouts=snap["timeouts"], reforms=snap["reforms"],
        )

    # Compile repetitions of the per-rank plan (threads=2, half batch); the
    # two ranks run them side by side, as they compile side by side in use.
    store_dir = job["scratch"] / f"tune-dist-rank{rank}"
    cold, warm = [], []
    populate = build_verified(wl, Result(), store_dir)
    out["pgo_saves"] = populate.store_stats.get("saves", 0)
    for _ in range(job["compile_reps"]):
        seconds, _ = timed(build_verified, wl, result)
        cold.append(seconds)
        seconds, built = timed(build_verified, wl, result, store_dir)
        warm.append(seconds)
    out["warm_stats"] = built.store_stats
    out["cold"], out["warm"] = cold, warm
    if not job["traced"]:
        out["compile_calls"] = stats.count_calls(
            lambda: build_verified(wl, Result())
        )
    out["attempted"], out["failed"] = result.attempted, result.failed
    out["failures"] = result.failures
    out["spans"] = [
        (s.id, s.parent, s.name, s.start, s.end, s.tid, s.pid, s.args)
        for s in (rec.spans if rec is not None else ())
    ]
    return out


def _single_rank(group, job: dict) -> float:
    """p10 step seconds of one rank carrying the whole global batch."""
    wl = WordLmTrain(threads=spec.DIST_THREADS)
    built = build_verified(wl, Result())
    feeds = job["batches"]
    samples = []
    for i in range(_WARMUP_STEPS + job["steps"]):
        start = time.perf_counter()
        built.step("lm", feeds[i % len(feeds)])
        samples.append(time.perf_counter() - start)
    return stats.p10(samples[_WARMUP_STEPS:])


def run(ctx: Context) -> Result:
    result = Result()
    m = result.metrics
    world = spec.DIST_WORLD
    batches = inputs.lm_batches(ctx.tree, spec.WORDLM, 6)
    reps = 1 if ctx.traced else ctx.count("wordlm_dist2.compile_reps")
    job = {
        "traced": ctx.traced,
        "batches": batches,
        "param_seed": ctx.tree.param_seed(),
        "scratch": ctx.scratch,
        "compile_reps": reps,
        "min_steps": ctx.count("dist.min_steps"),
        # what the compile repetitions leave of the budget (they cost about
        # a second per pair per rank)
        "step_budget_s": max(ctx.seconds - 2.0 * reps - 2.0, 1.0),
    }
    job["forked_at"] = time.perf_counter()
    once_s = job["forked_at"] - ctx.t0
    with ctx.recorder.span("dist.run", world=world):
        ranks = run_distributed(_rank, world, backend="process", args=(job,),
                                join_timeout_s=170.0)

    r0 = ranks[0]
    steps = r0["steps"]
    for r in ranks:
        result.attempted += r["attempted"]
        result.failed += r["failed"]
        result.failures += r["failures"]
        if ctx.traced:
            ctx.recorder.extend(Span(*row) for row in r["spans"])
    for r in ranks[1:]:
        result.check(r["losses"] == r0["losses"],
                     "wordlm_dist2: rank diverged from rank 0", weight=steps)
    result.check(all(np.isfinite(r0["losses"])),
                 "wordlm_dist2: non-finite loss")
    result.check(all(r["timeouts"] == 0 and r["reforms"] == 0 for r in ranks),
                 "wordlm_dist2: collective timeout or ring re-formation")

    # The single-process fold over the same shards, on an un-rewritten graph.
    shard = WordLmTrain(batch_size=spec.WORDLM["batch_size"] // world)
    model = build_word_lm(shard.config)
    ref_params = model.store.initialize(seed=job["param_seed"])
    ref_batches = [batches[i % len(batches)] for i in range(_REFERENCE_STEPS)]
    reference = data_parallel_reference(
        model.graph, ref_params, SGD(spec.WORDLM_LR), ref_batches, world,
        plan_cache=PlanCache(store=None),
    )
    for i, ref in enumerate(reference):
        result.check(r0["losses"][i] == ref["loss"],
                     f"wordlm_dist2: loss {i + 1} {r0['losses'][i]!r} != "
                     f"data_parallel_reference {ref['loss']!r}")

    def per_step_max(key: str) -> list[float]:
        by_rank = [dict(r[key]) for r in ranks]
        return [max(t[i] for t in by_rank) for i in by_rank[0]]

    plain = per_step_max("plain_s")
    # per compile repetition, the slower rank
    cold = [max(c) for c in zip(*(r["cold"] for r in ranks))]
    warm = [max(c) for c in zip(*(r["warm"] for r in ranks))]
    # Once: imports, inputs, fork, the first steps. Repeated: the per-rank
    # build, so its median stands in for the one build of the live trainer.
    m["setup_s"] = (once_s + max(r["spawn_s"] for r in ranks)
                    + stats.median(cold)
                    + max(r["warmup_s"] for r in ranks))
    m["compile_cold_s"] = stats.p10(cold)
    m["compile_warm_s"] = stats.p10(warm)
    m["iter_ms"] = 1e3 * stats.p10(plain)
    m["iter_host_ops"] = r0["host_ops"]
    m["peak_bytes"] = r0["peak_bytes"]
    m["arena_bytes"] = r0["arena_bytes"]
    m["sim_samples_per_s"] = world * r0["sim_samples_per_s"]
    m["wire_bytes_per_step"] = stats.mean(r["bytes_sent"] for r in ranks) / steps
    m["train.iter_p50_ms"] = 1e3 * stats.median(plain)
    m["train.iter_p95_ms"] = 1e3 * stats.percentile(plain, 95)
    m["train.loss_digest"] = stats.loss_digest(r0["losses"][:spec.DIGEST_STEPS])
    m["dist.messages_per_step"] = stats.mean(r["messages"] for r in ranks) / steps
    m["dist.collectives_per_step"] = (
        stats.mean(r["collectives"] for r in ranks) / steps
    )
    m["dist.recv_wait_ms_per_step"] = (
        1e3 * stats.mean(r["recv_wait_s"] for r in ranks) / steps
    )
    reduced = sum(r["overlapped"] + r["tail"] for r in ranks)
    m["dist.overlap_fraction"] = (
        sum(r["overlapped"] for r in ranks) / reduced if reduced else 0.0
    )
    m["dist.timeouts"] = sum(r["timeouts"] for r in ranks)
    m["dist.reforms"] = sum(r["reforms"] for r in ranks)
    m["wavefront.parallel_levels"] = r0["parallel_levels"]
    m["wavefront.parallel_instructions"] = r0["parallel_instructions"]
    m["wavefront.max_width"] = r0["max_width"]
    m["pgo.saves"] = r0["pgo_saves"]
    record_pgo(m, r0["warm_stats"])

    if ctx.traced:
        m["harness.trace_overhead"] = (
            stats.p10(per_step_max("traced_s")) / stats.p10(plain)
        )
        # One rank carrying the whole global batch — in a child process, so
        # that this one never owns wavefront worker threads when it forks.
        single = run_distributed(
            _single_rank, 1, backend="process",
            args=({"batches": batches, "steps": ctx.count("dist.min_steps")},),
        )[0]
        m["dist.single_rank_iter_ms"] = 1e3 * single
        m["dist.scaling_efficiency"] = single / (world * stats.p10(plain))
        return result

    m["compile_calls"] = r0["compile_calls"]
    return result
