"""What is measured: frozen workload shapes, seeds, and the metric tables.

Shapes never change (a later change is compared on identical work); only
the repetition counts in :data:`COUNTS` scale with ``--seconds`` and
``--quick``. ``BENCHMARK.json`` at the repository root is the driver's copy
of :data:`WORKLOADS`, :func:`driver_end_to_end` and :func:`driver_per_layer`;
``test_harness.py`` fails when the two disagree.
"""

from __future__ import annotations

#: ``run_seconds`` of BENCHMARK.json: budget of one pass's measured phases
RUN_SECONDS = 20

#: seed used when none is given, and the seed no change may be tuned on
DEFAULT_SEED = 20200530
HOLDOUT_SEED = 77001

#: name -> one-line reason the workload exists
WORKLOADS: dict[str, str] = {
    "nmt_train": (
        "bucketed NMT + MLP attention, Echo on: Echo, memplan and GEMM/"
        "attention kernels carry it, four ~1.6k-node graphs make compile "
        "cost dominate; host dispatch is a minor share"
    ),
    "wordlm_train": (
        "2-layer word-LM on tiny tensors: executor dispatch and unfused "
        "LSTM-cell pointwise kernels carry it, Echo nearly idle; the "
        "opposite regime to nmt_train"
    ),
    "nmt_serve": (
        "forward-only micro-batched serving on 28 small plans with a "
        "dispatcher thread beside a client: a training-side gain that "
        "costs small-plan dispatch or cache lookup regresses here"
    ),
    "wordlm_dist2": (
        "the word-LM under 2 data-parallel ranks (process backend): the "
        "only workload where dist collectives and the threads=2 wavefront "
        "plan carry the step"
    ),
}

ALL = tuple(WORKLOADS)
TRAIN = ("nmt_train", "wordlm_train")

# -- frozen shapes ---------------------------------------------------------

NMT_TRAIN = dict(
    src_vocab_size=2000, tgt_vocab_size=2000, embed_size=128,
    hidden_size=128, encoder_layers=1, decoder_layers=1,
    src_len=16, tgt_len=16, batch_size=32,
)
NMT_BUCKETS = ((4, 6), (8, 10), (12, 14), (16, 16))
NMT_TRAIN_LR = 1e-3  # Adam

WORDLM = dict(
    vocab_size=2000, embed_size=64, hidden_size=64, num_layers=2,
    seq_len=20, batch_size=16,
)
WORDLM_LR = 0.2  # SGD

NMT_SERVE = dict(
    src_vocab_size=500, tgt_vocab_size=500, embed_size=64, hidden_size=64,
    encoder_layers=1, decoder_layers=1, src_len=16, tgt_len=16,
    batch_size=8,
)
SERVE_MAX_BATCH = 8
SERVE_MAX_WAIT_MS = 4.0
SERVE_TRAIN_STEPS = 30
SERVE_TRAIN_LR = 5e-3  # Adam
#: one pool = every length 2..16 x (21 translate + 7 score): an exact
#: 75/25 mix whose bucket shares do not move with the seed
SERVE_LENGTHS = tuple(range(2, 17))
SERVE_TRANSLATE_PER_LENGTH = 21
SERVE_SCORE_PER_LENGTH = 7
SERVE_PACED_RPS = 150.0

DIST_WORLD = 2
DIST_BUCKET_BYTES = 1 << 16
DIST_THREADS = 2

#: steps whose losses are hashed into ``train.loss_digest`` (fixed, so the
#: digest does not depend on how many samples the time budget allowed)
DIGEST_STEPS = 12
#: steps checked against the harness's own reference evaluator
ORACLE_STEPS = 3

#: repetition counts: (full, quick). Shapes are frozen; these are not.
COUNTS = {
    "nmt_train.compile_reps": (3, 1),
    "wordlm_train.compile_reps": (5, 1),
    "serve.setup_reps": (3, 1),
    "wordlm_dist2.compile_reps": (4, 1),
    "train.min_rounds_per_block": (4, 2),
    "serve.pools_per_burst": (2, 1),      # x 420 requests
    "serve.pools_per_paced": (1, 1),
    "serve.min_burst_rounds": (6, 2),
    "serve.min_paced_rounds": (4, 2),
    "serve.key_rounds": (3, 1),           # per gap between rounds
    "dist.min_steps": (120, 12),
    "layer.kernel_repeats": (5, 1),
    "layer.ab_rounds": (5, 1),            # obs on/off, threads 1/2
}


def count(name: str, quick: bool) -> int:
    return COUNTS[name][1 if quick else 0]


# -- metric tables ---------------------------------------------------------
# (name, unit, better, bound, workloads it is native to)

HEADLINE = (
    ("setup_s", "s", "lower", 0.25, ALL),
    ("compile_cold_s", "s", "lower", 0.25, ALL),
    ("compile_warm_s", "s", "lower", 0.25, ALL),
    ("compile_calls", "count", "lower", 0.01, ALL),
    ("iter_ms", "ms", "lower", 0.20, ALL),
    ("iter_host_ops", "count", "lower", 0.01, ALL),
    ("peak_bytes", "B", "lower", 0.001, ALL),
    ("arena_bytes", "B", "lower", 0.001, ALL),
    ("sim_samples_per_s", "samples/s", "higher", 0.001, ALL),
    ("serve_rps", "req/s", "higher", 0.20, ("nmt_serve",)),
    ("serve_p50_ms", "ms", "lower", 0.25, ("nmt_serve",)),
    ("serve_p99_ms", "ms", "lower", 0.25, ("nmt_serve",)),
    ("wire_bytes_per_step", "B", "lower", 0.001, ("wordlm_dist2",)),
)

#: the metrics whose value must repeat exactly between runs of one commit
EXACT = (
    "compile_calls", "iter_host_ops", "peak_bytes", "arena_bytes",
    "sim_samples_per_s", "wire_bytes_per_step", "train.loss_digest",
)

# (name, unit, better); zero on workloads that do not exercise the layer
LAYER = (
    ("models.build_s", "s", "lower"),
    ("graph.nodes", "count", "lower"),
    ("graph.nodes_pre_echo", "count", "lower"),
    ("echo.pass_s", "s", "lower"),
    ("echo.candidates", "count", "higher"),
    ("echo.accepted", "count", "higher"),
    ("echo.rejected_low_benefit", "count", "lower"),
    ("echo.rejected_budget", "count", "lower"),
    ("echo.rolled_back", "count", "lower"),
    ("echo.bytes_saved", "B", "higher"),
    ("echo.footprint_reduction", "ratio", "higher"),
    ("echo.overhead_fraction", "ratio", "lower"),
    ("echo.mirror_nodes", "count", "lower"),
    ("echo.plancache_hit_rate", "ratio", "higher"),
    ("scheduler.schedule_s", "s", "lower"),
    ("memory.plan_s", "s", "lower"),
    ("compiled.lower_s", "s", "lower"),
    ("compiled.instructions", "count", "lower"),
    ("compiled.fused_nodes", "count", "higher"),
    ("compiled.static_slots", "count", "lower"),
    ("memplan.static_bytes", "B", "lower"),
    ("memplan.planned_peak_bytes", "B", "lower"),
    ("memplan.packed_extent_bytes", "B", "lower"),
    ("memplan.packing_efficiency", "ratio", "higher"),
    ("memplan.elided_copies", "count", "higher"),
    ("memplan.inplace_writes", "count", "higher"),
    ("analysis.verify_s", "s", "lower"),
    ("analysis.equiv_s", "s", "lower"),
    ("analysis.findings", "count", "lower"),
    ("analysis.verify_share", "ratio", "lower"),
    ("pgo.order_hits", "count", "higher"),
    ("pgo.bytecode_hits", "count", "higher"),
    ("pgo.bytecode_misses", "count", "lower"),
    ("pgo.load_errors", "count", "lower"),
    ("pgo.saves", "count", "lower"),
    ("plancache.hits", "count", "higher"),
    ("plancache.misses_steady", "count", "lower"),
    ("ops.kernel_ms", "ms", "lower"),
    ("ops.gemm_ms", "ms", "lower"),
    ("ops.pointwise_ms", "ms", "lower"),
    ("ops.reduce_ms", "ms", "lower"),
    ("ops.other_ms", "ms", "lower"),
    ("ops.kernel_calls", "count", "lower"),
    ("executor.run_ms", "ms", "lower"),
    ("executor.dispatch_ms", "ms", "lower"),
    ("executor.host_ops", "count", "lower"),
    ("executor.allocs_per_iter", "count", "lower"),
    ("train.optimizer_ms", "ms", "lower"),
    ("train.iter_p50_ms", "ms", "lower"),
    ("train.iter_p95_ms", "ms", "lower"),
    ("train.loss_digest", "sha256_48", "lower"),
    ("wavefront.iter_ratio_t2", "ratio", "lower"),
    ("wavefront.parallel_levels", "count", "higher"),
    ("wavefront.parallel_instructions", "count", "higher"),
    ("wavefront.max_width", "count", "higher"),
    ("serve.warmup_s", "s", "lower"),
    ("serve.plans_compiled", "count", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.decode_ms_per_batch", "ms", "lower"),
    ("serve.batch_occupancy", "req/batch", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.sequential_rps", "req/s", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.plancache_misses_post_warmup", "count", "lower"),
    ("serve.gen_late_ms_p99", "ms", "lower"),
    ("serve.latency_p90_ms", "ms", "lower"),
    ("dist.messages_per_step", "count", "lower"),
    ("dist.collectives_per_step", "count", "lower"),
    ("dist.recv_wait_ms_per_step", "ms", "lower"),
    ("dist.overlap_fraction", "ratio", "higher"),
    ("dist.single_rank_iter_ms", "ms", "lower"),
    ("dist.scaling_efficiency", "ratio", "higher"),
    ("dist.timeouts", "count", "lower"),
    ("dist.reforms", "count", "lower"),
    ("obs.enabled_ratio", "ratio", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
    ("harness.compile_span_cover", "ratio", "higher"),
    ("harness.iter_span_cover", "ratio", "higher"),
)


def headline_for(workload: str) -> list[tuple]:
    return [row for row in HEADLINE if workload in row[4]]


def driver_end_to_end() -> list[dict]:
    """``BENCHMARK.json`` ``end_to_end``: the headline metrics every workload
    reports (the driver requires each on every workload, and never 0)."""
    return [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, where in HEADLINE if where == ALL
    ]


def driver_per_layer() -> list[dict]:
    """``BENCHMARK.json`` ``per_layer``: the single-workload headline metrics
    (gated by ``compare.py``, not by the driver) followed by the layers."""
    rows = [(n, u, b) for n, u, b, _, where in HEADLINE if where != ALL]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows + list(LAYER)]


def unit_of(name: str) -> str:
    for row in HEADLINE + LAYER:
        if row[0] == name:
            return row[1]
    raise KeyError(name)
