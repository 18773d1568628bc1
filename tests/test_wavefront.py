"""What stays of wavefront execution: every thread count gets the one
serial plan.

A plan used to split its stream into dependency levels and run the wide
ones on a worker pool. No plan any model here builds ever had a parallel
level, and a ``threads > 1`` plan gave up the serial lowering's fusion
and buffer sharing, so that layer is gone. What it promised still holds
and is pinned here:

* a thread count given to a trainer changes neither the plan nor a bit
  of what it computes (word-LM, NMT, the Echo Fig. 13 configuration,
  generic ops), and ``REPRO_THREADS`` no longer picks one;
* the plan attributes the benchmark harness reads report no parallel
  structure, and independent instructions run in stream order, so
  values that share bytes never have overlapping live ranges;
* the neighbours of the old layer keep their tests: graph dependency
  levels, the thread-safe arena, fork safety, Echo's barrier check and
  stable dropout seeds.
"""

import itertools
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.ops as O
from repro.gpumodel import DeviceModel
from repro.graph import Stage, dependency_levels
from repro.models import NmtConfig, WordLmConfig, build_nmt, build_word_lm
from repro.nn import Backend
from repro.ops.dropout import set_global_step, stable_seed
from repro.runtime import (
    Arena,
    CompiledPlan,
    GraphExecutor,
    PlanCache,
    schedule,
)
from repro.runtime.lowering import lower
from repro.train import SGD, Trainer
from tests.helpers import reference_run

SMALL_NMT = NmtConfig(
    src_vocab_size=50, tgt_vocab_size=50, embed_size=8, hidden_size=8,
    encoder_layers=1, decoder_layers=1, src_len=5, tgt_len=4,
    batch_size=2, backend=Backend.CUDNN,
)

SMALL_LM = WordLmConfig(
    vocab_size=60, embed_size=8, hidden_size=8, num_layers=2,
    seq_len=5, batch_size=3, dropout=0.3,
)


def nmt_feeds(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "src_tokens": rng.integers(1, cfg.src_vocab_size,
                                   (cfg.src_len, cfg.batch_size)),
        "tgt_tokens": rng.integers(1, cfg.tgt_vocab_size,
                                   (cfg.tgt_len, cfg.batch_size)),
        "tgt_labels": rng.integers(1, cfg.tgt_vocab_size,
                                   (cfg.tgt_len, cfg.batch_size)),
    }


def lm_feeds(cfg, seed=0):
    rng = np.random.default_rng(seed)
    shape = (cfg.seq_len, cfg.batch_size)
    return {
        "tokens": rng.integers(0, cfg.vocab_size, shape),
        "labels": rng.integers(-1, cfg.vocab_size, shape),
    }


def trainer_executor(graph, threads, **kw):
    """The forward/backward executor a ``Trainer(threads=threads)`` builds."""
    trainer = Trainer(graph, {}, SGD(0.1), threads=threads, **kw)
    return trainer.executor.executor


def assert_no_parallel_structure(plan):
    assert plan.parallel_level_count == 0
    assert plan.parallel_instruction_count == 0
    assert plan.max_wavefront_width == 0


def assert_same_runs(want_ex, got_ex, feeds, want_params, got_params=None,
                     steps=3):
    """Both executors run ``steps`` times (same dropout step sequence)."""
    for _ in range(steps):
        want = want_ex.run(feeds, want_params).outputs
        got = got_ex.run(feeds, got_params or want_params).outputs
        for a, b in zip(want, got):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestDependencyLevels:
    def test_diamond(self):
        x = O.placeholder((4,), np.float64, name="x")
        a = O.add_scalar(x, 1.0)
        b = O.mul_scalar(x, 2.0)
        y = O.add(a, b)
        levels = dependency_levels(schedule([y]))
        assert levels[x.node.uid] == 0
        assert levels[a.node.uid] == levels[b.node.uid] == 1
        assert levels[y.node.uid] == 2

    def test_external_producers_are_sources(self):
        x = O.placeholder((4,), np.float64, name="x2")
        a = O.add_scalar(x, 1.0)
        levels = dependency_levels([a.node])  # x not in the iterable
        assert levels[a.node.uid] == 0


def _independent_gemms():
    """Four independent GEMMs summed pairwise: one wide dependency level."""
    xs = [O.placeholder((8, 8), np.float64, name=f"ix{i}") for i in range(4)]
    w = O.variable((8, 8), np.float64, name="iw")
    prods = [O.matmul(x, w) for x in xs]
    return [O.add(O.add(prods[0], prods[1]), O.add(prods[2], prods[3]))]


class TestWavefrontAnalysis:
    def test_serial_threads_never_parallel(self):
        """Independent instructions run as one straight-line body in
        stream order."""
        outs = _independent_gemms()
        order = schedule(outs)
        levels = dependency_levels(order)
        gemm_levels = {levels[n.uid] for n in order if n.op.name == "matmul"}
        assert len(gemm_levels) == 1  # all four could run side by side
        plan = CompiledPlan(order, outs, Arena())
        assert_no_parallel_structure(plan)
        assert plan._body.__defaults__ == tuple(plan._steps)
        rng = np.random.default_rng(0)
        feeds = {f"ix{i}": rng.standard_normal((8, 8)) for i in range(4)}
        params = {"iw": rng.standard_normal((8, 8))}
        (got,) = plan.run(feeds, params)
        (want,) = reference_run(outs, feeds, params)
        assert np.array_equal(got, want)

    def test_storage_hazards_serialize(self):
        """Values the planner places in the same bytes have disjoint live
        ranges: the stream order is the only ordering a plan has."""
        model = build_nmt(SMALL_NMT)
        plan = CompiledPlan(schedule(model.graph.outputs),
                            model.graph.outputs, Arena())
        placed = list(plan.lowering.memplan.placements.values())
        sharing = 0
        for (f1, l1, o1, n1), (f2, l2, o2, n2) in itertools.combinations(
            placed, 2
        ):
            if o1 < o2 + n2 and o2 < o1 + n1:  # the byte ranges meet
                sharing += 1
                assert l1 < f2 or l2 < f1, ((f1, l1), (f2, l2))
        assert sharing > 0  # the plan really reuses storage


class TestForkSafety:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_runs_parallel_plan(self):
        """A forked child runs a warm plan the parent built (once a hang:
        the child inherited a worker pool whose threads lived only in the
        parent)."""
        x = O.placeholder((6, 6), np.float64, name="fx")
        y = O.placeholder((6, 6), np.float64, name="fy")
        outs = [O.matmul(O.add(x, y), O.sub(x, y))]
        plan = CompiledPlan(schedule(outs), outs, Arena())
        assert_no_parallel_structure(plan)
        feeds = {"fx": np.arange(36.0).reshape(6, 6),
                 "fy": np.eye(6)}
        want = plan.run(feeds)[0].copy()  # the plan is warm

        ctx = multiprocessing.get_context("fork")
        recv_end, send_end = ctx.Pipe(duplex=False)

        def child():
            try:
                send_end.send(plan.run(feeds)[0])
            finally:
                send_end.close()
                os._exit(0)

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        send_end.close()
        try:
            assert recv_end.poll(30.0), "forked child hung running the plan"
            got = recv_end.recv()
        finally:
            if proc.is_alive() and not recv_end.poll(0):
                proc.terminate()
            proc.join(timeout=10.0)
        assert not proc.is_alive()
        assert np.array_equal(got, want)
        # ... and the parent's own plan is untouched.
        assert np.array_equal(plan.run(feeds)[0], want)


class TestHostSecondsGate:
    def test_word_lm_harness_shape_stays_serial(self):
        # benchmarks/harness/spec.py WORDLM at the threads=2 the harness
        # passes: the plan is the serial lowering, baked as one body.
        cfg = WordLmConfig(vocab_size=2000, embed_size=64, hidden_size=64,
                           num_layers=2, seq_len=20, batch_size=16)
        model = build_word_lm(cfg)
        outs = model.graph.outputs
        plan = trainer_executor(model.graph, 2, device=DeviceModel()).plan
        low = lower(plan.order, outs, Arena())
        assert_no_parallel_structure(plan)
        assert plan.fused_chain_count > 0
        assert [d["kind"] for d in plan.lowering.descs] == [
            d["kind"] for d in low.descs
        ]
        # one straight-line body over every step, clears inlined
        assert plan._body.__defaults__ == tuple(plan._steps)
        assert plan.lowering.clears_at == low.clears_at
        assert plan.static_storage_bytes == sum(low.static_bases.values())


class TestConcurrentArena:
    def test_concurrent_acquire_release(self):
        arena = Arena()
        errors = []
        acquired = []
        barrier = threading.Barrier(4)

        def worker(seed):
            rng = np.random.default_rng(seed)
            count = 0
            try:
                barrier.wait(timeout=30)
                for _ in range(200):
                    n = int(rng.integers(1, 5))
                    size = int(rng.integers(1, 16385))
                    extents = [arena.acquire_extent(size) for _ in range(n)]
                    out = arena.acquire_fresh((size,), np.dtype(np.uint8), size)
                    count += n + 1
                    for j, raw in enumerate(extents):
                        assert raw.nbytes >= size
                        raw.fill(seed * 10 + j)
                    out.fill(255)
                    for j, raw in enumerate(extents):
                        # no two concurrently-held extents alias, and an
                        # escaping output never lands in one
                        assert raw[0] == raw[-1] == seed * 10 + j
                        arena.release_extent(raw)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            acquired.append(count)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # counters stay consistent under concurrency: every acquisition was
        # either a parked extent or a fresh buffer, nothing lost or
        # double-counted
        assert arena.fresh_count + arena.reuse_count == sum(acquired)
        assert arena.held_bytes > 0


class TestBatchedGemms:
    def test_batched_bitwise_equal_serial(self):
        """The NMT attention GEMMs a ``threads=2`` plan once stacked run
        as steps of their own in the one plan, bit for bit."""
        model = build_nmt(SMALL_NMT)
        params = model.store.initialize(seed=1)
        feeds = nmt_feeds(SMALL_NMT)
        order = schedule(model.graph.outputs)
        plain = CompiledPlan(order, model.graph.outputs, Arena())
        requested = trainer_executor(model.graph, 2,
                                     plan_cache=PlanCache()).plan
        assert "batched" not in requested.instruction_kinds
        assert requested.instruction_kinds == plain.instruction_kinds
        set_global_step(0)
        want = plain.run(feeds, params)
        for _ in range(3):
            set_global_step(0)
            got = requested.run(feeds, params)
            for a, b in zip(want, got):
                assert np.array_equal(a, b)

    def test_output_gemm_never_batched(self):
        x = O.placeholder((4, 4), np.float64, name="bx")
        w = O.variable((4, 4), np.float64, name="bw")
        outs = [O.matmul(x, w), O.matmul(w, x)]
        plan = CompiledPlan(schedule(outs), outs, Arena())
        assert "batched" not in plan.instruction_kinds
        gemm_steps = [d for d in plan.lowering.descs
                      if d["kind"] == "out" and d["node"].op.name == "matmul"]
        assert len(gemm_steps) == 2
        got = plan.run({"bx": np.eye(4)}, {"bw": np.arange(16.0).reshape(4, 4)})
        assert np.array_equal(got[0], np.arange(16.0).reshape(4, 4))
        assert np.array_equal(got[1], np.arange(16.0).reshape(4, 4))


class TestParallelParity:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_word_lm_bitwise(self, threads):
        model = build_word_lm(SMALL_LM)
        params = model.store.initialize(seed=2)
        serial = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        requested = trainer_executor(model.graph, threads,
                                     plan_cache=PlanCache())
        assert_no_parallel_structure(requested.plan)
        assert_same_runs(serial, requested, lm_feeds(SMALL_LM), params)

    def test_nmt_bitwise(self):
        model = build_nmt(SMALL_NMT)
        params = model.store.initialize(seed=3)
        serial = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        requested = trainer_executor(model.graph, 4, plan_cache=PlanCache())
        assert_no_parallel_structure(requested.plan)
        assert_same_runs(serial, requested, nmt_feeds(SMALL_NMT), params)

    def test_echo_fig13_parity_and_report_unchanged(self):
        """Fig. 13 configuration: the Echo-rewritten NMT graph under a
        ``threads=4`` trainer runs bitwise like the serial executor, and
        the pass report is field-for-field reproducible."""
        from repro.echo import EchoConfig, optimize

        def fields(report):
            return {
                "baseline_peak_bytes": report.baseline_peak_bytes,
                "optimized_peak_bytes": report.optimized_peak_bytes,
                "candidates_found": report.candidates_found,
                "num_accepted": len(report.accepted),
                "accepted_benefit": [c.benefit_bytes for c in report.accepted],
                "recompute_seconds": report.recompute_seconds,
            }

        model_a = build_nmt(SMALL_NMT)
        model_b = build_nmt(SMALL_NMT)
        cfg = EchoConfig(min_benefit_bytes=0)
        report_a = optimize(model_a.graph, cfg, plan_cache=PlanCache())
        report_b = optimize(model_b.graph, cfg, plan_cache=PlanCache())
        assert report_a.accepted  # a real rewrite, not a no-op pass
        assert fields(report_a) == fields(report_b)

        params = model_a.store.initialize(seed=4)
        params_b = model_b.store.initialize(seed=4)
        serial = GraphExecutor(model_a.graph.outputs, plan_cache=PlanCache())
        requested = trainer_executor(model_b.graph, 4, plan_cache=PlanCache())
        assert_no_parallel_structure(requested.plan)
        assert_same_runs(serial, requested, nmt_feeds(SMALL_NMT), params,
                         params_b, steps=2)

    def test_repro_threads_env_default(self, monkeypatch):
        """``REPRO_THREADS`` no longer picks a thread count: an executor
        built with it set gets the plan one built without it gets."""
        model = build_word_lm(SMALL_LM)
        cache, arena = PlanCache(), Arena()
        monkeypatch.setenv("REPRO_THREADS", "2")
        with_env = GraphExecutor(model.graph.outputs, arena=arena,
                                 plan_cache=cache)
        monkeypatch.delenv("REPRO_THREADS")
        without = GraphExecutor(model.graph.outputs, arena=arena,
                                plan_cache=cache)
        assert with_env.plan is without.plan
        assert_no_parallel_structure(with_env.plan)


class TestEchoBarrierLegality:
    def test_optimized_graph_passes(self):
        from repro.echo import EchoConfig, check_barrier_legality, optimize

        model = build_nmt(SMALL_NMT)
        report = optimize(model.graph, EchoConfig(min_benefit_bytes=0),
                          plan_cache=PlanCache())
        assert report.accepted  # the check ran on a real rewrite
        check_barrier_legality(schedule(model.graph.outputs))

    def test_forward_consuming_recompute_rejected(self):
        from repro.echo import check_barrier_legality

        x = O.placeholder((4,), np.float64, name="blx")
        a = O.add_scalar(x, 1.0)
        y = O.mul_scalar(a, 2.0)
        a.node.stage = Stage.RECOMPUTE  # forward y now reads a recompute
        try:
            with pytest.raises(RuntimeError, match="barrier violation"):
                check_barrier_legality(schedule([y]))
        finally:
            a.node.stage = Stage.FORWARD


class TestGenericOpsInParallel:
    def test_dropout_graph_parallel_parity(self):
        # dropout is a generic (non-out=) instruction: a threads=2 trainer
        # runs it exactly like the serial executor
        x = O.placeholder((64, 64), np.float64, name="dx")
        h = O.tanh(O.dropout(x, 0.4, seed=11))
        g = O.sigmoid(O.dropout(x, 0.4, seed=12))
        y = O.reduce_sum(O.add(h, g))
        from repro.autodiff import compile_training

        graph = compile_training(y, params={}, placeholders={"x": x})
        serial = GraphExecutor(graph.outputs, plan_cache=PlanCache())
        requested = trainer_executor(graph, 2, plan_cache=PlanCache())
        assert_no_parallel_structure(requested.plan)
        arr = np.random.default_rng(5).standard_normal((64, 64))
        assert_same_runs(serial, requested, {"dx": arr}, {})


class TestStableDropoutSeed:
    def test_stable_seed_is_pure(self):
        assert stable_seed("enc", 0) == stable_seed("enc", 0)
        assert stable_seed("enc", 0) != stable_seed("enc", 1)
        assert 0 <= stable_seed("enc", 0) <= 0xFFFF

    def test_seed_stable_across_hash_randomization(self):
        """Regression: rnn.py used process-salted hash((prefix, layer)) —
        masks differed between processes. stable_seed must not."""
        code = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.ops.dropout import stable_seed;"
            "print(stable_seed('lm.rnn', 0), stable_seed('enc.fwd', 1),"
            "      hash(('lm.rnn', 0)))"
        )
        outs = []
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            result = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, env=env, cwd=os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))),
                check=True,
            )
            outs.append(result.stdout.split())
        (a0, a1, ahash), (b0, b1, bhash) = outs
        assert (a0, a1) == (b0, b1)  # stable digest: identical seeds
        assert ahash != bhash  # hash() really is salted — the old bug

    def test_lm_dropout_masks_reproduce_across_processes(self):
        code = (
            "import sys; sys.path.insert(0, 'src');"
            "import numpy as np;"
            "from tests.test_wavefront import SMALL_LM, lm_feeds;"
            "from repro.models import build_word_lm;"
            "from repro.runtime import GraphExecutor, PlanCache;"
            "m = build_word_lm(SMALL_LM);"
            "p = m.store.initialize(seed=7);"
            "ex = GraphExecutor(m.graph.outputs, plan_cache=PlanCache());"
            "out = ex.run(lm_feeds(SMALL_LM), p).outputs;"
            "print(repr(float(out[0])))"
        )
        losses = []
        for hashseed in ("0", "999"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            result = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, env=env, cwd=os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))),
                check=True,
            )
            losses.append(result.stdout.strip())
        assert losses[0] == losses[1]


class TestWavefrontStats:
    def test_parallel_plan_reports_structure(self):
        """The plan a ``threads=4`` trainer gets reports the structure the
        harness reads, and it is the threads=1 plan's: none."""
        model = build_nmt(SMALL_NMT)
        cache, arena = PlanCache(), Arena()
        four = trainer_executor(model.graph, 4, plan_cache=cache, arena=arena)
        one = trainer_executor(model.graph, 1, plan_cache=cache, arena=arena)
        assert four.plan is one.plan
        assert_no_parallel_structure(four.plan)

    def test_serial_plan_reports_zero(self):
        model = build_word_lm(SMALL_LM)
        ex = trainer_executor(model.graph, 1, plan_cache=PlanCache())
        assert_no_parallel_structure(ex.plan)
