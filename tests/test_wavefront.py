"""Tests for wavefront-parallel execution: analysis, the host-seconds gate,
workers (incl. fork safety), arena safety, batched GEMMs, and bitwise
parallel/serial parity (incl. the Echo Fig. 13 configuration).

Parity tests compile their parallel side with
:class:`tests.helpers.AboveGateDevice` and assert
``parallel_level_count > 0``: at test shapes the real gate keeps every
level serial, which would leave the worker pool untested."""

import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    InstrInfo,
    PlanCache,
    WorkerPool,
    analyze_wavefronts,
    partition_chunks,
    schedule,
    shared_pool,
)
from repro.runtime.wavefront import HANDOFF_SECONDS
from repro.runtime.workers import default_thread_count
from tests.helpers import AboveGateDevice

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


def info(i, reads=(), writes=(), rb=(), wb=(), stage=Stage.FORWARD, cost=1.0):
    return InstrInfo(index=i, reads=tuple(reads), writes=tuple(writes),
                     read_bases=tuple(rb), write_bases=tuple(wb),
                     stage=stage, cost_seconds=cost)


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


class TestWavefrontAnalysis:
    def test_independent_instructions_share_a_level(self):
        infos = [info(0, writes=[0]), info(1, writes=[1]),
                 info(2, reads=[0, 1], writes=[2])]
        sched = analyze_wavefronts(infos, threads=1)
        members = [w.instructions for w in sched.levels]
        assert members == [[0, 1], [2]]

    def test_storage_hazards_serialize(self):
        # 0 writes base 7; 1 reads it; 2 reuses base 7 for its own output:
        # WAR forces 2 after 1 even though no value flows between them.
        infos = [
            info(0, writes=[0], wb=[7]),
            info(1, reads=[0], writes=[1], rb=[7]),
            info(2, writes=[2], wb=[7]),
        ]
        sched = analyze_wavefronts(infos, threads=1)
        level_of = {}
        for lvl, w in enumerate(sched.levels):
            for i in w.instructions:
                level_of[i] = lvl
        assert level_of[2] > level_of[1] > level_of[0]

    def test_stage_transitions_are_barriers(self):
        infos = [
            info(0, writes=[0], stage=Stage.FORWARD),
            info(1, writes=[1], stage=Stage.BACKWARD),
        ]
        sched = analyze_wavefronts(infos, threads=4)
        assert sched.region_count == 2
        assert [w.instructions for w in sched.levels] == [[0], [1]]

    def test_cost_gate_keeps_cheap_levels_serial(self):
        # Four independent 30 us kernels: no split buys back a hand-off.
        cheap = [info(i, writes=[i], cost=30e-6) for i in range(4)]
        sched = analyze_wavefronts(cheap, threads=4)
        assert all(not w.parallel for w in sched.levels)
        assert sched.gated_level_count == 1
        assert sched.saving_seconds == 0.0
        # Four independent kernels of three hand-offs each: worth 4 lanes.
        rich = [info(i, writes=[i], cost=3 * HANDOFF_SECONDS)
                for i in range(4)]
        sched = analyze_wavefronts(rich, threads=4)
        (level,) = sched.levels
        assert level.parallel and len(level.chunks) == 4
        assert sched.gated_level_count == 0
        # 12H serial, 3H heaviest chunk, three hand-offs
        assert level.saving_seconds == pytest.approx(6 * HANDOFF_SECONDS)

    def test_level_parallel_iff_saving_exceeds_handoff(self):
        # Two kernels: the saving of a 2-way split is the lighter one.
        for lighter, want in ((0.9, False), (1.1, True)):
            pair = [info(0, writes=[0], cost=5 * HANDOFF_SECONDS),
                    info(1, writes=[1], cost=lighter * HANDOFF_SECONDS)]
            (level,) = analyze_wavefronts(pair, threads=2).levels
            assert level.parallel is want, lighter

    def test_serial_threads_never_parallel(self):
        rich = [info(i, writes=[i], cost=1.0) for i in range(4)]
        sched = analyze_wavefronts(rich, threads=1)
        assert not any(w.parallel for w in sched.levels)

    def test_index_mismatch_rejected(self):
        with pytest.raises(ValueError, match="stream position"):
            analyze_wavefronts([info(3)], threads=2)

    def test_partition_chunks_balanced_and_deterministic(self):
        items = list(range(6))
        costs = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        a = partition_chunks(items, costs, threads=2)
        b = partition_chunks(items, costs, threads=2)
        assert a == b
        chunks, saving = a
        assert len(chunks) == 2
        assert sorted(i for c in chunks for i in c) == items
        loads = [sum(costs[i] for i in c) for c in chunks]
        assert max(loads) <= 5.0  # the heavy item sits alone
        assert saving == pytest.approx(5.0 - HANDOFF_SECONDS)

    def test_partition_charges_each_chunk_a_handoff(self):
        # 4 x 1.0 s with a 0.6 s hand-off: two chunks save 2.0 - 0.6,
        # three save 2.0 - 1.2, four save 3.0 - 1.8 — two chunks win.
        chunks, saving = partition_chunks(
            [0, 1, 2, 3], [1.0] * 4, threads=4, handoff_seconds=0.6
        )
        assert len(chunks) == 2 and saving == pytest.approx(1.4)
        # At 2.5 s no chunk count buys its hand-offs back: one chunk.
        chunks, saving = partition_chunks(
            [0, 1, 2, 3], [1.0] * 4, threads=4, handoff_seconds=2.5
        )
        assert chunks == [[0, 1, 2, 3]] and saving == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(st.integers(0, 5000), min_size=1, max_size=9),
        threads=st.integers(1, 6),
        handoff=st.integers(0, 3000),
        scale=st.integers(1, 8),
        extra=st.integers(0, 3000),
    )
    def test_gate_is_monotone(self, costs, threads, handoff, scale, extra):
        """Scaling every cost up never turns a parallel level serial;
        raising the hand-off never turns a serial level parallel.
        (Integer-valued costs keep the float arithmetic exact.)"""
        items = list(range(len(costs)))

        def parallel(cs, h):
            chunks, saving = partition_chunks(
                items, [float(c) for c in cs], threads, float(h)
            )
            assert sorted(i for c in chunks for i in c) == items
            assert (saving > 0) == (len(chunks) > 1)
            return len(chunks) > 1

        base = parallel(costs, handoff)
        if base:
            assert parallel([c * scale for c in costs], handoff)
        else:
            assert not parallel(costs, handoff + extra)


class TestWorkerPool:
    def test_run_level_executes_all_chunks(self):
        pool = WorkerPool(2)
        try:
            regs = [0] * 6

            def writer(slots):
                def chunk(r):
                    for s in slots:
                        r[s] = s + 100
                return chunk

            pool.run_level([writer([0, 1]), writer([2, 3]), writer([4, 5])],
                           regs)
            assert regs == [100, 101, 102, 103, 104, 105]
        finally:
            pool.close()

    def test_worker_exception_propagates(self):
        pool = WorkerPool(1)
        try:
            def boom(_regs):
                raise ValueError("kernel exploded")

            with pytest.raises(ValueError, match="kernel exploded"):
                pool.run_level([lambda r: None, boom], [])
            # pool survives a failed level
            out = []
            pool.run_level([lambda r: out.append(1), lambda r: out.append(2)],
                           [])
            assert sorted(out) == [1, 2]
        finally:
            pool.close()

    def test_shared_pool_identity(self, monkeypatch):
        # Lift the process lane budget so distinct requests stay distinct
        # (on small hosts the clamp would collapse them into one pool).
        monkeypatch.setenv("REPRO_THREADS", "8")
        assert shared_pool(2) is shared_pool(2)
        assert shared_pool(2) is not shared_pool(3)

    def test_shared_pool_clamps_to_lane_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "3")
        pool = shared_pool(16)
        # 3 lanes = the caller + 2 workers; oversubscribed requests fold
        # into the budgeted pool (run_level queues the excess chunks).
        assert pool.num_workers == 2
        assert shared_pool(2) is pool

    def test_default_thread_count_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert default_thread_count() == 1
        monkeypatch.setenv("REPRO_THREADS", "4")
        assert default_thread_count() == 4
        monkeypatch.setenv("REPRO_THREADS", "garbage")
        assert default_thread_count() == 1


class TestForkSafety:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_runs_parallel_plan(self):
        """Regression: a forked child inherited the parent's shared pool —
        a queue whose worker threads exist only in the parent — and every
        parallel level hung until the launcher's timeout."""
        x = O.placeholder((6, 6), np.float64, name="fx")
        y = O.placeholder((6, 6), np.float64, name="fy")
        outs = [O.matmul(O.add(x, y), O.sub(x, y))]
        plan = CompiledPlan(schedule(outs), outs, Arena(), threads=2,
                            device=AboveGateDevice())
        assert plan.parallel_level_count > 0
        feeds = {"fx": np.arange(36.0).reshape(6, 6),
                 "fy": np.eye(6)}
        want = plan.run(feeds)[0].copy()  # the pool now exists and is warm

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
            assert recv_end.poll(30.0), "forked child hung in a parallel level"
            got = recv_end.recv()
        finally:
            if proc.is_alive() and not recv_end.poll(0):
                proc.terminate()
            proc.join(timeout=10.0)
        assert not proc.is_alive()
        assert np.array_equal(got, want)
        # ... and the parent's own pool is untouched.
        assert np.array_equal(plan.run(feeds)[0], want)


class TestHostSecondsGate:
    """The gate on real plans, priced by the plain analytic device."""

    def test_word_lm_harness_shape_stays_serial(self):
        # benchmarks/harness/spec.py WORDLM: every wide level is a handful
        # of 1-30 us LSTM-cell kernels (plus one pair of sub-millisecond
        # output-layer GEMMs) — nothing buys back a hand-off, so the
        # threads=2 plan *is* the serial batched plan.
        cfg = WordLmConfig(vocab_size=2000, embed_size=64, hidden_size=64,
                           num_layers=2, seq_len=20, batch_size=16)
        model = build_word_lm(cfg)
        outs = model.graph.outputs
        order = schedule(outs)
        gated = CompiledPlan(order, outs, Arena(), threads=2,
                             device=DeviceModel())
        serial = CompiledPlan(order, outs, Arena(), threads=1,
                              batch_gemms=True)
        assert gated.wavefront_level_count > 0
        assert gated.parallel_level_count == 0
        assert gated.gated_level_count > 100
        assert gated.wavefront_saving_seconds == 0.0
        assert gated._program is None
        assert gated.batched_gemm_groups == serial.batched_gemm_groups > 0
        assert gated.instruction_kinds == serial.instruction_kinds
        assert (gated._body.__code__.co_code
                == serial._body.__code__.co_code)
        assert gated.static_storage_bytes == serial.static_storage_bytes

    def test_large_independent_gemms_stay_parallel(self):
        # Four independent 512^3 sgemms (~2.7 ms each on the host
        # roofline): a 2-way split saves ~5 ms for one hand-off.
        rng = np.random.default_rng(0)
        x = O.placeholder((512, 512), np.float32, name="gx")
        ws = [O.variable((512, 512), np.float32, name=f"gw{i}")
              for i in range(4)]
        prods = [O.matmul(x, w) for w in ws]
        outs = [O.add(O.add(prods[0], prods[1]), O.add(prods[2], prods[3]))]
        order = schedule(outs)
        feeds = {"gx": rng.standard_normal((512, 512)).astype(np.float32)}
        params = {f"gw{i}": rng.standard_normal((512, 512)).astype(np.float32)
                  for i in range(4)}
        serial = CompiledPlan(order, outs, Arena(), threads=1)
        parallel = CompiledPlan(order, outs, Arena(), threads=2,
                                batch_gemms=False, device=DeviceModel())
        assert parallel.parallel_level_count >= 1
        assert parallel.wavefront_saving_seconds > 1e-3
        want = serial.run(feeds, params)[0]
        for _ in range(2):
            got = parallel.run(feeds, params)[0]
            assert got.dtype == want.dtype and np.array_equal(got, want)


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
    def test_nmt_attention_gemms_batched(self):
        model = build_nmt(SMALL_NMT)
        order = schedule(model.graph.outputs)
        plan = CompiledPlan(order, model.graph.outputs, Arena(),
                            batch_gemms=True)
        assert plan.batched_gemm_groups > 0
        assert plan.batched_gemm_nodes >= 2 * plan.batched_gemm_groups
        assert plan.instruction_kinds["batched"] == plan.batched_gemm_groups

    def test_batched_bitwise_equal_serial(self):
        model = build_nmt(SMALL_NMT)
        params = model.store.initialize(seed=1)
        feeds = nmt_feeds(SMALL_NMT)
        order = schedule(model.graph.outputs)
        plain = CompiledPlan(order, model.graph.outputs, Arena())
        batched = CompiledPlan(order, model.graph.outputs, Arena(),
                               batch_gemms=True)
        set_global_step(0)
        want = plain.run(feeds, params)
        for _ in range(3):
            set_global_step(0)
            got = batched.run(feeds, params)
            for a, b in zip(want, got):
                assert np.array_equal(a, b)

    def test_output_gemm_never_batched(self):
        x = O.placeholder((4, 4), np.float64, name="bx")
        w = O.variable((4, 4), np.float64, name="bw")
        outs = [O.matmul(x, w), O.matmul(w, x)]
        plan = CompiledPlan(schedule(outs), outs, Arena(), batch_gemms=True)
        assert plan.batched_gemm_groups == 0  # both escape as outputs
        got = plan.run({"bx": np.eye(4)}, {"bw": np.arange(16.0).reshape(4, 4)})
        assert np.array_equal(got[0], np.arange(16.0).reshape(4, 4))


class TestThreadKeyedPlanCache:
    def test_thread_config_is_part_of_the_key(self):
        model = build_word_lm(SMALL_LM)
        cache = PlanCache()
        arena = Arena()
        serial = GraphExecutor(model.graph.outputs, arena=arena,
                               plan_cache=cache, threads=1)
        parallel = GraphExecutor(model.graph.outputs, arena=arena,
                                 plan_cache=cache, threads=4)
        again = GraphExecutor(model.graph.outputs, arena=arena,
                              plan_cache=cache, threads=4)
        assert serial.plan is not parallel.plan
        assert parallel.plan is again.plan
        assert serial.plan.threads == 1
        assert parallel.plan.threads == 4


class TestParallelParity:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_word_lm_bitwise(self, threads):
        model = build_word_lm(SMALL_LM)
        params = model.store.initialize(seed=2)
        feeds = lm_feeds(SMALL_LM)
        serial = GraphExecutor(model.graph.outputs, plan_cache=PlanCache(),
                               threads=1)
        parallel = GraphExecutor(model.graph.outputs, plan_cache=PlanCache(),
                                 threads=threads, device=AboveGateDevice())
        assert parallel.plan.parallel_level_count > 0
        for _ in range(3):  # same dropout step sequence on both sides
            want = serial.run(feeds, params).outputs
            got = parallel.run(feeds, params).outputs
            for a, b in zip(want, got):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_nmt_bitwise(self):
        model = build_nmt(SMALL_NMT)
        params = model.store.initialize(seed=3)
        feeds = nmt_feeds(SMALL_NMT)
        serial = GraphExecutor(model.graph.outputs, plan_cache=PlanCache(),
                               threads=1)
        parallel = GraphExecutor(model.graph.outputs, plan_cache=PlanCache(),
                                 threads=4, device=AboveGateDevice())
        assert parallel.plan.parallel_level_count > 0
        for _ in range(3):
            want = serial.run(feeds, params).outputs
            got = parallel.run(feeds, params).outputs
            for a, b in zip(want, got):
                assert np.array_equal(a, b)

    def test_echo_fig13_parity_and_report_unchanged(self):
        """Fig. 13 configuration: Echo-rewritten NMT graph, parallel
        execution bitwise-identical and the pass report field-for-field
        independent of the thread config."""
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
        feeds = nmt_feeds(SMALL_NMT)
        serial = GraphExecutor(model_a.graph.outputs, plan_cache=PlanCache(),
                               threads=1)
        parallel = GraphExecutor(model_b.graph.outputs, plan_cache=PlanCache(),
                                 threads=4, device=AboveGateDevice())
        assert parallel.plan.parallel_level_count > 0
        for _ in range(2):
            want = serial.run(feeds, params).outputs
            got = parallel.run(feeds, params_b).outputs
            for a, b in zip(want, got):
                assert np.array_equal(a, b)

    def test_repro_threads_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "2")
        model = build_word_lm(SMALL_LM)
        ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        assert ex.threads == 2
        assert ex.plan.threads == 2


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
        # dropout is a generic (non-out=) instruction; its allocations go
        # through the locked counter under parallel execution.
        x = O.placeholder((64, 64), np.float64, name="dx")
        h = O.tanh(O.dropout(x, 0.4, seed=11))
        g = O.sigmoid(O.dropout(x, 0.4, seed=12))
        y = O.reduce_sum(O.add(h, g))
        from repro.autodiff import compile_training

        graph = compile_training(y, params={}, placeholders={"x": x})
        serial = GraphExecutor(graph.outputs, plan_cache=PlanCache(),
                               threads=1)
        parallel = GraphExecutor(graph.outputs, plan_cache=PlanCache(),
                                 threads=2, device=AboveGateDevice())
        assert parallel.plan.parallel_level_count > 0
        arr = np.random.default_rng(5).standard_normal((64, 64))
        for _ in range(3):
            want = serial.run({"dx": arr}).outputs
            got = parallel.run({"dx": arr}).outputs
            for a, b in zip(want, got):
                assert np.array_equal(a, b)


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
        model = build_nmt(SMALL_NMT)
        ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache(),
                           threads=4, device=AboveGateDevice())
        plan = ex.plan
        assert plan.wavefront_region_count >= 2  # forward + backward runs
        assert plan.wavefront_level_count > 0
        assert plan.max_wavefront_width > 1
        assert plan.parallel_level_count > 0
        assert plan.parallel_instruction_count > plan.parallel_level_count
        assert plan.gated_level_count == 0
        assert plan.wavefront_saving_seconds > 0

    def test_serial_plan_reports_zero(self):
        model = build_word_lm(SMALL_LM)
        ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache(),
                           threads=1)
        assert ex.plan.parallel_level_count == 0
        assert ex.plan.wavefront_level_count == 0
