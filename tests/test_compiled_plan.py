"""Tests for compiled execution plans: parity, fusion, arena, plan cache."""

import numpy as np
import pytest

import repro.ops as O
from repro.autodiff import compile_training
from repro.graph import Node, Op, TensorSpec
from repro.models import WordLmConfig, build_word_lm
from repro.runtime import (
    Arena,
    CompiledPlan,
    ExecutionError,
    GraphExecutor,
    NullPlanCache,
    PlanCache,
    TrainingExecutor,
    graph_signature,
    schedule,
)
from repro.runtime.lowering import _fuse_chains
from tests.helpers import AboveGateDevice, reference_run


def small_lm(dropout=0.0):
    cfg = WordLmConfig(
        vocab_size=60,
        embed_size=8,
        hidden_size=8,
        num_layers=2,
        seq_len=5,
        batch_size=3,
        dropout=dropout,
    )
    return build_word_lm(cfg)


def lm_feeds(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "tokens": rng.integers(0, cfg.vocab_size, (cfg.seq_len, cfg.batch_size)),
        "labels": rng.integers(-1, cfg.vocab_size, (cfg.seq_len, cfg.batch_size)),
    }


class TestParity:
    def test_bitwise_identical_to_interpreter(self):
        model = small_lm(dropout=0.3)
        params = model.store.initialize(seed=1)
        feeds = lm_feeds(model.config)
        compiled = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        for step in range(3):  # same dropout step sequence on both sides
            got = compiled.run(feeds, params).outputs
            want = reference_run(model.graph.outputs, feeds, params, step)
            assert len(got) == len(want)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_unfused_plan_matches_fused(self):
        model = small_lm()
        params = model.store.initialize(seed=2)
        feeds = lm_feeds(model.config)
        outputs = model.graph.outputs
        order = schedule(outputs)
        fused = CompiledPlan(order, outputs, Arena(), fuse=True)
        unfused = CompiledPlan(order, outputs, Arena(), fuse=False)
        assert fused.fused_chain_count > 0
        assert unfused.fused_chain_count == 0
        for a, b in zip(
            fused.run(feeds, params), unfused.run(feeds, params)
        ):
            assert np.array_equal(a, b)

    def test_training_executor_loss_and_grads(self):
        model = small_lm()
        params = model.store.initialize(seed=3)
        feeds = lm_feeds(model.config)
        ex = TrainingExecutor(model.graph)
        loss, grads, _ = ex.run(feeds, params)
        assert np.isfinite(loss)
        assert set(grads) == set(model.graph.grads)
        want = reference_run(model.graph.outputs, feeds, params)
        assert float(want[0]) == loss


class _NdarraySubclass(np.ndarray):
    pass


class _GenericView(Op):
    """A generic (non-``out=``) op whose ``compute`` hands back its input
    itself (``how="self"``) or a view of it (``how="view"``), or a result
    of the wrong shape (``how="bad-shape"``)."""

    name = "test_generic_view"

    def infer_specs(self, node):
        (a,) = node.inputs
        return [TensorSpec(a.shape, a.dtype)]

    def compute(self, node, inputs):
        (a,) = inputs
        how = node.attrs["how"]
        if how == "self":
            return [a]
        if how == "view":
            return [a[...]]
        return [a[:1]]


def _generic_view(x, how):
    return Node(_GenericView(), [x], attrs={"how": how}).out()


class TestGenericStep:
    """Contracts of the one instruction kind that calls ``compute``."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("how", ["self", "view"])
    def test_result_aliasing_a_static_input_is_detached(self, how, threads):
        x = O.placeholder((4, 3), np.float64, name="gx")
        a = O.mul_scalar(x, 2.0)
        v = _generic_view(a, how)
        # ``a`` dies at the generic step; ``w`` is then packed into a's
        # storage and overwrites it (unfused, so ``w`` is a static buffer)
        w = O.add(v, x)
        e = O.tanh(w)
        plan = CompiledPlan(
            schedule([v, e]), [v, e], fuse=False, threads=threads
        )
        low = plan.lowering
        a_slot, w_slot = low.slot_of[a.key], low.slot_of[w.key]
        assert np.may_share_memory(
            low.static_views[low.root[a_slot]],
            low.static_views[low.root[w_slot]],
        )
        assert [d["node"] for d in low.descs if d["kind"] == "generic"] == [
            v.node
        ]
        feed = np.arange(12, dtype=np.float64).reshape(4, 3)
        for scale in (1.0, 3.0):  # steady state, not only the first run
            got_v, got_e = plan.run({"gx": feed * scale})
            assert np.array_equal(got_v, 2.0 * scale * feed)
            assert np.array_equal(got_e, np.tanh(3.0 * scale * feed))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wrong_output_shape_names_node_and_specs(self, threads):
        x = O.placeholder((4, 3), np.float64, name="gx")
        v = _generic_view(O.mul_scalar(x, 2.0), "bad-shape")
        plan = CompiledPlan(schedule([v]), [v], threads=threads)
        msg = (
            f"{v.node.name} output 0: kernel produced shape (1, 3), "
            "spec says (4, 3)"
        )
        with pytest.raises(ExecutionError) as err:
            plan.run({"gx": np.ones((4, 3))})
        assert str(err.value) == msg


class TestErrorContract:
    def test_missing_placeholder(self):
        x = O.placeholder((2, 2), np.float64, name="px")
        y = O.add(x, x)
        ex = GraphExecutor([y], plan_cache=PlanCache())
        with pytest.raises(ExecutionError, match="placeholder 'px' was not bound"):
            ex.run({})

    def test_shape_mismatch_on_feed(self):
        x = O.placeholder((2, 2), np.float64, name="px")
        y = O.add(x, x)
        ex = GraphExecutor([y], plan_cache=PlanCache())
        with pytest.raises(ExecutionError, match="bound shape"):
            ex.run({"px": np.zeros((3, 3))})

    def test_missing_variable(self):
        w = O.variable((2,), np.float64, name="vw")
        y = O.mul(w, w)
        ex = GraphExecutor([y], plan_cache=PlanCache())
        with pytest.raises(ExecutionError, match="variable 'vw' was not bound"):
            ex.run({}, {})

    @pytest.mark.parametrize("case", [
        "float64-into-float32", "list", "ndarray-subclass", "feeds-none",
        "shape-reassigned",
    ])
    def test_binder_contract(self, case):
        """Only an exact ``ndarray`` of the declared shape and dtype skips
        ``bind_source``; everything else is converted or refused as before,
        and nothing is cached from one run to the next."""
        x = O.placeholder((2, 3), np.float32, name="bx")
        w = O.variable((2, 3), np.float32, name="bw")
        y = O.mul(O.add_scalar(x, 0.5), w)
        # the sources themselves are outputs: the plan returns what it bound
        plan = CompiledPlan(schedule([y, x, w]), [y, x, w])
        value = np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0
        weight = np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3)
        exact = value.astype(np.float32)
        want = plan.run({"bx": exact}, {"bw": weight})
        assert want[1] is exact and want[2] is weight

        if case == "feeds-none":
            with pytest.raises(ExecutionError,
                               match="placeholder 'bx' was not bound"):
                plan.run(None, {"bw": weight})
            return
        if case == "shape-reassigned":
            plan.run({"bx": exact}, {"bw": weight})
            weight.shape = (3, 2)  # same object, new shape
            with pytest.raises(ExecutionError,
                               match=r"variable 'bw': bound shape \(3, 2\)"):
                plan.run({"bx": exact}, {"bw": weight})
            return
        fed = {
            "float64-into-float32": value,
            "list": exact.tolist(),
            "ndarray-subclass": exact.view(_NdarraySubclass),
        }[case]
        got = plan.run({"bx": fed}, {"bw": weight})
        assert type(got[1]) is np.ndarray and got[1].dtype == np.float32
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


class TestFusion:
    def test_chain_collapses_to_one_instruction(self):
        x = O.placeholder((4, 4), np.float64, name="x")
        y = O.tanh(O.mul_scalar(O.add_scalar(x, 1.0), 2.0))
        plan = CompiledPlan(schedule([y]), [y])
        assert plan.fused_chain_count == 1
        assert plan.fused_node_count == 3
        got = plan.run({"x": np.ones((4, 4))})
        want = np.tanh((np.ones((4, 4)) + 1.0) * 2.0)
        assert np.array_equal(got[0], want)

    def test_fanout_node_stays_materialized(self):
        x = O.placeholder((4,), np.float64, name="x")
        a = O.add_scalar(x, 1.0)
        y = O.add(O.tanh(a), a)  # a has two consumers: never absorbed
        plan = CompiledPlan(schedule([y]), [y])
        # tanh may fuse into add, but the fanout node a must keep a slot
        # (it is read again after tanh consumes it).
        assert (a.node.uid, 0) in plan._slot_of
        arr = np.arange(4.0)
        got = plan.run({"x": arr})
        assert np.array_equal(got[0], np.tanh(arr + 1.0) + (arr + 1.0))

    def test_graph_output_not_absorbed(self):
        x = O.placeholder((4,), np.float64, name="x")
        a = O.add_scalar(x, 1.0)
        y = O.tanh(a)
        plan = CompiledPlan(schedule([a, y]), [a, y])
        assert plan.fused_node_count == 0
        arr = np.arange(4.0)
        got = plan.run({"x": arr})
        assert np.array_equal(got[0], arr + 1.0)
        assert np.array_equal(got[1], np.tanh(arr + 1.0))

    def test_fusion_never_crosses_stage(self):
        model = small_lm()
        ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        for step in ex.plan._steps:
            if getattr(step, "_fused", False):
                # every fused instruction's members share one stage
                pass  # structural guarantee checked at compile; smoke only
        # explicit check on the compiled chains:
        plan = ex.plan
        chains = _fuse_chains(
            [
                n
                for n in plan.order
                if n.op.name not in ("placeholder", "variable", "constant")
            ],
            {t.key for t in plan.outputs},
        )
        for chain in chains:
            assert len({n.stage for n in chain}) == 1


class TestArena:
    def test_steady_state_allocates_only_outputs(self):
        model = small_lm(dropout=0.2)
        params = model.store.initialize(seed=4)
        feeds = lm_feeds(model.config)
        ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        for _ in range(3):  # warm the arena
            ex.run(feeds, params)
        arena, plan = ex.arena, ex.plan
        fresh0, generic0 = arena.fresh_count, plan.generic_alloc_count
        ex.run(feeds, params)
        fresh = arena.fresh_count - fresh0
        generic = plan.generic_alloc_count - generic0
        # Fresh arena buffers per iteration are bounded by the escaping
        # outputs; generic allocations by the few non-out= kernels
        # (dropout's two results, the scalar loss).
        assert fresh <= len(model.graph.outputs)
        assert generic <= 8
        # Every other intermediate writes into one of the plan's static
        # buffers, assigned once at compile time by packing live intervals
        # into the arena's extent.
        assert plan.static_slot_count > 10 * (fresh + generic)
        assert plan.static_storage_bytes > 0

    def test_outputs_not_recycled_across_iterations(self):
        x = O.placeholder((3,), np.float64, name="x")
        y = O.mul_scalar(O.add_scalar(x, 1.0), 3.0)
        ex = GraphExecutor([y], plan_cache=PlanCache())
        first = ex.run({"x": np.zeros(3)}).outputs[0]
        snapshot = first.copy()
        ex.run({"x": np.full(3, 9.0)})
        assert np.array_equal(first, snapshot)

    def test_zero_byte_tensors(self):
        x = O.placeholder((0, 4), np.float64, name="x")
        y = O.reduce_sum(O.mul_scalar(x, 2.0))
        ex = GraphExecutor([y], plan_cache=PlanCache())
        out = ex.run({"x": np.zeros((0, 4))}).outputs[0]
        assert float(out) == 0.0
        assert ex.arena.zero_byte_count > 0


class TestPlanCache:
    def test_same_graph_shares_plan(self):
        model = small_lm()
        cache = PlanCache()
        arena = Arena()
        a = GraphExecutor(model.graph.outputs, arena=arena, plan_cache=cache)
        b = GraphExecutor(model.graph.outputs, arena=arena, plan_cache=cache)
        assert a.plan is b.plan
        assert cache.hits >= 3  # schedule, memory plan, compiled plan

    def test_different_arena_different_plan(self):
        model = small_lm()
        cache = PlanCache()
        a = GraphExecutor(model.graph.outputs, arena=Arena(), plan_cache=cache)
        b = GraphExecutor(model.graph.outputs, arena=Arena(), plan_cache=cache)
        assert a.plan is not b.plan

    def test_signature_tracks_priority_rewrites(self):
        x = O.placeholder((2,), np.float64, name="x")
        y = O.add_scalar(x, 1.0)
        sig0 = graph_signature([y])
        assert graph_signature([y]) == sig0
        y.node.priority += 1
        try:
            assert graph_signature([y]) != sig0
        finally:
            y.node.priority -= 1
        assert graph_signature([y]) == sig0

    def test_null_cache_never_retains(self):
        model = small_lm()
        cache = NullPlanCache()
        a = GraphExecutor(model.graph.outputs, plan_cache=cache)
        b = GraphExecutor(model.graph.outputs, plan_cache=cache)
        assert a.plan is not b.plan
        assert cache.hits == 0

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.memo("a", lambda: 1)
        cache.memo("b", lambda: 2)
        cache.memo("c", lambda: 3)
        assert cache.memo("a", lambda: -1) == -1  # evicted, rebuilt


class TestTrainingParity:
    def test_two_steps_of_sgd_match_interpreter(self):
        from repro.train.optimizer import SGD

        model_a = small_lm()
        model_b = small_lm()
        params_a = model_a.store.initialize(seed=5)
        params_b = model_b.store.initialize(seed=5)
        feeds = lm_feeds(model_a.config)
        opt_a, opt_b = SGD(0.1), SGD(0.1)

        ex_a = GraphExecutor(model_a.graph.outputs, plan_cache=PlanCache())
        names = list(model_a.graph.grads)
        for step in range(2):
            out_a = ex_a.run(feeds, params_a).outputs
            out_b = reference_run(
                model_b.graph.outputs, feeds, params_b, step
            )
            ga = dict(zip(names, out_a[1:]))
            gb = dict(zip(names, out_b[1:]))
            opt_a.update(params_a, ga)
            opt_b.update(params_b, gb)
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])


class TestEchoCompiledParity:
    def test_echo_rewritten_graph_runs_compiled(self):
        from repro.echo import EchoConfig, optimize

        model = small_lm()
        report = optimize(
            model.graph, EchoConfig(), plan_cache=PlanCache()
        )
        assert report.optimized_peak_bytes <= report.baseline_peak_bytes
        params = model.store.initialize(seed=6)
        feeds = lm_feeds(model.config)
        ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        got = ex.run(feeds, params).outputs
        want = reference_run(model.graph.outputs, feeds, params)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


class TestDeterminism:
    def test_dropout_steps_advance_identically(self):
        x = O.placeholder((8, 8), np.float64, name="x")
        y = O.reduce_sum(O.dropout(x, 0.5, seed=7))
        graph = compile_training(y, params={}, placeholders={"x": x})
        a = GraphExecutor(graph.outputs, plan_cache=PlanCache())
        arr = np.ones((8, 8))
        r1 = [float(a.run({"x": arr}).outputs[0]) for _ in range(3)]
        r2 = [
            float(reference_run(graph.outputs, {"x": arr}, step=step)[0])
            for step in range(3)
        ]
        assert r1 == r2
        assert len(set(r1)) > 1  # the mask really advances with the step


class TestTemplatedCodegen:
    """Closures are instantiated from source-keyed templates: slot numbers,
    shapes and byte counts are default-argument values, not literals."""

    @pytest.fixture
    def fresh_memo(self, monkeypatch):
        """An empty process memo plus a count of real ``compile`` calls."""
        import repro.runtime.codegen as codegen_mod

        memo = codegen_mod.TemplateMemo()
        monkeypatch.setattr(codegen_mod, "TEMPLATES", memo)
        compiles = []

        def spy(src, filename, mode):
            compiles.append(filename)
            return compile(src, filename, mode)

        # a module global shadows the builtin for this module only
        monkeypatch.setattr(codegen_mod, "compile", spy, raising=False)
        return memo, compiles

    def test_four_nmt_buckets_share_templates(self, fresh_memo):
        from repro.data import BucketSpec
        from repro.models import NmtConfig
        from repro.nn import Backend
        from repro.train import Adam
        from repro.train.bucketed import BucketedTrainer

        memo, compiles = fresh_memo
        cfg = NmtConfig(
            src_vocab_size=50, tgt_vocab_size=50, embed_size=8,
            hidden_size=8, encoder_layers=1, decoder_layers=1,
            batch_size=2, backend=Backend.CUDNN,
        )
        buckets = tuple(
            BucketSpec(s, t) for s, t in ((4, 6), (8, 10), (12, 14), (16, 16))
        )

        def build(which):
            bt = BucketedTrainer(cfg, which, Adam(1e-3), echo=True, threads=1)
            return [bt.trainer_for(b).executor.executor.plan for b in which]

        plans = build(buckets)
        # generated instruction closures, plus one dispatch body and one
        # binder per plan
        generated = 2 * len(plans) + sum(
            s.__code__.co_filename == "<compiled-plan>"
            for p in plans for s in p._steps
        )
        assert generated > 2000
        assert 0 < len(compiles) <= 200
        assert set(compiles) == {"<compiled-plan>"}
        assert len(compiles) == len(memo.codes)
        assert len(compiles) == sum(p.templates_compiled for p in plans)
        assert sum(p.template_hits for p in plans) == (
            generated - len(compiles)
        )

        del compiles[:]
        (again,) = build(buckets[-1:])
        assert compiles == [] and again.templates_compiled == 0
        assert again.template_hits > 0

    def test_same_form_instructions_share_one_code_object(self):
        model = small_lm()
        ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())
        generated = [
            s for s in ex.plan._steps
            if s.__code__.co_filename == "<compiled-plan>"
        ]
        assert len(generated) > 50
        by_code = {}
        for step in generated:
            by_code.setdefault(step.__code__, []).append(step.__defaults__)
        assert len(by_code) * 4 < len(generated)
        # one code object, different bound slots/buffers per instruction
        assert any(
            len({tuple(map(id, d)) for d in bound}) > 1
            for bound in by_code.values()
        )
        assert ex.plan._body.__code__.co_filename == "<compiled-plan>"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_echo_plan_parity_and_certification(self, threads):
        from repro.echo import optimize

        model = small_lm(dropout=0.2)
        cache = PlanCache()
        optimize(model.graph, plan_cache=cache)
        params = model.store.initialize(seed=9)
        feeds = lm_feeds(model.config)
        ex = GraphExecutor(
            model.graph.outputs, plan_cache=cache, threads=threads,
            device=AboveGateDevice(),
        )
        assert (ex.plan.parallel_level_count > 0) == (threads > 1)
        assert ex.verify(equiv=True).ok
        for step in range(2):  # same dropout step sequence on both sides
            got = ex.run(feeds, params).outputs
            want = reference_run(model.graph.outputs, feeds, params, step)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_memo_is_bounded_first_in_first_out(self):
        from repro.runtime.codegen import TemplateMemo

        memo = TemplateMemo(limit=3)
        sources = [f"def step(regs, _v{i}):\n    return _v{i}\n"
                   for i in range(5)]
        for src in sources:
            assert memo.compile(src).co_name == "step"
        assert list(memo.codes) == sources[-3:]

    def test_memo_survives_concurrent_compiles(self):
        import sys
        import threading
        from types import FunctionType

        from repro.runtime.codegen import TemplateMemo

        memo = TemplateMemo(limit=8)
        sources = [f"def step(regs, _v{i}):\n    return regs + {i}\n"
                   for i in range(24)]
        failures = []

        def worker(offset):
            try:
                for k in range(300):
                    i = (offset + k) % len(sources)
                    try:
                        code = memo.codes[sources[i]]
                    except KeyError:
                        code = memo.compile(sources[i])
                    fn = FunctionType(code, {}, "step", (None,))
                    if fn(1) != 1 + i or len(memo.codes) > memo.limit:
                        failures.append((offset, k))
            except Exception as exc:  # surfaced below, not lost in a thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(3 * t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
