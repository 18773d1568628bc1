"""Tests for the scheduler, memory planner, and executor."""

from dataclasses import replace

import numpy as np
import pytest

import repro.ops as O
from repro.autodiff import compile_training
from repro.graph import Stage
from repro.runtime import (
    Category,
    ExecutionError,
    GraphExecutor,
    TrainingExecutor,
    plan_memory,
    schedule,
    validate_schedule,
)


def _small_training_graph(batch=4, hidden=8, classes=5):
    x = O.placeholder((batch, hidden), name="x")
    labels = O.placeholder((batch,), dtype=np.int64, name="labels")
    w = O.variable((classes, hidden), name="w")
    b = O.variable((classes,), name="b")
    logits = O.fully_connected(O.tanh(x), w, b)
    loss = O.softmax_cross_entropy(logits, labels)
    return compile_training(loss, {"w": w, "b": b}, {"x": x, "labels": labels})


class TestScheduler:
    def test_schedule_is_topological(self):
        tg = _small_training_graph()
        order = schedule(tg.outputs)
        validate_schedule(order)

    def test_forward_before_backward_boundary(self):
        tg = _small_training_graph()
        order = schedule(tg.outputs)
        stages = [n.stage for n in order if n.op.name not in
                  ("placeholder", "variable", "constant")]
        first_bwd = stages.index(Stage.BACKWARD)
        assert all(s is Stage.FORWARD for s in stages[:first_bwd])

    def test_priority_respected_among_ready(self):
        a = O.placeholder((2,), name="p_a")
        b = O.tanh(a)
        c = O.sigmoid(a)
        d = O.add(b, c)
        # Lower c's priority below b's: c should still run after a but
        # before b despite later creation.
        c.node.priority = b.node.priority - 0.5
        order = schedule([d])
        names = [n.uid for n in order]
        assert names.index(c.node.uid) < names.index(b.node.uid)


class TestMemoryPlan:
    def test_feature_map_classification(self):
        tg = _small_training_graph()
        order = schedule(tg.outputs)
        plan = plan_memory(order, tg.outputs)
        # tanh output is consumed by fully_connected (fwd) AND by the
        # backward matmuls -> feature map.
        tanh_nodes = [n for n in order if n.op.name == "tanh"]
        assert len(tanh_nodes) == 1
        life = plan.lifetimes[(tanh_nodes[0].uid, 0)]
        assert life.category is Category.FEATURE_MAP

    def test_peak_at_least_pinned(self):
        tg = _small_training_graph()
        order = schedule(tg.outputs)
        plan = plan_memory(order, tg.outputs)
        pinned = sum(
            t.nbytes for t in list(tg.params.values())
            + list(tg.placeholders.values())
        )
        assert plan.peak_bytes >= pinned

    def test_timeline_peak_consistency(self):
        tg = _small_training_graph()
        order = schedule(tg.outputs)
        plan = plan_memory(order, tg.outputs)
        assert max(plan.timeline) == plan.peak_bytes
        assert plan.timeline[plan.peak_step] == plan.peak_bytes

    def test_categories_sum_to_peak(self):
        tg = _small_training_graph()
        order = schedule(tg.outputs)
        plan = plan_memory(order, tg.outputs)
        assert sum(plan.peak_by_category.values()) == plan.peak_bytes

    def test_gradient_pinning(self):
        tg = _small_training_graph()
        ex = TrainingExecutor(tg)
        grads_cat = [
            ex.memory_plan.lifetimes[g.key].category
            for g in tg.grads.values()
        ]
        assert all(c is Category.GRADIENT for c in grads_cat)


class TestExecutor:
    def test_missing_feed_raises(self):
        tg = _small_training_graph()
        ex = TrainingExecutor(tg)
        with pytest.raises(ExecutionError, match="was not bound"):
            ex.run({}, {})

    def test_wrong_shape_raises(self):
        tg = _small_training_graph()
        ex = TrainingExecutor(tg)
        feeds = {"x": np.zeros((4, 9), np.float32),
                 "labels": np.zeros(4, np.int64)}
        params = {"w": np.zeros((5, 8), np.float32),
                  "b": np.zeros(5, np.float32)}
        with pytest.raises(ExecutionError, match="shape"):
            ex.run(feeds, params)

    def test_training_step_decreases_loss(self):
        tg = _small_training_graph()
        ex = TrainingExecutor(tg)
        gen = np.random.default_rng(1)
        params = {
            "w": gen.standard_normal((5, 8)).astype(np.float32) * 0.1,
            "b": np.zeros(5, np.float32),
        }
        feeds = {
            "x": gen.standard_normal((4, 8)).astype(np.float32),
            "labels": gen.integers(0, 5, 4),
        }
        loss0, grads, _ = ex.run(feeds, params)
        for name in params:
            params[name] = params[name] - 0.5 * grads[name]
        loss1, _, _ = ex.run(feeds, params)
        assert loss1 < loss0

    def test_deterministic_across_runs(self):
        tg = _small_training_graph()
        ex = TrainingExecutor(tg)
        gen = np.random.default_rng(2)
        params = {"w": gen.standard_normal((5, 8)).astype(np.float32),
                  "b": np.zeros(5, np.float32)}
        feeds = {"x": gen.standard_normal((4, 8)).astype(np.float32),
                 "labels": gen.integers(0, 5, 4)}
        l1, g1, _ = ex.run(feeds, params)
        l2, g2, _ = ex.run(feeds, params)
        assert l1 == l2
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_simulated_timing_collection(self):
        from repro.gpumodel import DeviceModel

        tg = _small_training_graph()
        ex = TrainingExecutor(tg, device=DeviceModel())
        result = ex.simulate_cost()
        assert result.sim_seconds > 0
        assert result.sim_api_seconds > 0
        assert result.dram_bytes > 0

    def test_dropout_step_advances_but_same_step_reproducible(self):
        x = O.placeholder((32, 32), name="do_x")
        y = O.reduce_sum(O.dropout(x, 0.5, seed=7))
        ex = GraphExecutor([y])
        arr = np.ones((32, 32), np.float32)
        v1 = float(ex.run({"do_x": arr}).outputs[0])
        v2 = float(ex.run({"do_x": arr}).outputs[0])
        assert v1 != v2  # different iterations -> different masks

    def test_memory_freed_during_execution(self):
        # A long chain should keep only O(1) values alive at a time.
        x = O.placeholder((64, 64), name="chain_x")
        y = x
        for _ in range(50):
            y = O.tanh(y)
        ex = GraphExecutor([O.reduce_sum(y)])
        plan = ex.memory_plan
        one = 64 * 64 * 4
        # peak should be a few buffers, nowhere near 50 of them
        assert plan.peak_bytes < 6 * one


class TestPlanWithoutCompiling:
    """Costing an executor lowers nothing and takes no arena extent; the
    compiled plan exists from the first ``run`` / ``verify`` / ``compile``."""

    def test_costing_never_compiles(self, monkeypatch):
        import repro.backends.microbench as microbench
        import repro.experiments.common as common
        from repro.experiments import ECHO, ZHU_T50, measure_nmt
        from repro.nn import Backend

        built = []

        def recording(*args, **kwargs):
            built.append(TrainingExecutor(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(common, "TrainingExecutor", recording)
        monkeypatch.setattr(microbench, "TrainingExecutor", recording)
        small = replace(
            ZHU_T50, src_len=4, tgt_len=4, batch_size=3, hidden_size=24,
            embed_size=24, src_vocab_size=50, tgt_vocab_size=50,
        )
        assert measure_nmt(small, ECHO).total_bytes > 0
        result = microbench.benchmark_lstm(4, 16, 1, 3, Backend.ECHO)
        assert result.total_seconds > 0
        assert len(built) == 2
        for ex in built:
            assert "plan" not in vars(ex.executor)
            assert ex.executor.arena.fresh_bytes == 0
            assert ex.executor.arena.held_bytes == 0
        # ... and the same executor still runs: first use compiles.
        plan = built[1].executor.compile()
        assert built[1].executor.plan is plan
        assert built[1].executor.arena.fresh_bytes > 0

    def test_footprint_explorer_example_returns(self, capsys):
        """The batch-size sweep plans B=2048 graphs; compiling them asked
        the host for a 16 GiB extent."""
        import runpy
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples"
        ns = runpy.run_path(str(example / "footprint_explorer.py"))
        ns["main"]()
        assert "largest fitting batch" in capsys.readouterr().out
