"""Tests for the Echo pass: mining, rewriting, and its guarantees.

The two load-bearing properties, tested end-to-end on real models:
1. numerics are bitwise identical with and without the pass;
2. the measured peak footprint never increases (and drops substantially
   on attention models).
"""

import numpy as np
import pytest

import repro.ops as O
from repro.autodiff import compile_training
from repro.echo import (
    EchoConfig,
    EchoPass,
    mine_candidates,
    optimize,
    stashed_tensors,
)
from repro.echo.baselines import recompute_all, sublinear_checkpoint
from repro.graph import Stage, scope
from repro.gpumodel import DeviceModel
from repro.models import NmtConfig, build_nmt
from repro.nn import Backend
from repro.runtime import (
    PlanCache,
    TrainingExecutor,
    schedule,
    validate_schedule,
)


def _o_shape_graph(batch=8, seq=16, hidden=32, steps=4):
    """A multi-step O-shape, like the decoder's attention: each step has a
    small GEMM input and a [B x T x H] cheap interior; the interiors of all
    steps are stashed simultaneously at the forward/backward boundary,
    which is what recomputation eliminates. (A single-step region has an
    irreducible peak — its interior is live at its own backward moment —
    and Echo's verify-replan correctly rejects it.)"""
    queries = [
        O.placeholder((batch, hidden), name=f"q{t}") for t in range(steps)
    ]
    keys = O.placeholder((batch, seq, hidden), name="keys")
    w = O.variable((hidden, hidden), name="w")
    v = O.variable((1, hidden), name="v")
    score_sum = None
    for t in range(steps):
        with scope("attention"):
            q_proj = O.fully_connected(queries[t], w)
            combined = O.add(O.expand_dims(q_proj, 1), keys)  # interior
            activated = O.tanh(combined)  # interior
            flat = O.reshape(activated, (batch * seq, hidden))
            scores = O.fully_connected(flat, v)
        score_sum = scores if score_sum is None else O.add(score_sum, scores)
    loss = O.reduce_mean(score_sum)
    placeholders = {f"q{t}": q for t, q in enumerate(queries)}
    placeholders["keys"] = keys
    return compile_training(loss, {"w": w, "v": v}, placeholders)


def _tiny_nmt(backend=Backend.CUDNN, seed=0):
    cfg = NmtConfig(
        src_vocab_size=80, tgt_vocab_size=80, embed_size=24, hidden_size=24,
        encoder_layers=1, decoder_layers=1, src_len=8, tgt_len=8,
        batch_size=4, backend=backend,
    )
    model = build_nmt(cfg)
    rng = np.random.default_rng(seed)
    feeds = {
        "src_tokens": rng.integers(3, 80, (8, 4)),
        "tgt_tokens": rng.integers(3, 80, (8, 4)),
        "tgt_labels": rng.integers(3, 80, (8, 4)),
    }
    return model, feeds


class TestStashDetection:
    def test_tanh_output_is_stashed(self):
        tg = _o_shape_graph()
        order = schedule(tg.outputs)
        stashes = stashed_tensors(order, {t.key for t in tg.outputs})
        stashed_ops = {t.node.op.name for t in stashes.values()}
        assert "tanh" in stashed_ops

    def test_placeholders_never_stashed(self):
        tg = _o_shape_graph()
        order = schedule(tg.outputs)
        stashes = stashed_tensors(order, {t.key for t in tg.outputs})
        assert all(
            t.node.op.name not in ("placeholder", "variable")
            for t in stashes.values()
        )


class TestCandidateMining:
    def test_finds_o_shape(self):
        tg = _o_shape_graph()
        order = schedule(tg.outputs)
        cands = mine_candidates(order, {t.key for t in tg.outputs},
                                device=DeviceModel())
        best = max(cands, key=lambda c: c.benefit_bytes)
        assert best.is_o_shape
        # interior is B*T*H floats, at least twice (combined + activated)
        assert best.eliminated_bytes >= 2 * 8 * 16 * 32 * 4

    def test_no_gemm_in_candidates_by_default(self):
        tg = _o_shape_graph()
        order = schedule(tg.outputs)
        cands = mine_candidates(order, {t.key for t in tg.outputs})
        for cand in cands:
            assert all(
                n.op.name not in ("matmul", "fully_connected", "batch_dot")
                for n in cand.nodes
            )

    def test_allow_gemm_expands_regions(self):
        tg = _o_shape_graph()
        order = schedule(tg.outputs)
        keys = {t.key for t in tg.outputs}
        without = mine_candidates(order, keys)
        with_gemm = mine_candidates(order, keys, allow_gemm=True)
        assert all(
            n.op.name != "fully_connected"
            for c in without for n in c.nodes
        )
        assert any(
            n.op.name == "fully_connected"
            for c in with_gemm for n in c.nodes
        )


#: Generous budget for micro-graphs, whose fixed per-kernel costs dwarf
#: their (tiny) iteration time; these tests target the rewrite mechanics.
_LOOSE = EchoConfig(overhead_budget_fraction=0.5)


class TestEchoRewrite:
    def test_footprint_decreases(self):
        tg = _o_shape_graph()
        before = TrainingExecutor(tg).peak_bytes
        report = optimize(tg, _LOOSE)
        after = TrainingExecutor(tg).peak_bytes
        assert after < before
        assert report.optimized_peak_bytes == after
        assert report.baseline_peak_bytes == before

    def test_schedule_remains_valid(self):
        tg = _o_shape_graph()
        optimize(tg, _LOOSE)
        validate_schedule(schedule(tg.outputs))

    def test_mirror_nodes_tagged(self):
        tg = _o_shape_graph()
        report = optimize(tg, _LOOSE)
        assert report.accepted
        order = schedule(tg.outputs)
        mirrors = [n for n in order if n.stage is Stage.RECOMPUTE]
        assert mirrors
        assert all(m.mirror_of is not None for m in mirrors)
        assert all(m.op is m.mirror_of.op for m in mirrors)

    def test_bitwise_identical_results(self):
        model, feeds = _tiny_nmt()
        params = model.store.initialize()
        l0, g0, _ = TrainingExecutor(model.graph).run(feeds, params)
        report = optimize(model.graph)
        assert report.accepted, "pass should fire on an attention model"
        l1, g1, _ = TrainingExecutor(model.graph).run(feeds, params)
        assert l0 == l1
        for name in g0:
            np.testing.assert_array_equal(g0[name], g1[name])

    def test_bitwise_identical_with_dropout(self):
        cfg = NmtConfig(
            src_vocab_size=80, tgt_vocab_size=80, embed_size=24,
            hidden_size=24, encoder_layers=1, decoder_layers=1,
            src_len=8, tgt_len=8, batch_size=4, dropout=0.3,
            backend=Backend.CUDNN,
        )
        model = build_nmt(cfg)
        rng = np.random.default_rng(1)
        feeds = {
            "src_tokens": rng.integers(3, 80, (8, 4)),
            "tgt_tokens": rng.integers(3, 80, (8, 4)),
            "tgt_labels": rng.integers(3, 80, (8, 4)),
        }
        params = model.store.initialize()
        ex0 = TrainingExecutor(model.graph)
        l0, _, _ = ex0.run(feeds, params)
        optimize(model.graph)
        ex1 = TrainingExecutor(model.graph)
        l1, _, _ = ex1.run(feeds, params)
        # Executors advance the dropout stream identically (fresh ones
        # both start at iteration 0), so losses must match exactly.
        assert l0 == l1

    def test_overhead_within_budget(self):
        model, _ = _tiny_nmt()
        config = EchoConfig(overhead_budget_fraction=0.05)
        report = EchoPass(config).run(model.graph)
        assert report.overhead_fraction <= 0.05 + 1e-9

    def test_zero_budget_accepts_only_free_candidates(self):
        model, _ = _tiny_nmt()
        config = EchoConfig(overhead_budget_fraction=0.0)
        report = EchoPass(config).run(model.graph)
        # With zero budget, anything accepted must have zero marginal cost
        # (hidden entirely in the non-binding stream's slack).
        assert report.overhead_fraction == 0.0

    def test_attention_fraction_collapses_on_nmt(self):
        cfg = NmtConfig(
            src_vocab_size=200, tgt_vocab_size=200, embed_size=64,
            hidden_size=64, encoder_layers=1, decoder_layers=1,
            src_len=16, tgt_len=16, batch_size=16, backend=Backend.CUDNN,
        )
        model = build_nmt(cfg)
        plan_before = TrainingExecutor(model.graph).memory_plan
        att_before = plan_before.scope_breakdown().get("attention", 0)
        optimize(model.graph)
        plan_after = TrainingExecutor(model.graph).memory_plan
        att_after = plan_after.scope_breakdown().get("attention", 0)
        assert att_after < att_before / 3

    def test_pass_is_rerunnable_noop(self):
        """Second run finds nothing big: stashes are already eliminated."""
        tg = _o_shape_graph()
        first = optimize(tg, _LOOSE)
        second = optimize(tg, _LOOSE)
        assert second.bytes_saved <= first.bytes_saved
        assert second.optimized_peak_bytes <= first.optimized_peak_bytes


class TestWorkspaceSharing:
    def test_eager_scheduling_spikes_workspace(self):
        """The Section 4.1.2 ablation: hoisting all recompute to the start
        of the backward pass makes mirror outputs coexist."""
        model_shared, _ = _tiny_nmt(seed=2)
        model_eager, _ = _tiny_nmt(seed=2)
        shared = EchoPass(EchoConfig(workspace_sharing=True)).run(
            model_shared.graph
        )
        eager = EchoPass(EchoConfig(workspace_sharing=False)).run(
            model_eager.graph
        )
        assert shared.optimized_peak_bytes <= eager.optimized_peak_bytes

    def test_eager_rollback_never_worse_than_baseline(self):
        model, _ = _tiny_nmt(seed=3)
        report = EchoPass(EchoConfig(workspace_sharing=False)).run(model.graph)
        # hoisted mirrors raise the peak, so the guard really fires here
        assert report.rolled_back > 0
        assert report.optimized_peak_bytes <= report.baseline_peak_bytes


class TestBaselines:
    def test_sublinear_checkpoint_saves_memory(self):
        model, feeds = _tiny_nmt(seed=4)
        params = model.store.initialize()
        l0, g0, _ = TrainingExecutor(model.graph).run(feeds, params)
        report = sublinear_checkpoint(model.graph)
        assert report.optimized_peak_bytes < report.baseline_peak_bytes
        l1, g1, _ = TrainingExecutor(model.graph).run(feeds, params)
        assert l0 == l1
        for name in g0:
            np.testing.assert_array_equal(g0[name], g1[name])

    def test_sublinear_costs_more_time_than_echo(self):
        m1, _ = _tiny_nmt(seed=5)
        m2, _ = _tiny_nmt(seed=5)
        echo = optimize(m1.graph)
        chen = sublinear_checkpoint(m2.graph)
        assert chen.overhead_fraction > echo.overhead_fraction

    def test_recompute_all_saves_at_least_as_much_as_echo(self):
        m1, _ = _tiny_nmt(seed=6)
        m2, _ = _tiny_nmt(seed=6)
        echo = optimize(m1.graph)
        extreme = recompute_all(m2.graph)
        assert extreme.optimized_peak_bytes <= echo.optimized_peak_bytes * 1.05


class TestPlanOncePerGraphState:
    """The pass, the executor built after it and ``verify`` derive each
    fact of a graph state once: one topological walk, one signature, one
    liveness sweep, at most one cost per node — and only the lowered
    stream is packed."""

    @pytest.fixture
    def spied_build(self, monkeypatch):
        import repro.graph.facts as facts_mod
        import repro.memplan.planner as planner_mod
        import repro.runtime.memory as memory_mod
        import repro.runtime.plancache as plancache_mod
        from repro.gpumodel import DeviceModel

        packs, walks, records, sweeps, priced = [], [], [], [], []

        def spy_pack(requests, *args):
            result = real_pack(requests, *args)
            packs.append(result)
            return result

        def spy_walk(outputs):
            walks.append(1)
            return real_walk(outputs)

        def spy_record(self, *args, **kwargs):
            real_record(self, *args, **kwargs)
            records.append(self.signature)

        def spy_sweep(order, outputs):
            sweeps.append(1)
            return real_sweep(order, outputs)

        def spy_cost(self, node):
            priced.append(node.uid)
            return real_cost(self, node)

        real_pack = planner_mod.pack_intervals
        real_walk = facts_mod.topo_order
        real_record = facts_mod.GraphFacts.__init__
        real_sweep = memory_mod.schedule_liveness
        real_cost = DeviceModel.node_cost
        monkeypatch.setattr(planner_mod, "pack_intervals", spy_pack)
        monkeypatch.setattr(facts_mod, "topo_order", spy_walk)
        monkeypatch.setattr(facts_mod.GraphFacts, "__init__", spy_record)
        for mod in (memory_mod, plancache_mod):
            monkeypatch.setattr(mod, "schedule_liveness", spy_sweep)
        monkeypatch.setattr(DeviceModel, "node_cost", spy_cost)

        model, _ = _tiny_nmt(seed=7)
        cache = PlanCache(store=None)
        device = DeviceModel()
        report = EchoPass(device=device, plan_cache=cache).run(model.graph)
        training = TrainingExecutor(
            model.graph, device=device, plan_cache=cache, threads=1
        )
        training.simulate_cost()
        assert training.executor.verify(equiv=True).ok
        return report, packs, (walks, records, sweeps, priced)

    def test_each_fact_once_per_graph_state(self, spied_build):
        report, packs, (walks, records, sweeps, priced) = spied_build
        assert report.accepted  # both graph states really were planned
        assert report.rolled_back == 0
        # the Echo states are scored by their waterline: only the lowered
        # stream of the executor built afterwards is packed
        assert len(packs) == 1
        # the two Echo states; the executor, its pinned-gradient memory
        # plan, its timings and verify all read the second state's record
        assert len(walks) == 2
        assert len(records) == 2 and records[0] != records[1]
        assert len(sweeps) == 2
        assert len(priced) == len(set(priced))

    def test_report_carries_the_scored_footprints(self, spied_build):
        report, _, _ = spied_build
        # the guard's score is each state's memory-plan waterline, and the
        # report carries exactly those plans and peaks
        assert report.baseline_peak_bytes == report.baseline_plan.peak_bytes
        assert report.optimized_peak_bytes == report.optimized_plan.peak_bytes
        assert report.baseline_plan is not report.optimized_plan
        assert report.optimized_peak_bytes < report.baseline_peak_bytes


class TestConfigValidation:
    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            EchoConfig(overhead_budget_fraction=1.5)

    def test_negative_min_benefit_rejected(self):
        with pytest.raises(ValueError):
            EchoConfig(min_benefit_bytes=-1)
