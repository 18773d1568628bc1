"""Unit tests for Echo's analysis internals: stash detection, candidate
mining details, the stream-aware cost accounting, and rewrite mechanics."""

import pytest

import repro.ops as O
from repro.autodiff import compile_training
from repro.echo.analysis import (
    IterationCost,
    is_recompute_cheap,
    mine_candidates,
    stashed_tensors,
)
from repro.echo.rewrite import (
    AppliedCandidate,
    ConsumerIndex,
    apply_candidate,
)
from repro.graph import GraphFacts, Stage, scope
from repro.gpumodel import DeviceModel
from repro.runtime import schedule


def _simple_graph():
    x = O.placeholder((4, 8), name="ea_x")
    w = O.variable((8, 8), name="ea_w")
    h = O.tanh(O.fully_connected(x, w))
    loss = O.reduce_mean(O.mul(h, h))
    return compile_training(loss, {"ea_w": w}, {"ea_x": x})


class TestIterationCost:
    def test_bound_by_larger_stream(self):
        cost = IterationCost(kernel_seconds=10.0, api_seconds=4.0)
        assert cost.seconds == 10.0

    def test_marginal_free_in_slack(self):
        """Extra API work below the kernel stream costs nothing."""
        cost = IterationCost(kernel_seconds=10.0, api_seconds=4.0)
        assert cost.marginal(0.0, 5.0) == 0.0

    def test_marginal_binding_stream(self):
        cost = IterationCost(kernel_seconds=10.0, api_seconds=4.0)
        assert cost.marginal(3.0, 0.0) == pytest.approx(3.0)

    def test_marginal_crossover(self):
        """API work that overflows the slack pays only the overflow."""
        cost = IterationCost(kernel_seconds=10.0, api_seconds=4.0)
        assert cost.marginal(0.0, 8.0) == pytest.approx(2.0)


class TestStashDetection:
    def test_mul_inputs_stashed(self):
        tg = _simple_graph()
        order = schedule(tg.outputs)
        stashes = stashed_tensors(order, {t.key for t in tg.outputs})
        ops = {t.node.op.name for t in stashes.values()}
        assert "tanh" in ops  # read by both mul backward and tanh_grad

    def test_inference_graph_has_no_stashes(self):
        x = O.placeholder((4, 8), name="ea_inf")
        y = O.tanh(x)
        order = schedule([y])
        assert stashed_tensors(order, {y.key}) == {}

    def test_outputs_excluded(self):
        tg = _simple_graph()
        order = schedule(tg.outputs)
        output_keys = {t.key for t in tg.outputs}
        stashes = stashed_tensors(order, output_keys)
        assert not (set(stashes) & output_keys)


class TestCheapness:
    def test_elementwise_cheap_gemm_not(self):
        x = O.placeholder((4, 8), name="ea_c")
        w = O.variable((8, 8), name="ea_cw")
        fc = O.fully_connected(x, w)
        act = O.tanh(fc)
        assert is_recompute_cheap(act.node, allow_gemm=False)
        assert not is_recompute_cheap(fc.node, allow_gemm=False)
        assert is_recompute_cheap(fc.node, allow_gemm=True)

    def test_sources_never_cheap(self):
        x = O.placeholder((4,), name="ea_s")
        assert not is_recompute_cheap(x.node, allow_gemm=True)

    def test_backward_nodes_never_cheap(self):
        tg = _simple_graph()
        for node in tg.nodes():
            if node.stage is Stage.BACKWARD:
                assert not is_recompute_cheap(node, allow_gemm=True)


class TestMiningDetails:
    def _attention_like(self, steps=3):
        keys_raw = O.placeholder((4, 6, 8), name="ea_keys")
        w = O.variable((8, 8), name="ea_mw")
        v = O.variable((1, 8), name="ea_mv")
        keys = O.tanh(keys_raw)  # cheap node with fanout = steps
        total = None
        for t in range(steps):
            q = O.placeholder((4, 8), name=f"ea_q{t}")
            interior = O.tanh(O.add(O.expand_dims(
                O.fully_connected(q, w), 1), keys))
            flat = O.reshape(interior, (24, 8))
            # GEMM border before the accumulation chain, as in the real
            # model: the per-step regions must not fuse through the loss.
            term = O.reduce_sum(O.fully_connected(flat, v))
            total = term if total is None else O.add(total, term)
        ph = {"ea_keys": keys_raw}
        from repro.graph import topo_order

        for node in topo_order([total]):
            if node.op.name == "placeholder":
                ph[node.name] = node.out()
        return compile_training(total, {"ea_mw": w, "ea_mv": v}, ph)

    def test_fanout_limit_splits_regions(self):
        tg = self._attention_like(steps=5)
        order = schedule(tg.outputs)
        keys = {t.key for t in tg.outputs}
        split = mine_candidates(order, keys, fanout_limit=3)
        merged = mine_candidates(order, keys, fanout_limit=100)
        assert len(split) > len(merged)

    def test_candidate_costs_populated_with_device(self):
        tg = self._attention_like()
        order = schedule(tg.outputs)
        cands = mine_candidates(order, {t.key for t in tg.outputs},
                                device=DeviceModel())
        big = max(cands, key=lambda c: c.eliminated_bytes)
        assert big.kernel_seconds > 0
        assert big.api_seconds > 0
        assert big.recompute_seconds == pytest.approx(
            big.kernel_seconds + big.api_seconds
        )

    def test_candidate_costs_zero_without_device(self):
        tg = self._attention_like()
        order = schedule(tg.outputs)
        cands = mine_candidates(order, {t.key for t in tg.outputs})
        assert all(c.recompute_seconds == 0 for c in cands)

    def test_nodes_topologically_ordered_within_candidate(self):
        tg = self._attention_like()
        order = schedule(tg.outputs)
        position = {n.uid: i for i, n in enumerate(order)}
        for cand in mine_candidates(order, {t.key for t in tg.outputs}):
            positions = [position[n.uid] for n in cand.nodes]
            assert positions == sorted(positions)


class TestRewriteMechanics:
    def _one_candidate(self):
        tg = TestMiningDetails()._attention_like(steps=3)
        order = schedule(tg.outputs)
        keys = {t.key for t in tg.outputs}
        cands = mine_candidates(order, keys, device=DeviceModel())
        cand = max(cands, key=lambda c: c.benefit_bytes)
        return tg, ConsumerIndex(order, GraphFacts(tg.outputs)), keys, cand

    def test_mirrors_scheduled_after_forward(self):
        tg, index, keys, cand = self._one_candidate()
        apply_candidate(cand, index, keys)
        new_order = schedule(tg.outputs)
        stage_seq = [n.stage for n in new_order
                     if n.op.name not in ("placeholder", "variable",
                                          "constant")]
        first_recompute = stage_seq.index(Stage.RECOMPUTE)
        assert Stage.FORWARD not in stage_seq[first_recompute:]

    def test_rollback_restores_graph_exactly(self):
        tg, index, keys, cand = self._one_candidate()
        order = index.order
        inputs_before = {
            n.uid: n.inputs for n in order if n.stage is Stage.BACKWARD
        }
        applied = apply_candidate(cand, index, keys)
        assert isinstance(applied, AppliedCandidate)
        changed = [
            uid for uid, ins in inputs_before.items()
            if any(n.uid == uid and n.inputs != ins for n in order)
        ]
        assert changed, "rewrite should have re-pointed someone"
        applied.rollback()
        for node in order:
            if node.stage is Stage.BACKWARD:
                assert node.inputs == inputs_before[node.uid]
        # No RECOMPUTE nodes remain reachable.
        assert all(
            n.stage is not Stage.RECOMPUTE for n in schedule(tg.outputs)
        )

    def test_mirror_scope_preserved(self):
        x = O.placeholder((8, 16, 32), name="ms_x")
        w = O.variable((32, 32), name="ms_w")
        v = O.variable((1, 32), name="ms_v")
        total = None
        for t in range(4):
            q = O.placeholder((8, 32), name=f"ms_q{t}")
            with scope("attention"):
                interior = O.tanh(
                    O.add(O.expand_dims(O.fully_connected(q, w), 1), x)
                )
            flat = O.reshape(interior, (8 * 16, 32))
            term = O.reduce_sum(O.fully_connected(flat, v))
            total = term if total is None else O.add(total, term)
        ph = {"ms_x": x}
        from repro.graph import topo_order

        for node in topo_order([total]):
            if node.op.name == "placeholder":
                ph[node.name] = node.out()
        tg = compile_training(total, {"ms_w": w, "ms_v": v}, ph)
        from repro.echo import EchoConfig, optimize

        optimize(tg, EchoConfig(overhead_budget_fraction=0.5))
        mirrors = [n for n in schedule(tg.outputs)
                   if n.stage is Stage.RECOMPUTE]
        assert mirrors
        assert all(m.scope == m.mirror_of.scope for m in mirrors)
