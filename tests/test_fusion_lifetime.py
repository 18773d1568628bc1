"""Fusion never lengthens a live range (serial lowering).

* **the invariant** — a fused plan never plans more bytes than the
  unfused plan of the same schedule, on the harness shapes (its waterline
  always; its packed static storage on every harness plan but one NMT
  bucket, where the packer misses) and, in its structural form, on a
  T-step shared-weight graph (at most two of the weight's gradient
  partials are ever live);
* **parity** — ``[matmul -> add]``, ``[fully_connected -> add]`` and
  ``[batch_dot -> add]`` chains execute bitwise like
  ``tests.helpers.reference_run`` and certify, Echo on and off;
* **the checkers still bite** — a corrupted GEMM-head witness is EQ603, a
  failing head kernel is blamed on the GEMM node, a GEMM head never takes
  over an input's storage;
* the satellites that ride on the same stream: the in-place loss
  gradient, the scope guard and the dead register clears.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import repro.ops as O
from repro.analysis import check_equivalence
from repro.analysis.packing import check_packing
from repro.autodiff import compile_training
from repro.echo import optimize
from repro.gpumodel import DeviceModel
from repro.layout.layouts import Layout
from repro.memplan.elision import inplace_positions
from repro.models import NmtConfig, WordLmConfig, build_nmt, build_word_lm
from repro.nn import Backend
from repro.ops.matmul import MatMulOp
from repro.runtime import (
    Arena,
    CompiledPlan,
    ExecutionError,
    GraphExecutor,
    PlanCache,
    TrainingExecutor,
    schedule,
)
from tests.helpers import reference_run
from tests.test_compile_linear import (
    HARNESS_WORDLM,
    _compiled,
    _nmt_graph,
    _wordlm_graph,
)

GEMMS = ("matmul", "batch_dot", "fully_connected")

#: sizes chosen so each weight's gradient partials have a byte count no
#: other tensor of the graph has
STEPS, BATCH, IN, HIDDEN = 6, 4, 6, 10


def _rnn_graph(bias=True, layout=Layout.ROW_MAJOR, steps=STEPS):
    """h_t = tanh(fc(x_t, Wx[, b]) + fc(h_{t-1}, Wh)) over shared weights."""
    wx = O.variable((HIDDEN, IN), np.float64, name="wx")
    wh = O.variable((HIDDEN, HIDDEN), np.float64, name="wh")
    params = {"wx": wx, "wh": wh}
    b = None
    if bias:
        b = params["b"] = O.variable((HIDDEN,), np.float64, name="b")
    h = O.placeholder((BATCH, HIDDEN), np.float64, name="h0")
    places = {"h0": h}
    for t in range(steps):
        x = places[f"x{t}"] = O.placeholder((BATCH, IN), np.float64,
                                            name=f"x{t}")
        h = O.tanh(O.add(O.fully_connected(x, wx, b, layout=layout),
                         O.fully_connected(h, wh, layout=layout)))
    return compile_training(O.reduce_mean(O.mul(h, h)), params, places)


def _bindings(graph, seed=0):
    rng = np.random.default_rng(seed)
    feeds = {n: rng.standard_normal(t.shape) for n, t in
             graph.placeholders.items()}
    params = {n: rng.standard_normal(t.shape) for n, t in
              graph.params.items()}
    return feeds, params


def _fused(plan):
    """Instruction index -> op names of its members, per fused instruction."""
    return {
        i: tuple(member.op.name for _op, member, _p in d["chain"])
        for i, d in enumerate(plan.lowering.descs) if d["kind"] == "fused"
    }


def _chains(plan):
    return list(_fused(plan).values())


def _assert_matches_reference(ex, outputs, feeds, params, steps=2):
    for step in range(steps):
        got = ex.run(feeds, params).outputs
        want = reference_run(outputs, feeds, params, step)
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# -- the invariant -----------------------------------------------------------


class TestFusionNeverPlansMore:
    @pytest.mark.parametrize("echo", [True, False])
    @pytest.mark.parametrize("model", ["nmt16", "wordlm"])
    def test_harness_shapes(self, model, echo):
        graph = _nmt_graph() if model == "nmt16" else _wordlm_graph()
        if echo:
            _, training, _ = _compiled(graph)
        else:
            training = TrainingExecutor(
                graph, device=DeviceModel(), plan_cache=PlanCache(store=None)
            )
        order, outputs = training.executor.order, training.executor.outputs
        fused = CompiledPlan(order, outputs, Arena(), fuse=True)
        unfused = CompiledPlan(order, outputs, Arena(), fuse=False)
        assert fused.fused_chain_count > 0
        assert fused.planned_peak_bytes <= unfused.planned_peak_bytes
        assert fused.num_instructions < unfused.num_instructions

    @pytest.mark.parametrize("shape", [
        pytest.param(
            ("nmt", 4, 6), id="nmt4x6",
            marks=pytest.mark.xfail(strict=True, reason=(
                "the packer places the fused plan at 3 284 992 B against "
                "3 227 648 B unfused: 107 520 B over the plan's waterline "
                "of 3 177 472 B (ROADMAP item 3)"
            )),
        ),
        pytest.param(("nmt", 8, 10), id="nmt8x10"),
        pytest.param(("nmt", 12, 14), id="nmt12x14"),
        pytest.param(("nmt", 16, 16), id="nmt16x16"),
        pytest.param(("wordlm", 16), id="wordlm-b16"),
        pytest.param(("wordlm", 8), id="wordlm-b8"),
    ])
    def test_fusion_never_costs_static_bytes(self, shape):
        """The harness plans, Echo on: the NMT buckets, the word-LM and
        the word-LM at the batch of one of ``wordlm_dist2``'s two ranks."""
        if shape[0] == "nmt":
            graph = _nmt_graph(src_len=shape[1], tgt_len=shape[2])
        else:
            cfg = WordLmConfig(backend=Backend.DEFAULT, **HARNESS_WORDLM)
            graph = build_word_lm(replace(cfg, batch_size=shape[1])).graph
        _, training, _ = _compiled(graph)
        ex = training.executor
        fused = CompiledPlan(ex.order, ex.outputs, Arena(), fuse=True)
        unfused = CompiledPlan(ex.order, ex.outputs, Arena(), fuse=False)
        assert fused.static_storage_bytes == ex.plan.static_storage_bytes
        assert fused.static_storage_bytes <= unfused.static_storage_bytes

    def test_at_most_two_gradient_partials_live(self):
        graph = _rnn_graph()
        plan = CompiledPlan(schedule(graph.outputs), graph.outputs, Arena())
        assert ("matmul", "add") in _chains(plan)
        placements = plan.lowering.memplan.placements
        for weight in ("wx", "wh"):
            nbytes = graph.params[weight].nbytes
            spans = [(lo, hi) for lo, hi, _off, size in placements.values()
                     if size == nbytes]
            # every step but the last leaves one partial sum behind (the
            # last one is the gradient itself, which escapes the plan)
            assert len(spans) >= STEPS - 1
            for idx in range(len(plan.lowering.descs)):
                live = sum(lo <= idx <= hi for lo, hi in spans)
                assert live <= 2, (weight, idx, live)


# -- parity and certification ------------------------------------------------


class TestGemmHeadChains:
    @pytest.mark.parametrize("echo", [False, True])
    @pytest.mark.parametrize("layout", [Layout.ROW_MAJOR, Layout.COL_MAJOR])
    @pytest.mark.parametrize("bias", [True, False])
    def test_fully_connected_and_matmul_heads(self, bias, layout, echo):
        graph = _rnn_graph(bias, layout)
        cache = PlanCache()
        if echo:
            optimize(graph, plan_cache=cache)
        ex = GraphExecutor(graph.outputs, plan_cache=cache)
        chains = _chains(ex.plan)
        assert ("fully_connected", "add", "tanh") in chains
        assert ("matmul", "add") in chains
        assert ex.verify(equiv=True).ok
        _assert_matches_reference(ex, graph.outputs, *_bindings(graph))

    @pytest.mark.parametrize("echo", [False, True])
    def test_batch_dot_heads_in_attention(self, echo):
        cfg = NmtConfig(
            src_vocab_size=80, tgt_vocab_size=80, embed_size=24,
            hidden_size=24, encoder_layers=1, decoder_layers=1, src_len=8,
            tgt_len=8, batch_size=4, backend=Backend.CUDNN,
        )
        model = build_nmt(cfg)
        cache = PlanCache()
        if echo:
            assert optimize(model.graph, plan_cache=cache).accepted
        ex = GraphExecutor(model.graph.outputs, plan_cache=cache)
        heads = {chain[0] for chain in _chains(ex.plan)}
        assert set(GEMMS) <= heads
        assert ex.verify(equiv=True).ok
        rng = np.random.default_rng(3)
        feeds = {name: rng.integers(3, 80, (8, 4)) for name in
                 ("src_tokens", "tgt_tokens", "tgt_labels")}
        params = model.store.initialize(seed=3)
        _assert_matches_reference(ex, model.graph.outputs, feeds, params)

    def test_last_scheduled_producer_takes_the_consumer(self):
        x = O.placeholder((4, 4), np.float64, name="x")
        early = O.tanh(x)
        late = O.matmul(O.sigmoid(x), x)
        y = O.add(early, late)
        order = schedule([y])
        names = [n.op.name for n in order]
        assert names.index("tanh") < names.index("matmul")
        plan = CompiledPlan(order, [y], Arena())
        assert _chains(plan) == [("matmul", "add")]
        arr = np.random.default_rng(0).standard_normal((4, 4))
        assert np.array_equal(plan.run({"x": arr})[0],
                              reference_run([y], {"x": arr})[0])

    def test_gemm_head_never_takes_over_an_input(self):
        # sigmoid(x) dies at the matmul and has exactly the output's
        # shape and dtype: an elementwise head would write over it.
        x = O.placeholder((4, 4), np.float64, name="x")
        y = O.add(x, O.matmul(O.sigmoid(x), x))
        loss = O.reduce_mean(y)
        plan = CompiledPlan(schedule([loss]), [loss], Arena())
        low = plan.lowering
        ((idx, names),) = _fused(plan).items()
        assert names == ("matmul", "add")
        assert inplace_positions(low.descs[idx]) == []
        assert all(w.instr != idx for w in low.witnesses.inplace)
        out = low.descs[idx]["out_slots"][0]
        assert low.root[out] == out
        assert check_packing(plan) == []

    def test_gemms_stay_free_standing_outside_the_serial_lowering(self):
        """Outside the fused serial lowering (``fuse=False``) every GEMM
        is a step of its own, and the bits are the same."""
        graph = _rnn_graph()
        order = schedule(graph.outputs)
        serial = CompiledPlan(order, graph.outputs, Arena())
        other = CompiledPlan(order, graph.outputs, Arena(), fuse=False)
        assert any(chain[0] in GEMMS for chain in _chains(serial))
        assert _chains(other) == []
        gemms = [n for n in order if n.op.name in GEMMS]
        alone = [d["node"] for d in other.lowering.descs
                 if d["kind"] == "out" and d["node"].op.name in GEMMS]
        assert gemms and alone == gemms
        feeds, params = _bindings(graph)
        for a, b in zip(serial.run(feeds, params), other.run(feeds, params)):
            assert np.array_equal(a, b)


# -- the checkers are not vacuous for the new form ---------------------------


def _gemm_head_plan():
    graph = _rnn_graph()
    plan = CompiledPlan(schedule(graph.outputs), graph.outputs, Arena())
    idx = next(i for i, names in _fused(plan).items()
               if names == ("matmul", "add"))
    return graph, plan, idx


class TestCheckersOnGemmHeads:
    def test_clean(self):
        _graph, plan, _idx = _gemm_head_plan()
        assert check_equivalence(plan) == []

    def test_eq603_head_dropped_from_witness(self):
        _graph, plan, idx = _gemm_head_plan()
        fusions = plan.lowering.witnesses.fusions
        w = fusions[idx]
        fusions[idx] = dataclasses.replace(w, members=w.members[1:])
        fs = check_equivalence(plan)
        assert {f.code for f in fs} == {"EQ603"}
        assert [f.instr for f in fs] == [idx]

    def test_eq603_wrong_tail(self):
        _graph, plan, idx = _gemm_head_plan()
        fusions = plan.lowering.witnesses.fusions
        w = fusions[idx]
        fusions[idx] = dataclasses.replace(w, tail_uid=w.members[0])
        fs = check_equivalence(plan)
        assert {f.code for f in fs} == {"EQ603"}
        assert [f.instr for f in fs] == [idx]

    def test_failing_head_kernel_is_blamed_on_the_gemm_node(
        self, monkeypatch
    ):
        graph, plan, idx = _gemm_head_plan()
        head = plan.lowering.descs[idx]["chain"][0][1]
        tail = plan.lowering.descs[idx]["node"]
        assert head is not tail and tail.op.name == "add"
        compute, kernel = MatMulOp.compute, MatMulOp.kernel

        def fail(*_args):
            raise FloatingPointError("injected GEMM failure")

        def failing_compute(self, node, inputs):
            return (fail if node is head else compute)(self, node, inputs)

        def failing_kernel(self, node):
            return fail if node is head else kernel(self, node)

        monkeypatch.setattr(MatMulOp, "compute", failing_compute)
        monkeypatch.setattr(MatMulOp, "kernel", failing_kernel)
        # a plan binds its kernels when it is baked
        plan = CompiledPlan(plan.order, plan.outputs, Arena())
        with pytest.raises(ExecutionError) as err:
            plan.run(*_bindings(graph))
        assert repr(head) in str(err.value)
        assert "injected GEMM failure" in str(err.value)
        assert repr(tail) not in str(err.value)


# -- in-place loss gradient --------------------------------------------------


def _loss_grad_node(n=6, v=9, ignore_label=-1):
    logits = O.placeholder((n, v), np.float32, name="lg")
    labels = O.placeholder((n,), np.int64, name="lb")
    w = O.variable((n, v), np.float32, name="lw")
    loss = O.softmax_cross_entropy(O.mul(logits, w), labels, ignore_label)
    graph = compile_training(loss, {"lw": w}, {"lg": logits, "lb": labels})
    (node,) = [n_ for n_ in graph.nodes()
               if n_.op.name == "softmax_cross_entropy_grad"]
    return graph, node


class TestInplaceLossGradient:
    def test_merge_is_recorded_and_certified(self):
        graph, node = _loss_grad_node()
        ex = GraphExecutor(graph.outputs, plan_cache=PlanCache())
        low = ex.plan.lowering
        (idx,) = [i for i, d in enumerate(low.descs) if d["node"] is node]
        (rec,) = [r for r in low.memplan.inplace if r["instr"] == idx]
        assert rec["target"] == low.descs[idx]["in_slots"][0]
        assert low.root[rec["out"]] == rec["root"]
        assert check_packing(ex.plan) == []
        assert ex.verify(equiv=True).ok
        rng = np.random.default_rng(5)
        feeds = {"lg": rng.standard_normal((6, 9)).astype(np.float32),
                 "lb": np.asarray([0, -1, 8, 2, -1, 1])}
        params = {"lw": rng.standard_normal((6, 9)).astype(np.float32)}
        _assert_matches_reference(ex, graph.outputs, feeds, params)

    def test_merge_refused_when_the_logits_escape(self):
        graph, node = _loss_grad_node()
        logits = node.inputs[0]
        outputs = [*graph.outputs, logits]
        ex = GraphExecutor(outputs, plan_cache=PlanCache())
        low = ex.plan.lowering
        (idx,) = [i for i, d in enumerate(low.descs) if d["node"] is node]
        assert all(r["instr"] != idx for r in low.memplan.inplace)
        assert check_packing(ex.plan) == []
        rng = np.random.default_rng(6)
        feeds = {"lg": rng.standard_normal((6, 9)).astype(np.float32),
                 "lb": np.asarray([0, 3, 8, 2, 5, 1])}
        params = {"lw": rng.standard_normal((6, 9)).astype(np.float32)}
        _assert_matches_reference(ex, outputs, feeds, params)


# -- dead register clears ----------------------------------------------------


class TestRegisterClears:
    def test_only_dynamic_roots_are_cleared(self):
        graph = _wordlm_graph(4)
        ex = GraphExecutor(graph.outputs, plan_cache=PlanCache())
        plan, low = ex.plan, ex.plan.lowering
        dying = {s for fs in low.frees_at.values() for s, _r, _rel in fs}
        static = {s for s in dying if low.root[s] in low.static_views}
        views = {s for s in static if low.root[s] != s}
        assert views, "fixture must have views of static buffers"
        dynamic = dying - static
        assert dynamic, "fixture must have a generic-op intermediate"
        rng = np.random.default_rng(7)
        feeds = {name: rng.integers(0, 2000, t.shape)
                 for name, t in graph.placeholders.items()}
        params = {name: rng.standard_normal(t.shape).astype(t.dtype)
                  for name, t in graph.params.items()}
        regs_seen = []
        outs = plan.run(feeds, params,
                        on_item=lambda _i, regs: regs_seen.append(regs))
        (regs,) = regs_seen
        # past their last consumer, per-run arrays are dropped ...
        assert all(regs[s] is None for s in dynamic)
        # ... and headers over static storage are simply left behind
        assert all(regs[s] is not None for s in static)
        # what run() hands back is what the plan computed, not a copy
        for i, arr in enumerate(outs):
            assert arr is plan.output_value(regs, i)
        want = reference_run(graph.outputs, feeds, params)
        for a, b in zip(want, outs):
            assert np.array_equal(a, b)
