"""Translation validation: the symbolic equivalence certifier (EQ6xx).

Three layers of evidence:

* a **clean matrix** — every pass combination ({echo on/off} x {fusion
  on/off}) certifies with zero EQ findings AND executes
  bitwise-identically to the arena-free ``reference_run``;
* a **mutation corpus** — ten seeded semantic defects, each injected
  into a freshly compiled plan and each caught by exactly the expected
  EQ code with no cascade noise;
* a **hypothesis property** — random training graphs through random
  pass combinations certify clean.

The corpus mutates the compiler's own working records (the lowering's
descriptors reference the same Node objects as the graph, so defects are
injected by swapping in clones, corrupting witnesses, or editing the
lowering — never by editing a node both sides would see).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ops as O
from repro.analysis import AnalysisReport, InplaceWitness, check_equivalence
from repro.analysis.equiv import SymbolicTable, fingerprint_outputs
from repro.analysis.findings import CODES, Severity, finding
from repro.analysis.lint import list_codes
from repro.autodiff import compile_training
from repro.echo.pass_ import EchoPass
from repro.echo.rewrite import _clone_as_mirror
from repro.graph import Stage, Tensor
from repro.memplan.elision import inplace_positions
from repro.models import WordLmConfig, build_word_lm
from repro.nn import Backend
from repro.ops.dropout import set_global_step
from repro.runtime import (
    Arena,
    CompiledPlan,
    PlanCache,
    TrainingExecutor,
    schedule,
)
from tests.helpers import reference_run


def _codes(findings):
    return {f.code for f in findings}


def _mlp_graph():
    """Training MLP with a seeded dropout: fused chains, real backward."""
    x = O.placeholder((8, 16), name="x")
    y = O.placeholder((8, 4), name="y")
    w1 = O.variable((12, 16), name="w1")
    w2 = O.variable((4, 12), name="w2")
    h = O.tanh(O.fully_connected(x, w1))
    h = O.dropout(h, 0.5, seed=O.stable_seed("equiv", 0))
    p = O.fully_connected(h, w2)
    loss = O.reduce_mean(O.mul(O.sub(p, y), O.sub(p, y)))
    return compile_training(loss, {"w1": w1, "w2": w2}, {"x": x, "y": y})


def _mlp_plan(**kw):
    tg = _mlp_graph()
    outs = tg.outputs
    order = schedule(outs)
    return CompiledPlan(order, outs, Arena(), **kw), order, outs


def _aliased_plan():
    """split + partial slice_axis: two alias instructions."""
    x = O.placeholder((8, 16), name="vx")
    lo, hi = O.split(x, 2, axis=0)
    s = O.slice_axis(x, 0, 0, 4)
    outputs = [
        O.reduce_mean(O.concat([O.tanh(lo), O.sigmoid(hi)], 0)),
        O.reduce_mean(O.relu(s)),
    ]
    order = schedule(outputs)
    plan = CompiledPlan(order, outputs, Arena(), fuse=False)
    assert plan.lowering.witnesses.aliases, "fixture must elide"
    return plan


def _mirrored_plan():
    """Hand-built Echo-style rewrite: dropout mirrored into the backward."""
    x = O.placeholder((8, 8), name="mx")
    fwd = O.dropout(x, 0.5, seed=O.stable_seed("mirror", 1)).node
    mirror = _clone_as_mirror(fwd, {})
    grad = O.mul(Tensor(mirror, 1), x)
    grad.node.stage = Stage.BACKWARD
    order = [x.node, fwd, mirror, grad.node]
    outputs = [Tensor(grad.node, 0)]
    plan = CompiledPlan(order, outputs, Arena(), fuse=False)
    return plan, fwd, mirror


def _clone_node(node, **extra_attrs):
    """A same-op clone with perturbed attrs (a fresh uid, no mirror)."""
    from repro.graph.node import Node, _NODE_COUNTER

    clone = Node.__new__(Node)
    clone.uid = next(_NODE_COUNTER)
    clone.op = node.op
    clone.inputs = node.inputs
    clone.attrs = dict(node.attrs)
    clone.attrs.update(extra_attrs)
    clone.name = f"{node.name}__mutant"
    clone.stage = node.stage
    clone.scope = node.scope
    clone.out_specs = node.out_specs
    clone.mirror_of = None
    clone.priority = node.priority
    return clone


class TestCleanMatrix:
    def test_all_pass_combinations_certify_and_match_bitwise(self):
        rng = np.random.default_rng(0)
        feeds = {
            "x": rng.standard_normal((8, 16)).astype(np.float32),
            "y": rng.standard_normal((8, 4)).astype(np.float32),
        }
        params = {
            "w1": rng.standard_normal((12, 16)).astype(np.float32),
            "w2": rng.standard_normal((4, 12)).astype(np.float32),
        }
        # The un-rewritten graph, walked without any plan: Echo and
        # fusion must both leave its bits alone.
        reference = reference_run(_mlp_graph().outputs, feeds, params)
        for echo in (False, True):
            tg = _mlp_graph()
            if echo:
                EchoPass(plan_cache=PlanCache()).run(tg)
            outs = tg.outputs
            order = schedule(outs)
            for fuse in (True, False):
                plan = CompiledPlan(order, outs, Arena(), fuse=fuse)
                tag = (echo, fuse)
                assert check_equivalence(plan) == [], tag
                set_global_step(0)
                got = plan.run(feeds, params)
                assert len(got) == len(reference), tag
                for ref, arr in zip(reference, got):
                    assert ref.dtype == arr.dtype, tag
                    assert np.array_equal(ref, arr), tag

    def test_fixture_plans_certify_clean(self):
        assert check_equivalence(_aliased_plan()) == []
        plan, _fwd, _mirror = _mirrored_plan()
        assert check_equivalence(plan) == []

    def test_fingerprint_is_mirror_invariant(self):
        tg = _mlp_graph()
        before = fingerprint_outputs(tg.outputs)
        EchoPass(plan_cache=PlanCache()).run(tg)
        assert fingerprint_outputs(tg.outputs) == before


class TestMutationCorpus:
    """Each seeded defect is caught by exactly the expected EQ code."""

    def test_eq601_flipped_attr_on_lowered_node(self):
        # Mutation 1: a descriptor silently swaps its node for a clone
        # whose attrs differ — the classic miscompile the owner map pins
        # to the corrupt instruction itself.
        plan, _order, _outs = _mlp_plan(fuse=False)
        low = plan.lowering
        idx = next(
            i for i, d in enumerate(low.descs)
            if d["kind"] == "out" and d["node"].op.name == "tanh"
        )
        low.descs[idx]["node"] = _clone_node(
            low.descs[idx]["node"], flipped=1
        )
        fs = check_equivalence(plan)
        assert _codes(fs) == {"EQ601"}
        assert [f.instr for f in fs] == [idx]

    def test_eq602_recompute_node_without_mirror(self):
        # Mutation 2: the Echo witness link is dropped — a RECOMPUTE node
        # with no mirror_of cannot be certified against any original.
        plan, _fwd, mirror = _mirrored_plan()
        mirror.mirror_of = None
        assert _codes(check_equivalence(plan)) == {"EQ602"}

    def test_eq602_deleted_alias_witness(self):
        # Mutation 3: the elision pass "forgot" to justify one rewrite.
        plan = _aliased_plan()
        wit = plan.lowering.witnesses
        del wit.aliases[next(iter(wit.aliases))]
        assert _codes(check_equivalence(plan)) == {"EQ602"}

    def test_eq602_unexplained_root_merge(self):
        # Mutation 4: two unrelated registers silently share storage in
        # the alias-root table with no witness explaining the merge. Both
        # are groups of one, which no rewrite of the planner's touched.
        plan, _order, _outs = _mlp_plan(fuse=False)
        low = plan.lowering
        a, b = sorted(
            s for s in range(len(low.root)) if low.root.count(s) == 1
        )[-2:]
        assert low.root[a] == a and low.root[b] == b
        low.root[b] = a
        assert _codes(check_equivalence(plan)) == {"EQ602"}

    def test_eq603_corrupted_fusion_witness(self):
        # Mutation 5: a fusion witness claims a different member list
        # than the chain the instruction actually composes.
        plan, _order, _outs = _mlp_plan(fuse=True)
        low = plan.lowering
        assert low.witnesses.fusions, "fixture must fuse"
        idx, w = next(iter(low.witnesses.fusions.items()))
        low.witnesses.fusions[idx] = dataclasses.replace(
            w, members=w.members[:-1] + (w.members[-1] + 10_000,)
        )
        assert _codes(check_equivalence(plan)) == {"EQ603"}

    def test_eq604_inplace_redirect_over_live_target(self):
        # Mutation 6: an in-place redirect overwrites a register some
        # later instruction still reads — fabricated witness plus the
        # matching root merge, so only the value check can object. The
        # instruction is one the planner itself left writing a fresh buffer.
        plan, _order, _outs = _mlp_plan(fuse=False)
        low = plan.lowering
        rewritten = {w.instr for w in low.witnesses.inplace}
        chosen = None
        for idx, desc in enumerate(low.descs):
            if desc["kind"] != "out" or len(desc["out_slots"]) != 1:
                continue
            if idx in rewritten:
                continue
            for slot, occurrences in inplace_positions(desc):
                if occurrences != 1 or slot in low.source_slots:
                    continue
                read_later = any(
                    slot in later["in_slots"]
                    for later in low.descs[idx + 1:]
                )
                if read_later:
                    chosen = (idx, desc["out_slots"][0], slot)
                    break
            if chosen:
                break
        assert chosen is not None, "fixture needs a live in-place target"
        idx, out, target = chosen
        wit = InplaceWitness(
            instr=idx, out=out, target=target,
            root=low.root[target], members=(target,),
        )
        low.witnesses.inplace = (*low.witnesses.inplace, wit)
        ro, rt = low.root[out], low.root[target]
        low.root[:] = [rt if r == ro else r for r in low.root]
        assert _codes(check_equivalence(plan)) == {"EQ604"}

    def test_eq605_misranged_alias_view(self):
        # Mutation 7: the baked view index of an elided copy is narrowed
        # — the bound view no longer holds the copy kernel's values.
        plan = _aliased_plan()
        low = plan.lowering
        idx = next(
            i for i, d in enumerate(low.descs)
            if d["kind"] == "alias" and d["node"].op.name == "slice_axis"
        )
        low.descs[idx]["alias_index"] = [(slice(0, 2),)]
        assert _codes(check_equivalence(plan)) == {"EQ605"}

    def test_eq606_unstable_rng_reordered(self):
        # Mutation 8: two clock-dependent dropouts swap stream positions,
        # inverting the RNG-clock order the schedule promised.
        x = O.placeholder((8, 8), name="rx2")
        d1 = O.dropout(x, 0.5, seed=O.stable_seed("eq606", 0))
        d2 = O.dropout(O.tanh(d1), 0.5, seed=O.stable_seed("eq606", 1))
        outputs = [O.reduce_mean(d2)]
        order = schedule(outputs)
        plan = CompiledPlan(order, outputs, Arena(), fuse=False)
        low = plan.lowering
        # Clock-dependence is a property of the node (shared by graph and
        # stream), so this alone keeps the plan clean...
        d1.node.attrs["seed"] = None
        d2.node.attrs["seed"] = None
        assert check_equivalence(plan) == []
        # ...until the two RNG instructions trade places.
        i1 = next(i for i, d in enumerate(low.descs)
                  if d["node"] is d1.node)
        i2 = next(i for i, d in enumerate(low.descs)
                  if d["node"] is d2.node)
        low.descs[i1], low.descs[i2] = low.descs[i2], low.descs[i1]
        assert _codes(check_equivalence(plan)) == {"EQ606"}

    def test_eq606_mirrored_unstable_rng(self):
        # Mutation 9: an unstable (clock-seeded) dropout gets mirrored —
        # replaying it advances the clock and draws a different mask.
        plan, fwd, mirror = _mirrored_plan()
        fwd.attrs["seed"] = None
        mirror.attrs["seed"] = None
        assert _codes(check_equivalence(plan)) == {"EQ606"}

    def test_eq607_perturbed_mirror(self):
        # Mutation 10: a recompute mirror's attrs drift from the
        # original's — it no longer recomputes the same function.
        plan, _fwd, mirror = _mirrored_plan()
        mirror.attrs["p"] = 0.75
        assert _codes(check_equivalence(plan)) == {"EQ607"}

    def test_corpus_covers_every_eq_code(self):
        corpus = {"EQ601", "EQ602", "EQ603", "EQ604", "EQ605", "EQ606",
                  "EQ607"}
        assert corpus == {c for c in CODES if c.startswith("EQ")}


class TestOpaqueLeaves:
    """The fallback leaf of an unresolvable operand is interned only when
    the operand's value really is missing."""

    @pytest.fixture
    def interned(self, monkeypatch):
        kinds = []
        real = SymbolicTable.expr

        def spy(self, kind, payload, children=()):
            kinds.append(kind)
            return real(self, kind, payload, children)

        monkeypatch.setattr(SymbolicTable, "expr", spy)
        return kinds

    def test_clean_harness_plan_interns_no_unresolved_leaf(self, interned):
        # the benchmark harness's word-LM shape, Echo on (mirrors included)
        cfg = WordLmConfig(
            vocab_size=2000, embed_size=64, hidden_size=64, num_layers=2,
            seq_len=20, batch_size=16, backend=Backend.DEFAULT,
        )
        graph = build_word_lm(cfg).graph
        cache = PlanCache(store=None)
        assert EchoPass(plan_cache=cache).run(graph).accepted
        ex = TrainingExecutor(graph, plan_cache=cache)
        assert check_equivalence(ex.executor.plan) == []
        assert interned and "unresolved" not in interned

    def test_corrupted_input_reference_keeps_its_opaque_leaf(self, interned):
        plan, _order, _outs = _mlp_plan(fuse=False)
        idx, node = next(
            (i, d["node"]) for i, d in enumerate(plan.lowering.descs)
            if d["kind"] == "out" and d["node"].op.name == "sub"
        )
        a, b = node.inputs
        node.inputs = (a, Tensor(b.node, 3))  # b.node has one output
        fs = check_equivalence(plan)
        assert interned.count("unresolved") == 1
        assert [(f.code, f.instr, f.node) for f in fs] == [
            ("EQ601", idx, node.name)
        ]


class TestRandomPipelines:
    @settings(max_examples=12, deadline=None)
    @given(
        hidden=st.integers(4, 12),
        depth=st.integers(1, 3),
        act=st.sampled_from(["tanh", "sigmoid", "relu"]),
        use_dropout=st.booleans(),
        fuse=st.booleans(),
    )
    def test_random_training_graph_certifies_clean(
        self, hidden, depth, act, use_dropout, fuse
    ):
        activation = {"tanh": O.tanh, "sigmoid": O.sigmoid,
                      "relu": O.relu}[act]
        x = O.placeholder((4, 8), name="hx")
        y = O.placeholder((4, 2), name="hy")
        params = {}
        h, width = x, 8
        for layer in range(depth):
            w = O.variable((hidden, width), name=f"hw{layer}")
            params[f"hw{layer}"] = w
            h = activation(O.fully_connected(h, w))
            if use_dropout:
                h = O.dropout(h, 0.25, seed=O.stable_seed("hyp", layer))
            width = hidden
        wo = O.variable((2, width), name="hwo")
        params["hwo"] = wo
        p = O.fully_connected(h, wo)
        loss = O.reduce_mean(O.mul(O.sub(p, y), O.sub(p, y)))
        tg = compile_training(loss, params, {"x": x, "y": y})
        outs = tg.outputs
        order = schedule(outs)
        plan = CompiledPlan(order, outs, Arena(), fuse=fuse)
        assert check_equivalence(plan) == []


class TestDeterministicReports:
    def test_json_report_is_deduped_and_stable_sorted(self):
        a = finding("EQ601", "zzz mismatch", "equiv", node="n2", instr=5)
        b = finding("EQ601", "aaa mismatch", "equiv", node="n1", instr=3)
        c = finding("LT101", "read before def", "lifetime", slot=2)
        shuffled = AnalysisReport([a, c, b, a, c])  # duplicates, unsorted
        payload = json.loads(shuffled.to_json())
        assert payload["errors"] == 3  # duplicates collapsed
        codes = [f["code"] for f in payload["findings"]]
        assert codes == ["EQ601", "EQ601", "LT101"]
        nodes = [f.get("node") for f in payload["findings"]]
        assert nodes == ["n1", "n2", None]
        # Byte determinism: two differently-ordered reports serialize
        # identically.
        assert shuffled.to_json() == AnalysisReport([c, b, a]).to_json()

    def test_list_codes_covers_whole_registry(self):
        table = list_codes()
        for code, (severity, meaning) in CODES.items():
            assert code in table
            assert meaning in table
        for severity in Severity:
            assert (severity in (Severity.INFO,)) or (
                severity.value in table
            )
