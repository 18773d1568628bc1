"""Tests for the static-analysis subsystem (repro.analysis).

Three layers:
1. seeded-defect fixtures — hand-corrupted plans, schedules, and Echo
   regions, each caught with its expected finding code (the analyzers
   must *detect*, not just stay quiet on clean inputs);
2. clean-input checks — the shipped benchmark models, serial and
   wavefront-parallel, report zero errors end to end (CLI included);
3. the property test — randomized DAGs whose plans pass the lifetime
   sanitizer and race detector execute bitwise-identically serial vs.
   wavefront-parallel at 4 threads.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ops as O
from repro.analysis import (
    CODES,
    AnalysisReport,
    Severity,
    check_lifetimes,
    check_plan_races,
    check_recompute_safety,
    check_schedule,
    labeled_edges,
    lint_graph,
    verify_plan,
)
from repro.analysis.lint import main as lint_main
from repro.analysis.verify import PlanVerificationError, assert_plan_safe
from repro.autodiff import compile_training
from repro.echo.pass_ import EchoPass
from repro.echo.rewrite import _clone_as_mirror
from repro.graph import Stage, Tensor
from repro.runtime import Arena, CompiledPlan, PlanCache, schedule
from repro.runtime.wavefront import InstrInfo, Wavefront, WavefrontSchedule
from tests.helpers import AboveGateDevice


def _small_training_graph():
    """x,y -> elementwise + matmul mix with a real backward pass."""
    x = O.placeholder((4, 8), name="x")
    w = O.variable((8, 8), name="w")
    h = O.tanh(O.fully_connected(x, w))
    loss = O.reduce_mean(O.mul(h, h))
    return compile_training(loss, {"w": w}, {"x": x})


def _diamond_plan(fuse=False, threads=1, **kw):
    """add/sub both live into mul: two overlapping static live ranges."""
    x = O.placeholder((16, 16), name="x")
    y = O.placeholder((16, 16), name="y")
    a = O.add(x, y)
    b = O.sub(x, y)
    out = O.matmul(a, b)
    outputs = [out]
    order = schedule(outputs)
    plan = CompiledPlan(order, outputs, arena=Arena(), fuse=fuse,
                        threads=threads, **kw)
    return plan, order, outputs


def info(i, reads=(), writes=(), rb=(), wb=(), stage=Stage.FORWARD,
         cost=1.0):
    return InstrInfo(i, tuple(reads), tuple(writes), tuple(rb), tuple(wb),
                     stage, cost)


class TestFindingModel:
    def test_catalog_is_consistent(self):
        for code, (severity, desc) in CODES.items():
            assert code[:2] in ("IR", "LT", "RC", "EC", "MP", "DS", "EQ")
            assert isinstance(severity, Severity)
            assert desc

    def test_report_roundtrip_and_filtering(self):
        report = AnalysisReport()
        report.extend(lint_graph([Tensor(O.placeholder((2,), name="p_unused").node, 0)]))
        assert report.ok  # the placeholder is its own output: no findings
        payload = json.loads(report.to_json())
        assert payload["errors"] == 0
        filtered = report.without(["IR006"])
        assert isinstance(filtered, AnalysisReport)


class TestIrLint:
    def test_clean_graph(self):
        tg = _small_training_graph()
        assert lint_graph(tg.outputs) == []

    def test_cycle_detected(self):
        x = O.placeholder((4, 4), name="cx")
        a = O.add(x, x)
        b = O.mul(a, a)
        # Re-point a's input at b's output: a -> b -> a.
        a.node.inputs = (b, x)
        codes = {f.code for f in lint_graph([b])}
        assert "IR001" in codes

    def test_dangling_output_index(self):
        x = O.placeholder((4, 4), name="dx")
        a = O.add(x, x)
        a.node.inputs = (x, Tensor(x.node, 3))  # placeholder has 1 output
        codes = {f.code for f in lint_graph([a])}
        assert "IR002" in codes

    def test_shape_and_dtype_reinference(self):
        x = O.placeholder((4, 4), name="sx")
        a = O.add(x, x)
        from repro.graph import TensorSpec

        a.node.out_specs = (TensorSpec((4, 5)),)
        assert {f.code for f in lint_graph([a])} == {"IR003"}
        a.node.out_specs = (TensorSpec((4, 4), np.float64),)
        assert {f.code for f in lint_graph([a])} == {"IR004"}

    def test_forward_consuming_backward(self):
        x = O.placeholder((4, 4), name="fx")
        g = O.add(x, x)
        g.node.stage = Stage.BACKWARD
        y = O.mul(g, x)  # forward by default
        codes = {f.code for f in lint_graph([y])}
        assert "IR005" in codes

    def test_unused_source_warning(self):
        x = O.placeholder((4, 4), name="ux")
        unused = O.placeholder((4, 4), name="u_dead")
        out = O.add(x, x)
        findings = lint_graph([out], sources=[x, unused])
        assert [f.code for f in findings] == ["IR006"]
        assert findings[0].severity is Severity.WARNING
        assert "u_dead" in findings[0].message

    def test_duplicate_binding_names(self):
        x = O.placeholder((4, 4), name="dup_name")
        y = O.placeholder((4, 4), name="dup_name")
        out = O.add(x, y)
        codes = [f.code for f in lint_graph([out])]
        assert codes == ["IR007"]


class TestLifetimeSanitizer:
    def test_clean_plan(self):
        plan, _, _ = _diamond_plan()
        assert check_lifetimes(plan) == []

    def test_clean_fused_and_batched_nmt(self):
        from repro.models import NmtConfig, build_nmt

        cfg = NmtConfig(
            src_vocab_size=40, tgt_vocab_size=40, embed_size=16,
            hidden_size=16, encoder_layers=1, decoder_layers=1,
            src_len=4, tgt_len=4, batch_size=2,
        )
        tg = build_nmt(cfg).graph
        order = schedule(tg.outputs)
        plan = CompiledPlan(order, tg.outputs, arena=Arena(),
                            batch_gemms=True)
        assert check_lifetimes(plan) == []

    def test_corrupted_slot_assignment_is_lt103(self):
        # The seeded fixture from the issue: hand-corrupt the static slot
        # assignment so two concurrently-live values share one buffer.
        plan, _, _ = _diamond_plan()
        low = plan.lowering
        # add and sub results are both static and both live into matmul.
        static_roots = sorted(low.static_views)
        assert len(static_roots) >= 2
        r_a, r_b = static_roots[:2]
        low.static_views[r_b] = low.static_views[r_a]
        findings = check_lifetimes(plan)
        assert {f.code for f in findings} == {"LT103"}

    def test_premature_free_is_lt102(self):
        plan, _, _ = _diamond_plan()
        low = plan.lowering
        # Take the latest-freed slot and free it before instruction 0.
        idx = max(low.frees_at)
        assert idx > 0
        entry = low.frees_at.pop(idx)
        low.frees_at.setdefault(0, []).extend(entry)
        codes = {f.code for f in check_lifetimes(plan)}
        assert "LT102" in codes

    def test_undefined_read_is_lt101(self):
        plan, _, _ = _diamond_plan()
        low = plan.lowering
        low.descs[-1]["in_slots"] = tuple(low.descs[-1]["in_slots"]) + (999,)
        codes = {f.code for f in check_lifetimes(plan)}
        assert "LT101" in codes

    def test_static_output_is_lt104(self):
        plan, _, _ = _diamond_plan()
        low = plan.lowering
        out_slot = next(iter(low.output_slots))
        donor = next(iter(low.static_views.values()))
        low.static_views[low.root[out_slot]] = donor
        codes = {f.code for f in check_lifetimes(plan)}
        assert "LT104" in codes

    def test_dropped_free_is_lt105_warning(self):
        plan, _, _ = _diamond_plan()
        low = plan.lowering
        idx, entry = next(iter(low.frees_at.items()))
        slot = entry[0][0]
        low.frees_at[idx] = entry[1:]
        findings = check_lifetimes(plan)
        assert any(
            f.code == "LT105" and f.slot == slot
            and f.severity is Severity.WARNING
            for f in findings
        )


class TestRaceDetector:
    def test_hazard_edges_labeled(self):
        infos = [
            info(0, writes=[0], wb=[100]),
            info(1, reads=[0], writes=[1], rb=[100], wb=[200]),
            info(2, writes=[2], wb=[100]),
        ]
        kinds = {(p, s, k) for p, s, k, _ in labeled_edges(infos)}
        assert (0, 1, "raw") in kinds
        assert (1, 2, "war") in kinds  # 2 overwrites base 100 after 1 read it
        assert (0, 2, "waw") in kinds

    def test_clean_schedule(self):
        infos = [
            info(0, writes=[0], wb=[100]),
            info(1, writes=[1], wb=[200]),
            info(2, reads=[0, 1], writes=[2], rb=[100, 200], wb=[300]),
        ]
        sched = WavefrontSchedule(
            levels=[Wavefront([0, 1], 2.0, True), Wavefront([2], 1.0, False)],
            region_count=1,
        )
        assert check_schedule(infos, sched) == []

    def test_removed_hazard_edge_is_caught(self):
        # The seeded fixture from the issue: a schedule built as if the
        # WAW storage hazard between 0 and 1 had been dropped.
        infos = [
            info(0, writes=[0], wb=[100]),
            info(1, writes=[1], wb=[100]),  # same raw buffer
            info(2, reads=[0, 1], writes=[2], rb=[100], wb=[300]),
        ]
        racy = WavefrontSchedule(
            levels=[Wavefront([0, 1], 2.0, True), Wavefront([2], 1.0, False)],
            region_count=1,
        )
        findings = check_schedule(infos, racy)
        assert {f.code for f in findings} == {"RC201"}
        assert findings[0].instr == 1

    def test_read_write_conflict_is_rc202(self):
        infos = [
            info(0, writes=[0], wb=[100]),
            info(1, reads=[0], writes=[1], rb=[100], wb=[200]),
            info(2, writes=[2], wb=[100]),
        ]
        racy = WavefrontSchedule(
            levels=[Wavefront([0], 1.0, False), Wavefront([1, 2], 2.0, True)],
            region_count=1,
        )
        codes = {f.code for f in check_schedule(infos, racy)}
        assert "RC202" in codes

    def test_value_dependency_in_level_is_rc204(self):
        infos = [
            info(0, writes=[0]),
            info(1, reads=[0], writes=[1]),
        ]
        racy = WavefrontSchedule(
            levels=[Wavefront([0, 1], 2.0, True)], region_count=1
        )
        codes = {f.code for f in check_schedule(infos, racy)}
        assert codes == {"RC204"}

    def test_stage_mixing_is_rc203(self):
        infos = [
            info(0, writes=[0], stage=Stage.FORWARD),
            info(1, writes=[1], stage=Stage.BACKWARD),
        ]
        sched = WavefrontSchedule(
            levels=[Wavefront([0, 1], 2.0, True)], region_count=2
        )
        codes = {f.code for f in check_schedule(infos, sched)}
        assert "RC203" in codes

    def test_coverage_violations_are_rc205(self):
        infos = [info(0, writes=[0]), info(1, writes=[1])]
        missing = WavefrontSchedule(
            levels=[Wavefront([0], 1.0, False)], region_count=1
        )
        assert {f.code for f in check_schedule(infos, missing)} == {"RC205"}
        duplicated = WavefrontSchedule(
            levels=[
                Wavefront([0, 1], 2.0, False),
                Wavefront([1], 1.0, False),
            ],
            region_count=1,
        )
        assert {f.code for f in check_schedule(infos, duplicated)} == {"RC205"}

    def test_happens_before_inversion_is_rc206(self):
        infos = [
            info(0, writes=[0]),
            info(1, reads=[0], writes=[1]),
        ]
        inverted = WavefrontSchedule(
            levels=[Wavefront([1], 1.0, False), Wavefront([0], 1.0, False)],
            region_count=1,
        )
        codes = {f.code for f in check_schedule(infos, inverted)}
        assert codes == {"RC206"}

    def test_serial_plan_probe_is_clean(self):
        plan, _, _ = _diamond_plan()
        assert check_plan_races(plan) == []

    def test_parallel_plan_stored_schedule_is_clean(self):
        from repro.models import NmtConfig, build_nmt

        cfg = NmtConfig(
            src_vocab_size=40, tgt_vocab_size=40, embed_size=16,
            hidden_size=16, encoder_layers=1, decoder_layers=1,
            src_len=4, tgt_len=4, batch_size=2,
        )
        tg = build_nmt(cfg).graph
        order = schedule(tg.outputs)
        plan = CompiledPlan(order, tg.outputs, arena=Arena(), threads=4,
                            device=AboveGateDevice())
        assert plan.parallel_level_count > 0
        assert check_plan_races(plan) == []


class TestRecomputeChecker:
    def _mirrored_dropout_order(self):
        """A hand-built forward + mirror + backward-consumer schedule."""
        x = O.placeholder((8, 8), name="rx")
        y = O.dropout(x, 0.5, seed=O.stable_seed("test", 0))
        fwd = y.node
        mirror = _clone_as_mirror(fwd, {})
        grad = O.mul(Tensor(mirror, 1), x)
        grad.node.stage = Stage.BACKWARD
        order = [x.node, fwd, mirror, grad.node]
        return order, fwd, mirror, grad.node

    def test_clean_mirrored_region(self):
        order, _, _, _ = self._mirrored_dropout_order()
        assert check_recompute_safety(order) == []

    def test_provenance_attrs_do_not_trip_ec304(self):
        # echo/manual.py pops its scheduling marker from originals but
        # mirrors keep the copy; kernels never read it, so EC304 must
        # ignore it (found and triaged on tests/test_echo_manual.py).
        order, _, mirror, _ = self._mirrored_dropout_order()
        mirror.attrs["echo_manual_recompute"] = True
        assert check_recompute_safety(order) == []

    def test_unseeded_dropout_is_ec303(self):
        # The seeded fixture from the issue: an Echo region containing a
        # dropout whose seed was lost (None instead of a stable int).
        order, _, mirror, _ = self._mirrored_dropout_order()
        mirror.attrs["seed"] = None
        codes = {f.code for f in check_recompute_safety(order)}
        assert "EC303" in codes
        assert "EC304" in codes  # attrs now differ from the original's

    def test_backward_input_is_ec301(self):
        order, _, mirror, consumer = self._mirrored_dropout_order()
        mirror.inputs = (Tensor(consumer, 0),)
        codes = {f.code for f in check_recompute_safety(order)}
        assert "EC301" in codes

    def test_mirror_divergence_is_ec302(self):
        order, _, mirror, _ = self._mirrored_dropout_order()
        mirror.mirror_of = None
        codes = {f.code for f in check_recompute_safety(order)}
        assert "EC302" in codes

    def test_forward_consuming_recompute_is_ec305(self):
        order, _, mirror, _ = self._mirrored_dropout_order()
        leak = O.add(Tensor(mirror, 0), Tensor(mirror, 0))  # forward stage
        order.append(leak.node)
        codes = {f.code for f in check_recompute_safety(order)}
        assert "EC305" in codes

    def test_dead_mirror_is_ec306_warning(self):
        order, _, mirror, consumer = self._mirrored_dropout_order()
        x_node = order[0]
        consumer.inputs = (Tensor(x_node, 0), Tensor(x_node, 0))
        findings = check_recompute_safety(order)
        assert [f.code for f in findings] == ["EC306"]
        assert findings[0].severity is Severity.WARNING

    def test_schedule_inversion_is_ec307(self):
        order, fwd, mirror, _ = self._mirrored_dropout_order()
        order[0], order[1] = order[1], order[0]  # dropout before its input
        codes = {f.code for f in check_recompute_safety(order)}
        assert "EC307" in codes

    def test_missing_producer_is_ec308(self):
        order, _, _, _ = self._mirrored_dropout_order()
        del order[0]
        codes = {f.code for f in check_recompute_safety(order)}
        assert "EC308" in codes

    def test_echo_rewritten_model_is_clean(self):
        tg = _small_training_graph()
        EchoPass(plan_cache=PlanCache()).run(tg)
        order = schedule(tg.outputs)
        findings = check_recompute_safety(
            order, {t.key for t in tg.outputs}
        )
        assert [f for f in findings if f.severity is Severity.ERROR] == []


class TestVerifyFacade:
    def test_verify_plan_clean_end_to_end(self):
        tg = _small_training_graph()
        order = schedule(tg.outputs)
        plan = CompiledPlan(order, tg.outputs, arena=Arena())
        report = verify_plan(plan)
        assert report.ok and not report.findings

    def test_assert_plan_safe_raises_with_report(self):
        plan, _, _ = _diamond_plan()
        low = plan.lowering
        static_roots = sorted(low.static_views)
        low.static_views[static_roots[1]] = low.static_views[static_roots[0]]
        with pytest.raises(PlanVerificationError) as exc_info:
            assert_plan_safe(plan)
        assert "LT103" in str(exc_info.value)
        assert exc_info.value.report.codes() == {"LT103"}
        # Triaged suppression lets the same plan through.
        report = assert_plan_safe(plan, ignore=["LT103"])
        assert report.ok

    def test_plancache_guard_runs_on_miss_only(self, monkeypatch):
        import repro.analysis.verify as verify_mod

        calls = []
        real = verify_mod.assert_plan_safe
        monkeypatch.setattr(
            verify_mod, "assert_plan_safe",
            lambda plan, **kw: calls.append(plan) or real(plan, **kw),
        )
        monkeypatch.setenv("REPRO_VERIFY", "1")
        x = O.placeholder((4, 4), name="gx")
        outputs = [O.tanh(O.add(x, x))]
        cache = PlanCache()
        arena = Arena()
        plan = cache.compiled_for(outputs, arena)
        assert calls == [plan]
        cache.compiled_for(outputs, arena)  # cache hit: no re-verification
        assert calls == [plan]

    def test_plancache_guard_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        import repro.analysis.verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "assert_plan_safe",
            lambda *a, **k: pytest.fail("guard ran with REPRO_VERIFY unset"),
        )
        x = O.placeholder((4, 4), name="hx")
        PlanCache().compiled_for([O.add(x, x)], Arena())

    def test_executor_verify_method(self):
        from repro.runtime import GraphExecutor

        tg = _small_training_graph()
        ex = GraphExecutor(tg.outputs, threads=1)
        report = ex.verify()
        assert report.ok


class TestLintCli:
    def test_json_output_clean(self, capsys):
        rc = lint_main(["--model", "nmt", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["model"] == "nmt"
        assert payload[0]["errors"] == 0

    def test_broken_model_fails(self, capsys, monkeypatch):
        from repro.analysis import lint as lint_cli
        from repro.autodiff.training import TrainingGraph

        def broken():
            a = O.placeholder((2, 2), name="clash")
            b = O.placeholder((2, 2), name="clash")
            out = O.add(a, b)
            return (
                TrainingGraph(
                    loss=out, placeholders={"clash": a}, params={},
                    grads={},
                ),
                "broken fixture",
            )

        monkeypatch.setitem(lint_cli._MODELS, "broken", broken)
        rc = lint_main(["--model", "broken", "--no-echo"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "IR007" in out
        # Suppressing the triaged code flips the verdict.
        rc = lint_main(["--model", "broken", "--no-echo", "--ignore", "IR007"])
        assert rc == 0


OPS2 = [O.add, O.mul, O.sub, O.matmul]
OPS1 = [O.tanh, O.sigmoid, O.relu]


@st.composite
def random_dag_program(draw):
    """A random DAG builder recipe: list of (kind, op_idx, a, b) picks."""
    n_steps = draw(st.integers(min_value=3, max_value=14))
    steps = []
    for i in range(n_steps):
        binary = draw(st.booleans())
        pool = 2 + i  # placeholders + prior steps
        if binary:
            op = draw(st.integers(0, len(OPS2) - 1))
            a = draw(st.integers(0, pool - 1))
            b = draw(st.integers(0, pool - 1))
            steps.append(("bin", op, a, b))
        else:
            op = draw(st.integers(0, len(OPS1) - 1))
            a = draw(st.integers(0, pool - 1))
            steps.append(("un", op, a, 0))
    return steps


class TestSerialParallelProperty:
    @settings(max_examples=20, deadline=None)
    @given(program=random_dag_program(), seed=st.integers(0, 2**16))
    def test_verified_plans_execute_bitwise_identically(self, program, seed):
        x = O.placeholder((6, 6), name="pa")
        y = O.placeholder((6, 6), name="pb")
        values = [x, y]
        for kind, op, a, b in program:
            if kind == "bin":
                values.append(OPS2[op](values[a], values[b]))
            else:
                values.append(OPS1[op](values[a]))
        out = O.reduce_mean(values[-1])
        outputs = [out, values[-1]]
        order = schedule(outputs)

        serial = CompiledPlan(order, outputs, arena=Arena(), threads=1)
        parallel = CompiledPlan(
            order, outputs, arena=Arena(), threads=4,
            device=AboveGateDevice(),
        )

        # The property's precondition: both plans pass the lifetime
        # sanitizer and the race detector (and the graph lints clean).
        assert lint_graph(outputs) == []
        for plan in (serial, parallel):
            assert check_lifetimes(plan) == []
            assert check_plan_races(plan) == []

        rng = np.random.default_rng(seed)
        feeds = {
            "pa": rng.standard_normal((6, 6)).astype(np.float32),
            "pb": rng.standard_normal((6, 6)).astype(np.float32),
        }
        res_s = serial.run(feeds)
        res_p = parallel.run(feeds)
        for arr_s, arr_p in zip(res_s, res_p):
            assert arr_s.dtype == arr_p.dtype
            assert np.array_equal(arr_s, arr_p)

    def test_unit_cost_device_forces_parallelism(self):
        # Guard against the property silently degrading to serial-only.
        x = O.placeholder((6, 6), name="wa")
        y = O.placeholder((6, 6), name="wb")
        outputs = [O.matmul(O.add(x, y), O.sub(x, y))]
        order = schedule(outputs)
        plan = CompiledPlan(
            order, outputs, arena=Arena(), threads=4,
            device=AboveGateDevice(),
        )
        assert plan.parallel_level_count >= 1
