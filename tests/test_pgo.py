"""Profile-guided tuning: calibration records, the persistent store, and
warm-start plan loading.

Durability is the point of most of these tests: a tuning directory is an
*advisory* cache, so corruption, truncation, staleness, and concurrent
writers must all degrade to cold-path behavior — never to a wrong plan.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backends import Backend
from repro.backends.microbench import autotune_backend, measure_lstm, pure_lstm_graph
from repro.gpumodel import DeviceModel
from repro.graph import GraphFacts
from repro.pgo import (
    CalibratedDeviceModel,
    CalibrationDB,
    CostRecord,
    TuneStore,
    default_device,
    graph_fingerprint,
    reset_default_stores,
    robust_best,
    shape_class,
)
from repro.pgo.harvest import harvest_training_graph
from repro.profiler import measure_node_timings
from repro.runtime import PlanCache
from repro.runtime.executor import TrainingExecutor
from repro.runtime.plancache import _UNSET, default_plan_cache
from repro.runtime.scheduler import schedule, validate_schedule
from tests.helpers import AboveGateDevice


@pytest.fixture
def tune_dir(tmp_path, monkeypatch):
    """A fresh REPRO_TUNE_DIR, isolated from other tests' default stores."""
    d = tmp_path / "tune"
    monkeypatch.setenv("REPRO_TUNE_DIR", str(d))
    reset_default_stores()
    cache = default_plan_cache()
    monkeypatch.setattr(cache, "_store", _UNSET)
    yield d
    reset_default_stores()


def small_graph():
    graph, store = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
    params = store.initialize()
    rng = np.random.default_rng(7)
    feeds = {
        "lstm_in": rng.standard_normal((3, 4, 16), dtype=np.float32)
    }
    return graph, params, feeds


class TestRobustBest:
    def test_slow_outlier_discarded(self):
        t = robust_best([1.0, 1.02, 1.01, 1.03, 9.0])
        assert t.seconds == 1.0
        assert t.discarded == 1
        assert t.stable

    def test_fast_glitch_discarded(self):
        # A below-resolution timer glitch must not become the report.
        t = robust_best([1e-9, 1.0, 1.01, 1.02, 1.03])
        assert t.seconds == 1.0
        assert t.discarded == 1

    def test_unstable_spread_flagged(self):
        t = robust_best([1.0, 1.5, 2.0, 2.5, 3.0])
        assert not t.stable
        assert t.seconds == 1.0  # min is still reported

    def test_few_samples(self):
        t = robust_best([2.0, 2.1])
        assert t.seconds == 2.0
        assert t.discarded == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            robust_best([])


class TestRecords:
    def test_decay_sharpens(self):
        rec = CostRecord(seconds=1.0, min_seconds=1.0)
        for _ in range(50):
            rec.observe(2.0, ref_seconds=0.5)
        assert rec.seconds == pytest.approx(2.0, rel=0.01)
        assert rec.min_seconds == 1.0
        assert rec.count == 51

    def test_merge_weighted(self):
        a = CostRecord(seconds=1.0, weight=1.0, min_seconds=1.0)
        b = CostRecord(seconds=3.0, weight=3.0, min_seconds=2.5)
        m = a.merged_with(b)
        assert m.seconds == pytest.approx(2.5)
        assert m.count == 2
        assert m.min_seconds == 1.0

    def test_db_payload_roundtrip(self):
        db = CalibrationDB(epoch=3)
        db.observe("dot:g8x8x8x1", 1e-4, 1e-6)
        db.observe("add:b40", 2e-5, 4e-7)
        back = CalibrationDB.from_payload(db.to_payload())
        assert back.epoch == 3
        assert back.records.keys() == db.records.keys()
        assert back.records["add:b40"].seconds == pytest.approx(2e-5)

    def test_payload_version_mismatch_raises(self):
        payload = CalibrationDB().to_payload()
        payload["version"] = 999
        with pytest.raises(ValueError):
            CalibrationDB.from_payload(payload)

    def test_shape_classes(self):
        graph, _params, _feeds = small_graph()
        classes = {shape_class(n) for n in schedule(graph.outputs)}
        classes.discard(None)
        assert any(c.split(":")[1].startswith("g") for c in classes)  # GEMMs
        assert any(":b" in c for c in classes)  # bytes-bucketed elementwise
        placeholder = next(
            n for n in schedule(graph.outputs) if n.op.name == "placeholder"
        )
        assert shape_class(placeholder) is None


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        g1, _, _ = small_graph()
        g2, _, _ = small_graph()
        # Different uids, same structure: the canonical renaming must agree.
        assert graph_fingerprint(g1.outputs) == graph_fingerprint(g2.outputs)

    def test_distinguishes_shapes(self):
        g1, _, _ = small_graph()
        g3, _ = pure_lstm_graph(4, 32, 1, 3, Backend.DEFAULT)
        assert graph_fingerprint(g1.outputs) != graph_fingerprint(g3.outputs)


class TestStoreDurability:
    def test_calibration_roundtrip(self, tmp_path):
        ts = TuneStore(tmp_path)
        db = CalibrationDB()
        db.observe("dot:g8x8x8x1", 1e-4, 1e-6)
        merged = ts.save_calibration(db)
        assert merged.epoch == 1
        fresh = TuneStore(tmp_path).calibration()
        assert fresh.coverage() == 1
        assert fresh.epoch == 1

    def test_corrupted_calibration_falls_back(self, tmp_path):
        (tmp_path / "calibration.json").write_text("{ not json !!")
        ts = TuneStore(tmp_path)
        assert ts.calibration().coverage() == 0
        assert ts.stats()["load_errors"] == 1

    def test_corrupted_order_file_is_a_miss(self, tmp_path):
        graph, _, _ = small_graph()
        ts = TuneStore(tmp_path)
        order = schedule(graph.outputs)
        ts.save_order(graph.outputs, order)
        fp = graph_fingerprint(graph.outputs)
        path = tmp_path / "plans" / f"{fp}.memaware.order.json"
        assert path.exists()
        # Torn JSON -> miss; well-formed but wrong permutation -> miss.
        path.write_text('{"version": 1, "order": [0, 1')
        assert TuneStore(tmp_path).load_order(graph.outputs) is None
        payload = {"version": 1, "order": list(range(len(order) - 1))}
        path.write_text(json.dumps(payload))
        ts3 = TuneStore(tmp_path)
        assert ts3.load_order(graph.outputs) is None
        assert ts3.stats()["load_errors"] == 1

    def test_invalid_order_permutation_rejected(self, tmp_path):
        """An order that breaks producer-before-consumer must not load."""
        graph, _, _ = small_graph()
        ts = TuneStore(tmp_path)
        order = schedule(graph.outputs)
        ts.save_order(graph.outputs, order)
        fp = graph_fingerprint(graph.outputs)
        path = tmp_path / "plans" / f"{fp}.memaware.order.json"
        payload = json.loads(path.read_text())
        payload["order"].reverse()  # valid permutation, invalid schedule
        path.write_text(json.dumps(payload))
        assert TuneStore(tmp_path).load_order(graph.outputs) is None

    def test_corrupted_wavefront_artifact_is_a_miss(self, tmp_path):
        ts = TuneStore(tmp_path)
        token = ("Titan Xp", "analytic")
        ts.save_wavefront("f" * 32, token, 4, True, True,
                          {"instructions": 10, "serial": True})
        assert ts.load_wavefront("f" * 32, token, 4, True, True) is not None
        for path in (tmp_path / "plans").glob("*.wavefront.json"):
            path.write_text("garbage")
        ts2 = TuneStore(tmp_path)
        assert ts2.load_wavefront("f" * 32, token, 4, True, True) is None

    def test_concurrent_writers_both_land(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.pgo import CalibrationDB, TuneStore\n"
            "db = CalibrationDB()\n"
            "db.observe(sys.argv[2], 1e-4, 1e-6)\n"
            "db.observe('shared:b10', float(sys.argv[3]), 1e-6)\n"
            "TuneStore(sys.argv[1]).save_calibration(db)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), cls, val],
                env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            )
            for cls, val in (("a:b10", "1e-4"), ("b:b10", "3e-4"))
        ]
        for p in procs:
            assert p.wait(timeout=120) == 0
        db = TuneStore(tmp_path).calibration()
        assert {"a:b10", "b:b10", "shared:b10"} <= db.records.keys()
        assert db.epoch >= 2  # both saves bumped it
        shared = db.records["shared:b10"]
        assert shared.count == 2


class TestCalibratedDevice:
    def _db(self):
        return CalibrationDB(epoch=2)

    def test_covered_class_overrides(self):
        graph, _, _ = small_graph()
        node = next(
            n for n in schedule(graph.outputs)
            if shape_class(n) is not None
        )
        cls = shape_class(node)
        analytic = DeviceModel()
        ref = analytic.node_cost(node).kernel_seconds
        db = self._db()
        db.observe(cls, 100.0 * ref, ref)  # scale becomes 1/100
        cal = CalibratedDeviceModel(db)
        cost = cal.node_cost(node)
        # measured * geomean(ref/measured) == ref for a single record
        assert cost.kernel_seconds == pytest.approx(ref)
        assert cal.calibrated_hits == 1
        assert cost.api_seconds == analytic.node_cost(node).api_seconds

    def test_uncovered_class_falls_back(self):
        graph, _, _ = small_graph()
        node = next(
            n for n in schedule(graph.outputs)
            if shape_class(n) is not None
        )
        cal = CalibratedDeviceModel(self._db())
        assert (
            cal.node_cost(node).kernel_seconds
            == DeviceModel().node_cost(node).kernel_seconds
        )
        assert cal.analytic_fallbacks == 1

    def test_cache_token_tracks_epoch(self):
        assert CalibratedDeviceModel(CalibrationDB(epoch=5)).cache_token == (
            "Titan Xp", "calibrated", 5,
        )
        assert DeviceModel().cache_token == ("Titan Xp", "analytic")

    def test_default_device_plain_without_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNE_DIR", raising=False)
        reset_default_stores()
        dev = default_device()
        assert type(dev) is DeviceModel

    def test_default_device_calibrated_with_coverage(self, tune_dir):
        db = CalibrationDB()
        db.observe("dot:g8x8x8x1", 1e-4, 1e-6)
        TuneStore(tune_dir).save_calibration(db)
        reset_default_stores()
        dev = default_device()
        assert isinstance(dev, CalibratedDeviceModel)

    def test_default_device_survives_corrupt_store(self, tune_dir):
        tune_dir.mkdir(parents=True, exist_ok=True)
        (tune_dir / "calibration.json").write_text("!corrupt!")
        reset_default_stores()
        dev = default_device()
        assert type(dev) is DeviceModel  # fell back to analytical


class TestHarvest:
    def test_measure_node_timings(self):
        graph, params, feeds = small_graph()
        order = schedule(graph.outputs)
        timings = measure_node_timings(order, feeds, params, repeats=3)
        assert timings
        computed = [
            n for n in order
            if n.op.name not in ("placeholder", "variable")
        ]
        assert len(timings) == len(computed)
        assert all(t.seconds >= 0.0 for t in timings)
        assert all(len(t.samples) == 3 for t in timings)

    def test_harvest_populates_db(self):
        graph, params, feeds = small_graph()
        db = CalibrationDB()
        n = harvest_training_graph(graph, feeds, params, db, repeats=2)
        assert n > 0
        assert db.coverage() > 0
        assert db.model_scale() != 1.0  # host/model domains really differ


class TestWarmPlans:
    def test_cold_then_warm_bitwise_identical(self, tune_dir):
        graph, params, feeds = small_graph()
        ts = TuneStore(tune_dir)

        # Priced above the gate, so the persisted layout carries real
        # parallel levels and their chunks (a serial plan persists only a
        # marker).
        cold_ex = TrainingExecutor(
            graph, plan_cache=PlanCache(store=ts), threads=4,
            device=AboveGateDevice(),
        )
        cold_loss, cold_grads, _ = cold_ex.run(feeds, params)
        assert not cold_ex.executor.plan.wavefront_from_cache
        assert cold_ex.executor.plan.parallel_level_count > 0
        stats = ts.stats()
        assert stats["order_misses"] == 1 and stats["wavefront_misses"] == 1

        # Same store, fresh in-process caches == a new process, warm disk.
        graph2, store2 = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
        params2 = store2.initialize()
        warm_store = TuneStore(tune_dir)
        warm_ex = TrainingExecutor(
            graph2, plan_cache=PlanCache(store=warm_store), threads=4,
            device=AboveGateDevice(),
        )
        warm_loss, warm_grads, _ = warm_ex.run(feeds, params2)
        wstats = warm_store.stats()
        assert wstats["order_hits"] == 1
        assert wstats["wavefront_hits"] == 1
        warm_plan = warm_ex.executor.plan
        assert warm_plan.wavefront_from_cache
        for attr in ("parallel_level_count", "gated_level_count",
                     "parallel_instruction_count",
                     "wavefront_saving_seconds"):
            assert getattr(warm_plan, attr) == getattr(
                cold_ex.executor.plan, attr
            ), attr

        # params2 initializes identically (same seed path), so execution
        # through the deserialized plan must be bitwise-identical.
        assert warm_loss == cold_loss
        for name in cold_grads:
            np.testing.assert_array_equal(cold_grads[name], warm_grads[name])

    def test_warm_plan_passes_verifier(self, tune_dir, monkeypatch):
        graph, params, feeds = small_graph()
        ts = TuneStore(tune_dir)
        TrainingExecutor(graph, plan_cache=PlanCache(store=ts), threads=4,
                         device=AboveGateDevice())

        monkeypatch.setenv("REPRO_VERIFY", "1")
        graph2, _ = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
        warm_store = TuneStore(tune_dir)
        # assert_plan_safe runs inside the builder and raises on findings;
        # the deserialized schedule is checked against re-derived hazards.
        warm_ex = TrainingExecutor(
            graph2, plan_cache=PlanCache(store=warm_store), threads=4,
            device=AboveGateDevice(),
        )
        assert warm_ex.executor.plan.wavefront_from_cache
        assert warm_ex.executor.plan.parallel_level_count > 0
        report = warm_ex.executor.verify()
        assert report.ok, report.findings

    def test_stale_epoch_invalidates_wavefront(self, tune_dir):
        graph, params, feeds = small_graph()
        db = CalibrationDB()
        harvest_training_graph(graph, feeds, params, db, repeats=1)
        ts = TuneStore(tune_dir)
        ts.save_calibration(db)

        dev1 = default_device()
        TrainingExecutor(
            graph, plan_cache=PlanCache(store=ts), device=dev1, threads=4
        )
        assert ts.stats()["wavefront_misses"] == 1

        # Recalibration bumps the epoch -> new device token -> the cached
        # layout's filename never matches again (fresh process modeled by
        # resetting the memoized default store).
        ts.save_calibration(db)
        reset_default_stores()
        dev2 = default_device()
        assert dev2.cache_token != dev1.cache_token
        graph2, _ = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
        ts2 = TuneStore(tune_dir)
        TrainingExecutor(
            graph2, plan_cache=PlanCache(store=ts2), device=dev2, threads=4
        )
        stats = ts2.stats()
        assert stats["wavefront_hits"] == 0
        assert stats["wavefront_misses"] == 1

    def test_retired_planner_artifacts_are_never_served(self, tune_dir):
        """A store filled under the retired ``REPRO_MEMPLAN=greedy`` holds
        plain-priority orders in ``{fp}.order.json`` and ``.mgreedy``
        layouts: valid JSON, a valid schedule, a well-formed layout.
        Neither file name is ever read, so the build is a cold one."""

        def build():
            graph, _ = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
            store = TuneStore(tune_dir)
            ex = TrainingExecutor(
                graph, plan_cache=PlanCache(store=store),
                device=DeviceModel(), threads=4,
            )
            facts = GraphFacts(graph.outputs)
            perm = [facts.index[n.uid] for n in ex.executor.order]
            return facts, perm, store.stats()

        facts, cold_perm, _ = build()
        plans = tune_dir / "plans"
        (order_file,) = plans.glob("*.order.json")
        (layout_file,) = plans.glob("*.wavefront.json")
        # Creation order is the priority-only schedule of an un-rewritten
        # graph: what a scheduler without the footprint tie-break stored.
        plain = sorted(facts.nodes, key=lambda n: n.priority)
        validate_schedule(plain)
        stale_perm = [facts.index[n.uid] for n in plain]
        assert stale_perm != cold_perm
        order_file.with_name(
            order_file.name.replace(".memaware.", ".")
        ).write_text(json.dumps({"version": 1, "order": stale_perm}))
        order_file.unlink()
        layout_file.rename(layout_file.with_name(
            layout_file.name.replace(".mcolor.", ".mgreedy.")
        ))

        _, perm, stats = build()
        assert perm == cold_perm
        assert stats["order_hits"] == 0 and stats["order_misses"] == 1
        assert stats["wavefront_hits"] == 0
        assert stats["load_errors"] == 0

    def test_old_gate_layout_is_never_trusted(self, tune_dir):
        """A layout persisted under the simulated-seconds gate has the
        same (spec, "analytic") device token and would pass the
        structural validation; its file name lacks the gate tag, so the
        store misses, the plan is analyzed afresh, and the fresh verdict
        is what the next process warms up on."""
        graph, params, feeds = small_graph()
        device = DeviceModel()

        def build(g):
            store = TuneStore(tune_dir)
            ex = TrainingExecutor(
                g, plan_cache=PlanCache(store=store), device=device,
                threads=4,
            )
            return ex.executor.plan, store.stats()

        plan, _ = build(graph)
        assert plan.parallel_level_count == 0  # tiny kernels: all gated
        (fresh_file,) = (tune_dir / "plans").glob("*.wavefront.json")
        assert ".hostgate." in fresh_file.name

        # What the parent commit would have left behind for this plan:
        # same key minus the tag, every wide level parallel.
        levels = [
            {"i": w.instructions, "c": 1e-5, "p": len(w.instructions) > 1,
             "chunks": [[i] for i in w.instructions]}
            for w in plan.lowering.schedule.levels
        ]
        assert any(entry["p"] for entry in levels)
        old_file = fresh_file.with_name(
            fresh_file.name.replace(".hostgate.", ".")
        )
        old_file.write_text(json.dumps({
            "version": 1,
            "artifact": {
                "instructions": len(plan.lowering.descs),
                "regions": plan.lowering.schedule.region_count,
                "levels": levels,
            },
        }))
        fresh_file.unlink()

        graph2, _ = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
        plan2, stats2 = build(graph2)
        assert stats2["wavefront_hits"] == 0
        assert stats2["wavefront_misses"] == 1
        assert not plan2.wavefront_from_cache
        assert plan2.parallel_level_count == 0
        assert plan2.gated_level_count == plan.gated_level_count

        graph3, _ = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
        plan3, stats3 = build(graph3)
        assert stats3["wavefront_hits"] == 1
        assert plan3.wavefront_from_cache
        assert plan3._program is None

    def test_store_none_means_no_persistence(self, tune_dir):
        graph, _, _ = small_graph()
        TrainingExecutor(graph, plan_cache=PlanCache(store=None), threads=4)
        assert not (tune_dir / "plans").exists() or not any(
            (tune_dir / "plans").iterdir()
        )


class TestAutotunePersistence:
    def test_warm_autotune_reproduces_choice(self, tmp_path):
        ts = TuneStore(tmp_path)
        device = DeviceModel()
        cold = autotune_backend(2, 16, 1, 3, device=device, store=ts)
        assert ts.stats()["autotune_misses"] == 1
        warm_store = TuneStore(tmp_path)
        warm = autotune_backend(2, 16, 1, 3, device=device, store=warm_store)
        assert warm_store.stats()["autotune_hits"] == 1
        assert warm.choice is cold.choice
        for backend, res in cold.results.items():
            assert warm.results[backend].total_seconds == pytest.approx(
                res.total_seconds
            )

    def test_measure_lstm_robust(self):
        result = measure_lstm(2, 8, 1, 2, Backend.DEFAULT, repeats=3)
        assert result.total_seconds > 0
        assert len(result.timing.samples) == 3
