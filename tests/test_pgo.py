"""Profile-guided tuning: calibration records and the persistent store.

Durability is the point of most of these tests: a tuning directory is an
*advisory* cache of measurements, so corruption, truncation and
concurrent writers must all degrade to cold-path behavior. Plans are
never persisted, so nothing a directory holds can change one.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

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


RETIRED_PLANS = Path(__file__).parent / "data" / "retired_plans"


class TestWarmPlans:
    """What is left of warm starts: a populated directory changes no plan."""

    def test_retired_planner_artifacts_are_never_served(
        self, tune_dir, monkeypatch
    ):
        """A ``plans/`` directory left by older checkouts changes nothing.

        ``tests/data/retired_plans`` holds what the last commit that
        persisted plans wrote for this graph (``DeviceModel()``,
        ``threads=4``): a valid ``{fp}.memaware.order.json`` and the serial
        marker as ``.mcolor.hostgate.wavefront.json`` — loading that one
        skipped the wavefront analysis, leaving the level counters at 0.
        Beside them, the two retired flavours: a plain-priority order (a
        valid schedule, not the one ``schedule()`` returns) as
        ``{fp}.order.json`` and an ``.mgreedy`` layout. None is opened or
        rewritten, and the build equals the one over an empty directory.
        """

        def build():
            graph, _ = pure_lstm_graph(4, 16, 1, 3, Backend.DEFAULT)
            store = TuneStore(tune_dir)
            ex = TrainingExecutor(
                graph, plan_cache=PlanCache(store=store),
                device=DeviceModel(), threads=4,
            )
            facts = GraphFacts(graph.outputs)
            plan = ex.executor.plan
            built = {
                "order": [facts.index[n.uid] for n in ex.executor.order],
                "instructions": len(plan.lowering.descs),
                "levels": plan.wavefront_level_count,
                "gated": plan.gated_level_count,
                "parallel": plan.parallel_level_count,
            }
            return facts, built, store.stats()

        facts, cold, _ = build()
        assert cold["levels"] > 0 and cold["gated"] > 0  # analyzed, all gated
        plans = tune_dir / "plans"
        assert not plans.exists()

        shutil.copytree(RETIRED_PLANS, plans)
        (order_file,) = plans.glob("*.memaware.order.json")
        (layout_file,) = plans.glob("*.mcolor.hostgate.wavefront.json")
        assert json.loads(order_file.read_text())["order"] == cold["order"]
        assert json.loads(layout_file.read_text())["artifact"] == {
            "instructions": cold["instructions"], "serial": True,
        }
        plain = sorted(facts.nodes, key=lambda n: n.priority)
        validate_schedule(plain)
        stale_perm = [facts.index[n.uid] for n in plain]
        assert stale_perm != cold["order"]
        order_file.with_name(
            order_file.name.replace(".memaware.", ".")
        ).write_text(json.dumps({"version": 1, "order": stale_perm}))
        shutil.copy(layout_file, layout_file.with_name(
            layout_file.name.replace(".mcolor.", ".mgreedy.")
        ))
        before = {
            p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in plans.iterdir()
        }
        assert len(before) == 4

        opened: list[str] = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", spy)
            patch.setattr(io, "open", spy)
            _, warm, stats = build()
        assert warm == cold
        assert stats["load_errors"] == 0 and stats["saves"] == 0
        assert not [p for p in opened if p.startswith(str(plans))]
        assert before == {
            p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in plans.iterdir()
        }

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
