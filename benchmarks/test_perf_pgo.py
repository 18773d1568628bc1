"""Profile-guided tuning benchmark: calibration accuracy.

One claim, on the NMT training workload: **calibration beats the
analytical model at ranking real op costs.** The analytical roofline
model knows the simulated Titan Xp, not this host — its per-op estimates
systematically mis-rank numpy kernels (e.g. it prices embedding gathers
and softmax reductions off bandwidth assumptions that do not hold here).
After one harvest pass, the calibrated model predicts per-op time
*distributions* strictly closer to held-out measurements. The metric is
scale-free: each model's per-node predictions are normalized to fractions
of its own total, then scored as mean ``|log(predicted_frac /
measured_frac)|`` over calibrated-covered nodes, so neither absolute-time
domain (model seconds vs. host seconds) gets an artificial edge.

Results persist to ``benchmarks/results/perf_pgo.txt`` and, machine
readable for cross-PR tracking, ``BENCH_pgo.json`` at the repo root.
"""

import json
import math
import pathlib

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments import format_table
from repro.gpumodel import DeviceModel
from repro.models import NmtConfig, build_nmt
from repro.nn import Backend
from repro.pgo import CalibratedDeviceModel, CalibrationDB, shape_class
from repro.profiler import measure_node_timings
from repro.runtime.scheduler import schedule

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Small NMT so one harvest pass stays cheap; unrolled seq2seq still has
#: hundreds of nodes across every op family the cost model prices.
NMT = NmtConfig(
    src_vocab_size=500, tgt_vocab_size=500, embed_size=32, hidden_size=32,
    encoder_layers=1, decoder_layers=1, src_len=10, tgt_len=10,
    batch_size=4, backend=Backend.CUDNN,
)

HARVEST_REPEATS = 5
HOLDOUT_REPEATS = 5


def _nmt_feeds(cfg: NmtConfig) -> dict:
    rng = np.random.default_rng(0)
    return {
        name: rng.integers(1, cfg.src_vocab_size, (cfg.src_len, cfg.batch_size))
        for name in ("src_tokens", "tgt_tokens", "tgt_labels")
    }


def _fraction_error(predictions: dict, measured: dict) -> float:
    """Mean |log(pred_frac / meas_frac)| over the common node set."""
    keys = [k for k in measured if predictions.get(k, 0.0) > 0.0
            and measured[k] > 0.0]
    pred_total = sum(predictions[k] for k in keys)
    meas_total = sum(measured[k] for k in keys)
    return sum(
        abs(math.log((predictions[k] / pred_total)
                     / (measured[k] / meas_total)))
        for k in keys
    ) / len(keys)


def _calibration_accuracy() -> dict:
    model = build_nmt(NMT)
    graph = model.graph
    params = model.store.initialize(seed=0)
    feeds = _nmt_feeds(NMT)
    order = schedule(graph.outputs)

    # Harvest pass -> calibration DB (exactly what calibrate_and_save does,
    # kept inline here so the held-out pass reuses the bound arrays).
    analytic = DeviceModel()
    db = CalibrationDB()
    for timing in measure_node_timings(order, feeds, params,
                                       repeats=HARVEST_REPEATS):
        cls = shape_class(timing.node)
        if cls is None:
            continue
        db.observe(cls, timing.seconds,
                   analytic.node_cost(timing.node).kernel_seconds)

    # Held-out measurement pass: fresh timings the DB never saw.
    holdout = measure_node_timings(order, feeds, params,
                                   repeats=HOLDOUT_REPEATS)
    calibrated = CalibratedDeviceModel(db)
    measured, analytic_pred, calibrated_pred = {}, {}, {}
    for timing in holdout:
        node = timing.node
        if shape_class(node) is None or timing.seconds <= 0.0:
            continue
        measured[node.uid] = timing.seconds
        analytic_pred[node.uid] = analytic.node_cost(node).kernel_seconds
        calibrated_pred[node.uid] = calibrated.predict_host_seconds(node)

    return {
        "nodes_scored": len(measured),
        "classes_covered": db.coverage(),
        "model_scale": db.model_scale(),
        "analytic_err": _fraction_error(analytic_pred, measured),
        "calibrated_err": _fraction_error(calibrated_pred, measured),
        "calibrated_hits": calibrated.calibrated_hits,
    }


def test_pgo_calibration(benchmark, save_result):
    accuracy = run_once(benchmark, _calibration_accuracy)

    save_result(
        "perf_pgo",
        format_table(
            ["metric", "value"],
            [
                ("nodes scored", accuracy["nodes_scored"]),
                ("shape classes covered", accuracy["classes_covered"]),
                ("analytic frac err (mean |log|)",
                 round(accuracy["analytic_err"], 3)),
                ("calibrated frac err (mean |log|)",
                 round(accuracy["calibrated_err"], 3)),
                ("error reduction",
                 f"{(1 - accuracy['calibrated_err'] / accuracy['analytic_err']) * 100:.0f}%"),
            ],
            "Profile-guided tuning on NMT: calibration accuracy",
        ),
    )
    (REPO_ROOT / "BENCH_pgo.json").write_text(
        json.dumps({"calibration": accuracy}, indent=2) + "\n"
    )

    # Calibrated estimates are strictly closer to measured op times.
    assert accuracy["calibrated_err"] < accuracy["analytic_err"]
    assert accuracy["calibrated_hits"] > 0
    assert accuracy["classes_covered"] > 10
