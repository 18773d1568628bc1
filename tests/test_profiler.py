"""Tests for the memory and runtime profilers."""

import numpy as np
import pytest

import repro.ops as O
from repro.autodiff import compile_training
from repro.graph import scope
from repro.gpumodel import DeviceModel
from repro.profiler import (
    CUDA_CONTEXT_BYTES,
    dram_transactions,
    kernel_family,
    profile_memory,
    profile_runtime,
)
from repro.runtime import TrainingExecutor


def _scoped_graph(batch=8):
    x = O.placeholder((batch, 16), name="pf_x")
    labels = O.placeholder((batch,), np.int64, name="pf_y")
    with scope("rnn"):
        w1 = O.variable((16, 16), name="pf_w1")
        hidden = O.tanh(O.fully_connected(x, w1))
    with scope("output"):
        w2 = O.variable((5, 16), name="pf_w2")
        logits = O.fully_connected(hidden, w2)
    loss = O.softmax_cross_entropy(logits, labels)
    return compile_training(
        loss, {"pf_w1": w1, "pf_w2": w2}, {"pf_x": x, "pf_y": labels}
    )


class TestMemoryProfiler:
    def test_categories_and_total(self):
        # At batch 8 the footprint tie-break moves the peak to a step where
        # no feature map is live; at 32 the hidden activation outweighs it.
        ex = TrainingExecutor(_scoped_graph(batch=32))
        report = profile_memory(ex.memory_plan, optimizer="sgd")
        assert report.total_bytes == report.tracked_bytes + report.untrackable
        assert report.untrackable >= CUDA_CONTEXT_BYTES
        assert report.weights > 0
        assert report.feature_maps > 0

    def test_optimizer_state_accounting(self):
        ex = TrainingExecutor(_scoped_graph())
        sgd = profile_memory(ex.memory_plan, optimizer="sgd")
        momentum = profile_memory(ex.memory_plan, optimizer="momentum")
        adam = profile_memory(ex.memory_plan, optimizer="adam")
        assert sgd.weights < momentum.weights < adam.weights
        # Adam keeps two extra copies vs sgd's zero, over W itself.
        param_bytes = (16 * 16 + 5 * 16) * 4
        assert adam.weights - sgd.weights == 2 * param_bytes

    def test_unknown_optimizer_rejected(self):
        ex = TrainingExecutor(_scoped_graph())
        with pytest.raises(ValueError, match="unknown optimizer"):
            profile_memory(ex.memory_plan, optimizer="lion")

    def test_untrackable_can_be_disabled(self):
        ex = TrainingExecutor(_scoped_graph())
        report = profile_memory(ex.memory_plan, include_untrackable=False)
        assert report.untrackable == 0

    def test_by_layer_breakdown_uses_scopes(self):
        ex = TrainingExecutor(_scoped_graph())
        report = profile_memory(ex.memory_plan)
        assert "rnn" in report.by_layer

    def test_format_includes_all_rows(self):
        ex = TrainingExecutor(_scoped_graph())
        text = profile_memory(ex.memory_plan).format("unit test")
        for key in ("placeholders", "weights", "feature_maps",
                    "workspace", "untrackable", "total"):
            assert key in text

    def test_fraction_sums_to_one(self):
        ex = TrainingExecutor(_scoped_graph())
        report = profile_memory(ex.memory_plan)
        total = sum(
            report.fraction(k) for k in report.by_data_structure()
        )
        assert abs(total - 1.0) < 1e-9


class TestRuntimeProfiler:
    def _report(self):
        ex = TrainingExecutor(_scoped_graph(), device=DeviceModel())
        return profile_runtime(ex.simulate_cost().timings)

    def test_totals_consistent(self):
        report = self._report()
        assert report.kernel_seconds > 0
        assert report.api_seconds > 0
        assert abs(sum(report.by_kernel.values())
                   - report.kernel_seconds) < 1e-12
        assert abs(sum(report.by_scope.values())
                   - report.kernel_seconds) < 1e-12

    def test_kernel_families(self):
        assert kernel_family("fully_connected") == "sgemm (fully-connected)"
        assert kernel_family("lstm_gates") == "fused LSTM pointwise"
        assert kernel_family("add") == "elementwise / other"
        assert kernel_family("sequence_reverse") == "SequenceReverse"

    def test_scope_attribution_includes_backward(self):
        report = self._report()
        # rnn scope covers both the forward FC and its backward GEMMs.
        assert report.by_scope.get("rnn", 0) > 0
        assert report.by_scope.get("output", 0) > 0

    def test_iteration_bound_by_larger_stream(self):
        report = self._report()
        assert report.iteration_seconds == max(
            report.kernel_seconds, report.api_seconds
        )

    def test_dram_transactions(self):
        ex = TrainingExecutor(_scoped_graph(), device=DeviceModel())
        timings = ex.simulate_cost().timings
        tx = dram_transactions(timings)
        assert tx == sum(t.dram_bytes for t in timings) // 32

    def test_format_readable(self):
        text = self._report().format("unit test")
        assert "GPU kernels" in text
        assert "by model scope" in text
