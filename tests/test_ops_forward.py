"""Forward-semantics tests: every operator against its numpy reference."""

import numpy as np
import pytest

import repro.ops as O
from repro.graph import Node, ShapeError, get_op, registered_ops
from repro.layout import Layout
from repro.runtime import GraphExecutor
from tests.helpers import rng


def run_op(out, feeds=None):
    """Execute a single output tensor with named placeholder feeds."""
    return GraphExecutor([out]).run(feeds or {}).outputs[0]


def place(name, arr):
    return O.placeholder(arr.shape, arr.dtype, name=name)


class TestElementwiseForward:
    def setup_method(self):
        self.a = rng(1).standard_normal((3, 4)).astype(np.float32)
        self.b = rng(2).standard_normal((3, 4)).astype(np.float32) + 2.0

    def _check(self, op, ref):
        pa, pb = place("a", self.a), place("b", self.b)
        out = run_op(op(pa, pb), {"a": self.a, "b": self.b})
        np.testing.assert_allclose(out, ref(self.a, self.b), rtol=1e-6)
        assert out.dtype == np.float32

    def test_add(self):
        self._check(O.add, np.add)

    def test_sub(self):
        self._check(O.sub, np.subtract)

    def test_mul(self):
        self._check(O.mul, np.multiply)

    def test_div(self):
        self._check(O.div, np.divide)

    def test_broadcast_row(self):
        row = self.b[0]
        pa, pb = place("a", self.a), place("b", row)
        out = run_op(O.add(pa, pb), {"a": self.a, "b": row})
        np.testing.assert_allclose(out, self.a + row, rtol=1e-6)

    @pytest.mark.parametrize("c", [-1.5, 0.0, 3.25])
    def test_scalar_ops(self, c):
        pa = place("a", self.a)
        feeds = {"a": self.a}
        np.testing.assert_allclose(
            run_op(O.add_scalar(pa, c), feeds), self.a + np.float32(c),
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            run_op(O.mul_scalar(pa, c), feeds), self.a * np.float32(c),
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            run_op(O.rsub_scalar(pa, c), feeds), np.float32(c) - self.a,
            rtol=1e-6,
        )

    def test_unary_chain(self):
        x = np.abs(self.a) + 0.5
        px = place("x", x)
        out = run_op(O.log(O.sqrt(O.exp(px))), {"x": x})
        np.testing.assert_allclose(out, x / 2.0, rtol=1e-5)

    def test_pow_scalar(self):
        x = np.abs(self.a) + 0.1
        out = run_op(O.pow_scalar(place("x", x), 2.5), {"x": x})
        np.testing.assert_allclose(out, x ** 2.5, rtol=1e-5)


class TestActivationForward:
    def test_tanh_sigmoid_relu(self):
        x = rng(3).standard_normal((5, 7)).astype(np.float32) * 3
        px = place("x", x)
        feeds = {"x": x}
        np.testing.assert_allclose(run_op(O.tanh(px), feeds), np.tanh(x),
                                   rtol=1e-6)
        np.testing.assert_allclose(
            run_op(O.sigmoid(px), feeds), 1 / (1 + np.exp(-x)), rtol=1e-5
        )
        np.testing.assert_allclose(run_op(O.relu(px), feeds),
                                   np.maximum(x, 0))

    def test_sigmoid_extreme_values_stable(self):
        x = np.array([-500.0, -50.0, 0.0, 50.0, 500.0], dtype=np.float32)
        out = run_op(O.sigmoid(place("x", x)), {"x": x})
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[[0, -1]], [0.0, 1.0], atol=1e-20)


def _classic_sigmoid(x):
    """The classic piecewise sigmoid, gathered per branch: 1/(1+exp(-x))
    where x >= 0, exp(x)/(1+exp(x)) elsewhere, both through exp(-|x|)."""
    out = np.empty_like(x)
    pos = x >= 0
    for mask, numerator in ((pos, None), (~pos, "t")):
        t = np.exp(-np.abs(x[mask]))
        out[mask] = (t if numerator else 1.0) / (1.0 + t)
    return out


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _float32_sweep():
    """Every 997th float32 bit pattern (NaNs, infinities, subnormals) plus
    the exact specials."""
    pattern = np.arange(0, 2 ** 32, 997, dtype=np.uint64).astype(np.uint32)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45],
        dtype=np.float32,
    )
    return np.concatenate([pattern.view(np.float32), specials])


def _float64_randoms():
    x = rng(41).standard_normal(20_000) * 40.0
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 745.2]
    return np.concatenate([x, specials])


class TestBranchFreeSigmoid:
    """``_sigmoid_into`` is bit-identical to the classic piecewise form."""

    @pytest.mark.parametrize("make", [_float32_sweep, _float64_randoms])
    def test_matches_piecewise_bit_for_bit(self, make):
        from repro.ops.activation import _sigmoid_into

        x = make()
        out, y = np.empty_like(x), x.copy()
        with np.errstate(invalid="ignore"):  # exp of a signalling NaN
            want = _classic_sigmoid(x)
            _sigmoid_into(x, out)
            _sigmoid_into(y, y)  # in place: ``out is x``
        assert np.array_equal(_bits(out), _bits(want))
        assert np.array_equal(_bits(y), _bits(want))

    def test_strided_column_slices(self):
        from repro.ops.activation import _sigmoid_into

        base = (rng(42).standard_normal((16, 48)) * 8).astype(np.float32)
        x = base[:, 5:29]
        want = _classic_sigmoid(np.ascontiguousarray(x))
        out = np.empty_like(x)
        _sigmoid_into(x, out)
        assert np.array_equal(_bits(out), _bits(want))
        # into a column slice of a wider buffer, and in place on one
        wide = np.zeros((16, 64), np.float32)
        _sigmoid_into(x, wide[:, 7:31])
        assert np.array_equal(_bits(wide[:, 7:31]), _bits(want))
        assert not wide[:, :7].any() and not wide[:, 31:].any()
        _sigmoid_into(x, x)
        assert np.array_equal(_bits(base[:, 5:29]), _bits(want))

    @pytest.mark.parametrize("shape", [(32, 512), (16, 256), (3, 20)])
    def test_split_gates_matches_per_gate_form(self, shape):
        from repro.ops.fused_rnn import _split_gates

        gates = (rng(43).standard_normal(shape) * 4).astype(np.float32)
        h = shape[1] // 4
        want = (
            _classic_sigmoid(gates[:, 0:h]),
            _classic_sigmoid(gates[:, h:2 * h]),
            np.tanh(gates[:, 2 * h:3 * h]),
            _classic_sigmoid(gates[:, 3 * h:4 * h]),
        )
        got = _split_gates(gates)
        assert len(got) == 4
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(_bits(np.ascontiguousarray(a)), _bits(b))


class TestMatmulForward:
    def test_matmul_all_transposes(self):
        a = rng(4).standard_normal((3, 5))
        b = rng(5).standard_normal((5, 4))
        for ta in (False, True):
            for tb in (False, True):
                aa = a.T if ta else a
                bb = b.T if tb else b
                pa, pb = place("a", aa), place("b", bb)
                out = run_op(O.matmul(pa, pb, ta=ta, tb=tb),
                             {"a": aa, "b": bb})
                np.testing.assert_allclose(out, a @ b, rtol=1e-6)

    def test_fully_connected_layouts_match(self):
        x = rng(6).standard_normal((4, 8)).astype(np.float32)
        w = rng(7).standard_normal((6, 8)).astype(np.float32)
        bias = rng(8).standard_normal(6).astype(np.float32)
        px, pw, pb = place("x", x), place("w", w), place("b", bias)
        feeds = {"x": x, "w": w, "b": bias}
        row = run_op(O.fully_connected(px, pw, pb, layout=Layout.ROW_MAJOR),
                     feeds)
        col = run_op(O.fully_connected(px, pw, pb, layout=Layout.COL_MAJOR),
                     feeds)
        np.testing.assert_allclose(row, x @ w.T + bias, rtol=1e-5)
        np.testing.assert_allclose(col, row, rtol=1e-5)

    def test_batch_dot(self):
        a = rng(9).standard_normal((2, 3, 5))
        b = rng(10).standard_normal((2, 5, 4))
        out = run_op(O.batch_dot(place("a", a), place("b", b)),
                     {"a": a, "b": b})
        np.testing.assert_allclose(out, a @ b, rtol=1e-6)

    def test_inner_dim_mismatch_raises(self):
        a = O.placeholder((3, 5), name="mm_a")
        b = O.placeholder((4, 4), name="mm_b")
        with pytest.raises(ShapeError):
            O.matmul(a, b)


class TestReduceForward:
    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (0, False), (1, True), (-1, False),
    ])
    def test_reductions(self, axis, keepdims):
        x = rng(11).standard_normal((3, 5))
        px = place("x", x)
        feeds = {"x": x}
        for fn, ref in ((O.reduce_sum, np.sum), (O.reduce_mean, np.mean),
                        (O.reduce_max, np.max)):
            out = run_op(fn(px, axis=axis, keepdims=keepdims), feeds)
            np.testing.assert_allclose(
                out, ref(x, axis=axis, keepdims=keepdims), rtol=1e-6
            )


class TestShapeOpsForward:
    def test_reshape_transpose_roundtrip(self):
        x = rng(12).standard_normal((2, 3, 4))
        px = place("x", x)
        out = run_op(
            O.transpose(O.transpose(px, (2, 0, 1)), (1, 2, 0)), {"x": x}
        )
        np.testing.assert_array_equal(out, x)

    def test_slice_axis(self):
        x = rng(13).standard_normal((4, 6))
        out = run_op(O.slice_axis(place("x", x), 1, 2, 5), {"x": x})
        np.testing.assert_array_equal(out, x[:, 2:5])

    def test_slice_out_of_range_raises(self):
        x = O.placeholder((4, 6), name="sl_x")
        with pytest.raises(ShapeError):
            O.slice_axis(x, 1, 2, 9)

    def test_concat_split_roundtrip(self):
        x = rng(14).standard_normal((6, 4))
        px = place("x", x)
        parts = O.split(px, 3, axis=0)
        out = run_op(O.concat(list(parts), axis=0), {"x": x})
        np.testing.assert_array_equal(out, x)

    def test_split_uneven_raises(self):
        x = O.placeholder((5, 2), name="sp_x")
        with pytest.raises(ShapeError):
            O.split(x, 2, axis=0)

    def test_broadcast_to_and_expand_dims(self):
        x = rng(15).standard_normal((3, 1))
        out = run_op(O.broadcast_to(place("x", x), (2, 3, 5)), {"x": x})
        np.testing.assert_array_equal(out, np.broadcast_to(x, (2, 3, 5)))
        out2 = run_op(O.expand_dims(place("y", x), 0), {"y": x})
        assert out2.shape == (1, 3, 1)

    def test_sequence_reverse(self):
        x = rng(16).standard_normal((5, 2, 3))
        out = run_op(O.sequence_reverse(place("x", x)), {"x": x})
        np.testing.assert_array_equal(out, x[::-1])


class TestSoftmaxAndNormForward:
    def test_softmax_rows_sum_to_one(self):
        x = rng(17).standard_normal((4, 9)) * 5
        out = run_op(O.softmax(place("x", x), axis=-1), {"x": x})
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-6)
        assert np.all(out >= 0)

    def test_softmax_shift_invariance(self):
        x = rng(18).standard_normal((3, 5))
        a = run_op(O.softmax(place("x", x), axis=-1), {"x": x})
        b = run_op(O.softmax(place("y", x + 100.0), axis=-1),
                   {"y": x + 100.0})
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_layer_norm_statistics(self):
        x = rng(19).standard_normal((6, 16)).astype(np.float32) * 3 + 2
        gamma = np.ones(16, np.float32)
        beta = np.zeros(16, np.float32)
        out = run_op(
            O.layer_norm(place("x", x), place("g", gamma), place("b", beta)),
            {"x": x, "g": gamma, "b": beta},
        )
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(6), atol=1e-3)

    def test_layer_norm_affine(self):
        x = rng(20).standard_normal((2, 8)).astype(np.float32)
        gamma = np.full(8, 2.0, np.float32)
        beta = np.full(8, -1.0, np.float32)
        out = run_op(
            O.layer_norm(place("x", x), place("g", gamma), place("b", beta)),
            {"x": x, "g": gamma, "b": beta},
        )
        np.testing.assert_allclose(out.mean(axis=-1), np.full(2, -1.0),
                                   atol=1e-5)


class TestEmbeddingForward:
    def test_gather(self):
        w = rng(21).standard_normal((10, 4)).astype(np.float32)
        idx = np.array([[0, 9], [3, 3]], dtype=np.int64)
        out = run_op(
            O.embedding(place("w", w), place("i", idx)), {"w": w, "i": idx}
        )
        np.testing.assert_array_equal(out, w[idx])

    def test_float_indices_rejected(self):
        w = O.placeholder((10, 4), name="emb_w")
        idx = O.placeholder((2,), np.float32, name="emb_i")
        with pytest.raises(TypeError):
            O.embedding(w, idx)


class TestLossForward:
    def test_cross_entropy_matches_reference(self):
        logits = rng(22).standard_normal((5, 7)).astype(np.float32)
        labels = np.array([0, 6, 3, 2, 1], dtype=np.int64)
        out = run_op(
            O.softmax_cross_entropy(place("l", logits), place("y", labels)),
            {"l": logits, "y": labels},
        )
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(
            np.exp(shifted).sum(axis=1, keepdims=True)
        )
        ref = -log_probs[np.arange(5), labels].mean()
        np.testing.assert_allclose(out, ref, rtol=1e-5)

    def test_ignore_label_masks_padding(self):
        logits = rng(23).standard_normal((4, 3)).astype(np.float32)
        labels = np.array([1, -1, 2, -1], dtype=np.int64)
        masked = run_op(
            O.softmax_cross_entropy(place("l", logits), place("y", labels)),
            {"l": logits, "y": labels},
        )
        sub_logits = logits[[0, 2]]
        sub_labels = labels[[0, 2]]
        ref = run_op(
            O.softmax_cross_entropy(place("l2", sub_logits),
                                    place("y2", sub_labels)),
            {"l2": sub_logits, "y2": sub_labels},
        )
        np.testing.assert_allclose(masked, ref, rtol=1e-6)

    def test_cross_entropy_bitwise_equals_full_softmax_formula(self):
        """The one-temporary kernel against the formula it replaced (full
        float64 softmax, then gather), on awkward inputs."""
        from repro.ops.softmax import softmax_array

        def full_softmax_loss(logits, labels, dtype):
            probs = softmax_array(logits.astype(np.float64), axis=-1)
            valid = labels != -1
            count = max(int(valid.sum()), 1)
            rows = np.arange(logits.shape[0])[valid]
            picked = probs[rows, labels[valid]]
            loss = -np.sum(np.log(np.maximum(picked, 1e-30))) / count
            return np.asarray(loss, dtype=dtype)

        gen = rng(25)
        with np.errstate(all="ignore"):
            for trial in range(200):
                n = int(gen.integers(1, 24))
                v = int(gen.choice([1, 2, 5, 33, 400]))
                dtype = (np.float32, np.float64)[trial % 2]
                logits = (
                    gen.standard_normal((n, v)) * gen.choice([1, 30, 300])
                ).astype(dtype)
                if trial % 5 == 0:
                    logits[gen.integers(0, n), gen.integers(0, v)] = (
                        gen.choice([np.inf, -np.inf, np.nan])
                    )
                labels = gen.integers(0, v, size=n).astype(np.int64)
                labels[gen.random(n) < 0.3] = -1
                if trial % 17 == 0:
                    labels[:] = -1
                node = O.softmax_cross_entropy(
                    O.placeholder((n, v), dtype, name=f"xe_l{trial}"),
                    O.placeholder((n,), np.int64, name=f"xe_y{trial}"),
                ).node
                (got,) = node.op.compute(node, [logits, labels])
                want = full_softmax_loss(logits, labels, dtype)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), trial

    def test_all_padding_does_not_crash(self):
        logits = rng(24).standard_normal((2, 3)).astype(np.float32)
        labels = np.array([-1, -1], dtype=np.int64)
        out = run_op(
            O.softmax_cross_entropy(place("l", logits), place("y", labels)),
            {"l": logits, "y": labels},
        )
        assert np.isfinite(out)


class TestFusedLstmForward:
    def test_matches_unfused_reference(self):
        batch, hidden = 3, 5
        gates = rng(25).standard_normal((batch, 4 * hidden)).astype(np.float32)
        c_prev = rng(26).standard_normal((batch, hidden)).astype(np.float32)

        pg, pc = place("g", gates), place("c", c_prev)
        h_t, c_t = O.lstm_gates(pg, pc)
        ex = GraphExecutor([h_t, c_t])
        h_out, c_out = ex.run({"g": gates, "c": c_prev}).outputs

        def sig(v):
            return 1 / (1 + np.exp(-v))

        i = sig(gates[:, 0:hidden])
        f = sig(gates[:, hidden:2 * hidden])
        g = np.tanh(gates[:, 2 * hidden:3 * hidden])
        o = sig(gates[:, 3 * hidden:4 * hidden])
        c_ref = f * c_prev + i * g
        h_ref = o * np.tanh(c_ref)
        np.testing.assert_allclose(c_out, c_ref, rtol=1e-5)
        np.testing.assert_allclose(h_out, h_ref, rtol=1e-5)

    def test_bad_gate_width_rejected(self):
        g = O.placeholder((2, 10), name="badg")  # not divisible by 4
        c = O.placeholder((2, 2), name="badc")
        with pytest.raises(ShapeError):
            O.lstm_gates(g, c)


class TestDropoutForward:
    def test_zero_probability_is_identity(self):
        x = rng(27).standard_normal((8, 8)).astype(np.float32)
        out = run_op(O.dropout(place("x", x), 0.0), {"x": x})
        np.testing.assert_array_equal(out, x)

    def test_scaling_preserves_expectation(self):
        x = np.ones((400, 400), np.float32)
        out = run_op(O.dropout(place("x", x), 0.3, seed=1), {"x": x})
        assert abs(out.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_mask_takes_the_input_dtype(self, p):
        masks = {}
        for dtype in (np.float32, np.float64):
            x = rng(28).standard_normal((16, 16)).astype(dtype)
            node = O.dropout(place("x", x), p, seed=3).node
            y, mask = node.op.compute(node, [x])
            assert y.dtype == mask.dtype == np.dtype(dtype)
            scale = dtype(1.0) / dtype(1.0 - p)
            assert set(np.unique(mask)) <= {0.0, scale}
            assert np.array_equal(y, x * mask)
            masks[dtype] = mask
        # one keep pattern, whatever the dtype
        assert np.array_equal(masks[np.float32] > 0, masks[np.float64] > 0)
        assert 0 < np.count_nonzero(masks[np.float64]) < 16 * 16

    def test_invalid_probability_rejected(self):
        x = O.placeholder((2, 2), name="dp_x")
        with pytest.raises(ValueError):
            O.dropout(x, 1.0)


class TestSourceOps:
    def test_unfed_placeholder_raises(self):
        x = O.placeholder((2,), name="lonely")
        from repro.runtime import ExecutionError

        with pytest.raises(ExecutionError):
            GraphExecutor([O.tanh(x)]).run({})

    def test_constant_and_zeros(self):
        c = O.constant(np.arange(6, dtype=np.float32).reshape(2, 3))
        z = O.zeros((2, 3))
        out = run_op(O.add(c, z))
        np.testing.assert_array_equal(
            out, np.arange(6, dtype=np.float32).reshape(2, 3)
        )


# -- the kernel contract, registry-wide ---------------------------------------


def _f32(seed, shape, low=None):
    """float32 normals, or uniforms in ``[low, low + 2)`` (log/sqrt)."""
    gen = rng(seed)
    if low is not None:
        return gen.uniform(low, low + 2.0, shape).astype(np.float32)
    return gen.standard_normal(shape).astype(np.float32)


def _i64(*values):
    return np.asarray(values, np.int64)


_A, _B, _ROW = _f32(1, (3, 4)), _f32(2, (3, 4)), _f32(3, (4,))
_POS = _f32(4, (3, 4), low=0.5)
_INT_A, _INT_B = _i64([5, -7, 9], [3, 2, 8]), _i64([2, 3, -4], [1, 5, 3])
_X3 = _f32(5, (2, 3, 4))
_LOGITS = _f32(6, (6, 9)) * 4

#: (case id, op name, inputs, attrs): every attribute variant of every
#: ``supports_out`` op — transposes, layouts +- bias, negative axes,
#: keepdims, 2- and 3-input concat — plus integer dtypes, which take the
#: compute-and-copy fallback
KERNEL_CASES = [
    *[(name, name, [_A, _B], {})
      for name in ("add", "sub", "mul", "div")],
    ("add-broadcast", "add", [_A, _ROW], {}),
    ("add-int64", "add", [_INT_A, _INT_B], {}),
    ("div-int64", "div", [_INT_A, _INT_B], {}),
    *[(name, name, [_A], {"scalar": 1.5})
      for name in ("add_scalar", "mul_scalar", "rsub_scalar")],
    ("pow_scalar", "pow_scalar", [_POS], {"scalar": 1.5}),
    ("mul_scalar-int64", "mul_scalar", [_INT_A], {"scalar": 2.5}),
    *[(name, name, [_A], {}) for name in ("neg", "exp", "tanh", "sigmoid",
                                          "relu")],
    *[(name, name, [_POS], {}) for name in ("log", "sqrt")],
    ("neg-int64", "neg", [_INT_A], {}),
    *[(name, name, [np.tanh(_A), _B], {})
      for name in ("tanh_grad", "sigmoid_grad", "relu_grad")],
    *[(f"matmul-ta{int(ta)}-tb{int(tb)}", "matmul",
       [_f32(7, (5, 3) if ta else (3, 5)), _f32(8, (4, 5) if tb else (5, 4))],
       {"ta": ta, "tb": tb, "layout": Layout.ROW_MAJOR})
      for ta in (False, True) for tb in (False, True)],
    *[(f"batch_dot-ta{int(ta)}-tb{int(tb)}", "batch_dot",
       [_f32(9, (2, 5, 3) if ta else (2, 3, 5)),
        _f32(10, (2, 4, 5) if tb else (2, 5, 4))],
       {"ta": ta, "tb": tb})
      for ta in (False, True) for tb in (False, True)],
    *[(f"fully_connected-{layout.value}-bias{int(bias)}", "fully_connected",
       [_f32(11, (4, 8)), _f32(12, (6, 8))] + ([_f32(13, (6,))] if bias
                                               else []),
       {"layout": layout})
      for layout in (Layout.ROW_MAJOR, Layout.COL_MAJOR)
      for bias in (False, True)],
    *[(f"{name}-axis{axis}-keep{int(keep)}", name, [_X3],
       {"axis": axis, "keepdims": keep})
      for name in ("reduce_sum", "reduce_mean", "reduce_max")
      for axis, keep in ((None, False), (0, True), (-1, False), (1, True))],
    ("reduce_sum-int64", "reduce_sum", [_INT_A], {"axis": -1,
                                                  "keepdims": False}),
    ("transpose-2d", "transpose", [_A], {"perm": (1, 0)}),
    ("transpose-3d", "transpose", [_X3], {"perm": (2, 0, 1)}),
    *[(f"slice_axis-axis{axis}", "slice_axis", [_X3],
       {"axis": axis, "begin": 1, "end": 3})
      for axis in (1, -1, -2)],
    *[(f"slice_axis_grad-axis{axis}", "slice_axis_grad", [_f32(14, shape)],
       {"axis": axis, "begin": 1, "end": 3, "like_shape": (2, 3, 4)})
      for axis, shape in ((-1, (2, 3, 2)), (1, (2, 2, 4)))],
    ("concat-2-axis0", "concat", [_A, _B], {"axis": 0}),
    ("concat-3-axis-1", "concat", [_A, _B, _POS], {"axis": -1}),
    ("split-2-axis0", "split", [_f32(15, (4, 3))], {"sections": 2,
                                                   "axis": 0}),
    ("split-3-axis-1", "split", [_f32(16, (2, 6))], {"sections": 3,
                                                    "axis": -1}),
    ("broadcast_to", "broadcast_to", [_f32(17, (3, 1))],
     {"shape": (2, 3, 5)}),
    ("softmax-axis-1", "softmax", [_X3], {"axis": -1}),
    ("softmax-axis0", "softmax", [_X3], {"axis": 0}),
    *[(f"softmax_grad-axis{axis}", "softmax_grad", [_A, _B], {"axis": axis})
      for axis in (-1, 0)],
    *[(f"softmax_cross_entropy_grad-{name}", "softmax_cross_entropy_grad",
       [_LOGITS, _i64(*labels), np.asarray(0.75, np.float32)],
       {"ignore_label": -1})
      for name, labels in (("all-valid", [0, 3, 8, 2, 5, 1]),
                           ("ignored-rows", [0, -1, 8, -1, 5, 1]),
                           ("all-ignored", [-1] * 6))],
    ("embedding", "embedding", [_f32(18, (10, 4)), _i64([0, 9], [3, 3])], {}),
    ("embedding_grad", "embedding_grad",
     [_i64([0, 9], [3, 3]), _f32(19, (2, 2, 4))], {"vocab_size": 10}),
    ("lstm_gates", "lstm_gates", [_f32(20, (3, 8)), _f32(21, (3, 2))], {}),
    ("lstm_gates_grad", "lstm_gates_grad",
     [_f32(22, (3, 8)), *[_f32(23 + j, (3, 2)) for j in range(4)]], {}),
    ("zeros", "zeros", [], {"shape": (2, 3), "dtype": np.dtype(np.float32)}),
]


class TestKernelContract:
    """``op.kernel(node)(*inputs, *outs)`` is ``compute``, bit for bit."""

    def test_every_out_op_has_a_case(self):
        out_ops = {n for n, op in registered_ops().items() if op.supports_out}
        assert out_ops == {case[1] for case in KERNEL_CASES}

    @pytest.mark.parametrize(
        "name,inputs,attrs", [case[1:] for case in KERNEL_CASES],
        ids=[case[0] for case in KERNEL_CASES],
    )
    def test_kernel_matches_compute(self, name, inputs, attrs):
        op = get_op(name)
        node = Node(op, [place(f"k{j}", a) for j, a in enumerate(inputs)],
                    attrs)
        want = op.compute(node, [a.copy() for a in inputs])
        specs = node.out_specs
        assert [w.dtype for w in want] == [s.dtype for s in specs]
        kernel = op.kernel(node)

        args = [a.copy() for a in inputs]
        outs = [np.empty(s.shape, s.dtype) for s in specs]
        kernel(*args, *outs)
        for got, exp in zip(outs, want):
            assert np.array_equal(got, exp), name
        for arg, a in zip(args, inputs):
            assert np.array_equal(arg, a), "kernel wrote an input"

        # ``out`` *is* the input at every in-place position
        for pos in op.inplace_operands:
            if inputs[pos].shape != specs[0].shape:
                continue  # a broadcast operand cannot be the output
            args = [a.copy() for a in inputs]
            kernel(*args, args[pos])
            assert np.array_equal(args[pos], want[0]), (name, pos)
