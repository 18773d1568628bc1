"""The hot kernels compute each value once, bit for bit as before.

Layer norm shares ``x - mean`` between its variance and its output and
builds both passes in place, the loss widens its logits once, Adam updates
through four parameter-sized temporaries instead of nine, and the LSTM
gate kernels are baked once per hidden size. Each is checked here against
the code it replaced (the oracles in ``tests/helpers.py``) by comparing
dtypes and raw bytes, so a flipped zero sign or a different NaN fails too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ops as O
from repro.graph import Node, get_op
from repro.ops.fused_rnn import _lstm_gates_grad_kernel, _lstm_gates_kernel
from repro.train import Adam
from tests.helpers import (
    reference_adam_update_one,
    reference_layer_norm,
    reference_layer_norm_grad,
    reference_lstm_gates_grad_into,
    reference_lstm_gates_into,
    reference_softmax_cross_entropy,
    same_bits,
)

_SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf)
_HIDDEN = st.sampled_from([37, 100, 128])
_FLOAT = st.sampled_from([np.float32, np.float64])


@st.composite
def _arrays(draw, shape, dtype, specials=_SPECIALS):
    """Seeded normals of ``shape`` with a few of ``specials`` planted."""
    seed = draw(st.integers(0, 2 ** 16))
    a = np.random.default_rng(seed).standard_normal(shape) * 3
    a = a.astype(dtype)
    if a.size:
        flat = a.reshape(-1)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, a.size - 1))
            flat[at] = draw(st.sampled_from(specials))
    return a


def _node(name, arrays, attrs=None):
    places = [O.placeholder(a.shape, a.dtype, name=f"in{j}")
              for j, a in enumerate(arrays)]
    return Node(get_op(name), places, attrs)


# -- layer norm ---------------------------------------------------------------


@st.composite
def _layer_norm_case(draw):
    h = draw(_HIDDEN)
    dtype = draw(_FLOAT)
    lead = draw(st.sampled_from([(1,), (3,), (2, 3)]))
    x = draw(_arrays(lead + (h,), dtype))
    # a mixed-dtype gain: float64 over a float32 input
    gdtype = draw(st.sampled_from([dtype, np.float64]))
    gamma = draw(_arrays((h,), gdtype))
    beta = draw(_arrays((h,), dtype))
    dy = draw(_arrays(lead + (h,), draw(st.sampled_from([dtype,
                                                         np.float64]))))
    return x, gamma, beta, dy


@settings(max_examples=60, deadline=None)
@given(_layer_norm_case())
def test_layer_norm_matches_the_two_pass_form(case):
    x, gamma, beta, dy = case
    node = _node("layer_norm", [x, gamma, beta])
    with np.errstate(all="ignore"):
        got = node.op.compute(node, [x, gamma, beta])
        want = reference_layer_norm(x, gamma, beta)
    for g, w in zip(got, want):
        assert same_bits(g, w)
    _, mean, rstd = want
    inputs = [x, gamma, mean, rstd, dy]
    grad = _node("layer_norm_grad", inputs)
    with np.errstate(all="ignore"):
        got = grad.op.compute(grad, [a.copy() for a in inputs])
        want = reference_layer_norm_grad(*inputs)
    for g, w in zip(got, want):
        assert same_bits(g, w)


def test_layer_norm_does_not_write_its_inputs():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((4, 37)).astype(np.float32)
    gamma, beta = (gen.standard_normal(37).astype(np.float32)
                   for _ in range(2))
    kept = [a.copy() for a in (x, gamma, beta)]
    node = _node("layer_norm", [x, gamma, beta])
    _, mean, rstd = node.op.compute(node, [x, gamma, beta])
    for a, k in zip((x, gamma, beta), kept):
        assert same_bits(a, k)
    dy = gen.standard_normal(x.shape).astype(np.float32)
    inputs = [x, gamma, mean, rstd, dy]
    kept = [a.copy() for a in inputs]
    grad = _node("layer_norm_grad", inputs)
    grad.op.compute(grad, inputs)
    for a, k in zip(inputs, kept):
        assert same_bits(a, k)


# -- the loss -----------------------------------------------------------------


@st.composite
def _loss_case(draw):
    n = draw(st.integers(1, 6))
    vocab = draw(st.sampled_from([5, 37, 100]))
    logits = draw(_arrays((n, vocab), draw(_FLOAT)))
    labels = np.asarray(
        draw(st.lists(st.integers(-1, vocab - 1), min_size=n, max_size=n)),
        np.int64,
    )
    return logits, labels


@settings(max_examples=60, deadline=None)
@given(_loss_case())
def test_loss_forward_matches_the_buffered_cast(case):
    logits, labels = case
    node = _node("softmax_cross_entropy", [logits, labels],
                 {"ignore_label": -1})
    with np.errstate(all="ignore"):
        (got,) = node.op.compute(node, [logits, labels])
        want = reference_softmax_cross_entropy(logits, labels)
    assert same_bits(got, want)


# -- Adam ---------------------------------------------------------------------


@st.composite
def _adam_case(draw):
    shapes = {"s": (), "b": (draw(_HIDDEN),), "w": (3, draw(_HIDDEN))}
    pdtype = draw(_FLOAT)
    gdtype = draw(st.sampled_from([pdtype, np.float64]))
    params = {k: draw(_arrays(s, pdtype)) for k, s in shapes.items()}
    steps = [{k: draw(_arrays(s, gdtype)) for k, s in shapes.items()}
             for _ in range(3)]
    clip = draw(st.sampled_from([None, 0.5]))
    return params, steps, clip


@settings(max_examples=40, deadline=None)
@given(_adam_case())
def test_adam_matches_the_nine_temporary_form(case):
    params, steps, clip = case
    new, old = Adam(1e-2, clip_norm=clip), Adam(1e-2, clip_norm=clip)
    old._update_one = reference_adam_update_one.__get__(old)
    p_new = {k: v.copy() for k, v in params.items()}
    p_old = {k: v.copy() for k, v in params.items()}
    for grads in steps:
        with np.errstate(all="ignore"):
            new.update(p_new, {k: g.copy() for k, g in grads.items()})
            old.update(p_old, {k: g.copy() for k, g in grads.items()})
        for k in params:
            assert same_bits(p_new[k], p_old[k])
            assert same_bits(new._m[k], old._m[k])
            assert same_bits(new._v[k], old._v[k])


def test_adam_takes_numpy_hyperparameters_as_python_floats():
    opt = Adam(np.float64(1e-2), epsilon=np.float64(1e-8))
    assert type(opt.learning_rate) is float and type(opt.epsilon) is float


# -- the LSTM gate block ------------------------------------------------------


@st.composite
def _lstm_case(draw):
    h = draw(_HIDDEN)
    dtype = draw(_FLOAT)
    b = draw(st.integers(1, 4))
    gates = draw(_arrays((b, 4 * h), dtype))
    rest = [draw(_arrays((b, h), dtype)) for _ in range(4)]
    return gates, rest


@settings(max_examples=60, deadline=None)
@given(_lstm_case())
def test_lstm_kernels_match_the_sliced_form(case):
    gates, (c_prev, c, dh, dc) = case
    b, h = c_prev.shape
    got = [np.empty((b, h), gates.dtype) for _ in range(2)]
    want = [np.empty((b, h), gates.dtype) for _ in range(2)]
    with np.errstate(all="ignore"):
        _lstm_gates_kernel(h)(gates, c_prev, *got)
        reference_lstm_gates_into(gates, c_prev, *want)
    for g, w in zip(got, want):
        assert same_bits(g, w)
    got = [np.empty_like(gates), np.empty_like(c_prev)]
    want = [np.empty_like(gates), np.empty_like(c_prev)]
    with np.errstate(all="ignore"):
        _lstm_gates_grad_kernel(h)(gates, c_prev, c, dh, dc, *got)
        reference_lstm_gates_grad_into(gates, c_prev, c, dh, dc, *want)
    for g, w in zip(got, want):
        assert same_bits(g, w)


@pytest.mark.parametrize("name,memo,make", [
    ("lstm_gates", _lstm_gates_kernel,
     lambda b, h: [np.zeros((b, 4 * h), np.float32),
                   np.zeros((b, h), np.float32)]),
    ("lstm_gates_grad", _lstm_gates_grad_kernel,
     lambda b, h: [np.zeros((b, 4 * h), np.float32),
                   *[np.zeros((b, h), np.float32)] * 4]),
])
def test_gate_kernels_are_memoized_on_hidden_size(name, memo, make):
    """Equal H shares one kernel (whatever the batch), a new H bakes a new
    one — so lowering a plan bakes each hidden size once."""
    op = get_op(name)
    kernels = [op.kernel(_node(name, make(b, h)))
               for b, h in ((2, 37), (5, 37), (2, 100))]
    assert kernels[0] is kernels[1]
    assert kernels[0] is not kernels[2]
    assert memo(37) is kernels[0] and memo(100) is kernels[2]


# -- operand order, down to the NaN payload ----------------------------------


def _tagged_nans(shape, dtype, tag):
    """All-NaN array whose payload (and sign) carries ``tag``: where both
    operands of an operation are NaN the result is one of the two, so a
    swapped operand order shows as a different payload."""
    bits = np.dtype(dtype).itemsize * 8
    uint = np.uint32 if bits == 32 else np.uint64
    quiet = (0x7FC00000 if bits == 32 else 0x7FF8000000000000) | tag
    sign = 1 << (bits - 1) if tag % 2 else 0
    return np.full(shape, quiet | sign, uint).view(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_kernel_keeps_operand_order(dtype):
    h, lead = 37, (2, 3)

    def nans(shape, tag):
        return _tagged_nans(shape, dtype, tag)

    x, gamma, beta, dy = (nans(lead + (h,), 1), nans((h,), 2),
                          nans((h,), 3), nans(lead + (h,), 4))
    node = _node("layer_norm", [x, gamma, beta])
    with np.errstate(all="ignore"):
        got = node.op.compute(node, [x, gamma, beta])
        want = reference_layer_norm(x, gamma, beta)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        mean, rstd = nans(lead + (1,), 5), nans(lead + (1,), 6)
        inputs = [x, gamma, mean, rstd, dy]
        grad = _node("layer_norm_grad", inputs)
        got = grad.op.compute(grad, inputs)
        want = reference_layer_norm_grad(*inputs)
        assert all(same_bits(g, w) for g, w in zip(got, want))

        gates, rest = nans((3, 4 * h), 7), [nans((3, h), 8 + j)
                                            for j in range(4)]
        got = [np.empty((3, h), dtype) for _ in range(2)]
        want = [np.empty((3, h), dtype) for _ in range(2)]
        _lstm_gates_kernel(h)(gates, rest[0], *got)
        reference_lstm_gates_into(gates, rest[0], *want)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        got = [np.empty_like(gates), np.empty((3, h), dtype)]
        want = [np.empty_like(gates), np.empty((3, h), dtype)]
        _lstm_gates_grad_kernel(h)(gates, *rest, *got)
        reference_lstm_gates_grad_into(gates, *rest, *want)
        assert all(same_bits(g, w) for g, w in zip(got, want))

        new, old = Adam(1e-2), Adam(1e-2)
        old._update_one = reference_adam_update_one.__get__(old)
        p_new, p_old = ({"w": nans((3, h), 12)} for _ in range(2))
        for step in range(3):
            grads = {"w": nans((3, h), 13 + step)}
            new.update(p_new, grads)
            old.update(p_old, grads)
            assert same_bits(p_new["w"], p_old["w"])
