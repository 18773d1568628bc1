"""Property-based tests (hypothesis) on the core invariants.

These exercise the substrate and the Echo pass on *generated* structures,
not just the hand-built models: shape inference against numpy, allocator
conservation laws, scheduler validity under random priorities, and the
pass's two guarantees (numerics preserved bitwise, footprint never worse)
on randomized O-shape graphs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ops as O
from repro.autodiff import compile_training
from repro.echo import EchoConfig, optimize
from repro.graph import ShapeError, broadcast_shapes
from repro.graph.shapes import reduced_shape
from repro.runtime import (
    Category,
    GraphExecutor,
    TrainingExecutor,
    plan_memory,
    schedule,
    validate_schedule,
)
from repro.train.metrics import corpus_bleu
from tests.helpers import reference_run

# -- strategies --------------------------------------------------------------

dims = st.integers(min_value=1, max_value=6)
shapes = st.lists(dims, min_size=0, max_size=4).map(tuple)


@st.composite
def broadcastable_pairs(draw):
    """Two shapes that numpy can broadcast together."""
    base = draw(st.lists(dims, min_size=1, max_size=4))
    a = list(base)
    b = list(base)
    for i in range(len(base)):
        which = draw(st.integers(0, 2))
        if which == 0:
            a[i] = 1
        elif which == 1:
            b[i] = 1
    cut = draw(st.integers(0, len(base)))
    return tuple(a), tuple(b[cut:])


# -- shape inference ----------------------------------------------------------


class TestShapeProperties:
    @given(broadcastable_pairs())
    def test_broadcast_matches_numpy(self, pair):
        a, b = pair
        ours = broadcast_shapes(a, b)
        theirs = np.broadcast_shapes(a, b)
        assert ours == theirs

    @given(shapes, shapes)
    def test_broadcast_agrees_with_numpy_on_errors(self, a, b):
        try:
            theirs = np.broadcast_shapes(a, b)
        except ValueError:
            theirs = None
        try:
            ours = broadcast_shapes(a, b)
        except ShapeError:
            ours = None
        assert ours == theirs

    @given(st.lists(dims, min_size=1, max_size=4).map(tuple),
           st.integers(-4, 3), st.booleans())
    def test_reduced_shape_matches_numpy(self, shape, axis, keepdims):
        if not -len(shape) <= axis < len(shape):
            return
        arr = np.zeros(shape)
        expected = np.sum(arr, axis=axis, keepdims=keepdims).shape
        assert reduced_shape(shape, axis, keepdims) == expected


# -- random elementwise graphs: execution + gradients -------------------------


@st.composite
def random_expression(draw):
    """A random scalar-valued expression over two placeholders."""
    a = O.placeholder((3, 4), np.float64, name="pb_a")
    b = O.placeholder((3, 4), np.float64, name="pb_b")
    pool = [a, b]
    num_ops = draw(st.integers(1, 8))
    for _ in range(num_ops):
        kind = draw(st.integers(0, 5))
        x = draw(st.sampled_from(pool))
        y = draw(st.sampled_from(pool))
        if kind == 0:
            pool.append(O.add(x, y))
        elif kind == 1:
            pool.append(O.mul(x, y))
        elif kind == 2:
            pool.append(O.sub(x, y))
        elif kind == 3:
            pool.append(O.tanh(x))
        elif kind == 4:
            pool.append(O.sigmoid(x))
        else:
            pool.append(O.mul_scalar(x, draw(st.floats(-2, 2))))
    return a, b, O.reduce_mean(pool[-1])


class TestRandomGraphs:
    @given(random_expression(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_execution_deterministic_and_finite(self, expr, seed):
        a, b, out = expr
        gen = np.random.default_rng(seed)
        feeds = {
            "pb_a": gen.standard_normal((3, 4)),
            "pb_b": gen.standard_normal((3, 4)),
        }
        ex = GraphExecutor([out])
        v1 = ex.run(feeds).outputs[0]
        v2 = ex.run(feeds).outputs[0]
        assert np.isfinite(v1)
        assert v1 == v2

    @given(random_expression())
    @settings(max_examples=20, deadline=None)
    def test_schedule_always_valid(self, expr):
        _a, _b, out = expr
        validate_schedule(schedule([out]))


# -- memory planner conservation laws ------------------------------------------


class TestAllocatorProperties:
    @given(random_expression())
    @settings(max_examples=20, deadline=None)
    def test_timeline_nonnegative_and_peak_consistent(self, expr):
        _a, _b, out = expr
        order = schedule([out])
        plan = plan_memory(order, [out])
        assert all(v >= 0 for v in plan.timeline)
        assert plan.peak_bytes == max(plan.timeline)
        assert sum(plan.peak_by_category.values()) == plan.peak_bytes

    @given(random_expression())
    @settings(max_examples=20, deadline=None)
    def test_lifetimes_cover_all_uses(self, expr):
        _a, _b, out = expr
        order = schedule([out])
        plan = plan_memory(order, [out])
        position = {n.uid: i for i, n in enumerate(order)}
        for node in order:
            for t in node.inputs:
                life = plan.lifetimes[t.key]
                assert life.alloc_step <= position[node.uid] <= life.free_step

    @given(random_expression())
    @settings(max_examples=20, deadline=None)
    def test_peak_bounded_by_total_allocation(self, expr):
        _a, _b, out = expr
        order = schedule([out])
        plan = plan_memory(order, [out])
        total = sum(life.nbytes for life in plan.lifetimes.values())
        assert plan.peak_bytes <= total + plan.workspace_pool_hwm


# -- Echo on randomized O-shape graphs ----------------------------------------


@st.composite
def o_shape_training_graph(draw):
    """Random number of attention-like steps with random interior depth."""
    steps = draw(st.integers(2, 5))
    depth = draw(st.integers(1, 3))
    batch, seq, hidden = 4, draw(st.integers(4, 10)), 8
    keys = O.placeholder((batch, seq, hidden), name="pb_keys")
    w = O.variable((hidden, hidden), name="pb_w")
    v = O.variable((1, hidden), name="pb_v")
    queries = [
        O.placeholder((batch, hidden), name=f"pb_q{t}") for t in range(steps)
    ]
    total = None
    for t in range(steps):
        q_proj = O.fully_connected(queries[t], w)
        interior = O.add(O.expand_dims(q_proj, 1), keys)
        for _ in range(depth):
            interior = O.tanh(interior)
        flat = O.reshape(interior, (batch * seq, hidden))
        scores = O.fully_connected(flat, v)
        total = scores if total is None else O.add(total, scores)
    loss = O.reduce_mean(total)
    placeholders = {"pb_keys": keys}
    placeholders.update(
        {f"pb_q{t}": q for t, q in enumerate(queries)}
    )
    graph = compile_training(loss, {"pb_w": w, "pb_v": v}, placeholders)
    return graph, steps, seq, batch, hidden


class TestEchoProperties:
    @given(o_shape_training_graph(), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_numerics_bitwise_preserved(self, built, seed):
        graph, steps, seq, batch, hidden = built
        gen = np.random.default_rng(seed)
        feeds = {"pb_keys": gen.standard_normal((batch, seq, hidden))
                 .astype(np.float32)}
        for t in range(steps):
            feeds[f"pb_q{t}"] = gen.standard_normal(
                (batch, hidden)).astype(np.float32)
        params = {
            "pb_w": gen.standard_normal((hidden, hidden)).astype(np.float32),
            "pb_v": gen.standard_normal((1, hidden)).astype(np.float32),
        }
        before = TrainingExecutor(graph)
        l0, g0, _ = before.run(feeds, params)
        optimize(graph, EchoConfig(overhead_budget_fraction=0.5))
        after = TrainingExecutor(graph)
        l1, g1, _ = after.run(feeds, params)
        assert l0 == l1
        for k in g0:
            np.testing.assert_array_equal(g0[k], g1[k])

    @given(o_shape_training_graph())
    @settings(max_examples=15, deadline=None)
    def test_footprint_never_increases(self, built):
        graph = built[0]
        report = optimize(graph, EchoConfig(overhead_budget_fraction=0.5))
        assert report.optimized_peak_bytes <= report.baseline_peak_bytes
        validate_schedule(schedule(graph.outputs))

    @given(o_shape_training_graph())
    @settings(max_examples=10, deadline=None)
    def test_mirror_outputs_are_workspace(self, built):
        graph = built[0]
        optimize(graph, EchoConfig(overhead_budget_fraction=0.5))
        order = schedule(graph.outputs)
        plan = plan_memory(order, graph.outputs)
        from repro.graph import Stage

        for node in order:
            if node.stage is Stage.RECOMPUTE:
                for i in range(len(node.out_specs)):
                    life = plan.lifetimes[(node.uid, i)]
                    assert life.category is Category.WORKSPACE


# -- metric properties ---------------------------------------------------------

token_lists = st.lists(
    st.lists(st.integers(3, 20), min_size=1, max_size=12),
    min_size=1,
    max_size=6,
)


class TestBleuProperties:
    @given(token_lists)
    def test_perfect_match_scores_100(self, sentences):
        assert corpus_bleu(sentences, sentences, smooth=False) == 100.0

    @given(token_lists)
    def test_range(self, sentences):
        shifted = [[t + 1 for t in s] for s in sentences]
        score = corpus_bleu(shifted, sentences)
        assert 0.0 <= score <= 100.0

    @given(token_lists)
    def test_disjoint_vocab_scores_zero_unsmoothed(self, sentences):
        disjoint = [[t + 100 for t in s] for s in sentences]
        assert corpus_bleu(disjoint, sentences, smooth=False) == 0.0


# -- compiled-plan fusion properties ------------------------------------------

_CHAIN_UNARY = ["tanh", "sigmoid", "relu", "neg", "add_scalar", "mul_scalar",
                "rsub_scalar", "dropout"]
_CHAIN_BINARY = ["add", "mul", "sub"]


@st.composite
def elementwise_chains(draw):
    """A random elementwise/activation program over broadcastable inputs.

    Returns (steps, input_shapes): each step is ("unary", name) applied to
    the running value, or ("binary", name, input_index) combining it with
    one of the graph inputs (possibly of broadcast shape).
    """
    shapes = [(3, 4), draw(st.sampled_from([(3, 4), (1, 4), (3, 1), ()]))]
    n = draw(st.integers(2, 8))
    steps = []
    for _ in range(n):
        if draw(st.booleans()):
            steps.append(("unary", draw(st.sampled_from(_CHAIN_UNARY))))
        else:
            steps.append((
                "binary",
                draw(st.sampled_from(_CHAIN_BINARY)),
                draw(st.integers(0, len(shapes) - 1)),
            ))
    return steps, shapes


def _build_chain(steps, placeholders):
    cur = placeholders[0]
    for k, step in enumerate(steps):
        if step[0] == "unary":
            name = step[1]
            if name == "add_scalar":
                cur = O.add_scalar(cur, 0.5)
            elif name == "mul_scalar":
                cur = O.mul_scalar(cur, 1.25)
            elif name == "rsub_scalar":
                cur = O.rsub_scalar(cur, 1.0)
            elif name == "neg":
                cur = O.neg(cur)
            elif name == "dropout":
                cur = O.dropout(cur, 0.4, seed=17 + k)
            else:
                cur = getattr(O, name)(cur)
        else:
            _, name, idx = step
            cur = getattr(O, name)(cur, placeholders[idx])
    return O.reduce_sum(O.mul(cur, cur))


class TestFusedExecutionProperties:
    """Compiled (fused, arena-reusing) execution is bitwise-identical to
    the arena-free reference walk on random elementwise/activation chains —
    outputs AND gradients, including broadcast and step-seeded dropout."""

    @settings(max_examples=30, deadline=None)
    @given(elementwise_chains(), st.integers(0, 2**31 - 1))
    def test_fused_matches_unfused_bitwise(self, chain, seed):
        from repro.autodiff import build_gradients
        from repro.runtime import PlanCache

        steps, shapes = chain
        placeholders = [
            O.placeholder(s, np.float64, name=f"pb_in{i}")
            for i, s in enumerate(shapes)
        ]
        loss = _build_chain(steps, placeholders)
        grad_map = build_gradients(loss, placeholders)
        grads = [g for g in grad_map.values() if g is not None]
        outputs = [loss, *grads]

        rng = np.random.default_rng(seed)
        feeds = {
            f"pb_in{i}": rng.standard_normal(s) for i, s in enumerate(shapes)
        }

        compiled = GraphExecutor(outputs, plan_cache=PlanCache())
        for step in range(2):  # two iterations: dropout steps must track
            got = compiled.run(feeds).outputs
            want = reference_run(outputs, feeds, step=step)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype
                assert a.shape == b.shape
                assert np.array_equal(a, b), "fused result diverged"
