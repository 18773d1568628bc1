"""What a baked plan leaves to run time, pinned structurally.

Bytecode counts differ between interpreter versions, so the steady-state
shape of the harness plans (word-LM and NMT (16,16), Echo on, built by
a trainer at ``threads`` 1 and 2, which get the one plan) is pinned
instead:

* every instruction step is generated code;
* no ``view`` / ``alias`` step over static storage remains — those views
  are folded into the register file every run starts from;
* no step reads or writes a *fixed* register (a constant, a static
  buffer, a view of one) through the register file;
* binding well-formed feeds never reaches :func:`bind_source`;
* the plan still matches the reference walk bit for bit and certifies.
"""

import re
import sys

import numpy as np
import pytest

from repro.runtime.codegen import PLAN_FILENAME, bind_source
from tests.helpers import reference_run
from tests.test_compile_linear import _nmt_graph, _trained, _wordlm_graph


def _bindings(graph, seed=0):
    """Well-formed feeds and params: exactly the declared shape and dtype."""
    gen = np.random.default_rng(seed)

    def value(t, scale):
        if np.issubdtype(t.dtype, np.integer):
            return gen.integers(0, 2000, t.shape).astype(t.dtype)
        return (gen.standard_normal(t.shape) * scale).astype(t.dtype)

    feeds = {n: value(t, 1.0) for n, t in graph.placeholders.items()}
    params = {n: value(t, 0.1) for n, t in graph.params.items()}
    return feeds, params


@pytest.fixture(scope="module", params=[
    ("wordlm", 1), ("wordlm", 2), ("nmt16", 1), ("nmt16", 2),
], ids=lambda p: f"{p[0]}-threads{p[1]}")
def harness_plan(request):
    model, threads = request.param
    graph = _nmt_graph() if model == "nmt16" else _wordlm_graph()
    _report, training, _cache = _trained(graph, threads)
    return graph, training.executor


def test_no_step_is_hand_written(harness_plan):
    _graph, ex = harness_plan
    plan = ex.plan
    assert plan.instruction_kinds["generic"] > 0
    assert [
        s._node for s in plan._steps
        if s.__code__.co_filename != PLAN_FILENAME
    ] == []


#: generated-closure parameters that name a register slot
_SLOT_PARAM = re.compile(r"_[iocgxy]\d*$")


def _slot_defaults(fn):
    """``(name, slot)`` for every slot-naming default of a baked closure."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    bound = zip(names[len(names) - len(defaults):], defaults)
    return [(name, v) for name, v in bound if _SLOT_PARAM.match(name)]


def _fixed_slots(plan):
    """Registers holding the same array on every run, derived from the
    lowering: constants, static outputs of kernel instructions, and the
    outputs of view / alias descriptors that have no step."""
    low = plan.lowering
    stepped = {s._node for s in plan._steps}
    fixed = set(low.constant_slots)
    for d in low.descs:
        if d["kind"] in ("out", "fused"):
            fixed.update(
                s for s in d["out_slots"] if low.root[s] in low.static_views
            )
        elif d["kind"] in ("view", "alias") and d["node"] not in stepped:
            fixed.update(d["out_slots"])
    return fixed


def test_no_step_touches_a_fixed_register_through_regs(harness_plan):
    _graph, ex = harness_plan
    plan = ex.plan
    fixed = _fixed_slots(plan)
    assert len(fixed) > len(plan.lowering.constant_slots)
    named = [
        (getattr(fn, "_node", fn), name, slot)
        for fn in plan._steps + [plan._body]
        for name, slot in _slot_defaults(fn)
    ]
    assert named, "fixture steps must bind slots"
    assert [n for n in named if n[2] in fixed] == []
    # ... and the fixed registers are read as bound arrays instead
    template = plan._bind.__defaults__[0]
    assert all(template[s] is not None for s in fixed)
    bound = {
        id(v)
        for fn in plan._steps
        for v in fn.__defaults__
        if isinstance(v, np.ndarray)
    }
    assert sum(id(template[s]) in bound for s in fixed) > len(fixed) // 2


def test_no_view_step_over_static_storage_remains(harness_plan):
    _graph, ex = harness_plan
    plan, low = ex.plan, ex.plan.lowering
    over_static = [
        d for d in low.descs
        if d["kind"] in ("view", "alias")
        and low.root[d["in_slots"][0]] in low.static_views
    ]
    assert over_static, "fixture must view static storage"
    stepped = {s._node for s in plan._steps}
    assert not [d for d in over_static if d["node"] in stepped]
    assert plan.folded_view_count >= len(over_static)
    # every descriptor is still there for the analyzers
    assert len(plan._steps) + plan.folded_view_count == len(low.descs)


def test_well_formed_feeds_never_reach_bind_source(harness_plan):
    graph, ex = harness_plan
    feeds, params = _bindings(graph)
    ex.plan.run(feeds, params)  # warm: nothing below may be first-run work
    calls = []

    def spy(frame, event, arg):
        if event == "call" and frame.f_code is bind_source.__code__:
            calls.append(frame)

    sys.setprofile(spy)
    try:
        ex.plan.run(feeds, params)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_baked_plan_matches_reference_and_certifies(harness_plan):
    graph, ex = harness_plan
    feeds, params = _bindings(graph, seed=1)
    # reference first: it sets the dropout step the plan then runs at
    want = reference_run(graph.outputs, feeds, params)
    got = ex.plan.run(feeds, params)
    assert len(got) == len(want)
    for a, b in zip(want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert ex.verify(equiv=True).ok
