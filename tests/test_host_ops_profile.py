"""``benchmarks.host_ops_profile``: the attribution adds up to the count.

The tool splits the harness's ``iter_host_ops`` by function; its table is
only worth reading if it sums to ``stats.count_bytecodes`` over the same
call, and if a call whose count moves between runs is refused.
"""

import numpy as np
import pytest

import repro.ops as O
from benchmarks.harness import stats
from benchmarks.host_ops_profile import attribute, checked, render
from repro.runtime import CompiledPlan, schedule

#: the frames the harness counts for a plan run
RUNTIME_FRAMES = ("/repro/runtime/", stats.COMPILED_PLAN_FRAME)


def _plan_call():
    x = O.placeholder((3, 4), np.float64, name="px")
    w = O.variable((4, 2), np.float64, name="pw")
    y = O.tanh(O.matmul(x, w))
    plan = CompiledPlan(schedule([y]), [y])
    feeds, params = {"px": np.ones((3, 4))}, {"pw": np.ones((4, 2))}
    plan.run(feeds, params)
    return lambda: plan.run(feeds, params)


def test_attribution_sums_to_the_harness_count():
    call = _plan_call()
    counts = checked(call, RUNTIME_FRAMES)
    assert sum(counts.values()) == stats.count_bytecodes(call, RUNTIME_FRAMES)
    labels = set(counts)
    assert {"<compiled-plan> bind", "<compiled-plan> body",
            "<compiled-plan> step"} <= labels
    assert any(label.endswith("CompiledPlan.run") for label in labels)
    table = render("toy", 0, counts)
    assert table.splitlines()[0].endswith(f": {sum(counts.values())}")


def test_a_count_that_moves_is_refused():
    call = _plan_call()
    calls = []

    def uneven():
        calls.append(None)
        for _ in range(len(calls)):
            call()

    assert sum(attribute(call, RUNTIME_FRAMES).values()) > 0
    with pytest.raises(RuntimeError, match="count_bytecodes counts"):
        checked(uneven, RUNTIME_FRAMES)
