"""Tests for the graph-level memory optimizer (``repro.memplan``).

Four layers of coverage:

* unit tests + hypothesis properties for the interval packer and the
  atomic byte-range tokens;
* the headline property — planned executions (copy elision, in-place
  rewriting, interval coloring, footprint-aware scheduling) are
  bitwise-identical to the arena-free ``reference_run`` across threads
  {1, 4} and with/without the Echo rewrite, and never hold more static
  bytes than a size-class free-list replay of the same placements;
* seeded-defect fixtures proving the MP401/MP402/MP403 analyzers catch
  a corrupted alias root table, overlapping colorings, and unsafe
  in-place records;
* the satellite fixes — ``validate_schedule`` coverage/duplicate
  rejection, per-step workspace accounting in ``plan_memory``, and the
  arena extent pool.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ops as O
from repro.analysis import check_packing
from repro.autodiff import compile_training
from repro.echo import EchoConfig, optimize
from repro.memplan import (
    atomic_tokens,
    pack_intervals,
    waterline,
)
from repro.memplan.coloring import ALIGN
from repro.graph import GraphFacts
from repro.runtime import (
    Arena,
    PlanCache,
    SchedulingError,
    TrainingExecutor,
    plan_memory,
    schedule,
    validate_schedule,
)
from tests.helpers import (
    AboveGateDevice,
    reference_pack_intervals,
    reference_run,
    reference_size_class_bytes,
)


# -- interval packer ----------------------------------------------------------

requests_strategy = st.lists(
    st.tuples(
        st.integers(0, 20),  # lo
        st.integers(0, 20),  # extent
        st.integers(1, 4096),  # nbytes
    ),
    min_size=1,
    max_size=24,
).map(
    lambda raw: [
        (i, lo, lo + ext, nb) for i, (lo, ext, nb) in enumerate(raw)
    ]
)


class TestPackIntervals:
    def test_disjoint_lifetimes_share_bytes(self):
        packed = pack_intervals([("a", 0, 1, 100), ("b", 2, 3, 100)])
        assert packed.offsets["a"] == packed.offsets["b"] == 0
        assert packed.extent_bytes == 100  # one shared 100-byte buffer

    def test_overlapping_lifetimes_are_separated(self):
        packed = pack_intervals([("a", 0, 2, 100), ("b", 1, 3, 100)])
        offs = sorted((packed.offsets["a"], packed.offsets["b"]))
        assert offs[1] >= offs[0] + 100
        assert packed.extent_bytes >= 200

    def test_zero_requests(self):
        packed = pack_intervals([])
        assert packed.extent_bytes == 0
        assert packed.offsets == {}

    @given(requests_strategy)
    @settings(max_examples=200, deadline=None)
    def test_placements_never_overlap_in_time_and_bytes(self, requests):
        packed = pack_intervals(requests)
        placed = [
            (lo, hi, packed.offsets[key], nb)
            for key, lo, hi, nb in requests
        ]
        for i, (lo_a, hi_a, off_a, nb_a) in enumerate(placed):
            assert off_a % ALIGN == 0
            assert off_a + nb_a <= packed.extent_bytes
            for lo_b, hi_b, off_b, nb_b in placed[i + 1:]:
                time_overlap = lo_a <= hi_b and lo_b <= hi_a
                byte_overlap = off_a < off_b + nb_b and off_b < off_a + nb_a
                assert not (time_overlap and byte_overlap)

    @given(requests_strategy)
    @settings(max_examples=200, deadline=None)
    def test_extent_bounded_by_waterline_and_total(self, requests):
        packed = pack_intervals(requests)
        low = waterline(requests)
        total = sum(nb for _k, _lo, _hi, nb in requests)
        assert packed.planned_peak_bytes == low
        assert packed.extent_bytes >= low
        # FFD with alignment can fragment, but never past the aligned sum.
        aligned_total = sum(-(-nb // ALIGN) * ALIGN for *_x, nb in requests)
        assert packed.extent_bytes <= aligned_total

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(0, 30),
                # few distinct sizes (as real plans have), zero included,
                # on and off the alignment grid
                st.sampled_from([0, 1, 63, 64, 65, 128, 1000, 4096]),
            ),
            max_size=60,
        ),
        st.sampled_from([1, 64, 256]),
    )
    @settings(max_examples=300, deadline=None)
    def test_identical_to_reference_sweep(self, raw, align):
        requests = [
            (i, lo, lo + ext, nb) for i, (lo, ext, nb) in enumerate(raw)
        ]
        # offsets, extent and planned peak: PackResult compares all three
        assert pack_intervals(requests, align) == reference_pack_intervals(
            requests, align
        )

    @pytest.mark.parametrize(
        "name", ["nmt_16x16_echo_node_plan", "wordlm_lowered_stream"]
    )
    def test_frozen_corpus_identical_to_reference_sweep(self, name):
        """Request lists dumped from real plans: the Echo-rewritten NMT
        (16,16) node-level plan (2 475 requests, 15 sizes) and the word-LM
        lowered stream (928 requests)."""
        path = pathlib.Path(__file__).parent / "data" / "pack_corpus.json"
        cols = json.loads(path.read_text())[name]
        requests = list(
            zip(range(len(cols["lo"])), cols["lo"], cols["hi"],
                cols["nbytes"])
        )
        assert len(requests) > 900
        assert pack_intervals(requests) == reference_pack_intervals(requests)

    def test_atomic_tokens_intersect_iff_bytes_do(self):
        tokens = atomic_tokens(
            {"a": (0, 128), "b": (64, 128), "c": (256, 64), "z": (0, 0)}
        )
        assert set(tokens["a"]) & set(tokens["b"])  # [0,128) vs [64,192)
        assert not set(tokens["a"]) & set(tokens["c"])
        assert not set(tokens["b"]) & set(tokens["c"])
        assert tokens["z"] == ()


# -- the bitwise-identity property -------------------------------------------


@st.composite
def shape_heavy_training_graph(draw):
    """A training graph dense in elidable copies and in-place chances."""
    rows, cols = 4, draw(st.integers(1, 3)) * 4
    x = O.placeholder((rows, cols), np.float64, name="mp_x")
    w = O.variable((rows, cols), np.float64, name="mp_w")
    pool = [O.add(x, w)]
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.integers(0, 6))
        t = draw(st.sampled_from(pool))
        if kind == 0:
            # Full-range leading slice: elided to an identity alias.
            pool.append(O.slice_axis(t, 0, 0, rows))
        elif kind == 1:
            # Leading split + concat: per-section aliases.
            a, b = O.split(t, 2, 0)
            pool.append(O.concat([a, b], 0))
        elif kind == 2:
            # Interior slices: strided alias views.
            lo = O.slice_axis(t, 1, 0, cols // 2)
            hi = O.slice_axis(t, 1, cols // 2, cols)
            pool.append(O.concat([lo, hi], 1))
        elif kind == 3:
            pool.append(O.broadcast_to(t, (rows, cols)))
        elif kind == 4:
            pool.append(O.tanh(t))
        elif kind == 5:
            pool.append(O.mul(t, draw(st.sampled_from(pool))))
        else:
            pool.append(O.add(t, draw(st.sampled_from(pool))))
    loss = O.reduce_mean(pool[-1])
    graph = compile_training(loss, {"mp_w": w}, {"mp_x": x})
    return graph, rows, cols


def _assert_matches_reference(graph, rows, cols, seed):
    gen = np.random.default_rng(seed)
    feeds = {"mp_x": gen.standard_normal((rows, cols))}
    params = {"mp_w": gen.standard_normal((rows, cols))}
    want = reference_run(graph.outputs, feeds, params)
    for threads in (1, 4):
        ex = TrainingExecutor(
            graph, plan_cache=PlanCache(store=None), threads=threads,
            device=AboveGateDevice(),
        )
        loss, grads, _ = ex.run(feeds, params)
        assert loss == float(want[0]), threads
        for k, ref in zip(graph.grads, want[1:]):
            np.testing.assert_array_equal(grads[k], ref)
        plan = ex.executor.plan
        assert plan.static_storage_bytes <= reference_size_class_bytes(
            plan.lowering.memplan.placements
        )


class TestBitwiseIdentity:
    """Interval-colored plans match the arena-free reference bitwise and
    never hold more than the greedy size-class replay of their placements."""

    @given(shape_heavy_training_graph(), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_color_matches_greedy(self, built, seed):
        graph, rows, cols = built
        _assert_matches_reference(graph, rows, cols, seed)

    @given(shape_heavy_training_graph(), st.integers(0, 2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_color_matches_greedy_after_echo(self, built, seed):
        graph, rows, cols = built
        optimize(graph, EchoConfig(overhead_budget_fraction=0.5))
        _assert_matches_reference(graph, rows, cols, seed)


# -- seeded defects for the MP analyzers --------------------------------------


def _color_plan():
    """A deterministic plan with at least one elision and one in-place."""
    x = O.placeholder((4, 8), np.float64, name="df_x")
    w = O.variable((4, 8), np.float64, name="df_w")
    a = O.add(x, w)
    s = O.slice_axis(a, 0, 0, 4)
    lo = O.slice_axis(a, 1, 0, 4)
    hi = O.slice_axis(a, 1, 4, 8)
    c = O.concat([lo, hi], 1)
    u = O.add(O.tanh(c), O.sigmoid(s))
    loss = O.reduce_mean(u)
    graph = compile_training(loss, {"df_w": w}, {"df_x": x})
    return PlanCache(store=None).compiled_for(graph.outputs, Arena())


def _codes(plan):
    return {f.code for f in check_packing(plan)}


class TestSeededPackingDefects:
    def test_healthy_plan_is_clean(self):
        plan = _color_plan()
        record = plan.lowering.memplan
        assert record.elided and record.inplace  # the fixture's premise
        assert _codes(plan) == set()

    def test_mp402_missing_record(self):
        plan = _color_plan()
        assert plan.lowering.static_views
        plan.lowering.memplan = None  # no placement can be checked at all
        assert _codes(plan) == {"MP402"}

    def test_mp401_broken_alias_root(self):
        plan = _color_plan()
        low = plan.lowering
        out = low.memplan.elided[0]["out_slots"][0]
        low.root[out] = out  # detach the alias from its source group
        assert "MP401" in _codes(plan)

    def test_mp401_malformed_index_list(self):
        plan = _color_plan()
        low = plan.lowering
        idx = low.memplan.elided[0]["instr"]
        low.descs[idx]["alias_index"] = None
        assert "MP401" in _codes(plan)

    def test_mp402_overlapping_colors(self):
        plan = _color_plan()
        record = plan.lowering.memplan
        keys = sorted(record.placements, key=str)
        assert len(keys) >= 2
        lo, hi, _off, nbytes = record.placements[keys[0]]
        # Force the second placement onto the first's bytes and lifetime.
        record.placements[keys[1]] = (lo, hi, _off, max(nbytes, 1))
        assert "MP402" in _codes(plan)

    def test_mp402_placement_outside_extent(self):
        plan = _color_plan()
        record = plan.lowering.memplan
        key = next(iter(record.placements))
        lo, hi, _off, nbytes = record.placements[key]
        record.placements[key] = (lo, hi, record.extent_bytes, max(nbytes, 1))
        assert "MP402" in _codes(plan)

    def test_mp403_target_not_inplace_capable(self):
        plan = _color_plan()
        record = plan.lowering.memplan
        rec = dict(record.inplace[0])
        rec["target"] = 10**6  # not an operand of the instruction at all
        record.inplace.append(rec)
        assert "MP403" in _codes(plan)

    def test_mp403_live_member_overwritten(self):
        plan = _color_plan()
        low = plan.lowering
        record = low.memplan
        rec = dict(record.inplace[0])
        # Claim the group also contained a slot that outlives the write.
        later = max(
            (s for d in low.descs for s in d["in_slots"]),
            key=lambda s: max(
                i for i, d in enumerate(low.descs) if s in d["in_slots"]
            ),
        )
        rec["members"] = list(rec["members"]) + [later]
        record.inplace.append(rec)
        assert "MP403" in _codes(plan)

    def test_mp403_escaping_group(self):
        plan = _color_plan()
        record = plan.lowering.memplan
        rec = dict(record.inplace[0])
        rec["members"] = list(rec["members"]) + [
            next(iter(plan.lowering.output_slots))
        ]
        record.inplace.append(rec)
        assert "MP403" in _codes(plan)

    def test_mp403_out_of_range_instr(self):
        plan = _color_plan()
        record = plan.lowering.memplan
        rec = dict(record.inplace[0])
        rec["instr"] = len(plan.lowering.descs) + 7
        record.inplace.append(rec)
        assert "MP403" in _codes(plan)


# -- satellite: validate_schedule coverage ------------------------------------


def _tiny_order():
    x = O.placeholder((2, 2), name="vs_x")
    out = O.reduce_mean(O.tanh(O.add(x, x)))
    return schedule([out])


class TestValidateSchedule:
    def test_duplicate_node_rejected(self):
        order = _tiny_order()
        with pytest.raises(SchedulingError, match="duplicate"):
            validate_schedule(order + [order[0]])

    def test_missing_producer_rejected(self):
        order = _tiny_order()
        consumed = order[0]
        assert any(
            t.node is consumed for n in order[1:] for t in n.inputs
        )
        with pytest.raises(SchedulingError, match="missing"):
            validate_schedule(order[1:])

    def test_producer_after_consumer_rejected(self):
        order = _tiny_order()
        with pytest.raises(SchedulingError, match="after its consumer"):
            validate_schedule(list(reversed(order)))

    def test_memory_aware_schedule_is_valid_permutation(self):
        x = O.placeholder((4, 4), name="vs_y")
        w = O.variable((4, 4), name="vs_w")
        loss = O.reduce_mean(O.tanh(O.mul(O.add(x, w), x)))
        graph = compile_training(loss, {"vs_w": w}, {"vs_x": x})
        order = schedule(graph.outputs)
        validate_schedule(order)
        nodes = GraphFacts(graph.outputs).nodes
        assert len(order) == len(nodes)
        assert {n.uid for n in order} == {n.uid for n in nodes}


# -- satellite: per-step workspace accounting ---------------------------------


class TestWorkspaceAccounting:
    def test_timeline_charges_each_step_its_own_workspace(self):
        x = O.placeholder((2, 3, 8, 8), name="ws_x")
        w1 = O.variable((4, 3, 3, 3), name="ws_w1")
        w2 = O.variable((4, 4, 3, 3), name="ws_w2")
        h = O.tanh(O.conv2d(x, w1, pad=1))
        loss = O.reduce_mean(O.conv2d(h, w2, pad=1))
        graph = compile_training(loss, {"ws_w1": w1, "ws_w2": w2},
                                 {"ws_x": x})
        order = schedule(graph.outputs)
        plan = plan_memory(order, graph.outputs)
        ws = [n.op.workspace_bytes(n) for n in order]
        assert plan.workspace_pool_hwm == max(ws)
        # The pool HWM must not be charged to steps that requested less.
        assert min(ws) < max(ws)
        for step in range(len(order)):
            live = sum(
                life.nbytes
                for life in plan.lifetimes.values()
                if life.alloc_step <= step <= life.free_step
            )
            assert plan.timeline[step] == live + ws[step]
        assert plan.peak_bytes == max(plan.timeline)


# -- satellite: arena extents + Echo's scored footprint -----------------------


class TestMemplanPlumbing:
    def test_arena_extent_pool_reuses_parked_extents(self):
        arena = Arena()
        raw = arena.acquire_extent(1000)
        assert raw.nbytes >= 1000
        assert arena.held_bytes == 0  # acquired extents are not parked
        arena.release_extent(raw)
        assert arena.held_bytes >= raw.nbytes
        again = arena.acquire_extent(500)
        assert again is raw  # smallest parked fit is reused
        assert arena.acquire_extent(2 * raw.nbytes) is not raw

    def test_echo_reports_waterline_footprint(self):
        x = O.placeholder((8, 16), name="ec_x")
        w = O.variable((16, 16), name="ec_w")
        h = O.tanh(O.fully_connected(x, w))
        loss = O.reduce_mean(O.tanh(h))
        graph = compile_training(loss, {"ec_w": w}, {"ec_x": x})
        report = optimize(graph, plan_cache=PlanCache(store=None))
        assert report.baseline_peak_bytes > 0
        assert report.baseline_peak_bytes == report.baseline_plan.peak_bytes
        assert (
            report.optimized_peak_bytes == report.optimized_plan.peak_bytes
        )
        assert report.optimized_peak_bytes <= report.baseline_peak_bytes
