"""Weights bound once per decode, and escaping outputs counted per run.

``CompiledPlan.bind(params)`` runs the plan binder's ``variable`` blocks
once and returns a :class:`~repro.runtime.BoundParams`; ``run(feeds,
bound)`` then binds only the feeds. Pinned here:

* the binding contract through ``bind`` is ``run(feeds, params)``'s: the
  same error text and the same converted values, a binding made for
  another plan refused, an in-place weight update seen;
* decoders bind once per call (a spy on ``bind_source``) and decode
  exactly ``max_len`` steps, zero included;
* bound decodes equal, bit for bit, a per-step oracle that hands the
  mapping to every step, on every harness NMT bucket;
* a run counts its escaping outputs exactly as one count per allocation
  did, also with four threads on one plan, and held numpy bytes grow by
  exactly the outputs a run returns.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro.ops as O
import repro.runtime.codegen as codegen
from repro.data import BucketSpec
from repro.models import NmtConfig, build_nmt
from repro.models.nmt import build_decoder_step
from repro.nn import Backend
from repro.runtime import (
    Arena,
    BoundParams,
    CompiledPlan,
    ExecutionError,
    GraphExecutor,
    PlanCache,
    schedule,
)
from repro.serve import InferenceSession, Request, RequestKind
from repro.train import BeamSearchDecoder, GreedyDecoder

#: the benchmark harness's NMT buckets (benchmarks/harness/spec.py)
HARNESS_BUCKETS = ((4, 6), (8, 10), (12, 14), (16, 16))


def _source_plan():
    """``y = (x + 0.5) * w`` returning its sources too, so a run hands back
    exactly what it bound."""
    x = O.placeholder((2, 3), np.float32, name="bx")
    w = O.variable((2, 3), np.float32, name="bw")
    y = O.mul(O.add_scalar(x, 0.5), w)
    return CompiledPlan(schedule([y, x, w]), [y, x, w])


def _feed():
    return {"bx": np.arange(6, dtype=np.float32).reshape(2, 3) / 7.0}


def _weight():
    return np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3)


def _outcome(fn):
    """``("raised", message)`` or ``("ran", outputs)``."""
    try:
        return "ran", fn()
    except ExecutionError as exc:
        return "raised", str(exc)


class TestBindContract:
    @pytest.mark.parametrize("case", [
        "missing", "wrong-shape", "list", "float64", "exact",
    ])
    def test_bind_equals_run_with_mapping(self, case):
        plan = _source_plan()
        weight = _weight()
        params = {
            "missing": {},
            "wrong-shape": {"bw": np.zeros((3, 2), np.float32)},
            "list": {"bw": weight.tolist()},
            "float64": {"bw": weight.astype(np.float64)},
            "exact": {"bw": weight},
        }[case]
        want = _outcome(lambda: plan.run(_feed(), params))
        got = _outcome(lambda: plan.run(_feed(), plan.bind(params)))
        assert got[0] == want[0]
        if want[0] == "raised":
            assert got[1] == want[1]
            # bind() itself raises it, before any feed is looked at
            with pytest.raises(ExecutionError) as info:
                plan.bind(params)
            assert str(info.value) == want[1]
            return
        for a, b in zip(want[1], got[1]):
            assert type(b) is np.ndarray and b.dtype == a.dtype
            assert np.array_equal(a, b)
        if case == "exact":
            assert got[1][2] is weight  # bound as is, no copy

    def test_feeds_still_checked_on_a_bound_run(self):
        plan = _source_plan()
        bound = plan.bind({"bw": _weight()})
        with pytest.raises(ExecutionError,
                           match="placeholder 'bx' was not bound"):
            plan.run({}, bound)
        with pytest.raises(ExecutionError, match="placeholder 'bx': bound shape"):
            plan.run({"bx": np.zeros((3, 3), np.float32)}, bound)

    def test_binding_of_another_plan_is_refused(self):
        plan, other = _source_plan(), _source_plan()
        bound = other.bind({"bw": _weight()})
        assert isinstance(bound, BoundParams) and bound.plan is other
        with pytest.raises(ExecutionError,
                           match="parameters bound for another plan"):
            plan.run(_feed(), bound)

    def test_in_place_update_is_seen_and_replaced_entry_is_not(self):
        plan = _source_plan()
        weight = _weight()
        params = {"bw": weight}
        bound = plan.bind(params)
        weight *= 2.0  # an optimizer step: same array, new values
        params["bw"] = np.zeros((2, 3), np.float32)  # a new array
        got = plan.run(_feed(), bound)
        want = plan.run(_feed(), {"bw": weight})
        assert np.array_equal(got[0], want[0])
        assert got[2] is weight

    def test_executor_bind_is_the_plan_binding(self):
        w = O.variable((2,), np.float64, name="vw")
        y = O.mul(w, w)
        ex = GraphExecutor([y], plan_cache=PlanCache())
        bound = ex.bind({"vw": np.array([3.0, -2.0])})
        assert bound.plan is ex.plan
        assert np.array_equal(ex.run({}, bound).outputs[0], [9.0, 4.0])


# -- decoders ----------------------------------------------------------------


def _nmt(src_len=8, tgt_len=8, batch=4, hidden=12):
    cfg = NmtConfig(
        src_vocab_size=40, tgt_vocab_size=40, embed_size=hidden,
        hidden_size=hidden, encoder_layers=1, decoder_layers=1,
        src_len=src_len, tgt_len=tgt_len, batch_size=batch,
        backend=Backend.CUDNN,
    )
    model = build_nmt(cfg)
    return cfg, model.store, model.store.initialize(seed=3)


def _src(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(3, cfg.src_vocab_size,
                        size=(cfg.src_len, cfg.batch_size)).astype(np.int64)


class TestDecodeLength:
    def test_greedy_zero_decodes_nothing(self):
        cfg, store, params = _nmt(tgt_len=4)
        decoder = GreedyDecoder(cfg, store, plan_cache=PlanCache())
        assert decoder.translate(_src(cfg), params, max_len=0) == [
            [] for _ in range(cfg.batch_size)
        ]
        full = decoder.translate(_src(cfg), params, max_len=None)
        assert max(len(row) for row in full) <= cfg.tgt_len

    def test_beam_zero_decodes_nothing(self):
        cfg, store, params = _nmt(tgt_len=4, batch=2)
        beam = BeamSearchDecoder(cfg, store, beam_size=2,
                                 plan_cache=PlanCache())
        assert beam.translate(_src(cfg), params, max_len=0) == [[], []]
        for beams in beam.translate_n_best(_src(cfg), params, max_len=0):
            assert [h.tokens for h in beams] == [[], []]

    def test_negative_is_refused(self):
        cfg, store, params = _nmt(tgt_len=4, batch=2)
        greedy = GreedyDecoder(cfg, store, plan_cache=PlanCache())
        beam = BeamSearchDecoder(cfg, store, beam_size=2,
                                 plan_cache=PlanCache())
        with pytest.raises(ValueError, match="max_len"):
            greedy.translate(_src(cfg), params, max_len=-1)
        with pytest.raises(ValueError, match="max_len"):
            beam.translate_n_best(_src(cfg), params, max_len=-1)


class TestBindOncePerDecode:
    def test_float64_weight_converted_once_per_call(self, monkeypatch):
        """A float64 weight of the step plan goes through ``bind_source``
        once per decode call, not once per step."""
        calls = []
        real = codegen.bind_source

        def spy(table, node, kind):
            calls.append(node.name)
            return real(table, node, kind)

        # the binder binds bind_source when the plan is baked
        monkeypatch.setattr(codegen, "bind_source", spy)
        cfg, store, params = _nmt(tgt_len=6)
        decoder = GreedyDecoder(cfg, store, plan_cache=PlanCache())
        name = _step_only_weight(cfg, store)
        params = dict(params)
        params[name] = params[name].astype(np.float64)
        steps = _count_runs(monkeypatch, decoder._step)
        calls.clear()
        decoder.translate(_src(cfg), params, max_len=6)
        assert calls.count(name) == 1 and len(steps) > 1
        targets = [[5, 6, 7]] * cfg.batch_size
        calls.clear()
        steps.clear()
        decoder.score(_src(cfg), targets, params)
        assert calls.count(name) == 1 and len(steps) == 4


def _count_runs(monkeypatch, executor) -> list:
    """Record every ``executor.run`` call (an instance attribute shadows
    the method)."""
    runs = []
    real = executor.run

    def run(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "run", run, raising=False)
    return runs


def _step_only_weight(cfg, store) -> str:
    """A weight the decoder-step graph reads and the encoder does not."""
    from repro.graph.traversal import topo_order
    from repro.models.nmt import build_encoder_inference

    def weights(outputs):
        return {
            n.name for n in topo_order(outputs) if n.op.name == "variable"
        }

    step = weights(build_decoder_step(cfg, store).outputs)
    encoder = weights([build_encoder_inference(cfg, store)])
    return sorted(step - encoder)[0]


class TestBoundDecodeIsBitwise:
    """Every decode entry point, bound once per call, against the same
    decode with the mapping handed to every plan run (``bind`` shadowed by
    the identity, so ``run`` binds the weights at every step)."""

    @pytest.fixture(scope="class")
    def sessions(self):
        src_len, tgt_len = HARNESS_BUCKETS[-1]
        cfg, store, params = _nmt(src_len=src_len, tgt_len=tgt_len, hidden=8)
        buckets = tuple(BucketSpec(s, t) for s, t in HARNESS_BUCKETS)
        return {
            kind: InferenceSession(cfg, store, params, buckets,
                                   max_batch_size=3, decoder=kind,
                                   beam_size=2)
            for kind in ("greedy", "beam")
        }

    @staticmethod
    def _oracle(monkeypatch, decoder):
        for executor in (decoder._encoder, decoder._step):
            monkeypatch.setattr(executor, "bind", lambda params: params,
                                raising=False)

    @staticmethod
    def _requests(bucket, kind, rows=3):
        rng = np.random.default_rng(bucket.src_len)
        out = []
        for _ in range(rows):
            tokens = [int(t) for t in rng.integers(3, 40, bucket.src_len)]
            targets = (None if kind is RequestKind.TRANSLATE else
                       [int(t) for t in rng.integers(3, 40, bucket.tgt_len)])
            out.append(Request(kind=kind, tokens=tokens, targets=targets,
                               bucket=bucket))
        return out

    @pytest.mark.parametrize("shape", HARNESS_BUCKETS,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_greedy_translate_and_score(self, sessions, shape, monkeypatch):
        session = sessions["greedy"]
        bucket = BucketSpec(*shape)
        batches = [
            (kind, self._requests(bucket, kind))
            for kind in (RequestKind.TRANSLATE, RequestKind.SCORE)
        ]
        bound = [session.run_batch(kind, bucket, rows)
                 for kind, rows in batches]
        self._oracle(monkeypatch, session.decoder_for(bucket))
        mapped = [session.run_batch(kind, bucket, rows)
                  for kind, rows in batches]
        assert bound[0] == mapped[0]
        # scores bit for bit, not to float equality
        assert np.array(bound[1]).tobytes() == np.array(mapped[1]).tobytes()

    @pytest.mark.parametrize("shape", HARNESS_BUCKETS,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_beam_n_best(self, sessions, shape, monkeypatch):
        session = sessions["beam"]
        bucket = BucketSpec(*shape)
        decoder = session.decoder_for(bucket)
        cfg = decoder.config
        src = np.random.default_rng(shape[0]).integers(
            3, 40, (cfg.src_len, cfg.batch_size)
        ).astype(np.int64)

        def n_best():
            return [
                [(h.tokens, np.float64(h.log_prob).tobytes()) for h in beams]
                for beams in decoder.translate_n_best(src, session.params)
            ]

        bound = n_best()
        self._oracle(monkeypatch, decoder)
        assert bound == n_best()


# -- escaping outputs, counted per run ---------------------------------------


def _fresh_per_allocation(plan):
    """``(count, bytes, zero-byte count)`` of the escaping outputs one run
    allocates, one entry per allocation: every output of an ``out`` or
    fused instruction with no static buffer, read off the lowering."""
    low = plan.lowering
    count = nbytes = zero = 0
    for desc in low.descs:
        if desc["kind"] == "out":
            specs = zip(desc["out_slots"], desc["node"].out_specs)
        elif desc["kind"] == "fused":
            specs = [(desc["out_slots"][0], desc["chain"][-1][1].out_specs[0])]
        else:
            continue
        for slot, spec in specs:
            if low.root[slot] in low.static_views:
                continue
            if spec.nbytes > 0:
                count, nbytes = count + 1, nbytes + spec.nbytes
            else:
                zero += 1
    return count, nbytes, zero


def _counters(arena):
    return arena.fresh_count, arena.fresh_bytes, arena.zero_byte_count


def _nmt_step_plan():
    cfg, store, params = _nmt()
    step = build_decoder_step(cfg, store)
    plan = CompiledPlan(schedule(step.outputs), step.outputs, Arena())
    rng = np.random.default_rng(0)
    feeds = {}
    for node in plan.order:
        if node.op.name == "placeholder":
            spec = node.out_specs[0]
            if np.issubdtype(spec.dtype, np.integer):
                value = rng.integers(3, 40, spec.shape)
            else:
                value = rng.standard_normal(spec.shape)
            feeds[node.name] = value.astype(spec.dtype)
    return plan, feeds, params


def _zero_byte_plan():
    x = O.placeholder((0, 4), np.float64, name="zx")
    y = O.mul_scalar(x, 2.0)
    s = O.reduce_sum(O.add_scalar(x, 1.0))
    plan = CompiledPlan(schedule([y, s]), [y, s], Arena())
    return plan, {"zx": np.zeros((0, 4))}, {}


def _fused_fresh_plan():
    x = O.placeholder((3, 4), np.float64, name="fx")
    w = O.variable((4, 5), np.float64, name="fw")
    b = O.variable((3, 5), np.float64, name="fb")
    y = O.tanh(O.add(O.matmul(x, w), b))
    plan = CompiledPlan(schedule([y]), [y], Arena())
    rng = np.random.default_rng(1)
    return (plan, {"fx": rng.standard_normal((3, 4))},
            {"fw": rng.standard_normal((4, 5)),
             "fb": rng.standard_normal((3, 5))})


_PLANS = {
    "nmt-step": _nmt_step_plan,
    "zero-byte": _zero_byte_plan,
    "fused-fresh": _fused_fresh_plan,
}


class TestFreshCountedPerRun:
    @pytest.mark.parametrize("name", sorted(_PLANS))
    def test_steady_run_counts_each_allocation(self, name):
        plan, feeds, params = _PLANS[name]()
        want = _fresh_per_allocation(plan)
        if name == "zero-byte":
            assert want[2] > 0
        if name == "fused-fresh":
            assert plan.fused_chain_count == 1 and want[0] == 1
        assert plan.fresh_per_run == want
        plan.run(feeds, params)
        before = _counters(plan.arena)
        plan.run(feeds, params)
        after = _counters(plan.arena)
        assert tuple(a - b for a, b in zip(after, before)) == want

    def test_four_threads_on_one_plan(self):
        """Counts stay exact when runs of one plan race (a plan with no
        static storage, so concurrent runs are otherwise independent)."""
        plan, feeds, params = _fused_fresh_plan()
        assert plan.static_storage_bytes == 0
        per_run = plan.fresh_per_run
        before = _counters(plan.arena)
        runs, errors = 300, []
        barrier = threading.Barrier(4)

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(runs):
                    plan.run(feeds, params)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        after = _counters(plan.arena)
        assert tuple(a - b for a, b in zip(after, before)) == tuple(
            4 * runs * n for n in per_run
        )


def _numpy_bytes() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


@pytest.mark.parametrize("name", ["nmt-step", "fused-fresh"])
def test_held_numpy_bytes_are_the_outputs(name):
    """A steady run leaves held exactly the outputs it returns, and nothing
    once they are dropped (numpy's tracemalloc domain)."""
    plan, feeds, params = _PLANS[name]()
    bound = plan.bind(params)
    tracemalloc.start()
    try:
        plan.run(feeds, bound)
        start = _numpy_bytes()
        outputs = plan.run(feeds, bound)
        kept = _numpy_bytes() - start
        held = sum(out.nbytes for out in outputs)
        del outputs
        dropped = _numpy_bytes() - start
    finally:
        tracemalloc.stop()
    assert (kept, dropped) == (held, 0)
