"""Tests for the observability spine (``repro.obs``).

Four layers of coverage:

* Chrome trace-event schema validation — required keys, ``ph``/``pid``/
  ``tid`` types, strictly nested ``B``/``E`` pairs per thread, monotone
  timestamps — run against real exports from instrumented workloads;
* the nine-boundary acceptance trace: a 2-rank distributed NMT training
  step (echo on, verify on, wavefront threads, GEMM batching) must emit
  spans for every instrumented pipeline boundary;
* cross-rank merge: per-rank payloads from the process backend align by
  the collective (generation, seq) tags;
* the inertness contract — tracing + metrics enabled is bitwise
  identical to disabled, across threads x echo x memplan (hypothesis)
  plus a 2-rank distributed leg — and the metrics primitives themselves
  (exact-bucket percentiles, absorb, typed registration).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import DistributedTrainer, run_distributed
from repro.echo import optimize
from repro.models import NmtConfig, WordLmConfig, build_nmt, build_word_lm
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    merge_chrome_traces,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import PlanCache, TrainingExecutor
from repro.train import SGD, Trainer
from tests.helpers import AboveGateDevice, reference_run
from tests.test_memplan import shape_heavy_training_graph


@pytest.fixture
def _ambient_obs_state():
    """Save the ambient tracer/registry (REPRO_TRACE may have armed them
    for the whole suite — the CI ``obs`` job does) and restore on exit."""
    saved = (obs_trace._tracer, obs_trace.TRACING, obs_metrics._registry)
    try:
        yield
    finally:
        obs_trace._tracer, obs_trace.TRACING = saved[0], saved[1]
        obs_metrics._registry = saved[2]


@pytest.fixture
def traced(_ambient_obs_state):
    """A fresh tracer + registry for one test, whatever the env armed."""
    yield obs_trace.enable(fresh=True), obs_metrics.enable(fresh=True)


@pytest.fixture
def untraced(_ambient_obs_state):
    """Force-disabled obs for one test (the inertness baseline)."""
    obs_trace.disable()
    obs_metrics.disable()
    yield


# -- golden schema: the trace-event contract every export must satisfy -------

#: required keys per phase, per the Chrome trace-event spec
GOLDEN_SCHEMA = {
    "B": {"name": str, "cat": str, "ph": str, "ts": int, "pid": int,
          "tid": int},
    "E": {"ph": str, "ts": int, "pid": int, "tid": int},
    "M": {"name": str, "ph": str, "pid": int, "tid": int, "args": dict},
}


def validate_chrome_payload(payload: dict) -> None:
    """Assert ``payload`` satisfies the trace-event contract."""
    assert isinstance(payload, dict)
    assert "traceEvents" in payload
    events = payload["traceEvents"]
    assert isinstance(events, list)
    json.dumps(payload)  # must serialize as-is

    stacks: dict[tuple, list] = {}
    last_ts: dict[tuple, int] = {}
    for ev in events:
        assert isinstance(ev, dict)
        ph = ev.get("ph")
        assert ph in GOLDEN_SCHEMA, f"unknown phase {ph!r}"
        for key, typ in GOLDEN_SCHEMA[ph].items():
            assert key in ev, f"{ph} event missing {key!r}: {ev}"
            assert isinstance(ev[key], typ), (key, ev)
        if ph == "M":
            assert ev["name"] in ("process_name", "thread_name")
            assert isinstance(ev["args"].get("name"), str)
            continue
        thread = (ev["pid"], ev["tid"])
        # Monotone timestamps per thread (non-decreasing).
        assert ev["ts"] >= last_ts.get(thread, ev["ts"]), ev
        last_ts[thread] = ev["ts"]
        if ph == "B":
            assert ev["name"]
            stacks.setdefault(thread, []).append(ev["name"])
        else:
            stack = stacks.get(thread)
            assert stack, f"E without matching B on {thread}"
            stack.pop()
    for thread, stack in stacks.items():
        assert not stack, f"unclosed spans on {thread}: {stack}"


def _tiny_lm_steps(steps: int = 2, threads: int | None = None,
                   echo: bool = False, seed: int = 0):
    """Run a tiny word-LM training loop; returns (losses, grads-free params)."""
    cfg = WordLmConfig(
        vocab_size=30, embed_size=8, hidden_size=8, num_layers=1,
        seq_len=5, batch_size=4, dropout=0.0,
    )
    model = build_word_lm(cfg)
    if echo:
        optimize(model.graph)
    params = model.store.initialize(seed=seed)
    trainer = Trainer(model.graph, params, SGD(0.1), threads=threads,
                      device=AboveGateDevice())
    plan = trainer.executor.executor.plan
    assert (plan.parallel_level_count > 0) == (plan.threads > 1)
    gen = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        feeds = {
            "tokens": gen.integers(0, cfg.vocab_size,
                                   size=(cfg.seq_len, cfg.batch_size)),
            "labels": gen.integers(0, cfg.vocab_size,
                                   size=(cfg.seq_len, cfg.batch_size)),
        }
        losses.append(trainer.step(feeds).loss)
    return losses, params


class TestTraceSchema:
    def test_export_of_real_workload_validates(self, traced):
        tracer, _ = traced
        _tiny_lm_steps(steps=2, threads=2)
        payload = tracer.export_payload()
        validate_chrome_payload(payload)
        assert tracer.span_count() > 0

    def test_export_file_round_trips(self, traced, tmp_path):
        tracer, _ = traced
        _tiny_lm_steps(steps=1)
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        loaded = json.loads(path.read_text())
        validate_chrome_payload(loaded)

    def test_mid_span_export_closes_open_spans(self):
        tracer = Tracer(pid=1)
        with tracer.span("outer", "t"):
            with tracer.span("inner", "t"):
                payload = tracer.export_payload()
        validate_chrome_payload(payload)

    def test_late_annotation_lands_in_export(self):
        tracer = Tracer(pid=1)
        with tracer.span("s", "t", {"early": 1}) as sp:
            sp["late"] = "verdict"
        begins = [e for e in tracer.export_payload()["traceEvents"]
                  if e["ph"] == "B"]
        assert begins[0]["args"] == {"early": 1, "late": "verdict"}

    def test_event_cap_drops_b_but_never_orphans_e(self):
        tracer = Tracer(pid=1, max_events_per_thread=4)
        for _ in range(10):
            with tracer.span("s", "t"):
                pass
        validate_chrome_payload(tracer.export_payload())
        assert tracer.dropped_count() == 8  # 2 spans fit (B+E each)

    def test_per_thread_streams_are_separate(self, traced):
        tracer, _ = traced
        import threading

        # Keep all three threads alive at once — OS thread ids (and so
        # trace tids) are reused once a thread exits.
        barrier = threading.Barrier(3)

        def work():
            with obs_trace.span("threaded", "t"):
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        payload = tracer.export_payload()
        validate_chrome_payload(payload)
        tids = {e["tid"] for e in payload["traceEvents"]
                if e["ph"] == "B" and e["name"] == "threaded"}
        assert len(tids) == 3


# -- the nine-boundary acceptance trace --------------------------------------

#: one span name per instrumented pipeline boundary of a distributed
#: training step (the serve lifecycle is covered in test_serve.py)
NINE_BOUNDARIES = {
    "plan.compile",     # 1 plan cache compile tier
    "plan.lower",       # 2 lowering
    "plan.verify",      # 3 static verification tier
    "cache.lookup",     # 4 PlanCache hit/miss
    "echo.pass",        # 5 Echo accept/reject search
    "memplan.pack",     # 6 memory-plan packing
    "wavefront.item",   # 7 wavefront level execution
    "gemm.batch",       # 8 GEMM-batch dispatch
    "dist.allreduce",   # 9 ring collective (chunk send/recv below it)
}


def _nmt_rank(group, batches):
    """Worker: one rank's traced NMT training (module-level: picklable)."""
    cfg = NmtConfig(
        src_vocab_size=30, tgt_vocab_size=30, embed_size=12,
        hidden_size=12, encoder_layers=1, decoder_layers=1,
        src_len=4, tgt_len=4, batch_size=2, dropout=0.0,
    )
    model = build_nmt(cfg)
    optimize(model.graph)
    params = model.store.initialize(seed=11)
    with DistributedTrainer(
        group, model.graph, params, SGD(0.1),
        threads=2, device=AboveGateDevice(),
        batch_axes={"src_tokens": 1, "tgt_tokens": 1, "tgt_labels": 1},
    ) as trainer:
        records = [trainer.step(feeds) for feeds in batches]
        assert trainer.step_done.is_set()
    return [r.loss for r in records], params


def _nmt_batches(steps: int, global_batch: int = 4, seed: int = 3):
    gen = np.random.default_rng(seed)
    return [
        {
            "src_tokens": gen.integers(0, 30, size=(4, global_batch)),
            "tgt_tokens": gen.integers(0, 30, size=(4, global_batch)),
            "tgt_labels": gen.integers(0, 30, size=(4, global_batch)),
        }
        for _ in range(steps)
    ]


class TestNineBoundaries:
    def test_two_rank_nmt_trace_covers_every_boundary(
        self, traced, monkeypatch
    ):
        tracer, _ = traced
        monkeypatch.setenv("REPRO_VERIFY", "1")
        results = run_distributed(
            _nmt_rank, 2, backend="thread", args=(_nmt_batches(2),),
            timeout_s=60.0,
        )
        # Both ranks trained in lockstep (thread backend shares the
        # tracer, so the trace holds both ranks' timelines by thread).
        assert results[0][0] == results[1][0]

        payload = tracer.export_payload()
        validate_chrome_payload(payload)
        names = tracer.span_names()
        missing = NINE_BOUNDARIES - names
        assert not missing, f"boundaries missing from trace: {missing}"
        # The collective's wire-level children are present too.
        assert "dist.chunk.send" in names and "dist.chunk.recv" in names
        # Collective spans are rank-tagged for the cross-rank merge.
        ranks = {
            ev["args"]["rank"]
            for ev in payload["traceEvents"]
            if ev.get("ph") == "B" and ev.get("name") == "dist.allreduce"
        }
        assert ranks == {0, 1}


# -- cross-rank merge --------------------------------------------------------


def _traced_rank(group, batches):
    """Worker (process backend): per-rank tracer, returns its payload."""
    tracer = obs_trace.enable(fresh=True)
    tracer.set_process(group.rank, f"rank{group.rank}")
    try:
        cfg = WordLmConfig(
            vocab_size=30, embed_size=8, hidden_size=8, num_layers=1,
            seq_len=5, batch_size=2, dropout=0.0,
        )
        model = build_word_lm(cfg)
        params = model.store.initialize(seed=100 + group.rank)
        with DistributedTrainer(
            group, model.graph, params, SGD(0.1)
        ) as trainer:
            for feeds in batches:
                trainer.step(feeds)
        return tracer.export_payload()
    finally:
        obs_trace.disable()


class TestCrossRankMerge:
    def test_collective_spans_align_by_gen_seq(self):
        gen = np.random.default_rng(5)
        batches = [
            {
                "tokens": gen.integers(0, 30, size=(5, 4)),
                "labels": gen.integers(0, 30, size=(5, 4)),
            }
            for _ in range(2)
        ]
        payloads = run_distributed(
            _traced_rank, 2, backend="process", args=(batches,),
            timeout_s=60.0,
        )
        assert all(isinstance(p, dict) for p in payloads)

        def collective_keys(payload):
            out = {}
            for ev in payload["traceEvents"]:
                if ev.get("ph") != "B":
                    continue
                args = ev.get("args") or {}
                if "gen" in args and "seq" in args:
                    key = (args["gen"], args["seq"])
                    out.setdefault(key, ev["ts"])
            return out

        keys0, keys1 = map(collective_keys, payloads)
        # The same collectives happened on both ranks.
        assert set(keys0) == set(keys1) and keys0

        merged = merge_chrome_traces(payloads)
        validate_chrome_payload(merged)
        assert {e["pid"] for e in merged["traceEvents"]} == {0, 1}

        # The anchor collective starts at the same merged timestamp on
        # both ranks; every other shared collective keeps its per-rank
        # relative order (constant shift preserves monotonicity).
        merged_keys = {0: {}, 1: {}}
        for ev in merged["traceEvents"]:
            if ev.get("ph") != "B":
                continue
            args = ev.get("args") or {}
            if "gen" in args and "seq" in args:
                merged_keys[ev["pid"]].setdefault(
                    (args["gen"], args["seq"]), ev["ts"]
                )
        anchor = sorted(set(keys0) & set(keys1))[0]
        assert merged_keys[0][anchor] == merged_keys[1][anchor]

    def test_merge_of_nothing_is_empty(self):
        assert merge_chrome_traces([]) == {
            "traceEvents": [], "displayTimeUnit": "ms",
        }


# -- inertness: tracing + metrics may never change a computed value ----------



class TestInertness:
    @given(shape_heavy_training_graph(), st.integers(0, 2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_tracing_and_metrics_are_bitwise_inert(self, built, seed):
        # Manual ambient save/restore: hypothesis @given composes badly
        # with function-scoped stateful fixtures.
        saved = (obs_trace._tracer, obs_trace.TRACING, obs_metrics._registry)
        try:
            obs_trace.disable()
            obs_metrics.disable()
            self._check_inert(built, seed)
        finally:
            obs_trace._tracer, obs_trace.TRACING = saved[0], saved[1]
            obs_metrics._registry = saved[2]

    def _check_inert(self, built, seed):
        graph, rows, cols = built
        gen = np.random.default_rng(seed)
        feeds = {"mp_x": gen.standard_normal((rows, cols))}
        params = {"mp_w": gen.standard_normal((rows, cols))}
        for echo in (False, True):
            if echo:
                optimize(graph)
            assert obs_trace.tracer() is None
            want = reference_run(graph.outputs, feeds, params)
            for threads in (1, 4):
                obs_trace.enable(fresh=True)
                obs_metrics.enable(fresh=True)
                try:
                    loss, grads, _ = TrainingExecutor(
                        graph, plan_cache=PlanCache(store=None),
                        threads=threads, device=AboveGateDevice(),
                    ).run(feeds, params)
                finally:
                    obs_trace.disable()
                    obs_metrics.disable()
                assert loss == float(want[0]), (echo, threads)
                for k, ref in zip(graph.grads, want[1:]):
                    np.testing.assert_array_equal(
                        grads[k], ref, err_msg=str((echo, threads, k))
                    )

    def test_traced_trainer_matches_untraced(self, untraced):
        ref_losses, ref_params = _tiny_lm_steps(steps=3, threads=2,
                                                echo=True, seed=4)
        obs_trace.enable(fresh=True)
        obs_metrics.enable(fresh=True)
        try:
            losses, params = _tiny_lm_steps(steps=3, threads=2,
                                            echo=True, seed=4)
            assert obs_trace.tracer().span_count() > 0
        finally:
            obs_trace.disable()
            obs_metrics.disable()
        assert losses == ref_losses
        for k in ref_params:
            np.testing.assert_array_equal(params[k], ref_params[k])

    def test_two_rank_dist_leg_is_inert(self, untraced):
        gen = np.random.default_rng(9)
        batches = [
            {
                "tokens": gen.integers(0, 30, size=(5, 4)),
                "labels": gen.integers(0, 30, size=(5, 4)),
            }
            for _ in range(2)
        ]
        ref = run_distributed(
            _dist_leg_rank, 2, backend="thread", args=(batches,),
            timeout_s=60.0,
        )
        obs_trace.enable(fresh=True)
        obs_metrics.enable(fresh=True)
        try:
            traced = run_distributed(
                _dist_leg_rank, 2, backend="thread", args=(batches,),
                timeout_s=60.0,
            )
        finally:
            obs_trace.disable()
            obs_metrics.disable()
        for rank in range(2):
            assert traced[rank][0] == ref[rank][0]  # losses, bitwise
            for k in ref[rank][1]:
                np.testing.assert_array_equal(
                    traced[rank][1][k], ref[rank][1][k]
                )


def _dist_leg_rank(group, batches):
    cfg = WordLmConfig(
        vocab_size=30, embed_size=8, hidden_size=8, num_layers=1,
        seq_len=5, batch_size=2, dropout=0.0,
    )
    model = build_word_lm(cfg)
    params = model.store.initialize(seed=100 + group.rank)
    with DistributedTrainer(group, model.graph, params, SGD(0.1)) as trainer:
        losses = [trainer.step(feeds).loss for feeds in batches]
    return losses, params


# -- metrics primitives ------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_basics(self):
        c, g = Counter(), Gauge()
        assert c.value == 0 and g.value is None
        c.inc()
        c.inc(4)
        g.set(2.5)
        assert c.value == 5 and g.value == 2.5

    def test_histogram_exact_percentiles(self):
        h = Histogram()
        for v in [1.0] * 3 + [4.0] * 97:
            h.observe(v)
        assert h.percentile(50) == 4.0
        assert h.percentile(1) == 1.0
        assert h.count == 100 and h.sum == 3.0 + 4.0 * 97

    def test_histogram_degenerate_windows(self):
        h = Histogram()
        assert h.percentile(99) is None
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["p99"] is None
        h.observe(7.0)
        for p in (0, 50, 99, 100):
            assert h.percentile(p) == 7.0

    def test_registry_type_collisions_raise(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_absorb_flattens_and_skips_non_numeric(self):
        reg = MetricsRegistry()
        reg.absorb("dist", {
            "rank": 1,
            "collectives": {"allreduce_mean": 4},
            "note": "not-a-number",
        })
        snap = reg.snapshot()
        assert snap["dist.rank"] == 1
        assert snap["dist.collectives.allreduce_mean"] == 4
        assert "dist.note" not in snap

    def test_snapshot_shape_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(3.0)
        snap = reg.snapshot()
        json.dumps(snap)
        assert snap["c"] == {
            "count": 1, "sum": 3.0, "min": 3.0, "max": 3.0,
            "p50": 3.0, "p95": 3.0, "p99": 3.0,
        }

    def test_dump_cli_runs_and_prints_json(self, capsys, tmp_path,
                                           untraced):
        from repro.obs import dump

        try:
            rc = dump.main(["--steps", "1",
                            "--trace", str(tmp_path / "t.json")])
        finally:
            obs_trace.disable()
            obs_metrics.disable()
        assert rc == 0
        out = capsys.readouterr().out
        snap = json.loads(out)
        assert "plancache.hit_rate" in snap
        assert "train.steps" in snap
        # compile-path de-duplication is readable from telemetry alone
        assert snap["plan.codegen.templates_compiled"] >= 0
        assert snap["plan.codegen.template_hits"] > 0
        # the lowered stream of the Echo-optimised plan (Echo scores its
        # graph states by their waterline, unpacked), then one lowered
        # stream per data-parallel rank
        assert snap["memplan.pack.calls"] == 1 + 2
        assert snap["memplan.pack_s"]["count"] == 1 + 2
        # the wavefront gate's verdicts and the communicator wait
        for key in ("levels", "levels_parallel", "levels_gated"):
            assert snap[f"plan.wavefront.{key}"] >= 0
        assert snap["dist.comm_wait_s"]["count"] == 2  # ranks x steps
        validate_chrome_payload(
            json.loads((tmp_path / "t.json").read_text())
        )


class TestZeroOverheadContract:
    def test_disabled_span_is_shared_noop(self, untraced):
        sp1 = obs_trace.span("a", "b", {"x": 1})
        sp2 = obs_trace.span("c")
        assert sp1 is sp2
        with sp1 as s:
            s["ignored"] = True  # must not raise

    def test_enable_disable_toggles_flag(self, untraced):
        assert not obs_trace.TRACING
        obs_trace.enable(fresh=True)
        try:
            assert obs_trace.TRACING
            assert obs_trace.tracer() is not None
        finally:
            obs_trace.disable()
        assert not obs_trace.TRACING and obs_trace.tracer() is None
