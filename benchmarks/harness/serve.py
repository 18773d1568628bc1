"""``nmt_serve``: micro-batched inference on 28 small forward-only plans.

Phase A ("burst") enqueues whole rounds at once and measures drain rate;
phase B ("paced") is an open loop at a fixed 300 req/s — about 13% of the
burst capacity, so no standing backlog while micro-batching stays active —
whose latencies are timed from each request's *due* time. Every served
output is compared with ``session.run_sequential``.

Spans of a traced pass are taken from outside: the submit call, the
``MicroBatcher.on_batch_close`` hook, a timing wrapper around the bound
``session.run_batch``, and each future's done-callback.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time

from repro.data import BucketSpec
from repro.gpumodel import DeviceModel
from repro.models import NmtConfig, build_nmt
from repro.nn import Backend
from repro.runtime import PlanCache
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    InferenceSession,
    Request,
    RequestKind,
)
from repro.train import Adam, Trainer

from . import inputs, spec, stats
from .core import Context, Result, record_pgo, timed, tune_dir
from .train import RUNTIME_FRAMES

_KIND = {"translate": RequestKind.TRANSLATE, "score": RequestKind.SCORE}
BUCKETS = tuple(BucketSpec(s, t) for s, t in spec.NMT_BUCKETS)


def _config() -> NmtConfig:
    return NmtConfig(backend=Backend.CUDNN, **spec.NMT_SERVE)


def train_model(tree: inputs.SeedTree):
    """A briefly trained model: argmax preferences must not be degenerate."""
    cfg = _config()
    model = build_nmt(cfg)
    params = model.store.initialize(seed=tree.param_seed())
    trainer = Trainer(model.graph, params, Adam(spec.SERVE_TRAIN_LR),
                      plan_cache=PlanCache(store=None), threads=1)
    key = (cfg.src_len, cfg.tgt_len)
    batches = inputs.nmt_batches(tree, spec.NMT_SERVE, (key,),
                                 spec.SERVE_TRAIN_STEPS, role="serve_train")
    for feeds in batches[key]:
        trainer.step(feeds)
    return model, params


def build_session(model, params, result: Result, store_dir=None):
    """Config -> warmed-up, verified session (one compile repetition)."""
    with tune_dir(store_dir):
        session = InferenceSession(
            _config(), model.store, params, BUCKETS,
            max_batch_size=spec.SERVE_MAX_BATCH,
            plan_cache=PlanCache(capacity=256), threads=1,
        )
        warmup = session.warmup()
    report = session.verify(equiv=True)
    result.check(report.ok, "nmt_serve: session.verify failed")
    return session, warmup


def _as_request(session, item) -> Request:
    kind, tokens, targets = item
    return Request(kind=_KIND[kind], tokens=tokens, targets=targets,
                   bucket=session.bucket_for_length(len(tokens)))


def _executors(session):
    for bucket in session.buckets:
        decoder = session.decoder_for(bucket)
        yield bucket, decoder._encoder, decoder._step


def modelled(session) -> tuple[int, float]:
    """``(peak bytes, samples/s)`` of the largest bucket on ``DeviceModel()``:
    one translate request batch = the encoder plus ``tgt_len`` decoder steps."""
    device = DeviceModel()

    def seconds(executor) -> float:
        costs = [device.node_cost(n) for n in executor.order
                 if n.op.name not in ("placeholder", "variable")]
        return max(sum(c.kernel_seconds for c in costs),
                   sum(c.api_seconds for c in costs))

    bucket, encoder, step = max(_executors(session),
                                key=lambda item: item[0].src_len)
    peak = max(encoder.peak_bytes, step.peak_bytes)
    batch_s = seconds(encoder) + bucket.tgt_len * seconds(step)
    return peak, session.max_batch_size / batch_s


class Round:
    """One round of requests through a live server, timed from outside."""

    def __init__(self, server, pool, expected, order, result: Result,
                 recorder, tap: "Tap | None") -> None:
        self.server, self.pool, self.expected = server, pool, expected
        self.order, self.result = order, result
        self.rec, self.tap = recorder, tap
        self.traced = tap is not None
        n = len(order)
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [0.0] * n
        self.outputs: list = [None] * n
        self._left = n
        self._all_done = threading.Event()
        self._lock = threading.Lock()

    def _settle(self, i: int) -> None:
        self.done[i] = time.perf_counter()
        if self.traced:
            self.tap.responded = self.done[i]
        with self._lock:
            self._left -= 1
            if self._left == 0:
                self._all_done.set()

    def _on_done(self, i: int, future) -> None:
        try:
            self.outputs[i] = future.result()
        except Exception:  # noqa: BLE001 - shed / failed: no output, so wrong
            pass
        self._settle(i)

    def _submit(self, i: int) -> None:
        kind, tokens, targets = self.pool[self.order[i]]
        self.sent[i] = time.perf_counter()
        span = (self.rec.span("serve.enqueue", request=i) if self.traced
                else contextlib.nullcontext())
        try:
            with span:
                future = self.server.submit(tokens, kind=_KIND[kind],
                                            targets=targets, timeout=0.0)
        except Exception:  # noqa: BLE001 - refused at admission: no output
            self._settle(i)
            return
        future.add_done_callback(lambda f, i=i: self._on_done(i, f))

    def burst(self) -> float:
        """Everything enqueued at once; returns requests per second."""
        start = time.perf_counter()
        for i in range(len(self.order)):
            self.due[i] = start
            self._submit(i)
        self._finish()
        return len(self.order) / (max(self.done) - start)

    def paced(self, rps: float) -> None:
        """Open loop: request ``i`` is due at ``start + i / rps``."""
        start = time.perf_counter() + 0.005
        for i in range(len(self.order)):
            due = start + i / rps
            self.due[i] = due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._submit(i)
        self._finish()

    def _finish(self) -> None:
        self._all_done.wait(timeout=120.0)
        # a shed / refused / timed-out / wrong answer is one failed request
        wrong = sum(
            out != self.expected[idx]
            for out, idx in zip(self.outputs, self.order)
        )
        self.result.attempted += len(self.order)
        self.result.failed += wrong
        if wrong:
            self.result.failures.append(
                f"nmt_serve: {wrong} of {len(self.order)} requests failed "
                "or differ from run_sequential"
            )
        if self.traced:
            self.tap.flush()
            for i, (due, done) in enumerate(zip(self.due, self.done)):
                self.rec.add("serve.request", due, done, flow=True, request=i)

    def latencies_ms(self) -> list[float]:
        return [1e3 * (done - due) for due, done in zip(self.due, self.done)]

    def lateness_ms(self) -> list[float]:
        return [1e3 * (sent - due) for due, sent in zip(self.due, self.sent)]


class Tap:
    """Dispatcher-side spans of the traced rounds, taken from outside."""

    def __init__(self, server, recorder) -> None:
        self.server, self.rec = server, recorder
        self.active = False
        self.queue_wait_ms: list[float] = []
        self.decode_ms: list[float] = []
        #: end of the latest decode / latest future resolved after it
        self._decoded: float | None = None
        self.responded = 0.0
        inner = server.session.run_batch

        def run_batch(kind, bucket, requests):
            if not self.active:
                return inner(kind, bucket, requests)
            self.flush()
            start = time.perf_counter()
            with self.rec.span("serve.decode", kind=kind.name,
                               bucket=str(bucket), occupancy=len(requests)):
                out = inner(kind, bucket, requests)
            self._decoded = time.perf_counter()
            self.decode_ms.append(1e3 * (self._decoded - start))
            return out

        # an instance attribute shadows the bound method for the server
        server.session.run_batch = run_batch
        server.batcher.on_batch_close = self._on_close

    def flush(self) -> None:
        """Close the respond span of the batch decoded last, if any."""
        if self._decoded is not None:
            self.rec.add("serve.respond", self._decoded,
                         max(self.responded, self._decoded))
            self._decoded = None

    def _on_close(self, planned) -> None:
        if not self.active:
            return
        self.flush()
        now = time.monotonic()
        with self.rec.span("serve.batch_close", occupancy=planned.occupancy):
            for req in planned.requests:
                self.queue_wait_ms.append(1e3 * (now - req.enqueued_s))

    def close(self) -> None:
        del self.server.session.run_batch
        self.server.batcher.on_batch_close = None


def run(ctx: Context) -> Result:
    result = Result()
    m = result.metrics
    rec = ctx.recorder
    pool = inputs.request_pool(ctx.tree)
    key_batches = inputs.key_batches(ctx.tree, spec.NMT_BUCKETS)
    arrivals = ctx.tree.generator("arrivals")
    once_s = time.perf_counter() - ctx.t0
    store_dir = ctx.scratch / "tune-nmt_serve"

    # -- set-up, repeated: train briefly, build, warm up ------------------
    setups, cold, warm = [], [], []
    for _ in range(ctx.count("serve.setup_reps")):
        gc.collect()
        start = time.perf_counter()
        with rec.span("serve.train_model"):
            model, params = train_model(ctx.tree)
        with rec.span("compile.cold"):
            seconds, (session, warmup) = timed(build_session, model, params,
                                               result)
        cold.append(seconds)
        setups.append(time.perf_counter() - start)
    m["serve.warmup_s"] = warmup["seconds"]
    m["serve.plans_compiled"] = warmup["plans_compiled"]
    build_session(model, params, Result(), store_dir)  # populate the store

    # -- reference outputs: occupancy-1 decode through the same plans -----
    requests = [_as_request(session, item) for item in pool]
    seconds, expected = timed(session.run_sequential, requests)
    m["serve.sequential_rps"] = len(requests) / seconds

    keyed = [
        (_KIND[kind], BucketSpec(*bucket),
         [_as_request(session, row) for row in rows])
        for kind, bucket, rows in key_batches
    ]
    key_samples: dict = {i: [] for i in range(len(keyed))}
    warm_stats: dict = {}

    def between_rounds() -> None:
        """The short measurements, spread over the whole run so that a
        noisy stretch of the host cannot cover all samples of one metric:
        a cold and a warm session build, and full batches straight through
        ``run_batch``, one per (kind, bucket)."""
        seconds, _ = timed(build_session, model, params, result)
        cold.append(seconds)
        with rec.span("compile.warm"):
            seconds, (_, report) = timed(build_session, model, params, result,
                                         store_dir)
        warm.append(seconds)
        warm_stats.update(report.get("tune_store", {}))
        for _ in range(ctx.count("serve.key_rounds")):
            for i, (kind, bucket, rows) in enumerate(keyed):
                start = time.perf_counter()
                session.run_batch(kind, bucket, rows)
                key_samples[i].append(time.perf_counter() - start)

    # -- live server: burst rounds, then paced rounds ---------------------
    pool_n = len(pool)
    burst_pools = ctx.count("serve.pools_per_burst")
    paced_pools = ctx.count("serve.pools_per_paced")
    policy = BatchPolicy(
        max_batch_size=spec.SERVE_MAX_BATCH, max_wait_ms=spec.SERVE_MAX_WAIT_MS,
        max_queue_depth=pool_n * max(burst_pools, paced_pools) + 1,
    )
    server = InferenceServer(session, policy)
    tap = Tap(server, rec) if ctx.traced else None
    burst_rps, traced_burst_rps = [], []
    p50, p90, p99, late = [], [], [], []
    paced_s = paced_pools * pool_n / spec.SERVE_PACED_RPS
    began = time.perf_counter()
    with server:
        def one_round(pools: int, traced: bool) -> Round:
            between_rounds()
            if tap is not None:
                tap.active = traced
            order = inputs.round_order(arrivals, pool_n, pools)
            return Round(server, pool, expected, order, result, rec,
                         tap if traced else None)

        # burst takes a quarter of the budget, paced the rest
        rounds = 0
        while rounds < ctx.count("serve.min_burst_rounds") or (
            time.perf_counter() - began < 0.25 * ctx.seconds
        ):
            traced = ctx.traced and rounds % 2 == 1
            rps = one_round(burst_pools, traced).burst()
            (traced_burst_rps if traced else burst_rps).append(rps)
            rounds += 1
        if tap is not None:  # layer numbers describe the paced regime
            tap.queue_wait_ms.clear()
            tap.decode_ms.clear()
        rounds = 0
        while rounds < ctx.count("serve.min_paced_rounds") or (
            time.perf_counter() - began + paced_s < ctx.seconds
        ):
            traced = ctx.traced and rounds % 2 == 1
            rnd = one_round(paced_pools, traced)
            rnd.paced(spec.SERVE_PACED_RPS)
            if not traced:
                latencies = rnd.latencies_ms()
                p50.append(stats.percentile(latencies, 50))
                p90.append(stats.percentile(latencies, 90))
                p99.append(stats.percentile(latencies, 99))
                late.append(stats.percentile(rnd.lateness_ms(), 99))
            rounds += 1
    snapshot = server.snapshot()
    if tap is not None:
        tap.close()

    m["setup_s"] = once_s + stats.median(setups)
    m["compile_cold_s"] = stats.p10(cold)
    m["compile_warm_s"] = stats.p10(warm)
    m["iter_ms"] = 1e3 * stats.mean(stats.p10(v) for v in key_samples.values())
    m["train.iter_p50_ms"] = 1e3 * stats.mean(
        stats.median(v) for v in key_samples.values()
    )
    peak, samples_per_s = modelled(session)
    m["peak_bytes"] = peak
    m["arena_bytes"] = sum(
        ex.plan.static_storage_bytes
        for _, encoder, step in _executors(session) for ex in (encoder, step)
    )
    m["sim_samples_per_s"] = samples_per_s
    m["serve_rps"] = stats.percentile(burst_rps, 90)
    # Like every timing: a low percentile over samples spread across the
    # run, here over the rounds. (Pooling the rounds' latencies let one
    # noisy stretch of the host move p99 from 24 to 122 ms between runs.)
    m["serve_p50_ms"] = stats.p10(p50)
    m["serve_p99_ms"] = stats.p10(p99)
    m["serve.latency_p90_ms"] = stats.p10(p90)
    m["serve.gen_late_ms_p99"] = stats.median(late)
    m["serve.batch_occupancy"] = snapshot["mean_batch_occupancy"]
    m["serve.batches"] = snapshot["batches"]
    m["serve.shed"] = snapshot["shed"]
    m["serve.rejected"] = (snapshot["rejected_full"]
                           + snapshot["rejected_invalid"])
    m["serve.plancache_misses_post_warmup"] = (
        snapshot["plan_cache_misses_post_warmup"]
    )
    result.check(snapshot["plan_cache_misses_post_warmup"] == 0,
                 "nmt_serve: plan compiled after warm-up")
    record_pgo(m, warm_stats)

    if ctx.traced:
        m["serve.queue_wait_ms_p50"] = stats.median(tap.queue_wait_ms)
        m["serve.decode_ms_per_batch"] = stats.mean(tap.decode_ms)
        m["harness.trace_overhead"] = (
            stats.percentile(burst_rps, 90)
            / stats.percentile(traced_burst_rps, 90)
        )
        m["executor.host_ops"] = _host_ops(session, keyed)
        return result

    m["compile_calls"] = stats.count_calls(
        lambda: build_session(model, params, Result())
    )
    m["iter_host_ops"] = _host_ops(session, keyed)
    return result


def _host_ops(session, keyed) -> int:
    """Executor bytecodes of one full batch per (kind, bucket).

    Only ``repro/runtime`` and generated-plan frames count here: the decode
    loop's own bytecodes depend on the tokens the model happens to emit,
    and a count that moves with the seed cannot be gated exactly.
    """
    return sum(
        stats.count_bytecodes(
            lambda k=kind, b=bucket, r=rows: session.run_batch(k, b, r),
            RUNTIME_FRAMES,
        )
        for kind, bucket, rows in keyed
    )
