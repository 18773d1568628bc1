"""``nmt_train`` and ``wordlm_train``: compile cost and the steady step.

Both workloads share one flow: cold and warm builds (config -> verified
runnable trainer) interleaved with blocks of timed steps, then two exact
passes (profile-event count of a compile, bytecode count of an iteration).

A traced pass keeps one build of each kind, alternates untraced and traced
rounds of steps (their ratio is ``harness.trace_overhead``) and adds the
decomposed pipeline — build -> echo -> schedule -> memory -> lower ->
verify -> equiv, and step{run, update} — with one span per call into a
layer, from outside the program.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis import check_equivalence
from repro.analysis.verify import verify_plan
from repro.data import BucketSpec
from repro.echo import EchoConfig, EchoPass
from repro.gpumodel import DeviceModel
from repro.graph import Stage
from repro.graph.traversal import topo_order
from repro.models import NmtConfig, WordLmConfig, build_nmt, build_word_lm
from repro.nn import Backend, ParamStore
from repro.obs import trace as obs_trace
from repro.pgo.store import default_store
from repro.profiler import kernel_family, measure_node_timings
from repro.runtime import (
    Arena,
    Category,
    CompiledPlan,
    PlanCache,
    plan_memory,
    schedule,
)
from repro.train import SGD, Adam, Trainer
from repro.train.bucketed import BucketedTrainer

from . import inputs, oracle, spec, stats
from .core import Context, Result, record_pgo, timed, tune_dir

#: frames counted as host work of an iteration / of the executor alone
REPRO_FRAMES = ("/repro/", stats.COMPILED_PLAN_FRAME)
RUNTIME_FRAMES = ("/repro/runtime/", stats.COMPILED_PLAN_FRAME)

_BATCHES_PER_KEY = 6


@dataclass
class Built:
    """A runnable trainer set: one :class:`Trainer` per key (bucket)."""

    trainers: dict
    params: dict
    plan_cache: PlanCache
    step: Callable  # (key, feeds) -> loss
    peak_bytes: int
    sim_samples_per_s: float
    #: counters of the tune store the build went through ({} when cold)
    store_stats: dict

    def plans(self) -> list:
        return [t.executor.executor.plan for t in self.trainers.values()]


class NmtTrain:
    name = "nmt_train"
    keys = spec.NMT_BUCKETS

    def __init__(self) -> None:
        self.config = NmtConfig(backend=Backend.CUDNN, **spec.NMT_TRAIN)

    def make_optimizer(self):
        return Adam(spec.NMT_TRAIN_LR)

    def build(self) -> Built:
        """Config -> runnable trainers, exactly as a user would build them."""
        buckets = tuple(BucketSpec(s, t) for s, t in self.keys)
        bt = BucketedTrainer(
            self.config, buckets, self.make_optimizer(), echo=True,
            echo_config=EchoConfig(), device=DeviceModel(), threads=1,
        )
        by_key = dict(zip(self.keys, buckets))
        return Built(
            trainers={k: bt.trainer_for(b) for k, b in by_key.items()},
            params=bt.params,
            plan_cache=bt.plan_cache,
            step=lambda key, feeds: bt.step(by_key[key], feeds).loss,
            peak_bytes=bt.peak_bytes,
            sim_samples_per_s=(
                self.config.batch_size / bt.mean_iteration_seconds()
            ),
            store_stats={},
        )

    def plain_graph(self, key, store: ParamStore):
        """The un-rewritten training graph of ``key`` (oracle, layer pass)."""
        cfg = replace(self.config, src_len=key[0], tgt_len=key[1])
        return build_nmt(cfg, store=store).graph

    def batches(self, tree: inputs.SeedTree) -> dict:
        return inputs.nmt_batches(tree, spec.NMT_TRAIN, self.keys,
                                  _BATCHES_PER_KEY)


class WordLmTrain:
    name = "wordlm_train"
    keys = ("lm",)

    def __init__(self, threads: int = 1, batch_size: int | None = None) -> None:
        cfg = dict(spec.WORDLM)
        if batch_size is not None:
            cfg["batch_size"] = batch_size
        self.config = WordLmConfig(backend=Backend.DEFAULT, **cfg)
        self.threads = threads

    def make_optimizer(self):
        return SGD(spec.WORDLM_LR)

    def build(self) -> Built:
        model = build_word_lm(self.config)
        device = DeviceModel()
        # No explicit store: the cache resolves REPRO_TUNE_DIR, which is
        # unset (scrubbed) for cold builds and set by tune_dir() for warm.
        cache = PlanCache()
        EchoPass(EchoConfig(), device, plan_cache=cache).run(model.graph)
        params = model.store.initialize()
        trainer = Trainer(
            model.graph, params, self.make_optimizer(), device=device,
            plan_cache=cache, threads=self.threads,
        )
        return Built(
            trainers={"lm": trainer},
            params=params,
            plan_cache=cache,
            step=lambda key, feeds: trainer.step(feeds).loss,
            peak_bytes=trainer.peak_bytes,
            sim_samples_per_s=trainer.throughput(),
            store_stats={},
        )

    def plain_graph(self, key, store: ParamStore):
        return build_word_lm(self.config, store=store).graph

    def batches(self, tree: inputs.SeedTree) -> dict:
        return {"lm": inputs.lm_batches(tree, spec.WORDLM, _BATCHES_PER_KEY)}


# -- building blocks -------------------------------------------------------


def build_verified(wl, result: Result, store_dir: Path | None = None) -> Built:
    """One compile repetition: build, then certify every plan."""
    with tune_dir(store_dir):
        built = wl.build()
        store = default_store()
        if store is not None:
            built.store_stats = store.stats()
    for key, trainer in built.trainers.items():
        report = trainer.executor.executor.verify(equiv=True)
        result.check(report.ok, f"{wl.name}: verify failed on {key}")
    return built


def plain_graphs(wl) -> tuple[ParamStore, dict]:
    """The un-rewritten graph of every key, over one parameter store."""
    store = ParamStore()
    return store, {key: wl.plain_graph(key, store) for key in wl.keys}


def seed_params(built: Built, store: ParamStore, tree: inputs.SeedTree) -> None:
    """Overwrite the trainer's initial parameters with the seeded ones."""
    for name, value in store.initialize(seed=tree.param_seed()).items():
        built.params[name][...] = value


class Sampler:
    """Interleaved timed steps over the keys of one :class:`Built`.

    With a live recorder, rounds alternate between the plain step and the
    traced one (``Trainer.step`` taken apart so that its two calls into
    lower layers get a span each); each kind keeps its own samples.
    """

    def __init__(self, wl, built: Built, batches: dict, result: Result,
                 recorder) -> None:
        self.wl, self.built, self.batches = wl, built, batches
        self.result, self.rec = result, recorder
        self.samples: dict = {k: [] for k in wl.keys}
        self.traced: dict = {k: [] for k in wl.keys}
        self.run_s: dict = {k: [] for k in wl.keys}
        self.update_s: dict = {k: [] for k in wl.keys}
        self.losses: list[float] = []
        self.rounds = 0
        self.broken = False

    def _traced_step(self, key, feeds) -> float:
        trainer = self.built.trainers[key]
        with self.rec.span("train.step", key=str(key)):
            t0 = time.perf_counter()
            with self.rec.span("exec.run"):
                loss, grads, _ = trainer.executor.run(feeds, self.built.params)
            t1 = time.perf_counter()
            if not math.isfinite(loss):
                raise FloatingPointError(f"loss diverged to {loss}")
            with self.rec.span("train.update"):
                trainer.optimizer.update(self.built.params, grads)
            t2 = time.perf_counter()
        self.run_s[key].append(t1 - t0)
        self.update_s[key].append(t2 - t1)
        return loss

    def round(self, record: bool = True) -> float:
        """One step per key; returns the round's wall seconds."""
        traced = self.rec.enabled and self.rounds % 2 == 1
        total = 0.0
        for key in self.wl.keys:
            pool = self.batches[key]
            feeds = pool[self.rounds % len(pool)]
            start = time.perf_counter()
            try:
                loss = (self._traced_step(key, feeds) if traced
                        else self.built.step(key, feeds))
            except FloatingPointError as exc:
                self.result.check(False, f"{self.wl.name}: {exc}")
                self.broken = True
                return total
            elapsed = time.perf_counter() - start
            total += elapsed
            if record:
                (self.traced if traced else self.samples)[key].append(elapsed)
            self.losses.append(loss)
            self.result.check(math.isfinite(loss),
                              f"{self.wl.name}: non-finite loss")
        self.rounds += 1
        return total

    def run_block(self, seconds: float, min_rounds: int) -> None:
        deadline = time.perf_counter() + seconds
        done = 0
        while not self.broken and (
            done < min_rounds or time.perf_counter() < deadline
        ):
            self.round()
            done += 1


def per_key_ms(samples: dict, p: float = 10) -> float:
    """Mean over keys of each key's percentile, in ms."""
    return 1e3 * stats.mean(
        stats.percentile(v, p) for v in samples.values()
    )


def check_against_oracle(wl, sampler: Sampler, graphs: dict,
                         result: Result) -> list[float]:
    """Step-1 gradients of the live trainer vs the reference evaluator,
    bitwise; returns the reference losses of the sampler's first steps for
    the caller to compare once those steps have run."""
    built, batches = sampler.built, sampler.batches
    ref_params = {k: np.array(v, copy=True) for k, v in built.params.items()}

    plan = []  # one step per key per round, in the sampler's order
    for i in range(spec.ORACLE_STEPS):
        key = wl.keys[i % len(wl.keys)]
        pool = batches[key]
        plan.append((key, pool[(i // len(wl.keys)) % len(pool)]))

    first_key, first_feeds = plan[0]
    _, live_grads, _ = built.trainers[first_key].executor.run(
        first_feeds, built.params
    )
    live_grads = {k: np.array(v, copy=True) for k, v in live_grads.items()}
    ref_losses, ref_grads = oracle.reference_losses(
        graphs.__getitem__, ref_params, wl.make_optimizer(), plan
    )
    for name, grad in ref_grads.items():
        result.check(oracle.same_bits(grad, live_grads[name]),
                     f"{wl.name}: step-1 gradient of {name} differs")
    return ref_losses


# -- the flow --------------------------------------------------------------


def run(wl, ctx: Context) -> Result:
    result = Result()
    m = result.metrics
    rec = ctx.recorder
    batches = wl.batches(ctx.tree)
    once_s = time.perf_counter() - ctx.t0
    reps = ctx.count(f"{wl.name}.compile_reps")
    min_rounds = ctx.count("train.min_rounds_per_block")
    if ctx.traced:
        # Two builds of each kind (the first in a process is slower), and
        # enough rounds for both the plain and the traced kind of step;
        # the layer pass below takes the rest of the budget.
        reps, min_rounds = min(reps, 2), 2 * min_rounds
    store_dir = ctx.scratch / f"tune-{wl.name}"

    began = time.perf_counter()
    cold, warm, first_round = [], [], []

    with rec.span("compile.cold"):
        seconds, built = timed(build_verified, wl, result)
    cold.append(seconds)
    store, graphs = plain_graphs(wl)
    seed_params(built, store, ctx.tree)
    sampler = Sampler(wl, built, batches, result, rec)
    ref_losses = check_against_oracle(wl, sampler, graphs, result)
    # Warm-up rounds: checked against the oracle, untimed apart from the
    # very first (it is part of set-up), and enough of them to fill the
    # loss digest whatever the time budget allows afterwards.
    warm_rounds = math.ceil(
        max(spec.ORACLE_STEPS, spec.DIGEST_STEPS) / len(wl.keys)
    )
    first_round.append(sampler.round(record=False))
    for _ in range(warm_rounds - 1):
        sampler.round(record=False)
    for i, want in enumerate(ref_losses):
        got = sampler.losses[i] if i < len(sampler.losses) else float("nan")
        result.check(got == want,
                     f"{wl.name}: loss {i + 1} {got!r} != reference {want!r}")
    steady0 = built.plan_cache.counters()

    populate = build_verified(wl, Result(), store_dir)
    m["pgo.saves"] = populate.store_stats.get("saves", 0)
    del populate

    for i in range(reps):
        if i > 0:
            seconds, other = timed(build_verified, wl, result)
            cold.append(seconds)
            first_round.append(
                Sampler(wl, other, batches, Result(), rec).round()
            )
            del other
        with rec.span("compile.warm"):
            seconds, other = timed(build_verified, wl, result, store_dir)
        warm.append(seconds)
        warm_stats = other.store_stats
        del other
        gc.collect()
        # What is left of the budget after the builds still to come (and,
        # in a traced pass, the layer pass) is shared by the blocks to come.
        left = reps - 1 - i
        spent = time.perf_counter() - began
        reserve = left * (cold[-1] + warm[-1])
        if ctx.traced:
            reserve += 4 * cold[0]
        sampler.run_block(
            max((ctx.seconds - spent - reserve) / (left + 1), 0.0), min_rounds
        )

    steady1 = built.plan_cache.counters()
    m["setup_s"] = once_s + stats.median(
        [c + f for c, f in zip(cold, first_round)]
    )
    m["compile_cold_s"] = stats.p10(cold)
    m["compile_warm_s"] = stats.p10(warm)
    m["iter_ms"] = per_key_ms(sampler.samples)
    m["peak_bytes"] = built.peak_bytes
    m["arena_bytes"] = sum(p.static_storage_bytes for p in built.plans())
    m["sim_samples_per_s"] = built.sim_samples_per_s
    m["train.iter_p50_ms"] = per_key_ms(sampler.samples, 50)
    m["train.iter_p95_ms"] = per_key_ms(sampler.samples, 95)
    m["train.loss_digest"] = stats.loss_digest(
        sampler.losses[:spec.DIGEST_STEPS]
    )
    m["plancache.hits"] = steady1[0] - steady0[0]
    m["plancache.misses_steady"] = steady1[1] - steady0[1]
    result.check(steady1[1] == steady0[1],
                 f"{wl.name}: plan-cache miss at steady state")
    record_pgo(m, warm_stats)

    if ctx.traced:
        _layer_pass(wl, ctx, built, sampler, batches, result)
        return result

    # Exact passes, outside the time budget. The profiled compile is (at
    # least) the second cold compile of this process, as the metric says.
    m["compile_calls"] = stats.count_calls(
        lambda: build_verified(wl, Result())
    )
    m["iter_host_ops"] = sum(
        stats.count_bytecodes(
            lambda k=key: built.step(k, batches[k][0]), REPRO_FRAMES
        )
        for key in wl.keys
    )
    return result


# -- the layer pass (traced runs only) --------------------------------------


def _family(op_name: str) -> str:
    family = kernel_family(op_name)
    if family.startswith("sgemm"):
        return "gemm"
    if family in ("fused LSTM pointwise", "elementwise / other"):
        return "pointwise"
    if family in ("softmax", "layer norm"):
        return "reduce"
    return "other"


def decomposed_compile(wl, rec) -> tuple[dict, dict]:
    """The compile pipeline, one public call per layer, each under a span.

    Returns ``(seconds by layer, counts)``, both summed over the keys.
    """
    seconds: dict = defaultdict(float)
    counts: dict = defaultdict(float)

    @contextmanager
    def layer(name: str, **args):
        start = time.perf_counter()
        with rec.span(name, **args):
            yield
        seconds[name] += time.perf_counter() - start

    store = ParamStore()
    cache = PlanCache(store=None)
    device = DeviceModel()
    arena = Arena()
    reports = {}
    with rec.span("compile.decomposed", workload=wl.name):
        for key in wl.keys:
            with layer("models.build", key=str(key)):
                graph = wl.plain_graph(key, store)
            outputs = graph.outputs
            counts["graph.nodes_pre_echo"] += len(topo_order(outputs))
            hits0, misses0 = cache.counters()
            with layer("echo.pass"):
                report = EchoPass(EchoConfig(), device, plan_cache=cache).run(
                    graph
                )
            hits1, misses1 = cache.counters()
            counts["echo.cache_hits"] += hits1 - hits0
            counts["echo.cache_lookups"] += (hits1 - hits0) + (misses1 - misses0)
            with layer("plan.schedule"):
                order = schedule(outputs)
            pinned = {g.key: Category.GRADIENT for g in graph.grads.values()}
            with layer("plan.memory"):
                plan_memory(order, outputs, pinned)
            with layer("plan.lower"):
                plan = CompiledPlan(order, outputs, arena=arena)
            with layer("plan.verify"):
                safety = verify_plan(plan, outputs=outputs, order=order)
            with layer("plan.equiv"):
                equiv = check_equivalence(plan, outputs=outputs, order=order)
            reports[key] = report
            counts["graph.nodes"] += len(order)
            counts["echo.mirror_nodes"] += sum(
                n.stage is Stage.RECOMPUTE for n in order
            )
            counts["echo.candidates"] += report.candidates_found
            counts["echo.accepted"] += len(report.accepted)
            counts["echo.rejected_low_benefit"] += report.rejected_low_benefit
            counts["echo.rejected_budget"] += report.rejected_budget
            counts["echo.rolled_back"] += report.rolled_back
            counts["compiled.instructions"] += plan.num_instructions
            counts["compiled.fused_nodes"] += plan.fused_node_count
            counts["compiled.static_slots"] += plan.static_slot_count
            counts["memplan.static_bytes"] += plan.static_storage_bytes
            counts["memplan.planned_peak_bytes"] += plan.planned_peak_bytes
            counts["memplan.packed_extent_bytes"] += plan.packed_extent_bytes
            counts["memplan.elided_copies"] += plan.elided_copy_count
            counts["memplan.inplace_writes"] += plan.inplace_write_count
            counts["analysis.findings"] += len(safety.findings) + len(equiv)
            counts["analysis.errors"] += len(safety.errors) + sum(
                f.severity.value == "error" for f in equiv
            )
    # Echo's own numbers are quoted for the key that sets the footprint.
    top = max(reports.values(), key=lambda r: r.optimized_peak_bytes)
    counts["echo.bytes_saved"] = top.bytes_saved
    counts["echo.footprint_reduction"] = top.footprint_reduction
    counts["echo.overhead_fraction"] = top.overhead_fraction
    return dict(seconds), dict(counts)


_LAYER_SECONDS = {
    "models.build": "models.build_s",
    "echo.pass": "echo.pass_s",
    "plan.schedule": "scheduler.schedule_s",
    "plan.memory": "memory.plan_s",
    "plan.lower": "compiled.lower_s",
    "plan.verify": "analysis.verify_s",
    "plan.equiv": "analysis.equiv_s",
}


def kernel_times(wl, built: Built, batches: dict, repeats: int, rec) -> dict:
    """Host seconds per kernel family: mean over keys; calls summed."""
    out: dict = defaultdict(float)
    with rec.span("ops.measure"):
        for key, trainer in built.trainers.items():
            order = trainer.executor.executor.order
            timings = measure_node_timings(
                order, batches[key][0], built.params, repeats=repeats
            )
            for t in timings:
                ms = 1e3 * t.seconds / len(built.trainers)
                out["ops.kernel_ms"] += ms
                out[f"ops.{_family(t.node.op.name)}_ms"] += ms
            out["ops.kernel_calls"] += len(timings)
    return dict(out)


def ab_rounds(ctx: Context, a: Callable[[], float], b: Callable[[], float],
              calls: int) -> float:
    """``p10(b) / p10(a)`` over alternating rounds of ``calls`` calls each;
    ``a`` and ``b`` return seconds per step."""
    a_s, b_s = [], []
    for _ in range(ctx.count("layer.ab_rounds")):
        a_s += [a() for _ in range(calls)]
        b_s += [b() for _ in range(calls)]
    return stats.p10(b_s) / stats.p10(a_s)


def _layer_pass(wl, ctx: Context, built: Built, sampler: Sampler,
                batches: dict, result: Result) -> None:
    m = result.metrics
    rec = ctx.recorder
    rep_seconds, counts = [], {}
    for _ in range(2 if not ctx.quick else 1):
        gc.collect()
        seconds, counts = decomposed_compile(wl, rec)
        rep_seconds.append(seconds)
    for span_name, metric in _LAYER_SECONDS.items():
        m[metric] = min(rep[span_name] for rep in rep_seconds)
    decomposed_s = min(sum(rep.values()) for rep in rep_seconds)
    for name, value in counts.items():
        if name in ("echo.cache_hits", "echo.cache_lookups",
                    "analysis.errors"):
            continue
        m[name] = value
    m["echo.plancache_hit_rate"] = (
        counts["echo.cache_hits"] / max(counts["echo.cache_lookups"], 1)
    )
    m["memplan.packing_efficiency"] = (
        counts["memplan.planned_peak_bytes"]
        / max(counts["memplan.packed_extent_bytes"], 1)
    )
    result.check(counts["analysis.errors"] == 0,
                 f"{wl.name}: decomposed pipeline failed verification")
    m["analysis.verify_share"] = (
        (m["analysis.verify_s"] + m["analysis.equiv_s"]) / m["compile_cold_s"]
    )
    m["harness.compile_span_cover"] = decomposed_s / m["compile_cold_s"]

    m.update(kernel_times(wl, built, batches,
                          ctx.count("layer.kernel_repeats"), rec))
    m["executor.run_ms"] = per_key_ms(sampler.run_s)
    m["train.optimizer_ms"] = per_key_ms(sampler.update_s)
    m["executor.dispatch_ms"] = m["executor.run_ms"] - m["ops.kernel_ms"]
    m["harness.trace_overhead"] = per_key_ms(sampler.traced) / m["iter_ms"]
    m["harness.iter_span_cover"] = (
        (m["executor.run_ms"] + m["train.optimizer_ms"]) / m["iter_ms"]
    )
    m["executor.host_ops"] = sum(
        stats.count_bytecodes(
            lambda k=key, t=trainer: t.executor.run(batches[k][0], built.params),
            RUNTIME_FRAMES,
        )
        for key, trainer in built.trainers.items()
    )
    arenas = {id(t.executor.executor.arena): t.executor.executor.arena
              for t in built.trainers.values()}

    def allocations() -> int:
        return sum(a.fresh_count for a in arenas.values()) + sum(
            p.generic_alloc_count for p in built.plans()
        )

    before, rounds = allocations(), 3
    for _ in range(rounds):
        for key in wl.keys:
            built.step(key, batches[key][0])
    m["executor.allocs_per_iter"] = (allocations() - before) / rounds

    def plain_round() -> float:
        start = time.perf_counter()
        for key in wl.keys:
            built.step(key, batches[key][0])
        return (time.perf_counter() - start) / len(wl.keys)

    if wl.name == "nmt_train":
        # repro.obs spans on vs off, alternating, on the very same trainer
        def obs_round() -> float:
            obs_trace.enable(fresh=True)
            try:
                return plain_round()
            finally:
                obs_trace.disable()

        m["obs.enabled_ratio"] = ab_rounds(ctx, plain_round, obs_round,
                                           calls=2)

    if wl.name == "wordlm_train":
        serial = built.trainers["lm"]
        wide = Trainer(
            serial.graph,
            {k: np.array(v, copy=True) for k, v in built.params.items()},
            wl.make_optimizer(), device=serial.device,
            plan_cache=built.plan_cache, threads=2,
        )
        feeds = batches["lm"][0]

        def wide_round() -> float:
            start = time.perf_counter()
            wide.step(feeds)
            return time.perf_counter() - start

        wide_round()  # first touch of the threads=2 plan and its pool
        m["wavefront.iter_ratio_t2"] = ab_rounds(ctx, plain_round, wide_round,
                                                 calls=8)
        plan = wide.executor.executor.plan
        m["wavefront.parallel_levels"] = plan.parallel_level_count
        m["wavefront.parallel_instructions"] = plan.parallel_instruction_count
        m["wavefront.max_width"] = plan.max_wavefront_width
