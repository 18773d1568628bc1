"""Forward-only inference sessions over the compiled executor.

An :class:`InferenceSession` owns everything needed to run one trained
NMT model for serving: the parameter arrays, a length-bucket table, and —
per bucket — a greedy (or beam) decoder whose encoder/decoder-step graphs
are compiled through the shared, thread-safe :class:`PlanCache` into one
shared :class:`Arena`. Bucket decoders are themselves memoized *in the
plan cache* (keyed like any other planning artifact), so the serving
layer's "compile one plan per bucket" warmup is literally cache
population, and the post-warmup plan-cache hit rate is the metric that
proves first-request latency no longer includes compilation.

Determinism contract (load-bearing for micro-batching): every inference
kernel is batch-row independent, so request ``r`` decoded in *any* batch
of the session's compiled shape — alone, padded, or alongside other
requests — produces bitwise-identical output. :meth:`run_sequential`
replays requests one per batch through the very same plans and is the
reference the tests and the throughput benchmark compare against.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.data.bucketing import BucketSpec, bucket_for, pad_to_bucket
from repro.models.nmt import NmtConfig
from repro.nn import ParamStore
from repro.runtime import Arena, PlanCache
from repro.runtime.collector import pauses_collector
from repro.serve.request import Request, RequestKind
from repro.train.beam import BeamSearchDecoder
from repro.train.decode import GreedyDecoder
from repro.train.trainer import check_threads

__all__ = ["InferenceSession"]


class InferenceSession:
    """Bucketed, forward-only execution of one trained model.

    ``max_batch_size`` fixes the compiled batch shape ``B`` for every
    bucket: partially full micro-batches pad up to ``B`` (filler rows
    repeat row 0) so each bucket needs exactly one encoder plan and one
    decoder-step plan regardless of occupancy.

    The session itself is not thread-safe — plans share one arena, so
    batches must run one at a time. :class:`repro.serve.InferenceServer`
    serializes all execution on its dispatcher thread; concurrency lives
    in admission, not execution (exactly how one GPU would be driven).
    ``threads`` is accepted and ignored (see
    :func:`repro.train.trainer.check_threads`).
    """

    def __init__(
        self,
        config: NmtConfig,
        store: ParamStore,
        params: dict[str, np.ndarray],
        buckets: tuple[BucketSpec, ...],
        max_batch_size: int = 8,
        decoder: str = "greedy",
        beam_size: int = 4,
        plan_cache: PlanCache | None = None,
        arena: Arena | None = None,
        threads: int | None = None,
        pad_token: int = 0,
        bos: int = 1,
        eos: int = 2,
    ) -> None:
        check_threads(threads)
        if decoder not in ("greedy", "beam"):
            raise ValueError(f"unknown decoder kind {decoder!r}")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        for bucket in buckets:
            if bucket.src_len > config.src_len:
                raise ValueError(
                    f"bucket {bucket} exceeds model src_len {config.src_len}"
                )
        self.config = config
        self.store = store
        self.params = params
        self.buckets = tuple(buckets)
        self.max_batch_size = max_batch_size
        self.decoder_kind = decoder
        self.beam_size = beam_size
        # Serving compiles ~4 artifacts per (bucket x graph); size the
        # default cache so a full bucket table never self-evicts.
        self.plan_cache = plan_cache or PlanCache(capacity=256)
        self.arena = arena if arena is not None else Arena()
        self.pad_token = pad_token
        self.bos = bos
        self.eos = eos

    # -- plan management ----------------------------------------------------

    def bucket_for_length(self, length: int) -> BucketSpec:
        """Smallest serving bucket fitting ``length`` (raises if none)."""
        return bucket_for(length, self.buckets)

    def _bucket_config(self, bucket: BucketSpec) -> NmtConfig:
        return replace(
            self.config,
            src_len=bucket.src_len,
            tgt_len=bucket.tgt_len,
            batch_size=self.max_batch_size,
            dropout=0.0,  # forward-only: no train-time stochasticity
        )

    def decoder_for(self, bucket: BucketSpec):
        """The compiled decoder for ``bucket`` (memoized in the plan
        cache, so a cold bucket costs one compile and a warm one costs a
        cache hit — the counter the serving stats report)."""
        key = ("serve-decoder", self.decoder_kind, bucket,
               self.max_batch_size, self.beam_size, id(self.store))

        def build():
            cfg = self._bucket_config(bucket)
            if self.decoder_kind == "beam":
                return BeamSearchDecoder(
                    cfg, self.store, beam_size=self.beam_size,
                    bos=self.bos, eos=self.eos, arena=self.arena,
                    plan_cache=self.plan_cache,
                )
            return GreedyDecoder(
                cfg, self.store, bos=self.bos, eos=self.eos,
                arena=self.arena, plan_cache=self.plan_cache,
            )

        return self.plan_cache.memo(key, build)

    @pauses_collector
    def warmup(self) -> dict:
        """Pre-compile every bucket's plans; returns a small report.

        After warmup, no serving request can pay plan compilation: every
        ``decoder_for`` call is a plan-cache hit, which bounds
        first-request latency by kernel time alone.
        """
        from repro.analysis.verify import verification_enabled

        start = time.perf_counter()
        hits0, misses0 = self.plan_cache.counters()
        for bucket in self.buckets:
            self.decoder_for(bucket)
        hits1, misses1 = self.plan_cache.counters()
        report = {
            "buckets": len(self.buckets),
            "plans_compiled": misses1 - misses0,
            "cache_hits": hits1 - hits0,
            "seconds": time.perf_counter() - start,
            # plans compile through the shared PlanCache, whose builder
            # runs the static analyzers when REPRO_VERIFY is on — so a
            # warmup under the guard *is* a verification pass over every
            # serving plan, before the first request executes
            "verified": verification_enabled(),
        }
        # Every plan above was computed here; the tuning store
        # (REPRO_TUNE_DIR) only supplied measured costs, and its counters
        # ride along for the report.
        store = getattr(self.plan_cache, "store", None)
        if store is not None:
            report["tune_store"] = store.stats()
        return report

    def verify(self, equiv: bool = False):
        """Statically verify every bucket decoder's compiled plans.

        Compiles any cold bucket (same path as :meth:`warmup`), runs the
        :mod:`repro.analysis` analyzers over each bucket's encoder and
        decoder-step plans (``equiv=True`` adds equivalence
        certification), and returns one merged
        :class:`~repro.analysis.findings.AnalysisReport`. Explicit
        (unconditional) counterpart of the ``REPRO_VERIFY`` warmup guard.
        """
        from repro.analysis.findings import AnalysisReport

        report = AnalysisReport()
        for bucket in self.buckets:
            decoder = self.decoder_for(bucket)
            for executor in (decoder._encoder, decoder._step):
                report.extend(executor.verify(equiv=equiv).findings)
        return report

    # -- batch execution ----------------------------------------------------

    def run_batch(self, kind: RequestKind, bucket: BucketSpec,
                  requests: Sequence[Request]) -> list:
        """Execute one coalesced micro-batch; returns per-request results.

        TRANSLATE results are EOS-trimmed token lists (capped to each
        request's ``max_len``); SCORE results are floats.
        """
        if not requests:
            return []
        if len(requests) > self.max_batch_size:
            raise ValueError(
                f"batch of {len(requests)} exceeds max {self.max_batch_size}"
            )
        src = pad_to_bucket(
            [list(r.tokens) for r in requests], bucket,
            self.max_batch_size, self.pad_token,
        )
        decoder = self.decoder_for(bucket)
        if kind is RequestKind.TRANSLATE:
            outputs = decoder.translate(src, self.params)
            results = []
            for i, req in enumerate(requests):
                limit = req.max_len if req.max_len is not None \
                    else bucket.tgt_len
                results.append(outputs[i][:limit])
            return results
        if kind is RequestKind.SCORE:
            if self.decoder_kind != "greedy":
                raise ValueError("SCORE requests require the greedy decoder")
            targets = [list(r.targets) for r in requests]
            targets += [targets[0]] * (self.max_batch_size - len(targets))
            totals = decoder.score(src, targets, self.params)
            return [float(totals[i]) for i in range(len(requests))]
        raise ValueError(f"unknown request kind {kind!r}")

    def run_sequential(self, requests: Sequence[Request]) -> list:
        """Reference path: each request alone in its own batch.

        Same buckets, same compiled plans, occupancy 1 — the output any
        request would get with no batching at all. Micro-batched serving
        must match this bitwise (asserted in tests/test_serve.py and the
        throughput benchmark).
        """
        results = []
        for req in requests:
            bucket = req.bucket or self.bucket_for_length(len(req.tokens))
            results.append(self.run_batch(req.kind, bucket, [req])[0])
        return results
