"""The cyclic garbage collector is paused over a compile, and only there.

Contract of :mod:`repro.runtime.collector` and of the entries it wraps:

* inside every public entry that builds, rewrites, plans, lowers or
  verifies, the collector is off;
* after the entry, ``gc.isenabled()`` is what it was before — when the
  entry raises, when entries nest, when the caller had already disabled
  the collector, and when two threads compile at once;
* a child forked inside a paused scope runs with the collector as the
  outermost scope found it;
* a cold TINY two-bucket build + ``verify(equiv=True)``, a word-LM
  ``Trainer`` and an ``InferenceSession`` warm-up trigger no generation-1
  or generation-2 collection.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from dataclasses import replace

import pytest

import repro.analysis.verify as verify_mod
import repro.dist.trainer as dist_trainer_mod
import repro.echo.pass_ as pass_mod
import repro.graph.node as node_mod
import repro.runtime.plancache as plancache_mod
import repro.train.trainer as trainer_mod
from repro.analysis import verify_plan
from repro.data.bucketing import BucketSpec
from repro.dist import DistributedTrainer, run_distributed
from repro.echo import EchoConfig, EchoPass
from repro.experiments import TINY
from repro.gpumodel import DeviceModel
from repro.models import (
    DeepSpeechConfig,
    NmtConfig,
    WordLmConfig,
    build_deepspeech,
    build_nmt,
    build_word_lm,
)
from repro.nn import Backend, ParamStore
from repro.runtime import PlanCache
from repro.runtime.collector import collector_paused, pauses_collector
from repro.serve import InferenceSession
from repro.train import SGD, BucketedTrainer, Trainer

_WORDLM = WordLmConfig(
    vocab_size=40, embed_size=8, hidden_size=8, num_layers=1, seq_len=4,
    batch_size=2,
)
_SERVE_NMT = NmtConfig(
    src_vocab_size=40, tgt_vocab_size=40, embed_size=12, hidden_size=12,
    encoder_layers=1, decoder_layers=1, src_len=8, tgt_len=8,
    batch_size=4, backend=Backend.CUDNN,
)


@pytest.fixture(autouse=True)
def collector_enabled_after():
    """Every test leaves the collector enabled, whatever it asserted."""
    yield
    gc.enable()


def _recorder(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call records ``gc.isenabled()``."""
    seen = []
    real = getattr(owner, name)

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, probe)
    return seen


def _node_recorder(monkeypatch):
    seen = []
    monkeypatch.setattr(
        node_mod, "_NODE_HOOKS",
        [*node_mod._NODE_HOOKS, lambda node: seen.append(gc.isenabled())],
    )
    return seen


def _wordlm_trainer(**kw):
    model = build_word_lm(_WORDLM)
    return Trainer(model.graph, model.store.initialize(), SGD(0.1), **kw)


def _dist_rank(group):
    model = build_word_lm(_WORDLM)
    with DistributedTrainer(
        group, model.graph, model.store.initialize(), SGD(0.1)
    ):
        pass


def _serve_session():
    nmt = build_nmt(_SERVE_NMT)
    return InferenceSession(
        _SERVE_NMT, nmt.store, nmt.store.initialize(),
        (BucketSpec(4, 4), BucketSpec(8, 8)), max_batch_size=2,
    )


def _builder_case(build):
    return lambda mp: _node_recorder(mp), build


#: entry point -> (setup(monkeypatch) -> probe list, run()); each probe
#: sits in the entry's own body, not in an entry it nests
ENTRIES = {
    "build_nmt": _builder_case(
        lambda: build_nmt(TINY.with_backend(Backend.CUDNN))
    ),
    "build_word_lm": _builder_case(lambda: build_word_lm(_WORDLM)),
    "build_deepspeech": _builder_case(lambda: build_deepspeech(
        DeepSpeechConfig(feat_dim=8, num_frames=8, conv_channels=4,
                         hidden_size=8, num_layers=1, max_label_len=2,
                         batch_size=2)
    )),
    "EchoPass.run": (
        lambda mp: _recorder(mp, pass_mod, "mine_candidates"),
        lambda: EchoPass(EchoConfig(), DeviceModel(),
                         plan_cache=PlanCache()).run(
            build_word_lm(_WORDLM).graph
        ),
    ),
    "PlanCache.memo": (  # a miss: the schedule builder runs
        lambda mp: _recorder(mp, plancache_mod, "schedule"),
        lambda: PlanCache().schedule_for(build_word_lm(_WORDLM).graph.outputs),
    ),
    "PlanCache.facts_for": (
        lambda mp: _recorder(mp, plancache_mod, "GraphFacts"),
        lambda: PlanCache().facts_for(build_word_lm(_WORDLM).graph.outputs),
    ),
    "Trainer": (
        lambda mp: _recorder(mp, trainer_mod, "TrainingExecutor"),
        _wordlm_trainer,
    ),
    "BucketedTrainer": (
        lambda mp: _recorder(mp, ParamStore, "initialize"),
        lambda: BucketedTrainer(
            TINY.with_backend(Backend.CUDNN), (BucketSpec(4, 4),),
            SGD(0.1), device=DeviceModel(),
        ),
    ),
    "DistributedTrainer": (
        lambda mp: _recorder(mp, dist_trainer_mod, "plan_grad_buckets"),
        lambda: run_distributed(_dist_rank, 1),
    ),
    "InferenceSession.warmup": (
        lambda mp: _recorder(mp, verify_mod, "verification_enabled"),
        lambda: _serve_session().warmup(),
    ),
    "verify_plan": (
        lambda mp: _recorder(mp, verify_mod, "check_lifetimes"),
        lambda: verify_plan(
            _wordlm_trainer().executor.executor.plan, equiv=True
        ),
    ),
}


class TestEntriesPauseAndRestore:
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_off_inside_restored_after(self, monkeypatch, entry, enabled):
        setup, run = ENTRIES[entry]
        seen = setup(monkeypatch)
        (gc.enable if enabled else gc.disable)()
        run()
        assert seen, f"{entry}: the probe never ran"
        assert not any(seen), f"{entry}: collector ran during the entry"
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_raising_entries_restore(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(AttributeError):
            verify_plan(object())
        assert gc.isenabled() is enabled

        def broken():
            raise KeyError("builder failed")

        with pytest.raises(KeyError):
            PlanCache().memo(("broken",), broken)
        assert gc.isenabled() is enabled

        @pauses_collector
        def raising():
            assert not gc.isenabled()
            raise ValueError("inside")

        with pytest.raises(ValueError):
            raising()
        assert gc.isenabled() is enabled

    def test_nested_scopes_restore_at_the_outermost_exit(self):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                _wordlm_trainer()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self):
        gc.disable()
        with collector_paused():
            with collector_paused():
                pass
        _wordlm_trainer()
        assert not gc.isenabled()


class TestThreads:
    def test_overlapping_scopes_enable_after_the_last_exit(self):
        entered = [threading.Event(), threading.Event()]
        leave = [threading.Event(), threading.Event()]
        left = [threading.Event(), threading.Event()]

        def worker(i):
            with collector_paused():
                entered[i].set()
                leave[i].wait(10)
            left[i].set()

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for e in entered:
            assert e.wait(10)
        assert not gc.isenabled()
        leave[0].set()  # thread 1 is still inside
        assert left[0].wait(10)
        assert not gc.isenabled()
        leave[1].set()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert gc.isenabled()

    def test_many_threads_lose_no_count(self):
        """More threads than cores entering and leaving as fast as the
        interpreter switches: a lost update of the depth count would leave
        the collector off (or switch it on under an open scope)."""
        rounds, errors = 100_000, []

        def churn():
            try:
                for _ in range(rounds):
                    with collector_paused():
                        if gc.isenabled():
                            errors.append("enabled inside a scope")
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert gc.isenabled()
        with collector_paused():  # the count is balanced: one scope is
            assert not gc.isenabled()  # outermost again
        assert gc.isenabled()

    def test_two_threads_compiling_leave_the_collector_enabled(self):
        errors = []

        def compile_one():
            try:
                _wordlm_trainer()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=compile_one) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert not errors
        assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    def _fork_status(self, after_fork):
        """Exit status of a child running ``after_fork()`` (True -> 0)."""
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if after_fork() else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status)

    def test_child_forked_in_a_paused_scope_collects(self):
        with collector_paused():
            with collector_paused():
                status = self._fork_status(gc.isenabled)
            assert not gc.isenabled()
        assert status == 0
        assert gc.isenabled()

    def test_scopes_the_child_inherits_end_as_no_ops(self):
        def child():
            # The scope below was opened before the fork: closing it must
            # not unbalance the child's fresh count.
            with collector_paused():
                pass
            return gc.isenabled()

        with collector_paused():
            pid = os.fork()
            inside = pid == 0 and gc.isenabled()
        # The child leaves the scope it inherited here: a no-op there.
        if pid == 0:
            ok = False
            try:
                ok = inside and gc.isenabled() and child()
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert gc.isenabled()

    def test_child_keeps_a_caller_disabled_collector_off(self):
        gc.disable()
        with collector_paused():
            status = self._fork_status(lambda: not gc.isenabled())
        assert status == 0
        assert not gc.isenabled()


class TestNoOldGenerationPasses:
    """Compiles trigger no generation-1 or -2 collection."""

    @pytest.fixture
    def collections(self):
        counts = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                counts[info["generation"]] += 1

        gc.collect()  # every generation's count starts from zero
        gc.callbacks.append(count)
        try:
            yield counts
        finally:
            gc.callbacks.remove(count)

    def test_two_bucket_build_and_verify(self, collections):
        cfg = TINY.with_backend(Backend.CUDNN)
        small = replace(cfg, src_len=cfg.src_len // 2, tgt_len=cfg.tgt_len // 2)
        buckets = (BucketSpec(small.src_len, small.tgt_len),
                   BucketSpec(cfg.src_len, cfg.tgt_len))
        trainer = BucketedTrainer(cfg, buckets, SGD(0.1), echo=True,
                                  echo_config=EchoConfig(),
                                  device=DeviceModel())
        for bucket in buckets:
            report = trainer.trainer_for(bucket).executor.executor.verify(
                equiv=True
            )
            assert report.ok
        assert collections[1:] == [0, 0], collections

    def test_word_lm_trainer(self, collections):
        _wordlm_trainer()
        assert collections[1:] == [0, 0], collections

    def test_inference_session_warmup(self, collections):
        _serve_session().warmup()
        assert collections[1:] == [0, 0], collections
