"""Tests for distributed data-parallel training.

The acceptance bar: N-rank training — thread and process backends,
echo on and off — is bitwise identical to the single-process
data-parallel reference on the same global batch, and killing a rank
mid-run degrades to the survivors without deadlock. (A *single-graph*
full-batch run cannot match bitwise — its GEMMs reduce over the batch
in one pass — so the reference replays the shard graphs serially and
folds gradients in canonical rank order; see
:mod:`repro.dist.collectives`.)
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis import check_bucket_plan, check_rank_layouts
from repro.data import lm_batches, markov_corpus, shard_feeds
from repro.data.sharding import ShardedBatches
from repro.dist import (
    DistributedTrainer,
    data_parallel_reference,
    plan_grad_buckets,
    run_distributed,
)
from repro.dist.bucketing import GradBucketPlan
from repro.echo import optimize
from repro.models import WordLmConfig, build_word_lm
from repro.train import SGD


# -- fixtures ----------------------------------------------------------------

VOCAB, HIDDEN, T = 50, 10, 6
CORPUS = markov_corpus(VOCAB, 4000, seed=21)


def _cfg(shard_batch: int, dropout: float = 0.0) -> WordLmConfig:
    return WordLmConfig(
        vocab_size=VOCAB, embed_size=HIDDEN, hidden_size=HIDDEN,
        num_layers=1, seq_len=T, batch_size=shard_batch, dropout=dropout,
    )


def _global_batches(global_batch: int, steps: int):
    return list(
        itertools.islice(lm_batches(CORPUS, global_batch, T), steps)
    )


def _rank_training(group, cfg, batches, echo, opt_args, trainer_kwargs):
    """Worker: one rank's full training run (module-level: picklable)."""
    model = build_word_lm(cfg)
    if echo:
        optimize(model.graph)
    # Ranks initialize differently on purpose: the broadcast from the
    # leader must win, or nothing here would be deterministic.
    params = model.store.initialize(seed=100 + group.rank)
    with DistributedTrainer(
        group, model.graph, params, SGD(*opt_args), **trainer_kwargs
    ) as trainer:
        records = [trainer.step(feeds) for feeds in batches]
    return (
        [r.loss for r in records],
        [r.grad_norm for r in records],
        params,
        group.stats.snapshot(),
    )


def _reference_run(cfg, batches, world, echo, opt_args):
    model = build_word_lm(cfg)
    if echo:
        optimize(model.graph)
    params = model.store.initialize(seed=100)  # the leader's init
    records = data_parallel_reference(
        model.graph, params, SGD(*opt_args), batches, world
    )
    return records, params


# -- sharding ----------------------------------------------------------------

class TestSharding:
    def test_contiguous_blocks_cover_the_batch(self):
        feeds = {"tokens": np.arange(24).reshape(2, 12),
                 "weights": np.arange(12.0)}
        shards = [shard_feeds(feeds, 4, r) for r in range(4)]
        assert all(s["tokens"].shape == (2, 3) for s in shards)
        assert all(s["weights"].shape == (3,) for s in shards)
        rebuilt = np.concatenate([s["tokens"] for s in shards], axis=1)
        assert np.array_equal(rebuilt, feeds["tokens"])

    def test_uneven_batch_raises(self):
        feeds = {"tokens": np.zeros((2, 10))}
        with pytest.raises(ValueError, match="not divisible"):
            shard_feeds(feeds, 4, 0)

    def test_batch_axes_override(self):
        feeds = {"x": np.zeros((8, 3))}
        out = shard_feeds(feeds, 2, 1, batch_axes={"x": 0})
        assert out["x"].shape == (4, 3)

    def test_sharded_batches_wrapper(self):
        stream = _global_batches(8, 3)
        shards = list(ShardedBatches(stream, world=2, rank=1))
        assert len(shards) == 3
        for full, part in zip(stream, shards):
            assert np.array_equal(part["tokens"], full["tokens"][:, 4:])


# -- bucket planning and the DS5xx checker -----------------------------------

class TestBucketPlan:
    SPECS = {
        "a": ((4, 4), "float32"),   # 64 B
        "b": ((8,), "float32"),     # 32 B
        "c": ((100,), "float32"),   # 400 B (oversized alone)
        "d": ((2,), "float64"),     # dtype break
    }
    NAMES = ["a", "b", "c", "d"]

    def test_greedy_packing_in_param_order(self):
        plan = plan_grad_buckets(self.NAMES, self.SPECS, bucket_bytes=128)
        assert plan.param_names == ("a", "b", "c", "d")
        sizes = [[s.name for s in b.segments] for b in plan.buckets]
        assert sizes == [["a", "b"], ["c"], ["d"]]
        assert [s.offset for s in plan.buckets[0].segments] == [0, 16]

    def test_fingerprint_tracks_layout(self):
        one = plan_grad_buckets(self.NAMES, self.SPECS, bucket_bytes=128)
        two = plan_grad_buckets(self.NAMES, self.SPECS, bucket_bytes=128)
        assert one.fingerprint() == two.fingerprint()
        other = plan_grad_buckets(self.NAMES, self.SPECS, bucket_bytes=64)
        assert one.fingerprint() != other.fingerprint()

    def test_flatten_unflatten_roundtrip(self):
        plan = plan_grad_buckets(self.NAMES, self.SPECS, bucket_bytes=128)
        rng = np.random.default_rng(0)
        grads = {
            n: rng.standard_normal(self.SPECS[n][0]).astype(self.SPECS[n][1])
            for n in self.NAMES
        }
        for bucket in plan.buckets:
            back = plan.unflatten(bucket, plan.flatten(bucket, grads))
            for name, arr in back.items():
                assert np.array_equal(arr, grads[name])

    def test_checker_passes_sound_plan(self):
        plan = plan_grad_buckets(self.NAMES, self.SPECS, bucket_bytes=128)
        assert check_bucket_plan(plan, self.SPECS) == []

    def test_checker_catches_seeded_defects(self):
        plan = plan_grad_buckets(self.NAMES, self.SPECS, bucket_bytes=128)
        # DS501: a parameter the plan never covers
        specs = dict(self.SPECS, extra=((3,), "float32"))
        assert {f.code for f in check_bucket_plan(plan, specs)} == {"DS501"}
        # DS502/DS503: duplicate a segment inside a bucket
        bucket = plan.buckets[0]
        corrupt = GradBucketPlan(
            (
                bucket.__class__(
                    0, bucket.dtype,
                    bucket.segments + (bucket.segments[0],),
                ),
            )
            + plan.buckets[1:],
            plan.bucket_bytes,
        )
        codes = {f.code for f in check_bucket_plan(corrupt, self.SPECS)}
        assert "DS502" in codes and "DS503" in codes
        # DS504: shape disagrees with the model
        wrong = dict(self.SPECS, a=((2, 8), "float32"))
        assert "DS504" in {
            f.code for f in check_bucket_plan(plan, wrong)
        }

    def test_checker_warns_on_oversized_bucket(self):
        specs = {"x": ((8,), "float32"), "y": ((8,), "float32")}
        plan = plan_grad_buckets(["x", "y"], specs, bucket_bytes=64)
        # Force both into one bucket over a tiny cap
        squeezed = GradBucketPlan(plan.buckets, bucket_bytes=16)
        codes = {f.code for f in check_bucket_plan(squeezed, specs)}
        assert codes == {"DS505"}

    def test_rank_layout_divergence(self):
        assert check_rank_layouts(["abc", "abc", "abc"]) == []
        findings = check_rank_layouts({0: "abc", 1: "abc", 3: "xyz"})
        assert [f.code for f in findings] == ["DS506"]


# -- bitwise equality with the single-process reference ----------------------

class TestBitwiseEquality:
    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("echo", [False, True])
    def test_thread_backend_matches_reference(self, world, echo):
        cfg = _cfg(shard_batch=4, dropout=0.1)
        batches = _global_batches(4 * world, steps=4)
        opt_args = (0.2,)
        results = run_distributed(
            _rank_training, world, backend="thread",
            args=(cfg, batches, echo, opt_args,
                  dict(bucket_bytes=2048, chunk_bytes=256)),
        )
        ref_records, ref_params = _reference_run(
            cfg, batches, world, echo, opt_args
        )
        ref_losses = [r["loss"] for r in ref_records]
        for rank, (losses, _, params, _) in enumerate(results):
            assert losses == ref_losses, f"rank {rank} loss trajectory"
            for name in ref_params:
                assert np.array_equal(params[name], ref_params[name]), (
                    f"rank {rank} param {name!r}"
                )

    @pytest.mark.parametrize("world", [2, 4])
    def test_process_backend_matches_reference(self, world):
        cfg = _cfg(shard_batch=2)
        batches = _global_batches(2 * world, steps=3)
        opt_args = (0.2,)
        results = run_distributed(
            _rank_training, world, backend="process",
            args=(cfg, batches, False, opt_args,
                  dict(bucket_bytes=1024, chunk_bytes=128)),
        )
        ref_records, ref_params = _reference_run(
            cfg, batches, world, False, opt_args
        )
        losses, _, params, _ = results[0]
        assert losses == [r["loss"] for r in ref_records]
        for name in ref_params:
            assert np.array_equal(params[name], ref_params[name]), name

    def test_bucket_and_chunk_sizes_cannot_move_bits(self):
        """The layout knobs are pure performance: numerics invariant."""
        cfg = _cfg(shard_batch=4)
        batches = _global_batches(8, steps=3)
        runs = [
            run_distributed(
                _rank_training, 2, backend="thread",
                args=(cfg, batches, False, (0.2,),
                      dict(bucket_bytes=bb, chunk_bytes=cb)),
            )
            for bb, cb in ((256, 64), (1 << 20, 1 << 20))
        ]
        for name in runs[0][0][2]:
            assert np.array_equal(runs[0][0][2][name], runs[1][0][2][name])

    def test_serial_plan_is_one_gradient_collective_per_step(self):
        """A plan runs as one item, so every bucket is reduced in one
        collective: a step is that plus the loss — however many buckets
        the cap makes. Nothing overlaps backward."""
        cfg = _cfg(shard_batch=4)
        steps = 3
        batches = _global_batches(8, steps=steps)
        results = run_distributed(
            _rank_training, 2, backend="thread",
            args=(cfg, batches, False, (0.2,), dict(bucket_bytes=256)),
        )
        for _, _, _, snap in results:
            assert snap["overlap_reduced_buckets"] == 0
            buckets, rest = divmod(snap["tail_reduced_buckets"], steps)
            assert buckets > 3 and rest == 0
            assert snap["collectives"]["allreduce_mean"] == 2 * steps


# -- global gradient clipping ------------------------------------------------

class TestGlobalClipping:
    def test_clip_uses_global_norm_bitwise(self):
        """Distributed clipping must equal the reference's, which clips
        the globally reduced gradient — not each shard's."""
        cfg = _cfg(shard_batch=4)
        batches = _global_batches(16, steps=3)
        opt_args = (0.5, 0.0, 0.05)  # lr, momentum, tight clip_norm
        results = run_distributed(
            _rank_training, 4, backend="thread",
            args=(cfg, batches, False, opt_args, {}),
        )
        ref_records, ref_params = _reference_run(
            cfg, batches, 4, False, opt_args
        )
        losses, norms, params, _ = results[0]
        assert norms == [r["grad_norm"] for r in ref_records]
        for name in ref_params:
            assert np.array_equal(params[name], ref_params[name]), name

    def test_one_vs_four_rank_clipped_updates_agree(self):
        """4-rank mean-of-shards ~= 1-rank full batch: same global norm,
        same clipped update, up to float summation-order differences."""
        batches = _global_batches(16, steps=2)
        runs = {}
        for world, shard in ((1, 16), (4, 4)):
            cfg = _cfg(shard_batch=shard)
            model = build_word_lm(cfg)
            params = model.store.initialize(seed=100)
            records = data_parallel_reference(
                model.graph, params, SGD(0.5, clip_norm=0.05),
                batches, world,
            )
            runs[world] = (records, params)
        norm1 = runs[1][0][0]["grad_norm"]
        norm4 = runs[4][0][0]["grad_norm"]
        # Both runs clip every step (tight threshold) on nearly equal
        # global norms; a per-shard clip would scale by ~4x less.
        assert norm1 > 0.05 and norm4 > 0.05
        assert norm4 == pytest.approx(norm1, rel=1e-4)
        for name, ref in runs[1][1].items():
            np.testing.assert_allclose(
                runs[4][1][name], ref, rtol=1e-4, atol=1e-6,
                err_msg=name,
            )


# -- event-driven synchronization + metrics ----------------------------------

def _event_sync_rank(group, cfg, batches):
    """Worker: rely on ``step_done`` (never a sleep) and mirror metrics."""
    from repro.obs import MetricsRegistry

    model = build_word_lm(cfg)
    params = model.store.initialize(seed=100 + group.rank)
    reg = MetricsRegistry()
    with DistributedTrainer(
        group, model.graph, params, SGD(0.2), metrics=reg
    ) as trainer:
        for feeds in batches:
            trainer.step(feeds)
            # Event-driven sync point: already set once step() returns,
            # so a zero-timeout wait must succeed.
            assert trainer.step_done.wait(timeout=0)
    return reg.snapshot()


class TestEventDrivenSync:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_step_done_and_metrics_mirror(self, backend):
        cfg = _cfg(shard_batch=2)
        batches = _global_batches(4, steps=2)
        snaps = run_distributed(
            _event_sync_rank, 2, backend=backend, args=(cfg, batches),
        )
        for rank, snap in enumerate(snaps):
            assert snap["train.steps"] == 2
            prefix = f"dist.rank{rank}."
            dist_keys = [k for k in snap if k.startswith(prefix)]
            assert dist_keys, snap.keys()
            frac = snap[prefix + "overlap_fraction"]
            assert 0.0 <= frac <= 1.0


# -- fault tolerance ---------------------------------------------------------

def _dying_rank_training(group, cfg, batches, victim, die_after):
    model = build_word_lm(cfg)
    params = model.store.initialize(seed=100 + group.rank)
    with DistributedTrainer(
        group, model.graph, params, SGD(0.2), bucket_bytes=1024
    ) as trainer:
        records = []
        for step, feeds in enumerate(batches):
            if group.rank == victim and step == die_after:
                raise RuntimeError("simulated crash")
            records.append(trainer.step(feeds))
    return [r.loss for r in records], params, group.stats.snapshot()


class TestDegradePath:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_killed_rank_degrades_without_deadlock(self, backend):
        world, victim, die_after = 4, 2, 2
        cfg = _cfg(shard_batch=2)
        batches = _global_batches(8, steps=4)
        results = run_distributed(
            _dying_rank_training, world, backend=backend,
            args=(cfg, batches, victim, die_after),
            timeout_s=1.5, join_timeout_s=120.0,
            return_exceptions=True,
        )
        assert isinstance(results[victim], Exception)
        survivors = [r for r in range(world) if r != victim]
        # Every survivor finished all steps and agrees bitwise.
        base_losses, base_params, _ = results[survivors[0]]
        assert len(base_losses) == 4
        for rank in survivors[1:]:
            losses, params, snap = results[rank]
            assert losses == base_losses
            for name in base_params:
                assert np.array_equal(params[name], base_params[name])
            assert snap["reforms"] >= 1
        # Pre-death steps match the full-cohort reference; the ring
        # shrank only afterwards.
        model = build_word_lm(cfg)
        ref_params = model.store.initialize(seed=100)
        ref = data_parallel_reference(
            model.graph, ref_params, SGD(0.2), batches[:die_after], world
        )
        assert base_losses[:die_after] == [r["loss"] for r in ref]
