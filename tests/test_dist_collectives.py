"""Tests for the distributed substrate: channels, groups, collectives.

The load-bearing property is *bitwise determinism*: a ring all-reduce
over any rank count and any chunking must equal the serial canonical
fold (:func:`reference_allreduce`) bit for bit, on both backends — the
foundation the "N-rank training equals 1-rank training" guarantee in
``test_dist_trainer.py`` stands on. The rest covers the fault machinery:
timeouts, dead peers, generation filtering, and ring re-forming.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    CollectiveTimeout,
    DistError,
    DistWorkerError,
    PeerGone,
    ProtocolError,
    allreduce_named,
    barrier,
    create_thread_groups,
    reference_allreduce,
    ring_allgather,
    ring_allreduce,
    ring_broadcast,
    run_distributed,
)
from repro.dist.channels import ChannelClosed, ChannelTimeout, ThreadChannel
from repro.dist.wire import Message


# -- module-level workers (picklable for the process backend) ----------------

def _allreduce_worker(group, arrays, op, chunk_bytes):
    out = ring_allreduce(group, arrays[group.rank], op=op,
                         chunk_bytes=chunk_bytes)
    return out


def _coalesced_worker(group, per_rank, op, chunk_bytes):
    """One collective over the concatenation vs one per piece."""
    pieces = per_rank[group.rank]
    mine = np.concatenate(pieces)
    whole = np.full_like(mine, np.nan)  # a caller-kept result buffer
    got = ring_allreduce(group, mine, op=op, chunk_bytes=chunk_bytes,
                         out=whole)
    assert np.shares_memory(got, whole)
    apart = [ring_allreduce(group, p, op=op, chunk_bytes=chunk_bytes)
             for p in pieces]
    return whole, apart, group.stats.snapshot()


def _die_mid_collective_worker(group, arrays, victim):
    """The last ring position plays one chunk of the protocol, then dies."""
    assert victim == group.world_size - 1
    chunk_bytes = 256
    if group.rank == victim:
        seq = group.next_seq()
        first = group.recv(group.left, seq, ("ar", 0, "red"))
        group.send(group.right, seq, ("ar", 0, "bc"), first)
        raise RuntimeError("simulated crash mid-collective")
    with pytest.raises((CollectiveTimeout, PeerGone)):
        ring_allreduce(group, arrays[group.rank], chunk_bytes=chunk_bytes,
                       timeout_s=0.5)
    roster = group.reform(timeout_s=2.0)
    assert victim not in roster
    # Leftovers of the aborted collective (raw chunks included) must not
    # leak into the retry.
    out = ring_allreduce(group, arrays[group.rank], chunk_bytes=chunk_bytes,
                         timeout_s=5.0)
    expected = reference_allreduce([arrays[r] for r in roster])
    assert np.array_equal(out, expected)
    return roster


def _die_then_reduce_worker(group, arrays, victim):
    if group.rank == victim:
        raise RuntimeError("simulated rank crash")
    with pytest.raises((CollectiveTimeout, PeerGone)):
        ring_allreduce(group, arrays[group.rank], timeout_s=0.5)
    roster = group.reform(timeout_s=2.0)
    assert victim not in roster
    survivors = [r for r in roster]
    out = ring_allreduce(group, arrays[group.rank], timeout_s=5.0)
    expected = reference_allreduce([arrays[r] for r in survivors])
    assert np.array_equal(out, expected)
    return roster


# -- channels ----------------------------------------------------------------

class TestThreadChannel:
    def test_fifo_and_copy_isolation(self):
        chan = ThreadChannel()
        payload = np.arange(4.0)
        chan.send(Message(0, 1, ("t",), payload))
        payload[:] = -1  # sender mutates after send; receiver unaffected
        got = chan.recv(timeout=1.0)
        assert np.array_equal(got.payload, [0, 1, 2, 3])

    def test_timeout(self):
        chan = ThreadChannel()
        with pytest.raises(ChannelTimeout):
            chan.recv(timeout=0.01)

    def test_close_wakes_receiver(self):
        chan = ThreadChannel()
        timer = threading.Timer(0.05, chan.close)
        timer.start()
        with pytest.raises(ChannelClosed):
            chan.recv(timeout=5.0)
        timer.join()


# -- bitwise determinism (the core property) ---------------------------------

class TestAllreduceBitwise:
    @settings(max_examples=40, deadline=None)
    @given(
        world=st.integers(min_value=1, max_value=5),
        size=st.integers(min_value=1, max_value=700),
        chunk_bytes=st.integers(min_value=8, max_value=4096),
        op=st.sampled_from(["sum", "mean"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_ring_equals_serial_fold(
        self, world, size, chunk_bytes, op, dtype, seed
    ):
        """Any rank count x any chunking == the serial sum, bitwise."""
        rng = np.random.default_rng(seed)
        arrays = [
            rng.standard_normal(size).astype(dtype) for _ in range(world)
        ]
        results = run_distributed(
            _allreduce_worker, world, backend="thread",
            args=(arrays, op, chunk_bytes),
        )
        expected = reference_allreduce(arrays, op=op)
        for rank, out in enumerate(results):
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected), f"rank {rank} diverged"

    def test_chunking_cannot_move_bits(self):
        """Same inputs, wildly different chunk sizes -> identical bits."""
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(999).astype(np.float32)
                  for _ in range(4)]
        outs = [
            run_distributed(
                _allreduce_worker, 4, backend="thread",
                args=(arrays, "sum", cb),
            )[0]
            for cb in (16, 128, 1 << 20)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    @pytest.mark.parametrize("world", [2, 4])
    @pytest.mark.parametrize("op", ["sum", "mean"])
    def test_process_backend_matches_reference(self, world, op):
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal(257).astype(np.float64)
                  for _ in range(world)]
        results = run_distributed(
            _allreduce_worker, world, backend="process",
            args=(arrays, op, 64),
        )
        expected = reference_allreduce(arrays, op=op)
        for out in results:
            assert np.array_equal(out, expected)

    @staticmethod
    def _check_coalesced(results, per_rank, op):
        world = len(per_rank)
        expected = [
            reference_allreduce([per_rank[r][i] for r in range(world)], op=op)
            for i in range(len(per_rank[0]))
        ]
        for whole, apart, _ in results:
            for got, want in zip(apart, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(whole, np.concatenate(expected))

    @settings(max_examples=25, deadline=None)
    @given(
        world=st.integers(min_value=2, max_value=4),
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=5),
        chunk_bytes=st.integers(min_value=8, max_value=2048),
        op=st.sampled_from(["sum", "mean"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_coalesced_equals_per_piece_equals_reference(
        self, world, sizes, chunk_bytes, op, dtype, seed
    ):
        """One collective over several buckets' flattened bytes == one
        collective per bucket == the serial fold, bitwise (what lets the
        trainer reduce every bucket of a program item at once)."""
        rng = np.random.default_rng(seed)
        per_rank = [
            [rng.standard_normal(n).astype(dtype) for n in sizes]
            for _ in range(world)
        ]
        results = run_distributed(
            _coalesced_worker, world, backend="thread",
            args=(per_rank, op, chunk_bytes),
        )
        self._check_coalesced(results, per_rank, op)

    @pytest.mark.parametrize(
        "world,dtype,chunk_bytes",
        [(2, np.float32, 1 << 16), (3, np.float64, 1 << 20),
         (4, np.float32, 4096)],
    )
    def test_coalesced_raw_buffers_process_backend(
        self, world, dtype, chunk_bytes
    ):
        """Gradient-sized payloads over real pipes: far more bytes than a
        pipe buffers, so this also proves the pipelined schedule never
        blocks a send (a deadlock here would hit the join timeout)."""
        rng = np.random.default_rng(world)
        sizes = [70_001, 3, 150_000, 4097]
        per_rank = [
            [rng.standard_normal(n).astype(dtype) for n in sizes]
            for _ in range(world)
        ]
        results = run_distributed(
            _coalesced_worker, world, backend="process",
            args=(per_rank, "mean", chunk_bytes), join_timeout_s=60.0,
        )
        self._check_coalesced(results, per_rank, "mean")
        # bytes_sent counts payload bytes only (no headers, no framing).
        # The arrays went round twice (whole, then apart); per round the
        # last two positions send them once (contributions only / sums
        # only) and every other position twice.
        nbytes = 2 * sum(sizes) * np.dtype(dtype).itemsize
        sent = sorted(snap["bytes_sent"] for _, _, snap in results)
        assert sent == [nbytes] * 2 + [2 * nbytes] * (world - 2)

    def test_mean_rescales_by_live_count(self):
        """op="mean" divides by the ring size — the degrade reweighting."""
        arrays = [np.full(5, 3.0), np.full(5, 6.0), np.full(5, 9.0)]

        def work(group):
            return ring_allreduce(group, arrays[group.rank], op="mean")

        results = run_distributed(work, 3, backend="thread")
        assert np.array_equal(results[0], np.full(5, 6.0))


# -- the other collectives ---------------------------------------------------

class TestOtherCollectives:
    def test_allgather_roundtrip(self):
        def work(group):
            mine = np.arange(3) + 10 * group.rank
            return ring_allgather(group, mine)

        for gathered in run_distributed(work, 4, backend="thread"):
            assert sorted(gathered) == [0, 1, 2, 3]
            for rank, arr in gathered.items():
                assert np.array_equal(arr, np.arange(3) + 10 * rank)

    def test_broadcast_from_each_root(self):
        value = np.arange(17.0)

        def work(group, root):
            mine = value if group.rank == root else None
            return ring_broadcast(group, mine, root=root)

        for root in range(3):
            for out in run_distributed(work, 3, backend="thread",
                                       args=(root,)):
                assert np.array_equal(out, value)

    def test_barrier_orders_side_effects(self):
        hits: list[int] = []
        lock = threading.Lock()

        def work(group):
            if group.rank == 0:
                time.sleep(0.05)
            with lock:
                hits.append(group.rank)
            barrier(group)
            # After the barrier every rank must see all four arrivals.
            with lock:
                return len(hits)

        assert run_distributed(work, 4, backend="thread") == [4, 4, 4, 4]

    def test_allreduce_named_matches_per_array(self):
        rng = np.random.default_rng(5)
        per_rank = [
            {"b": rng.standard_normal(7), "a": rng.standard_normal(13)}
            for _ in range(3)
        ]

        def work(group):
            return allreduce_named(group, per_rank[group.rank],
                                   chunk_bytes=32)

        results = run_distributed(work, 3, backend="thread")
        for key in ("a", "b"):
            expected = reference_allreduce([d[key] for d in per_rank])
            assert np.array_equal(results[0][key], expected)


# -- faults ------------------------------------------------------------------

class TestFaults:
    def test_timeout_when_peer_never_sends(self):
        def work(group):
            if group.rank == 1:
                time.sleep(1.0)  # never joins the collective in time
                return None
            with pytest.raises(CollectiveTimeout):
                ring_allreduce(group, np.ones(4), timeout_s=0.2)
            return "timed-out"

        results = run_distributed(work, 2, backend="thread")
        assert results[0] == "timed-out"

    def test_dead_rank_thread_backend_reform(self):
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal(65) for _ in range(4)]
        results = run_distributed(
            _die_then_reduce_worker, 4, backend="thread",
            args=(arrays, 2), timeout_s=1.0, return_exceptions=True,
        )
        assert isinstance(results[2], RuntimeError)
        for rank in (0, 1, 3):
            assert results[rank] == (0, 1, 3)

    def test_dead_rank_process_backend_reform(self):
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal(33) for _ in range(4)]
        results = run_distributed(
            _die_then_reduce_worker, 4, backend="process",
            args=(arrays, 1), timeout_s=1.0, return_exceptions=True,
        )
        assert isinstance(results[1], DistWorkerError)
        for rank in (0, 2, 3):
            assert results[rank] == (0, 2, 3)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_dead_rank_mid_collective_reform(self, backend):
        rng = np.random.default_rng(10)
        arrays = [rng.standard_normal(640) for _ in range(3)]
        results = run_distributed(
            _die_mid_collective_worker, 3, backend=backend,
            args=(arrays, 2), timeout_s=1.0, return_exceptions=True,
        )
        assert isinstance(results[2], Exception)
        assert results[0] == results[1] == (0, 1)

    def test_stale_generation_traffic_is_dropped(self):
        groups = create_thread_groups(2, timeout_s=1.0)
        a, b = groups
        # A message from generation 0 must be invisible after a reform.
        a.send(1, seq=1, tag=("x",), payload="old-news")
        t = threading.Thread(target=a.reform, args=(1.0,))
        t.start()
        b.reform(timeout_s=1.0)
        t.join()
        assert a.live == b.live == (0, 1)
        assert a.generation == b.generation == 1
        seq = b.next_seq()
        a.next_seq()
        a.send(1, seq=seq, tag=("y",), payload="fresh")
        assert b.recv(0, seq=seq, tag=("y",), timeout_s=1.0) == "fresh"
        assert b.stats.snapshot()["stale_dropped"] == 1

    def test_seq_mismatch_is_protocol_error(self):
        groups = create_thread_groups(2, timeout_s=1.0)
        a, b = groups
        a.send(1, seq=7, tag=("t",), payload=None)
        with pytest.raises(ProtocolError):
            b.recv(0, seq=8, tag=("t",), timeout_s=1.0)

    def test_isolated_rank_raises(self):
        """A rank whose every peer is gone cannot re-form a usable ring
        with itself pretending others exist: reform shrinks to itself."""
        groups = create_thread_groups(3, timeout_s=0.3)
        a = groups[0]
        groups[1].close()
        groups[2].close()
        roster = a.reform(timeout_s=0.3)
        assert roster == (0,)
        # Singleton collectives still work (identity).
        out = ring_allreduce(a, np.arange(4.0))
        assert np.array_equal(out, np.arange(4.0))

    def test_worker_error_propagates_by_default(self):
        def work(group):
            if group.rank == 0:
                raise ValueError("boom")
            return 1

        with pytest.raises(ValueError, match="boom"):
            run_distributed(work, 2, backend="thread")


class TestStats:
    def test_counters_and_report(self):
        def work(group):
            ring_allreduce(group, np.ones(2048, np.float64),
                           chunk_bytes=1024)
            barrier(group)
            return group.stats.snapshot()

        snaps = run_distributed(work, 3, backend="thread")
        for snap in snaps:
            assert snap["collectives"]["allreduce_sum"] == 1
            assert snap["collectives"]["barrier"] == 1
            assert snap["bytes_sent"] > 0
            assert snap["messages_sent"] > 0

    def test_snapshot_keeps_the_keys_the_harness_reads(self):
        groups = create_thread_groups(1)
        snap = groups[0].stats.snapshot()
        for key in ("bytes_sent", "messages_sent", "collectives",
                    "recv_wait_s", "overlap_reduced_buckets",
                    "tail_reduced_buckets", "timeouts", "reforms"):
            assert key in snap, key

    def test_straggler_detection(self):
        groups = create_thread_groups(2, timeout_s=5.0,
                                      straggler_threshold_s=0.01)
        a, b = groups

        def late_send():
            time.sleep(0.1)
            a.send(1, seq=1, tag=("s",), payload=None)

        t = threading.Thread(target=late_send)
        t.start()
        b.next_seq()
        b.recv(0, seq=1, tag=("s",))
        t.join()
        snap = b.stats.snapshot()
        assert snap["stragglers"].get(0, 0) == 1
