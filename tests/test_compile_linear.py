"""The cold compile grows with the graph and changes nothing it builds.

Three layers:

* **counts, not clocks** — build + Echo + lower + ``verify(equiv=True)``
  of the benchmark harness's word-LM shape at ``seq_len`` 20 / 40 / 80
  under ``sys.setprofile``: the call count may at most 2.2x per doubling
  (a pass that rescans the stream per rewrite shows as 2.4-2.7x) and the
  ``seq_len`` 20 build stays under an absolute ceiling;
* **indices equal the scans they replaced** — the union-find alias roots
  against the old whole-table remap over random alias chains, the
  lowering's slot index against the old per-lookup producer scan on the
  harness NMT lowering, and Echo's consumer index against the old
  whole-schedule re-pointing scan (the oracles live in
  ``tests/helpers.py``);
* **same outputs as before the rewrite** — schedule orders, memory plans,
  placements, witnesses and Echo reports of the harness NMT (16, 16) and
  word-LM builds at threads {1, 2}, digested and compared with the
  digests recorded from the commit before this pass structure
  (``tests/data/compile_golden.json``; regenerate with
  ``PYTHONPATH=src python -m tests.test_compile_linear``).
"""

import hashlib
import itertools
import json
import pathlib
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.echo.pass_ as pass_mod
import repro.graph.node as node_mod
import repro.ops as O
from repro.echo import EchoConfig, EchoPass
from repro.experiments import TINY
from repro.gpumodel import DeviceModel
from repro.graph import topo_order
from repro.memplan.elision import elide_copies
from repro.memplan.slotindex import SlotIndex
from repro.models import NmtConfig, WordLmConfig, build_nmt, build_word_lm
from repro.nn import Backend
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import PlanCache, TrainingExecutor
from tests.helpers import (
    reference_apply_candidate,
    reference_elide_copies,
    reference_producer_spec,
)

#: the benchmark harness's frozen shapes (benchmarks/harness/spec.py)
HARNESS_NMT = dict(
    src_vocab_size=2000, tgt_vocab_size=2000, embed_size=128,
    hidden_size=128, encoder_layers=1, decoder_layers=1,
    src_len=16, tgt_len=16, batch_size=32,
)
HARNESS_WORDLM = dict(
    vocab_size=2000, embed_size=64, hidden_size=64, num_layers=2,
    seq_len=20, batch_size=16,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "compile_golden.json"


def _nmt_graph():
    return build_nmt(NmtConfig(backend=Backend.CUDNN, **HARNESS_NMT)).graph


def _wordlm_graph(seq_len=HARNESS_WORDLM["seq_len"]):
    cfg = WordLmConfig(backend=Backend.DEFAULT, **HARNESS_WORDLM)
    return build_word_lm(replace(cfg, seq_len=seq_len)).graph


def _compiled(graph, threads=1):
    """Echo + executor over one cache, as a trainer builds them."""
    device = DeviceModel()
    cache = PlanCache(store=None)
    report = EchoPass(EchoConfig(), device, plan_cache=cache).run(graph)
    executor = TrainingExecutor(
        graph, device=device, plan_cache=cache, threads=threads
    )
    return report, executor, cache


# -- counts ------------------------------------------------------------------


def _count_calls(fn) -> int:
    """``call`` + ``c_call`` profile events while ``fn`` runs (the
    harness's ``compile_calls`` estimator)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


class TestCompileScalesLinearly:
    @pytest.fixture
    def plain_process(self, monkeypatch):
        """No ambient switch that adds work to a compile."""
        for name in ("REPRO_VERIFY", "REPRO_THREADS", "REPRO_TUNE_DIR"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(obs_trace, "TRACING", False)
        monkeypatch.setattr(obs_trace, "_tracer", None)
        monkeypatch.setattr(obs_metrics, "_registry", None)

    def test_call_count_per_doubling(self, plain_process):
        def build(seq_len):
            def run():
                _, executor, _ = _compiled(_wordlm_graph(seq_len))
                executor.simulate_cost()
                assert executor.executor.verify(equiv=True).ok

            return run

        build(20)()  # closure templates and lazy imports, off the count
        calls = {n: _count_calls(build(n)) for n in (20, 40, 80)}
        assert calls[20] <= 1_500_000, calls
        assert calls[40] <= 2.2 * calls[20], calls
        assert calls[80] <= 2.2 * calls[40], calls


# -- indices equal the scans they replaced -----------------------------------


def _toy_lowering(tensors, escaping):
    """Descriptors, root table and output slots for a list of tensors:
    one instruction per producing node, as the compiler's first pass
    leaves them (views already share their input's root)."""
    nodes = [
        n for n in topo_order(tensors)
        if n.op.name not in ("placeholder", "variable")
    ]
    slot_of = {}
    for n in topo_order(tensors):
        for i in range(len(n.out_specs)):
            slot_of[(n.uid, i)] = len(slot_of)
    root = list(range(len(slot_of)))
    descs = []
    for n in nodes:
        in_slots = tuple(slot_of[t.key] for t in n.inputs)
        out_slots = tuple(
            slot_of[(n.uid, i)] for i in range(len(n.out_specs))
        )
        if n.op.may_alias:
            kind = "view"
            root[out_slots[0]] = root[in_slots[0]]
        else:
            kind = "out" if n.op.supports_out else "generic"
        descs.append({"kind": kind, "node": n, "in_slots": in_slots,
                      "out_slots": out_slots})
    output_slots = {slot_of[t.key] for t in escaping}
    return descs, root, output_slots


@st.composite
def alias_chains(draw):
    """A random DAG of view-equivalent copies over one [8 x 4] input:
    aliases of aliases, multi-output splits, true views (reshape), real
    kernels in between, and a random subset escaping as outputs."""
    x = O.placeholder((8, 4), name="x")
    pool = [x]
    for _ in range(draw(st.integers(3, 14))):
        src = pool[draw(st.integers(0, len(pool) - 1))]
        rows, cols = src.shape if len(src.shape) == 2 else (src.shape[0], 1)
        choice = draw(st.integers(0, 6))
        if choice == 0 and rows >= 2:
            begin = draw(st.integers(0, rows - 1))
            end = draw(st.integers(begin + 1, rows))
            pool.append(O.slice_axis(src, 0, begin, end))
        elif choice == 1 and len(src.shape) == 2 and cols >= 2:
            pool.append(O.slice_axis(src, 1, 0, cols // 2))
        elif choice == 2 and rows % 2 == 0:
            pool.extend(O.split(src, 2, axis=0))
        elif choice == 3:
            pool.append(O.concat([src], axis=0))
        elif choice == 4:
            pool.append(O.broadcast_to(src, src.shape))
        elif choice == 5:
            flat = 1
            for d in src.shape:
                flat *= d
            pool.append(O.reshape(src, (flat,)))
        else:
            pool.append(O.add(src, src))
    produced = pool[1:]
    escaping = [t for t in produced if draw(st.booleans()) and draw(
        st.integers(0, 3)) == 0]
    return produced, escaping


class TestIndicesMatchScans:
    @settings(max_examples=80, deadline=None)
    @given(alias_chains())
    def test_union_find_roots_equal_whole_table_remap(self, drawn):
        produced, escaping = drawn
        descs, root, output_slots = _toy_lowering(produced, escaping)
        ref_descs = [dict(d) for d in descs]
        ref_root = list(root)
        want = reference_elide_copies(ref_descs, ref_root, output_slots)
        got = elide_copies(descs, root, output_slots)
        assert got == want
        assert root == ref_root
        assert [d["kind"] for d in descs] == [d["kind"] for d in ref_descs]
        # fully resolved: every entry names a root
        assert all(root[r] == r for r in root)

    def test_slot_index_equals_producer_scan_on_nmt(self):
        _, executor, _ = _compiled(_nmt_graph(), threads=2)
        low = executor.executor.plan.lowering
        assert any(d["kind"] == "batched" for d in low.descs)
        index = low.slot_index()
        assert index is low.index  # built at lowering time, still current
        for slot in range(len(low.root)):
            assert index.producer_spec(low.descs, slot) == (
                reference_producer_spec(low.descs, slot)
            ), slot
        last_use = {}
        for idx, desc in enumerate(low.descs):
            for s in desc["in_slots"]:
                last_use[s] = idx
        assert last_use == {
            s: readers[-1] for s, readers in index.consumers.items()
        }

    @pytest.mark.parametrize("sharing", [True, False])
    @pytest.mark.parametrize("model", ["tiny_nmt", "wordlm"])
    def test_consumer_index_repoints_like_the_schedule_scan(
        self, monkeypatch, model, sharing
    ):
        """Every rewrite the pass applies — and a rollback followed by a
        re-apply — re-points the same consumers, in the same order, and
        gives the mirrors the same priorities as the whole-schedule scan."""
        real_apply = pass_mod.apply_candidate
        applied = []

        def record(app):
            return (
                [(c.uid, [t.key for t in before], [t.key for t in c.inputs])
                 for c, before in app.repointed],
                sorted((u, m.uid, m.priority) for u, m in app.mirrors.items()),
            )

        def checked_apply(candidate, index, output_keys, workspace_sharing):
            # both runs draw the same mirror uids from a restarted counter
            start = next(node_mod._NODE_COUNTER)
            node_mod._NODE_COUNTER = itertools.count(start)
            ref = reference_apply_candidate(
                candidate, index.order, output_keys, workspace_sharing
            )
            want = record(ref)
            ref.rollback()
            node_mod._NODE_COUNTER = itertools.count(start)
            got = real_apply(candidate, index, output_keys, workspace_sharing)
            assert record(got) == want
            assert got.repointed
            applied.append((got, index, output_keys))
            return got

        monkeypatch.setattr(pass_mod, "apply_candidate", checked_apply)
        graph = (
            build_nmt(TINY.with_backend(Backend.CUDNN)).graph
            if model == "tiny_nmt" else _wordlm_graph()
        )
        report = EchoPass(
            EchoConfig(workspace_sharing=sharing), DeviceModel(),
            plan_cache=PlanCache(store=None),
        ).run(graph)
        assert len(applied) == len(report.accepted) + report.rolled_back > 0
        if not sharing and model == "tiny_nmt":
            assert report.rolled_back > 0

        app, index, output_keys = applied[len(applied) // 2]
        app.rollback()  # a no-op if the pass already rolled it back
        checked_apply(app.candidate, index, output_keys, sharing)

    def test_edited_descriptors_rebuild_the_index(self):
        _, executor, _ = _compiled(_wordlm_graph(4))
        low = executor.executor.plan.lowering
        stale = low.slot_index()
        desc = low.descs[-1]
        desc["in_slots"] = tuple(desc["in_slots"]) + (999,)
        fresh = low.slot_index()
        assert fresh is not stale
        assert fresh.consumers[999] == [len(low.descs) - 1]
        assert SlotIndex(low.descs).consumers == fresh.consumers


# -- same outputs as before --------------------------------------------------


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def describe_build(graph, threads) -> dict:
    """Process-stable digests of everything one build decides.

    Node uids are offsets from the graph's first node (the global counter
    makes absolute uids depend on what ran before).
    """
    report, training, cache = _compiled(graph, threads)
    gx = training.executor
    base = min(n.uid for n in topo_order(graph.outputs))

    def key(k):
        return [k[0] - base, k[1]]

    plan = gx.plan
    low = plan.lowering
    rec = low.memplan
    wit = low.witnesses
    mem = gx.memory_plan
    verdict = gx.verify(equiv=True)

    def memory(p):
        return {
            "peak": [p.peak_bytes, p.peak_step, p.workspace_pool_hwm],
            "timeline": p.timeline,
            "peak_by_category": [
                [c.value, b] for c, b in p.peak_by_category.items()
            ],
            "max_by_category": [
                [c.value, b] for c, b in p.max_by_category.items()
            ],
            "lifetimes": [
                [key(k), life.nbytes, life.category.value, life.alloc_step,
                 life.free_step, life.scope]
                for k, life in p.lifetimes.items()
            ],
        }

    sections = {
        "order": [n.uid - base for n in gx.order],
        "stream": [
            [d["kind"], d["node"].uid - base, list(d["in_slots"]),
             list(d["out_slots"])]
            for d in low.descs
        ],
        "roots": [list(low.root), list(low.releasable),
                  [[i, [list(f) for f in fs]]
                   for i, fs in sorted(low.frees_at.items())]],
        "placements": [
            sorted([repr(k), list(v)] for k, v in rec.placements.items()),
            rec.extent_bytes, rec.planned_peak_bytes,
            plan.static_storage_bytes, plan.static_slot_count,
        ],
        "rewrites": [rec.elided, rec.inplace],
        "witnesses": [
            sorted([i, f.tail_uid - base, [m - base for m in f.members],
                    list(f.shape), f.dtype]
                   for i, f in wit.fusions.items()),
            sorted([i, [m - base for m in b.members], list(b.a_slots),
                    list(b.b_slots)] for i, b in wit.batches.items()),
            sorted([i, a.op, a.src_slot, list(a.out_slots), repr(a.indices)]
                   for i, a in wit.aliases.items()),
            [[w.instr, w.out, w.target, w.root, list(w.members)]
             for w in wit.inplace],
        ],
        "wavefront": [plan.wavefront_level_count, plan.parallel_level_count,
                      plan.gated_level_count],
        "memory_plan": memory(mem),
        "echo_report": {
            "counts": [report.baseline_peak_bytes,
                       report.optimized_peak_bytes, report.candidates_found,
                       report.rejected_low_benefit, report.rejected_budget,
                       report.rolled_back, len(report.mirror_witnesses)],
            "seconds": [report.recompute_seconds, report.iteration_seconds],
            "accepted": [
                [[n.uid - base for n in c.nodes],
                 [key(t.key) for t in c.eliminated],
                 [key(t.key) for t in c.new_stashes],
                 c.kernel_seconds, c.api_seconds, c.component_id - base,
                 sorted(key(k) for k in c.preserved)]
                for c in report.accepted
            ],
            "baseline_plan": memory(report.baseline_plan),
            "optimized_plan": memory(report.optimized_plan),
        },
        "sim_cost": [
            [t.node.uid - base, t.kernel_seconds, t.api_seconds,
             t.dram_bytes, t.launches]
            for t in training.simulate_cost().timings
        ],
        "verify": [verdict.ok, len(verdict.findings)],
        "plancache": list(cache.counters()),
    }
    return {name: _digest(value) for name, value in sections.items()}


def describe_all() -> dict:
    out = {}
    for threads in (1, 2):
        out[f"nmt16.t{threads}"] = describe_build(_nmt_graph(), threads)
        out[f"wordlm.t{threads}"] = describe_build(_wordlm_graph(), threads)
    return out


class TestSameOutputsAsBefore:
    @pytest.fixture
    def default_process(self, monkeypatch):
        for name in ("REPRO_THREADS", "REPRO_TUNE_DIR"):
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", ["nmt16", "wordlm"])
    def test_build_matches_recorded_digests(
        self, default_process, model, threads
    ):
        golden = json.loads(GOLDEN.read_text())[f"{model}.t{threads}"]
        graph = _nmt_graph() if model == "nmt16" else _wordlm_graph()
        got = describe_build(graph, threads)
        assert got == golden, sorted(
            name for name in golden if got.get(name) != golden[name]
        )


#: sections no lowering change may move: what the scheduler, the Echo
#: pass and the simulated device decide, and whether the plan certifies
UPSTREAM_OF_LOWERING = (
    "order", "memory_plan", "echo_report", "sim_cost", "verify", "plancache",
)

if __name__ == "__main__":
    committed = json.loads(GOLDEN.read_text())
    recorded = describe_all()
    for build, sections in recorded.items():
        for name in UPSTREAM_OF_LOWERING:
            assert sections[name] == committed[build][name], (build, name)
        moved = sorted(
            n for n in sections if sections[n] != committed[build][n]
        )
        print(f"{build}: {', '.join(moved) or 'unchanged'}")
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    print(f"wrote {GOLDEN}")
