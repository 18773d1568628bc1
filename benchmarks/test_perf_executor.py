"""Host-dispatch microbenchmark: interpreted executor vs. compiled plan.

The compiled-plan rework targets the regime of paper Figure 7a: an LSTM
training iteration issues thousands of tiny kernels, so the *host-side*
cost of dispatching each one (dict lookups, per-node exception plumbing,
fresh allocations) bounds the iteration, not the kernels themselves. The
compiled plan eliminates that dispatch — slot-indexed registers, baked
straight-line step functions, fused elementwise chains, and compile-time
static buffer assignment.

What to expect from the numbers: on this CPU/numpy host the "kernels" are
synchronous numpy ufunc calls, which both execution paths pay identically
— they are the irreducible floor that a real GPU would overlap with
asynchronous launches. Wall-clock speedup is therefore bounded well below
the dispatch reduction: profiling the compiled path shows >90% of its
time inside op kernels (sigmoid/tanh/matmul/reductions). The honest,
robust metrics asserted here are

* executor-attributable bytecode dispatches: >= 3x fewer (the tentpole's
  target; measured ~3.7x),
* steady-state per-iteration numpy allocations: >= 90% fewer (measured
  ~97%: a handful of output + generic-op arrays vs. one fresh array per
  scheduled intermediate),
* wall-clock: >= 1.25x at the dispatch-bound NMT config (measured
  ~1.5-1.6x), and never slower elsewhere.

Results persist to ``benchmarks/results/perf_executor.txt`` and, machine
readable for cross-PR tracking, ``BENCH_executor.json`` at the repo root.
"""

import json
import pathlib
import sys
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.echo import EchoConfig, EchoPass
from repro.experiments import ZHU, format_table
from repro.models import NmtConfig, WordLmConfig, build_nmt, build_word_lm
from repro.nn import Backend
from repro.runtime import GraphExecutor, NullPlanCache, PlanCache

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Frames attributable to the executor itself: the interpreter loop lives
#: under ``repro/runtime/``; baked step/body functions compile with
#: co_filename ``<compiled-plan>``. Kernels (numpy, ``repro/ops``) are
#: excluded from both sides — they are the shared floor.
_EXECUTOR_FRAMES = ("repro/runtime/", "compiled-plan")

#: Dispatch-bound: tiny tensors, deeply unrolled seq2seq graph (~2900
#: nodes) — per-instruction host work dominates, the Fig. 7a regime.
DISPATCH_NMT = NmtConfig(
    src_vocab_size=500, tgt_vocab_size=500, embed_size=16, hidden_size=16,
    encoder_layers=1, decoder_layers=1, src_len=12, tgt_len=12,
    batch_size=4, backend=Backend.CUDNN,
)

#: Kernel-bound reference row: larger tensors shift time into numpy
#: kernels shared by both paths, so the wall-clock gap narrows — reported
#: to document the floor, only sanity-asserted.
KERNEL_NMT = NmtConfig(
    src_vocab_size=2000, tgt_vocab_size=2000, embed_size=128,
    hidden_size=128, encoder_layers=1, decoder_layers=1, src_len=12,
    tgt_len=12, batch_size=32, backend=Backend.CUDNN,
)

WORD_LM = WordLmConfig(
    vocab_size=2000, embed_size=64, hidden_size=64, num_layers=2,
    seq_len=20, batch_size=16, backend=Backend.CUDNN,
)

WARMUP = 2
ITERS = 12
REPS = 3
#: interleaved timing rounds of the thread matrix (7 rows per round)
MATRIX_ROUNDS = 5


def _nmt_feeds(cfg: NmtConfig) -> dict:
    rng = np.random.default_rng(0)
    return {
        name: rng.integers(1, cfg.src_vocab_size, (cfg.src_len, cfg.batch_size))
        for name in ("src_tokens", "tgt_tokens", "tgt_labels")
    }


def _lm_feeds(cfg: WordLmConfig) -> dict:
    rng = np.random.default_rng(0)
    shape = (cfg.seq_len, cfg.batch_size)
    return {
        "tokens": rng.integers(0, cfg.vocab_size, shape),
        "labels": rng.integers(-1, cfg.vocab_size, shape),
    }


def _best_seconds_per_iter(fn) -> float:
    for _ in range(WARMUP):
        fn()
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        for _ in range(ITERS):
            fn()
        best = min(best, (time.perf_counter() - start) / ITERS)
    return best


def _count_executor_opcodes(fn) -> int:
    """Bytecode dispatches in executor-attributable frames for one run."""
    counts = [0]

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not any(m in filename for m in _EXECUTOR_FRAMES):
            return None  # don't descend into kernels / numpy
        frame.f_trace_opcodes = True
        if event == "opcode":
            counts[0] += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return counts[0]


def _measure(name: str, model, feeds: dict) -> dict:
    params = model.store.initialize(seed=0)
    ex = GraphExecutor(model.graph.outputs, plan_cache=PlanCache())

    # Correctness first: the compiled plan must be bitwise-identical to
    # the interpreted baseline on this exact graph before timing it.
    want = ex.run_interpreted(feeds, params).outputs
    got = ex.run(feeds, params).outputs
    assert all(np.array_equal(a, b) for a, b in zip(want, got))

    interp_s = _best_seconds_per_iter(lambda: ex.run_interpreted(feeds, params))
    compiled_s = _best_seconds_per_iter(lambda: ex.run(feeds, params))

    ops_interp = _count_executor_opcodes(lambda: ex.run_interpreted(feeds, params))
    ops_compiled = _count_executor_opcodes(lambda: ex.run(feeds, params))

    # Steady-state allocations. The interpreter allocates one fresh array
    # per intermediate per iteration (plus kernel temporaries — not
    # counted, which only flatters the baseline). The compiled plan
    # allocates only output arrays and generic-op results.
    interp_allocs = sum(
        len(node.out_specs)
        for node in ex.order
        if node.op.name not in ("placeholder", "variable", "constant")
    )
    steady = 10
    fresh0 = ex.arena.fresh_count
    generic0 = ex.plan.generic_alloc_count
    for _ in range(steady):
        ex.run(feeds, params)
    compiled_allocs = (
        (ex.arena.fresh_count - fresh0)
        + (ex.plan.generic_alloc_count - generic0)
    ) / steady

    return {
        "name": name,
        "nodes": ex.plan.num_nodes,
        "instructions": ex.plan.num_instructions,
        "fused_nodes": ex.plan.fused_node_count,
        "static_slots": ex.plan.static_slot_count,
        "interp_ms": interp_s * 1e3,
        "compiled_ms": compiled_s * 1e3,
        "speedup": interp_s / compiled_s,
        "opcodes_interp": ops_interp,
        "opcodes_compiled": ops_compiled,
        "opcode_ratio": ops_interp / max(ops_compiled, 1),
        "allocs_interp": interp_allocs,
        "allocs_compiled": compiled_allocs,
        "alloc_reduction": 1.0 - compiled_allocs / interp_allocs,
    }


def test_compiled_plan_vs_interpreter(benchmark, save_result):
    def compute():
        return [
            _measure("nmt dispatch-bound", build_nmt(DISPATCH_NMT),
                     _nmt_feeds(DISPATCH_NMT)),
            _measure("nmt kernel-bound", build_nmt(KERNEL_NMT),
                     _nmt_feeds(KERNEL_NMT)),
            _measure("word-lm", build_word_lm(WORD_LM), _lm_feeds(WORD_LM)),
        ]

    rows = run_once(benchmark, compute)
    save_result(
        "perf_executor",
        format_table(
            ["graph", "interp ms", "compiled ms", "speedup",
             "exec opcodes (i/c)", "allocs/iter (i/c)"],
            [
                (
                    r["name"],
                    round(r["interp_ms"], 2),
                    round(r["compiled_ms"], 2),
                    f"{r['speedup']:.2f}x",
                    f"{r['opcodes_interp']}/{r['opcodes_compiled']}"
                    f" = {r['opcode_ratio']:.2f}x",
                    f"{r['allocs_interp']}/{r['allocs_compiled']:.0f}"
                    f" = -{r['alloc_reduction'] * 100:.0f}%",
                )
                for r in rows
            ],
            "Interpreted vs compiled execution (kernel time is a shared "
            "floor on CPU numpy; a GPU overlaps it with async launches)",
        ),
    )
    (REPO_ROOT / "BENCH_executor.json").write_text(
        json.dumps({r["name"]: r for r in rows}, indent=2) + "\n"
    )

    by_name = {r["name"]: r for r in rows}
    dispatch = by_name["nmt dispatch-bound"]
    # Tentpole target: >= 3x fewer per-iteration bytecode dispatches on
    # the NMT training graph (measured ~3.7x).
    assert dispatch["opcode_ratio"] >= 3.0
    # Steady-state allocations down >= 90% (measured ~97%).
    for r in rows:
        assert r["alloc_reduction"] >= 0.90
        assert r["fused_nodes"] > 0
        assert r["static_slots"] > 0
    # Wall-clock: comfortably faster where dispatch dominates, and never
    # slower where kernels dominate.
    assert dispatch["speedup"] >= 1.25
    for r in rows:
        assert r["speedup"] >= 0.95


def _report_fields(report) -> dict:
    return {
        "baseline_peak_bytes": report.baseline_peak_bytes,
        "optimized_peak_bytes": report.optimized_peak_bytes,
        "candidates_found": report.candidates_found,
        # component ids embed globally-unique node uids; compare the
        # decisions structurally instead
        "num_accepted": len(report.accepted),
        "accepted_benefit": [c.benefit_bytes for c in report.accepted],
        "accepted_recompute": [c.recompute_seconds for c in report.accepted],
        "rejected_low_benefit": report.rejected_low_benefit,
        "rejected_budget": report.rejected_budget,
        "rolled_back": report.rolled_back,
        "recompute_seconds": report.recompute_seconds,
        "iteration_seconds": report.iteration_seconds,
    }


def test_fig13_echo_report_unchanged_by_plan_cache(benchmark, save_result):
    """Plan-cache memoization must not move any Fig. 13 number.

    The Echo pass re-plans the graph dozens of times (entry, per-rewrite,
    rollback loop). The cache may only change how fast that happens —
    accepted candidates, peak bytes, and overhead fractions on the
    paper's primary (ZHU) configuration must match the uncached seed
    behavior field for field.
    """

    def compute():
        cached = EchoPass(EchoConfig(), plan_cache=PlanCache()).run(
            build_nmt(ZHU).graph
        )
        uncached = EchoPass(EchoConfig(), plan_cache=NullPlanCache()).run(
            build_nmt(ZHU).graph
        )
        return cached, uncached

    cached, uncached = run_once(benchmark, compute)
    assert _report_fields(cached) == _report_fields(uncached)
    assert cached.candidates_found > 0
    assert cached.accepted
    overhead = cached.recompute_seconds / cached.iteration_seconds
    save_result(
        "perf_executor_echo_parity",
        format_table(
            ["field", "cached", "uncached"],
            [
                ("optimized peak MB",
                 round(cached.optimized_peak_bytes / 2**20, 1),
                 round(uncached.optimized_peak_bytes / 2**20, 1)),
                ("accepted", len(cached.accepted), len(uncached.accepted)),
                ("overhead frac", round(overhead, 4),
                 round(uncached.recompute_seconds
                       / uncached.iteration_seconds, 4)),
            ],
            "Echo pass on ZHU (Fig. 13): plan cache changes nothing",
        ),
    )


#: Wavefront matrix: thread counts x batched-GEMM pre-pass, all on the
#: kernel-bound NMT config (the regime PR 1 could not move — its time sits
#: in numpy kernels). The wavefront gate prices a level's saving in host
#: seconds against a measured thread hand-off, so at this shape (kernels of
#: tens of microseconds) it keeps every level serial and a ``threads=N``
#: row runs the same baked body as its ``threads=1`` row. What is asserted
#: is therefore the property that holds on any core count: more threads
#: never cost wall-clock.
THREAD_MATRIX = [(1, False), (1, True), (2, False), (2, True),
                 (4, False), (4, True)]


def _matrix_name(threads: int, batched: bool) -> str:
    return f"nmt kernel-bound t{threads}" + ("+bg" if batched else "")


def test_wavefront_parallel_kernel_bound(benchmark, save_result):
    """Wavefront + batched-GEMM rows for the cross-PR trajectory.

    Baseline is this PR's threads=1, batching-off plan — byte-for-byte the
    PR 1 compiled serial path (same closures, same inline clears), so
    "speedup" rows compare directly against the prior BENCH_executor.json
    kernel-bound row.
    """
    import os

    def compute():
        model = build_nmt(KERNEL_NMT)
        params = model.store.initialize(seed=0)
        feeds = _nmt_feeds(KERNEL_NMT)
        cache = PlanCache()
        serial = GraphExecutor(model.graph.outputs, plan_cache=cache,
                               threads=1, batch_gemms=False)
        want = serial.run(feeds, params).outputs

        executors = {}
        for threads, batched in THREAD_MATRIX:
            ex = GraphExecutor(model.graph.outputs, plan_cache=cache,
                               threads=threads, batch_gemms=batched)
            # Parallel and batched plans must be bitwise-identical to the
            # serial baseline before any of their timings count.
            got = ex.run(feeds, params).outputs
            assert all(np.array_equal(a, b) for a, b in zip(want, got))
            executors[(threads, batched)] = ex

        # Rows are compared with each other, so they are timed in
        # interleaved rounds (best round per row): host drift between the
        # first and the last row would otherwise read as a thread effect.
        best = {key: float("inf") for key in executors}
        best["base"] = float("inf")
        for _ in range(MATRIX_ROUNDS):
            for key, ex in [("base", serial), *executors.items()]:
                start = time.perf_counter()
                for _ in range(ITERS):
                    ex.run(feeds, params)
                best[key] = min(
                    best[key], (time.perf_counter() - start) / ITERS
                )
        base_s = best["base"]

        rows = []
        for (threads, batched), ex in executors.items():
            seconds = best[(threads, batched)]
            rows.append({
                "name": _matrix_name(threads, batched),
                "threads": threads,
                "batch_gemms": batched,
                "compiled_ms": seconds * 1e3,
                "speedup_vs_serial": base_s / seconds,
                "instructions": ex.plan.num_instructions,
                "batched_groups": ex.plan.batched_gemm_groups,
                "batched_nodes": ex.plan.batched_gemm_nodes,
                "parallel_levels": ex.plan.parallel_level_count,
                "parallel_instructions": ex.plan.parallel_instruction_count,
                "max_width": ex.plan.max_wavefront_width,
                "host_cores": os.cpu_count() or 1,
            })
        return rows

    rows = run_once(benchmark, compute)
    save_result(
        "perf_executor_wavefront",
        format_table(
            ["config", "ms/iter", "vs serial", "instr", "batched (grp/node)",
             "parallel (lvl/instr)", "width"],
            [
                (
                    r["name"],
                    round(r["compiled_ms"], 2),
                    f"{r['speedup_vs_serial']:.2f}x",
                    r["instructions"],
                    f"{r['batched_groups']}/{r['batched_nodes']}",
                    f"{r['parallel_levels']}/{r['parallel_instructions']}",
                    r["max_width"],
                )
                for r in rows
            ],
            f"Wavefront execution on kernel-bound NMT "
            f"({os.cpu_count() or 1} host cores; the host-seconds gate "
            "decides the parallel column, threads=N never slower than "
            "threads=1)",
        ),
    )

    path = REPO_ROOT / "BENCH_executor.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({r["name"]: r for r in rows})
    path.write_text(json.dumps(data, indent=2) + "\n")

    by = {r["name"]: r for r in rows}
    # Structure: batching must engage (the attention-scoring GEMMs).
    for name, r in by.items():
        if r["batch_gemms"]:
            assert r["batched_groups"] > 0
            assert r["instructions"] < by[_matrix_name(r["threads"], False)][
                "instructions"]
    # Serial configurations must not regress against the PR 1 code path
    # (threads=1 executes the identical baked body; batching only removes
    # dispatches). 0.9 guards against timer noise, not a real budget.
    for name in (_matrix_name(1, False), _matrix_name(1, True)):
        assert by[name]["speedup_vs_serial"] >= 0.9
    # More threads are never a slowdown, on any core count: against the
    # threads=1 row with the same batching (i.e. the same instructions).
    for threads in (2, 4):
        for batched in (False, True):
            wide = by[_matrix_name(threads, batched)]
            narrow = by[_matrix_name(1, batched)]
            assert wide["compiled_ms"] <= 1.05 * narrow["compiled_ms"], (
                wide["name"], wide["compiled_ms"], narrow["compiled_ms"]
            )
