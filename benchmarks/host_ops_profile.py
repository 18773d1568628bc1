"""Per-function attribution of the harness's ``iter_host_ops``.

``python3 -m benchmarks.host_ops_profile --workload nmt_serve`` builds the
workload the way ``benchmarks.harness`` does, runs the call the harness
counts (one full batch per (kind, bucket) for ``nmt_serve``, one step per
key for the training workloads, one rank-0 step for ``wordlm_dist2``) and
prints, per function, the bytecodes executed in the frames the harness
counts. Generated plan code (``<compiled-plan>``) is grouped by its kind
of closure: ``bind``, ``body`` and ``step``. The tool checks that its total
equals ``stats.count_bytecodes`` over the same call, so the table adds up
to the gated metric's own definition.

The counts are exact and repeat between runs; they differ between Python
versions, like the metric itself.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Callable, Sequence

from benchmarks.harness import env, spec, stats

#: warm-up calls before the counted one: lazy state (optimizer moments,
#: the first plan run) must not be counted
_WARM_CALLS = 2


def attribute(fn: Callable[[], object], roots: Sequence[str]) -> Counter:
    """Bytecodes executed on this thread while ``fn`` runs, by function, in
    frames whose filename contains one of ``roots`` — the frames
    ``stats.count_bytecodes`` counts, descended into the same way."""
    counts: Counter = Counter()

    def tracer(frame, event, arg):
        code = frame.f_code
        if not any(root in code.co_filename for root in roots):
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            counts[code] += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    by_function: Counter = Counter()
    for code, n in counts.items():
        by_function[_label(code)] += n
    return by_function


def _label(code) -> str:
    """``<compiled-plan> bind|body|step``, or ``repro/<path>:<line> <name>``."""
    if code.co_filename == stats.COMPILED_PLAN_FRAME:
        return f"{code.co_filename} {code.co_name}"
    path = code.co_filename
    cut = path.rfind("/repro/")
    if cut >= 0:
        path = path[cut + 1:]
    name = getattr(code, "co_qualname", code.co_name)
    return f"{path}:{code.co_firstlineno} {name}"


def checked(fn: Callable[[], object], roots: Sequence[str]) -> Counter:
    """:func:`attribute` of ``fn``, after checking that a second call
    counts the same total through the harness's own counter."""
    counts = attribute(fn, roots)
    total = stats.count_bytecodes(fn, roots)
    if sum(counts.values()) != total:
        raise RuntimeError(
            f"attribution sums to {sum(counts.values())}, "
            f"stats.count_bytecodes counts {total}"
        )
    return counts


def render(workload: str, seed: int, counts: Counter) -> str:
    """The attribution as a table, largest function first."""
    total = sum(counts.values())
    lines = [
        f"iter_host_ops of {workload} (seed {seed}), by function: {total}",
        f"{'bytecodes':>10} {'share':>7}  function",
    ]
    for label, n in sorted(counts.items(), key=lambda row: (-row[1], row[0])):
        lines.append(f"{n:>10} {100.0 * n / total:>6.2f}%  {label}")
    return "\n".join(lines)


# -- workloads --------------------------------------------------------------


def _serve(tree) -> Counter:
    from benchmarks.harness import inputs, serve
    from benchmarks.harness.core import Result
    from benchmarks.harness.train import RUNTIME_FRAMES
    from repro.data import BucketSpec

    model, params = serve.train_model(tree)
    session, _ = serve.build_session(model, params, Result())
    keyed = [
        (serve._KIND[kind], BucketSpec(*bucket),
         [serve._as_request(session, row) for row in rows])
        for kind, bucket, rows in inputs.key_batches(tree, spec.NMT_BUCKETS)
    ]
    total: Counter = Counter()
    for kind, bucket, rows in keyed:
        def call(k=kind, b=bucket, r=rows):
            return session.run_batch(k, b, r)

        for _ in range(_WARM_CALLS):
            call()
        total += checked(call, RUNTIME_FRAMES)
    return total


def _train(tree, wl) -> Counter:
    from benchmarks.harness.core import Result
    from benchmarks.harness.train import REPRO_FRAMES, build_verified

    built = build_verified(wl, Result())
    batches = wl.batches(tree)
    total: Counter = Counter()
    for key in wl.keys:
        def call(k=key):
            return built.step(k, batches[k][0])

        for _ in range(_WARM_CALLS):
            call()
        total += checked(call, REPRO_FRAMES)
    return total


def _dist_rank(group, job: dict) -> dict:
    """One rank of ``wordlm_dist2``, built as the harness builds it; rank 0
    returns its attribution of one step."""
    from benchmarks.harness.train import REPRO_FRAMES, WordLmTrain
    from repro.dist import DistributedTrainer
    from repro.echo import EchoConfig, EchoPass
    from repro.gpumodel import DeviceModel
    from repro.models import build_word_lm
    from repro.runtime import PlanCache
    from repro.train import SGD

    world = group.world_size
    wl = WordLmTrain(threads=spec.DIST_THREADS,
                     batch_size=spec.WORDLM["batch_size"] // world)
    model = build_word_lm(wl.config)
    device = DeviceModel()
    cache = PlanCache(store=None)
    EchoPass(EchoConfig(), device, plan_cache=cache).run(model.graph)
    params = model.store.initialize(seed=job["param_seed"])
    trainer = DistributedTrainer(
        group, model.graph, params, SGD(spec.WORDLM_LR),
        bucket_bytes=spec.DIST_BUCKET_BYTES, threads=spec.DIST_THREADS,
        device=device, plan_cache=cache,
    )
    batches = job["batches"]
    with trainer:
        for i in range(_WARM_CALLS):
            trainer.step(batches[i % len(batches)])
        feeds = batches[0]
        if group.rank != 0:
            # the peer of each counted call (checked() makes two)
            trainer.step(feeds)
            trainer.step(feeds)
            return {}
        counts = checked(lambda: trainer.step(feeds), REPRO_FRAMES)
    return dict(counts)


def _dist(tree) -> Counter:
    from benchmarks.harness import inputs
    from repro.dist import run_distributed

    job = {
        "batches": inputs.lm_batches(tree, spec.WORDLM, 6),
        "param_seed": tree.param_seed(),
    }
    ranks = run_distributed(_dist_rank, spec.DIST_WORLD, backend="process",
                            args=(job,), join_timeout_s=170.0)
    return Counter(ranks[0])


def profile(workload: str, seed: int) -> str:
    from benchmarks.harness.inputs import SeedTree
    from benchmarks.harness.train import NmtTrain, WordLmTrain

    tree = SeedTree(seed)
    if workload == "nmt_serve":
        counts = _serve(tree)
    elif workload == "wordlm_dist2":
        counts = _dist(tree)
    else:
        wl = NmtTrain() if workload == "nmt_train" else WordLmTrain()
        counts = _train(tree, wl)
    return render(workload, seed, counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.host_ops_profile",
        description=__doc__.split("\n")[0],
    )
    parser.add_argument("--workload", choices=spec.ALL, required=True)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    args = parser.parse_args(argv)
    env.prepare()
    print(profile(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
