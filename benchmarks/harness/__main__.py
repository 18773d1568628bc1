"""``python3 -m benchmarks.harness``: run workloads, print every metric.

One pass of one workload (the driver's form)::

    python3 -m benchmarks.harness --workload nmt_train --seed 7 \\
        --seconds 20 --trace 0

prints one line per metric and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end set of
``BENCHMARK.json`` for ``--trace 0``, its per-layer set for ``--trace 1``.

Without ``--workload`` all four run, and a bare ``--trace`` runs the
untraced pass *and* the traced one: each pass is a fresh process (so each
pays its own imports, and none inherits another's threads), the traced pass
must reproduce the untraced loss digest, and the workload contrast is
printed. Exit status is non-zero on any correctness failure.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from . import env, spec


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.harness",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="budget of the measured phases of one pass")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: untraced pass; 1: traced pass; bare: both")
    parser.add_argument("--quick", action="store_true",
                        help="smallest repetition counts (self-tests)")
    parser.add_argument("--out", help="write every metric + host facts here")
    parser.add_argument("--trace-out",
                        help="Chrome trace path (default .bench_tmp/)")
    return parser.parse_args(argv)


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title} ==")
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>16} {spec.unit_of(name)}")


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- one pass of one workload, in this process ------------------------------


def _single(args) -> int:
    scrubbed = env.prepare()
    from .core import Context
    from .inputs import SeedTree
    from .spans import NullRecorder, Recorder

    traced = args.trace == "1"
    host = env.host_facts()
    host["scrubbed_env"] = scrubbed
    scratch = env.scratch_dir()
    recorder = Recorder() if traced else NullRecorder()
    ctx = Context(tree=SeedTree(args.seed), seconds=args.seconds,
                  quick=args.quick, scratch=scratch, t0=_T0,
                  recorder=recorder)
    name = args.workload
    try:
        if name in spec.TRAIN:
            from . import train

            wl = (train.NmtTrain() if name == "nmt_train"
                  else train.WordLmTrain())
            result = train.run(wl, ctx)
        elif name == "nmt_serve":
            from . import serve

            result = serve.run(ctx)
        else:
            from . import dist

            result = dist.run(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    kind = "traced" if traced else "untraced"
    host["loadavg_end"] = list(os.getloadavg())
    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    _print_metrics(f"{name} ({kind})", result.metrics)
    entry = {kind: result.metrics, "attempted": result.attempted,
             "failed": result.failed, "failures": result.failures}
    if traced:
        path = Path(args.trace_out or
                    env.ROOT / ".bench_tmp" / f"trace-{name}.json")
        recorder.export_chrome(path, {"workload": name, "seed": args.seed})
        entry["trace_file"] = str(path)
        print(f"  trace written to {path}")
    for message in result.failures:
        print(f"  FAILED: {message}")
    print(f"  attempted={result.attempted} failed={result.failed}")

    if args.out:
        _write(args.out, {"host": host, "seed": args.seed,
                          "seconds": args.seconds, "quick": args.quick,
                          "workloads": {name: entry}})

    # The driver's contract: exactly its metric set, as the last line.
    if traced:
        metrics = {row["name"]: {"value": result.metrics.get(row["name"], 0),
                                 "unit": row["unit"]}
                   for row in spec.driver_per_layer()}
    else:
        metrics = {row["name"]: {"value": result.metrics[row["name"]],
                                 "unit": row["unit"]}
                   for row in spec.driver_end_to_end()}
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.failed == 0 else 1


# -- several passes: one child process each ---------------------------------


def _contrast(workloads: dict) -> list[str]:
    """The regimes the workloads were chosen for, and how well the layer
    spans of the traced pass add up to the untraced end-to-end numbers."""
    traced = {w: e.get("traced", {}) for w, e in workloads.items()}
    untraced = {w: e.get("untraced", {}) for w, e in workloads.items()}
    lines = []

    def ratio(w: str, num: str, den: str):
        t = traced.get(w, {})
        if num not in t or not t.get(den):
            return None
        # counts are summed over the buckets, times are their mean
        per_key = len(spec.NMT_BUCKETS) if (
            w == "nmt_train" and num == "executor.host_ops") else 1
        return t[num] / per_key / t[den]

    for label, num, den, larger in (
        ("executor.dispatch_ms / iter_ms", "executor.dispatch_ms", "iter_ms",
         "wordlm_train"),
        ("executor.host_ops / executor.run_ms", "executor.host_ops",
         "executor.run_ms", "wordlm_train"),
        ("echo.bytes_saved / peak_bytes", "echo.bytes_saved", "peak_bytes",
         "nmt_train"),
    ):
        a, b = ratio("nmt_train", num, den), ratio("wordlm_train", num, den)
        if a is None or b is None:
            continue
        holds = (b > a) if larger == "wordlm_train" else (a > b)
        lines.append(f"{label}: nmt_train {a:.4g}, wordlm_train {b:.4g} "
                     f"(expected larger on {larger}: "
                     f"{'holds' if holds else 'DOES NOT HOLD'})")
    for prefix, owner in (("serve.", "nmt_serve"), ("dist.", "wordlm_dist2")):
        strangers = sorted(
            w for w, t in traced.items() if w != owner
            and any(k.startswith(prefix) and v for k, v in t.items())
        )
        if traced.get(owner):
            lines.append(f"{prefix}* non-zero only on {owner}: "
                         f"{'holds' if not strangers else strangers}")
    for w in spec.TRAIN:
        t, u = traced.get(w, {}), untraced.get(w, {})
        if "harness.compile_span_cover" in t and "compile_cold_s" in u:
            spans = t["harness.compile_span_cover"] * t["compile_cold_s"]
            step = t["executor.run_ms"] + t["train.optimizer_ms"]
            lines.append(
                f"{w}: layer spans / untraced = "
                f"{spans / u['compile_cold_s']:.3f} of compile_cold_s, "
                f"{step / u['iter_ms']:.3f} of iter_ms"
            )
    return lines


def _orchestrate(args) -> int:
    names = [args.workload] if args.workload else list(spec.ALL)
    passes = {"0": ("0",), "1": ("1",), "both": ("0", "1")}[args.trace]
    tmp = env.scratch_dir()
    report: dict = {"seed": args.seed, "seconds": args.seconds,
                    "quick": args.quick, "workloads": {}}
    failed = 0
    try:
        for name in names:
            entry = report["workloads"].setdefault(
                name, {"attempted": 0, "failed": 0, "failures": []}
            )
            for trace in passes:
                out = tmp / f"{name}-{trace}.json"
                command = [sys.executable, "-m", "benchmarks.harness",
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", trace,
                           "--out", str(out)]
                command += ["--quick"] if args.quick else []
                done = subprocess.run(command, cwd=env.ROOT, check=False)
                if not out.exists():
                    entry["failed"] += 1
                    entry["attempted"] += 1
                    entry["failures"].append(
                        f"{name}: pass --trace {trace} exited "
                        f"{done.returncode} without a result"
                    )
                    continue
                child = json.loads(out.read_text())
                report.setdefault("host", child["host"])
                got = child["workloads"][name]
                for key in ("attempted", "failed", "failures"):
                    entry[key] += got.pop(key)
                entry.update(got)
            if len(passes) == 2 and "untraced" in entry and "traced" in entry:
                a = entry["untraced"].get("train.loss_digest")
                b = entry["traced"].get("train.loss_digest")
                entry["attempted"] += 1
                if a != b:
                    entry["failed"] += 1
                    entry["failures"].append(
                        f"{name}: traced pass changed the loss digest "
                        f"({a} -> {b})"
                    )
            failed += entry["failed"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("== summary ==")
    for name, entry in report["workloads"].items():
        print(f"  {name:<14} attempted={entry['attempted']} "
              f"failed={entry['failed']}")
        for message in entry["failures"]:
            print(f"    FAILED: {message}")
    for line in _contrast(report["workloads"]):
        print(f"  {line}")
    if args.out:
        _write(args.out, report)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload and args.trace != "both":
        return _single(args)
    return _orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
