"""``python3 -m benchmarks.harness.compare A.json B.json [...]``

One row per workload x headline metric: base (A), new (the other files),
their ratio with its base, and a verdict —

* ``better`` / ``worse``: the new value is beyond the metric's own bound;
* ``same``: within the bound;
* ``unresolved``: the files given disagree among themselves by more than
  the bound (their spread, (max - min) / median, is printed), so nothing
  can be said unless every other reading is beaten.

With more than two files, A is the base and the rest are repeated runs of
the candidate: the verdict uses their median. Exit status 1 on any
``worse`` row, on an exact metric that changed for the worse, or on a rise
in ``failed / attempted``. Two files of one commit is the A/A check.
"""

from __future__ import annotations

import json
import statistics
import sys

from . import spec


def _headline(path: str) -> dict:
    """``{workload: {metric: value}}`` plus ``_failed`` / ``_attempted``."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    out = {}
    for name, entry in report["workloads"].items():
        untraced = entry.get("untraced", {})
        traced = entry.get("traced", {})
        row = {}
        for metric, *_ in spec.headline_for(name):
            if metric in untraced:
                row[metric] = untraced[metric]
        digest = untraced.get("train.loss_digest",
                              traced.get("train.loss_digest"))
        if digest is not None:
            row["train.loss_digest"] = digest
        row["_failed"] = entry["failed"]
        row["_attempted"] = entry["attempted"]
        out[name] = row
    return out


def _verdict(base: float, news: list[float], better: str, bound: float
             ) -> tuple[str, float, float]:
    new = statistics.median(news)
    readings = [base] + news
    spread = ((max(readings) - min(readings)) / abs(statistics.median(readings))
              if len(news) > 1 and statistics.median(readings) else 0.0)
    change = (new - base) / abs(base) if base else 0.0
    gain = -change if better == "lower" else change
    if gain < -bound:
        verdict = "worse"
    elif gain > bound:
        verdict = "better"
    else:
        verdict = "same"
    if len(news) > 1 and spread > bound and verdict == "same":
        verdict = "unresolved"
    return verdict, new, spread


def compare(paths: list[str]) -> int:
    base_file, *new_files = [_headline(p) for p in paths]
    header = (f"{'workload':<14} {'metric':<20} {'base':>14} {'new':>14} "
              f"{'new/base':>9} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    bad = 0
    for workload, base in base_file.items():
        news = [f[workload] for f in new_files if workload in f]
        if not news:
            continue
        for metric, unit, better, bound, _ in spec.headline_for(workload):
            if metric not in base or any(metric not in n for n in news):
                continue
            if metric in spec.EXACT:
                bound = 0.0  # must repeat exactly: any move is a verdict
            verdict, new, spread = _verdict(
                base[metric], [n[metric] for n in news], better, bound
            )
            ratio = new / base[metric] if base[metric] else float("nan")
            note = f" (spread {spread:.3f})" if verdict == "unresolved" else ""
            print(f"{workload:<14} {metric:<20} {base[metric]:>14.6g} "
                  f"{new:>14.6g} {ratio:>9.4f} {bound:>6.3f}  {verdict}{note}")
            bad += verdict == "worse"
        if "train.loss_digest" in base:
            same = all(n.get("train.loss_digest") == base["train.loss_digest"]
                       for n in news)
            print(f"{workload:<14} {'train.loss_digest':<20} "
                  f"{base['train.loss_digest']:>14} "
                  f"{news[-1].get('train.loss_digest', '-'):>14} "
                  f"{'':>9} {'exact':>6}  {'same' if same else 'CHANGED'}")
            bad += not same
        rate = base["_failed"] / max(base["_attempted"], 1)
        for n in news:
            new_rate = n["_failed"] / max(n["_attempted"], 1)
            if new_rate > rate:
                print(f"{workload:<14} failed/attempted rose: "
                      f"{base['_failed']}/{base['_attempted']} -> "
                      f"{n['_failed']}/{n['_attempted']}")
                bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2:
        print(__doc__)
        return 2
    return compare(paths)


if __name__ == "__main__":
    sys.exit(main())
