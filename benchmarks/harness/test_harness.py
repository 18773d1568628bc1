"""Self-tests of the harness: ``pytest benchmarks/harness -q``.

Not part of the tier-1 ``testpaths``: the smoke tests run every workload
three times with ``--quick`` (two untraced, one traced), a few minutes in
all on the 2-core host.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from benchmarks.harness import compare, spec, stats
from benchmarks.harness.spans import Recorder

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: str, out: Path, *extra: str):
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "11",
         "--seconds", "2", "--trace", trace, "--quick", "--out", str(out),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=spec.ALL)
def smoke(request, tmp_path_factory):
    """Two untraced quick runs and one traced quick run of one workload."""
    tmp = tmp_path_factory.mktemp(request.param)
    trace_file = tmp / "trace.json"
    return {
        "workload": request.param,
        "a": _run(request.param, "0", tmp / "a.json"),
        "b": _run(request.param, "0", tmp / "b.json"),
        "t": _run(request.param, "1", tmp / "t.json",
                  "--trace-out", str(trace_file)),
        "files": (tmp / "a.json", tmp / "b.json", tmp / "t.json"),
        "trace_file": trace_file,
    }


# -- BENCHMARK.json against the contract and against spec.py ----------------


def test_benchmark_json_matches_spec():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/harness"]
    assert BENCHMARK["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == list(
        spec.WORKLOADS.items()
    )
    assert BENCHMARK["end_to_end"] == spec.driver_end_to_end()
    assert BENCHMARK["per_layer"] == spec.driver_per_layer()


def test_benchmark_json_within_contract_limits():
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for row in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    for row in BENCHMARK["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    setup = [r for r in BENCHMARK["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(r["bound"] for r in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_headline_metric_is_listed_once():
    listed = [r["name"] for r in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    for name, *_ in spec.HEADLINE:
        assert listed.count(name) == 1


# -- smoke: every workload, quick ---------------------------------------------


def test_untraced_run_reports_the_end_to_end_set(smoke):
    line = smoke["a"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    want = {r["name"]: r["unit"] for r in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_reports_the_per_layer_set(smoke):
    line = smoke["t"]
    assert line["correct"] is True and line["failed"] == 0
    want = {r["name"]: r["unit"] for r in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    values = {k: v["value"] for k, v in line["metrics"].items()}
    own = {"nmt_serve": "serve.", "wordlm_dist2": "dist."}
    for prefix in own.values():
        mine = own.get(smoke["workload"]) == prefix
        touched = any(v for k, v in values.items() if k.startswith(prefix))
        assert touched == mine, (prefix, smoke["workload"])


def test_exact_metrics_repeat(smoke):
    a, b, _ = (json.loads(p.read_text())["workloads"][smoke["workload"]]
               for p in smoke["files"])
    seen = [name for name in spec.EXACT if name in a["untraced"]]
    assert len(seen) >= 5
    for name in seen:
        assert a["untraced"][name] == b["untraced"][name], name


def test_traced_run_keeps_the_loss_digest(smoke):
    a, _, t = (json.loads(p.read_text())["workloads"][smoke["workload"]]
               for p in smoke["files"])
    if "train.loss_digest" in a["untraced"]:
        assert a["untraced"]["train.loss_digest"] == \
            t["traced"]["train.loss_digest"]


def test_trace_is_strictly_nested_per_thread(smoke):
    payload = json.loads(smoke["trace_file"].read_text())
    spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert spans, "traced run recorded no spans"
    lanes: dict = {}
    for e in spans:
        lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    eps = 1e-3  # microseconds
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        open_ends: list[float] = []
        for e in lane:
            while open_ends and e["ts"] >= open_ends[-1] - eps:
                open_ends.pop()
            end = e["ts"] + e["dur"]
            if open_ends:
                assert end <= open_ends[-1] + eps, f"{e['name']} overlaps"
            open_ends.append(end)
    by_id = {(e["pid"], e["args"]["id"]): e for e in spans}
    children: dict = {}
    for e in spans:
        parent = e["args"]["parent"]
        if parent is not None:
            key = (e["pid"], parent)
            children[key] = children.get(key, 0.0) + e["dur"]
    for key, e in by_id.items():
        assert e["dur"] - children.get(key, 0.0) >= -eps, e["name"]


# -- the parts that need no workload -----------------------------------------


def test_percentile_is_nearest_rank():
    data = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.p10(data) == 1.0           # the minimum when K < 10
    assert stats.median(data) == 3.0
    assert stats.percentile(list(range(1, 101)), 10) == 10
    assert stats.percentile(list(range(1, 101)), 99) == 99


def test_counters_are_exact():
    def work():
        return sum(len(str(i)) for i in range(50))

    assert stats.count_calls(work) == stats.count_calls(work) > 100
    assert stats.count_bytecodes(work, (__file__,)) == \
        stats.count_bytecodes(work, (__file__,)) > 100
    assert stats.count_bytecodes(work, ("/nowhere/",)) == 0


def test_self_time_is_span_minus_children():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    own = rec.self_seconds()
    assert own["outer"] >= 0 and own["inner"] >= 0
    total = rec.total_seconds("outer")
    assert abs(own["outer"] + own["inner"] - total) < 1e-9


def test_compare_verdicts(tmp_path):
    def report(iter_ms: float, failed: int = 0) -> dict:
        return {"workloads": {"wordlm_train": {
            "attempted": 10, "failed": failed,
            "untraced": {"iter_ms": iter_ms, "peak_bytes": 100,
                         "train.loss_digest": 7}}}}

    paths = []
    for i, rep in enumerate([report(20.0), report(20.5), report(30.0),
                             report(20.0, failed=1)]):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(rep))
        paths.append(str(path))
    assert compare.compare(paths[:2]) == 0          # within the bound
    assert compare.compare([paths[0], paths[2]]) == 1   # 50% slower
    assert compare.compare([paths[2], paths[0]]) == 0   # faster is fine
    assert compare.compare([paths[0], paths[3]]) == 1   # failures rose
    assert compare._verdict(20.0, [19.0, 23.0, 21.0], "lower", 0.08)[0] == \
        "unresolved"


def test_exits_nonzero_without_the_repository(tmp_path):
    """In a directory holding only BENCHMARK.json and the harness there is
    no program to measure: the command must fail, without a result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "harness",
                    tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "wordlm_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
