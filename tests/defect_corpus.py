"""Seeded-defect corpus: what every analyzer family reports on known defects.

Each entry builds a fresh plan or graph, plants one defect (the IR0xx,
LT1xx, MP4xx and EQ6xx fixtures of ``test_analysis``,
``test_memplan`` and ``test_equiv``, plus four planted in an
Echo-rewritten TINY NMT plan) and returns the findings of the analyzer
that owns it. :func:`describe` runs them all under a restarted node
counter, so node names and uids in the messages are the same in every
process, and ``tests/data/defect_findings.json`` pins the codes,
instructions, slots and messages; an analyzer rewrite must reproduce
them exactly. Regenerate (only when a change is *meant* to move a
finding) with ``PYTHONPATH=src python -m tests.defect_corpus``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib

import numpy as np

import repro.graph.node as node_mod
import repro.ops as O
from repro.analysis import (
    InplaceWitness,
    check_equivalence,
    check_lifetimes,
    check_packing,
    lint_graph,
)
from repro.echo import EchoConfig, EchoPass
from repro.experiments import TINY
from repro.gpumodel import DeviceModel
from repro.graph import GraphFacts, Stage, Tensor, TensorSpec
from repro.memplan.elision import inplace_positions
from repro.models import build_nmt
from repro.nn import Backend
from repro.runtime import Arena, CompiledPlan, PlanCache, schedule
from tests.test_analysis import _diamond_plan
from tests.test_equiv import (
    _aliased_plan,
    _clone_node,
    _mirrored_plan,
    _mlp_plan,
)
from tests.test_memplan import _color_plan

GOLDEN = pathlib.Path(__file__).parent / "data" / "defect_findings.json"

#: first uid of every entry (far above any uid a test run reaches)
UID_BASE = 10**12

DEFECTS = {}


def defect(fn):
    DEFECTS[fn.__name__] = fn
    return fn


# -- IR0xx ---------------------------------------------------------------------


@defect
def ir001_cycle():
    x = O.placeholder((4, 4), name="cx")
    a = O.add(x, x)
    b = O.mul(a, a)
    a.node.inputs = (b, x)
    return lint_graph([b])


@defect
def ir001_cycle_stale_facts():
    x = O.placeholder((4, 4), name="cx")
    a = O.add(x, x)
    b = O.mul(a, a)
    facts = GraphFacts([b])
    a.node.inputs = (b, x)
    return lint_graph([b], facts=facts)


@defect
def ir002_dangling_output_index():
    x = O.placeholder((4, 4), name="dx")
    a = O.add(x, x)
    a.node.inputs = (x, Tensor(x.node, 3))
    return lint_graph([a])


@defect
def ir003_shape():
    x = O.placeholder((4, 4), name="sx")
    a = O.add(x, x)
    a.node.out_specs = (TensorSpec((4, 5)),)
    return lint_graph([a])


@defect
def ir004_dtype():
    x = O.placeholder((4, 4), name="sx")
    a = O.add(x, x)
    a.node.out_specs = (TensorSpec((4, 4), np.float64),)
    return lint_graph([a])


@defect
def ir005_forward_consumes_backward():
    x = O.placeholder((4, 4), name="fx")
    g = O.add(x, x)
    g.node.stage = Stage.BACKWARD
    return lint_graph([O.mul(g, x)])


@defect
def ir006_ir007_sources():
    x = O.placeholder((4, 4), name="dup_name")
    y = O.placeholder((4, 4), name="dup_name")
    unused = O.placeholder((4, 4), name="u_dead")
    return lint_graph([O.add(x, y)], sources=[x, y, unused])


# -- LT1xx ---------------------------------------------------------------------


@defect
def lt101_undefined_read():
    plan, _, _ = _diamond_plan()
    desc = plan.lowering.descs[-1]
    desc["in_slots"] = tuple(desc["in_slots"]) + (999,)
    return check_lifetimes(plan)


@defect
def lt102_premature_free():
    plan, _, _ = _diamond_plan()
    low = plan.lowering
    entry = low.frees_at.pop(max(low.frees_at))
    low.frees_at.setdefault(0, []).extend(entry)
    return check_lifetimes(plan)


@defect
def lt103_shared_buffer():
    plan, _, _ = _diamond_plan()
    low = plan.lowering
    r_a, r_b = sorted(low.static_views)[:2]
    low.static_views[r_b] = low.static_views[r_a]
    return check_lifetimes(plan)


@defect
def lt104_static_output():
    plan, _, _ = _diamond_plan()
    low = plan.lowering
    out_slot = next(iter(low.output_slots))
    low.static_views[low.root[out_slot]] = next(
        iter(low.static_views.values())
    )
    return check_lifetimes(plan)


@defect
def lt105_dropped_free():
    plan, _, _ = _diamond_plan()
    low = plan.lowering
    idx, entry = next(iter(low.frees_at.items()))
    low.frees_at[idx] = entry[1:]
    return check_lifetimes(plan)


# -- MP4xx ---------------------------------------------------------------------


@defect
def mp401_broken_alias_root():
    plan = _color_plan()
    low = plan.lowering
    out = low.memplan.elided[0]["out_slots"][0]
    low.root[out] = out
    return check_packing(plan)


@defect
def mp402_missing_record():
    plan = _color_plan()
    plan.lowering.memplan = None
    return check_packing(plan)


@defect
def mp402_overlap_and_extent():
    plan = _color_plan()
    record = plan.lowering.memplan
    keys = sorted(record.placements, key=str)
    lo, hi, off, nbytes = record.placements[keys[0]]
    record.placements[keys[1]] = (lo, hi, off, max(nbytes, 1))
    lo, hi, _off, nbytes = record.placements[keys[-1]]
    record.placements[keys[-1]] = (
        lo, hi, record.extent_bytes, max(nbytes, 1)
    )
    return check_packing(plan)


@defect
def mp403_inplace_records():
    plan = _color_plan()
    low = plan.lowering
    record = low.memplan
    bad_target = dict(record.inplace[0], target=10**6)
    escaping = dict(record.inplace[0])
    escaping["members"] = list(escaping["members"]) + [
        next(iter(low.output_slots))
    ]
    out_of_range = dict(record.inplace[0], instr=len(low.descs) + 7)
    record.inplace.extend([bad_target, escaping, out_of_range])
    return check_packing(plan)


# -- EQ6xx ---------------------------------------------------------------------


@defect
def eq601_flipped_attr():
    plan, _order, _outs = _mlp_plan(fuse=False)
    low = plan.lowering
    idx = next(
        i for i, d in enumerate(low.descs)
        if d["kind"] == "out" and d["node"].op.name == "tanh"
    )
    low.descs[idx]["node"] = _clone_node(low.descs[idx]["node"], flipped=1)
    return check_equivalence(plan)


@defect
def eq602_recompute_without_mirror():
    plan, _fwd, mirror = _mirrored_plan()
    mirror.mirror_of = None
    return check_equivalence(plan)


@defect
def eq602_deleted_alias_witness():
    plan = _aliased_plan()
    wit = plan.lowering.witnesses
    del wit.aliases[next(iter(wit.aliases))]
    return check_equivalence(plan)


@defect
def eq602_unexplained_root_merge():
    plan, _order, _outs = _mlp_plan(fuse=False)
    low = plan.lowering
    a, b = sorted(
        s for s in range(len(low.root)) if low.root.count(s) == 1
    )[-2:]
    low.root[b] = a
    return check_equivalence(plan)


@defect
def eq603_corrupted_fusion_witness():
    plan, _order, _outs = _mlp_plan(fuse=True)
    fusions = plan.lowering.witnesses.fusions
    idx, w = next(iter(fusions.items()))
    fusions[idx] = dataclasses.replace(
        w, members=w.members[:-1] + (w.members[-1] + 10_000,)
    )
    return check_equivalence(plan)


@defect
def eq604_inplace_over_live_target():
    plan, _order, _outs = _mlp_plan(fuse=False)
    low = plan.lowering
    rewritten = {w.instr for w in low.witnesses.inplace}
    for idx, desc in enumerate(low.descs):
        if (
            desc["kind"] != "out" or len(desc["out_slots"]) != 1
            or idx in rewritten
        ):
            continue
        for slot, occurrences in inplace_positions(desc):
            if occurrences != 1 or slot in low.source_slots:
                continue
            if any(slot in d["in_slots"] for d in low.descs[idx + 1:]):
                out = desc["out_slots"][0]
                low.witnesses.inplace = (
                    *low.witnesses.inplace,
                    InplaceWitness(instr=idx, out=out, target=slot,
                                   root=low.root[slot], members=(slot,)),
                )
                ro, rt = low.root[out], low.root[slot]
                low.root[:] = [rt if r == ro else r for r in low.root]
                return check_equivalence(plan)
    raise AssertionError("fixture needs a live in-place target")


@defect
def eq605_misranged_alias_view():
    plan = _aliased_plan()
    low = plan.lowering
    idx = next(
        i for i, d in enumerate(low.descs)
        if d["kind"] == "alias" and d["node"].op.name == "slice_axis"
    )
    low.descs[idx]["alias_index"] = [(slice(0, 2),)]
    return check_equivalence(plan)


@defect
def eq606_unstable_rng_reordered():
    x = O.placeholder((8, 8), name="rx2")
    d1 = O.dropout(x, 0.5, seed=O.stable_seed("eq606", 0))
    d2 = O.dropout(O.tanh(d1), 0.5, seed=O.stable_seed("eq606", 1))
    outputs = [O.reduce_mean(d2)]
    plan = CompiledPlan(schedule(outputs), outputs, Arena(), fuse=False)
    low = plan.lowering
    d1.node.attrs["seed"] = None
    d2.node.attrs["seed"] = None
    i1 = next(i for i, d in enumerate(low.descs) if d["node"] is d1.node)
    i2 = next(i for i, d in enumerate(low.descs) if d["node"] is d2.node)
    low.descs[i1], low.descs[i2] = low.descs[i2], low.descs[i1]
    return check_equivalence(plan)


@defect
def eq606_mirrored_unstable_rng():
    plan, fwd, mirror = _mirrored_plan()
    fwd.attrs["seed"] = None
    mirror.attrs["seed"] = None
    return check_equivalence(plan)


@defect
def eq607_perturbed_mirror():
    plan, _fwd, mirror = _mirrored_plan()
    mirror.attrs["p"] = 0.75
    return check_equivalence(plan)


# -- defects planted in an Echo-rewritten TINY NMT plan -------------------------


def _tiny_echo_plan():
    graph = build_nmt(TINY.with_backend(Backend.CUDNN)).graph
    cache = PlanCache(store=None)
    EchoPass(EchoConfig(), DeviceModel(), plan_cache=cache).run(graph)
    outputs = graph.outputs
    return CompiledPlan(schedule(outputs), outputs, Arena())


@defect
def tiny_eq601_fused_member_and_mirror():
    plan = _tiny_echo_plan()
    low = plan.lowering
    fused = next(i for i, d in enumerate(low.descs) if d["kind"] == "fused")
    chain = low.descs[fused]["chain"]
    op, member, pattern = chain[0]
    chain[0] = (op, _clone_node(member, flipped=1), pattern)
    mirrored = next(
        i for i, d in enumerate(low.descs)
        if d["kind"] == "out" and d["node"].mirror_of is not None
    )
    low.descs[mirrored]["node"] = _clone_node(
        low.descs[mirrored]["node"], flipped=2
    )
    return check_equivalence(plan)


@defect
def tiny_eq601_rewired_fused_operand():
    plan = _tiny_echo_plan()
    low = plan.lowering
    source = min(low.source_slots)
    for d in low.descs:
        if d["kind"] != "fused":
            continue
        for k, (op, member, pattern) in enumerate(d["chain"][1:], 1):
            if any(s >= 0 for s in pattern):
                d["chain"][k] = (op, member, tuple(
                    source if s >= 0 else s for s in pattern
                ))
                return check_equivalence(plan)
    raise AssertionError("fixture needs a fused follower with an operand")


@defect
def tiny_lt103_shared_buffer():
    plan = _tiny_echo_plan()
    low = plan.lowering
    roots = sorted(low.static_views)
    low.static_views[roots[len(roots) // 2]] = low.static_views[roots[0]]
    return check_lifetimes(plan)


@defect
def tiny_mp402_overlap():
    plan = _tiny_echo_plan()
    record = plan.lowering.memplan
    keys = sorted(record.placements, key=str)
    lo, hi, off, nbytes = record.placements[keys[len(keys) // 2]]
    record.placements[keys[len(keys) // 3]] = (lo, hi, off, nbytes)
    return check_packing(plan)


def describe() -> dict[str, list[dict]]:
    """Every entry's findings, as dicts, each built from uid
    :data:`UID_BASE` up."""
    out = {}
    saved = node_mod._NODE_COUNTER
    try:
        for name, build in DEFECTS.items():
            node_mod._NODE_COUNTER = itertools.count(UID_BASE)
            out[name] = [f.to_dict() for f in build()]
    finally:
        node_mod._NODE_COUNTER = saved
    return out


if __name__ == "__main__":
    recorded = describe()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {sum(map(len, recorded.values()))} findings "
          f"over {len(recorded)} defects")
