"""The analyzers read what the pipeline holds and report what they did.

The cold compile's analyzers take facts the pipeline already derived
instead of walking for them again: the IR linter proves acyclicity from
the order the graph's facts record holds, autodiff tags BACKWARD with a
walk that stops at the forward graph, LT103 / MP402 run one vectorized
sweep, and the equivalence certifier compares alias partitions through
one two-way root map and reads the graph side's value numbers. Each is
checked against the code it replaced (the oracles in ``tests/helpers.py``)
and, over a seeded-defect corpus, against the findings recorded from the
analyzers before the change (``tests/data/defect_findings.json``).
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.overlap as overlap
import repro.ops as O
from repro.analysis.equiv import _check_roots
from repro.analysis.ir_lint import lint_graph
from repro.analysis.lifetime import _check_sharing
from repro.analysis.overlap import overlapping_pairs
from repro.analysis.packing import _check_placements
from repro.analysis.witness import InplaceWitness
from repro.experiments import TINY
from repro.graph import GraphFacts, Stage, topo_order
from repro.models import WordLmConfig, build_nmt, build_word_lm
from repro.nn import Backend
from tests import defect_corpus
from tests.helpers import (
    reference_backward_uids,
    reference_check_placements,
    reference_check_roots,
    reference_lint_graph,
    reference_lt103,
)

# -- one vectorized sweep for LT103 and MP402 --------------------------------

#: small coordinates, so equal starts, empty and touching ranges are common
_coord = st.integers(0, 12)


@st.composite
def intervals(draw):
    """``(lo, hi, byte_lo, byte_hi)`` rows: possibly empty live ranges
    (hi < lo), zero-length and touching byte ranges, repeated starts."""
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        lo = draw(_coord)
        hi = lo + draw(st.integers(-1, 6))
        blo = draw(_coord)
        rows.append((lo, hi, blo, blo + draw(st.integers(0, 5))))
    return rows


class TestOverlapSweep:
    @settings(max_examples=300, deadline=None)
    @given(intervals())
    def test_pairs_equal_the_nested_loops(self, rows):
        rows.sort()
        want = []
        for i, (lo_a, hi_a, blo_a, bhi_a) in enumerate(rows):
            for j in range(i + 1, len(rows)):
                lo_b, _hi_b, blo_b, bhi_b = rows[j]
                if lo_b > hi_a:
                    break
                if blo_a < bhi_b and blo_b < bhi_a:
                    want.append((i, j))
        cols = list(zip(*rows)) or [(), (), (), ()]
        assert overlapping_pairs(*cols) == want

    @settings(max_examples=60, deadline=None)
    @given(intervals())
    def test_pairs_equal_across_chunks(self, rows):
        rows.sort()
        cols = list(zip(*rows)) or [(), (), (), ()]
        whole = overlapping_pairs(*cols)
        saved = overlap._CHUNK_PAIRS
        try:
            for chunk in (1, 2, 5):
                overlap._CHUNK_PAIRS = chunk
                assert overlapping_pairs(*cols) == whole, chunk
        finally:
            overlap._CHUNK_PAIRS = saved

    @settings(max_examples=200, deadline=None)
    @given(st.lists(intervals(), min_size=1, max_size=3))
    def test_lt103_equals_oracle(self, buffers):
        def labelled():
            return {
                base: [(*row, f"slot group {base * 100 + i}")
                       for i, row in enumerate(rows)]
                for base, rows in enumerate(buffers)
            }

        assert _check_sharing(labelled()) == reference_lt103(labelled())

    @settings(max_examples=200, deadline=None)
    @given(intervals(), st.integers(0, 20))
    def test_mp402_equals_oracle(self, rows, extent):
        record = SimpleNamespace(
            extent_bytes=extent,
            placements={
                (i, 0): (lo, hi, blo, bhi - blo)
                for i, (lo, hi, blo, bhi) in enumerate(rows)
            },
        )
        assert _check_placements(None, record) == (
            reference_check_placements(record)
        )


# -- IR lint: acyclic by the held order --------------------------------------


def _cyclic():
    x = O.placeholder((4, 4), name="cyc_x")
    a = O.add(x, x)
    b = O.mul(a, a)
    c = O.tanh(b)
    return x, a, b, c


class TestLintByHeldOrder:
    def test_ir001_text_unchanged_without_facts(self):
        x, a, b, c = _cyclic()
        a.node.inputs = (c, x)
        got = lint_graph([c])
        assert [f.code for f in got] == ["IR001"]
        assert got == reference_lint_graph([c])

    def test_ir001_text_unchanged_with_stale_facts(self):
        x, a, b, c = _cyclic()
        facts = GraphFacts([c])  # taken while the graph was acyclic
        a.node.inputs = (c, x)
        got = lint_graph([c], facts=facts)
        assert [f.code for f in got] == ["IR001"]
        assert got == reference_lint_graph([c], facts=facts)

    def test_ir001_text_unchanged_with_facts_of_the_cycle(self):
        x, a, b, c = _cyclic()
        a.node.inputs = (c, x)
        facts = GraphFacts([c])
        got = lint_graph([c], facts=facts)
        assert [f.code for f in got] == ["IR001"]
        assert got == reference_lint_graph([c], facts=facts)

    def test_stale_facts_of_an_acyclic_state_lint_as_before(self):
        # Re-pointed to a node the record never walked: the held order
        # cannot prove the graph acyclic, the search finds no cycle and
        # the record's per-node checks run as they did before.
        x, a, b, c = _cyclic()
        facts = GraphFacts([c])
        fresh = O.sigmoid(x)
        b.node.inputs = (fresh, fresh)
        got = lint_graph([c], facts=facts)
        assert got == reference_lint_graph([c], facts=facts)

    def test_clean_models_lint_as_before(self):
        graph = build_nmt(TINY.with_backend(Backend.CUDNN)).graph
        sources = [*graph.placeholders.values(), *graph.params.values()]
        facts = GraphFacts(graph.outputs)
        assert lint_graph(graph.outputs, sources, facts) == (
            reference_lint_graph(graph.outputs, sources, facts)
        ) == []


# -- autodiff: BACKWARD by a walk that stops at the forward graph -----------


_WORDLM = WordLmConfig(
    vocab_size=50, embed_size=8, hidden_size=8, num_layers=2, seq_len=4,
    batch_size=2,
)


@pytest.mark.parametrize("model", ["nmt", "lstm", "gru", "lstm_peephole"])
def test_every_stage_matches_the_full_walk(model):
    if model == "nmt":
        graph = build_nmt(TINY.with_backend(Backend.CUDNN)).graph
    else:
        graph = build_word_lm(replace(_WORDLM, cell=model)).graph
    backward = reference_backward_uids(graph.loss, graph.grads.values())
    nodes = topo_order(graph.outputs)
    assert backward
    for node in nodes:
        want = Stage.BACKWARD if node.uid in backward else Stage.FORWARD
        assert node.stage is want, node


# -- equiv: one two-way root map --------------------------------------------


@st.composite
def root_tables(draw):
    """A stream of view / alias / out descriptors and in-place
    witnesses over ``n`` slots, and a random root table."""
    n = draw(st.integers(1, 24))
    slot = st.integers(0, n - 1)
    descs = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["view", "alias", "out"]))
        ins = tuple(draw(st.lists(slot, max_size=2)))
        outs = tuple(draw(st.lists(slot, min_size=1, max_size=3)))
        descs.append({"kind": kind, "in_slots": ins, "out_slots": outs})
    inplace = tuple(
        InplaceWitness(instr=0, out=draw(st.integers(-1, n)),
                       target=draw(st.integers(-1, n)), root=0, members=())
        for _ in range(draw(st.integers(0, 3)))
    )
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return SimpleNamespace(root=labels, descs=descs), SimpleNamespace(
        inplace=inplace
    )


class TestRootMap:
    @settings(max_examples=300, deadline=None)
    @given(root_tables())
    def test_random_partitions_equal_oracle(self, drawn):
        low, witnesses = drawn
        assert _check_roots(low, witnesses) == (
            reference_check_roots(low, witnesses)
        )

    @settings(max_examples=100, deadline=None)
    @given(root_tables())
    def test_explained_partition_is_clean(self, drawn):
        low, witnesses = drawn
        # The root table the descriptors and witnesses explain, labelled
        # by each group's smallest slot.
        low.root = list(range(len(low.root)))
        groups = {}
        for s in range(len(low.root)):
            groups.setdefault(_group_of(low, witnesses, s), []).append(s)
        for members in groups.values():
            for s in members:
                low.root[s] = members[0]
        assert _check_roots(low, witnesses) == []
        assert reference_check_roots(low, witnesses) == []


def _group_of(low, witnesses, slot):
    """The smallest slot connected to ``slot`` by the merges ``low``'s
    descriptors and ``witnesses`` explain (a plain flood fill)."""
    n = len(low.root)
    edges = {s: set() for s in range(n)}

    def link(a, b):
        edges[a].add(b)
        edges[b].add(a)

    for d in low.descs:
        if d["kind"] in ("view", "alias") and d["in_slots"]:
            for o in d["out_slots"]:
                link(d["in_slots"][0], o)
    for w in witnesses.inplace:
        if 0 <= w.out < n and 0 <= w.target < n:
            link(w.out, w.target)
    seen, stack = {slot}, [slot]
    while stack:
        for t in edges[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return min(seen)


# -- the seeded-defect corpus reports as before ------------------------------


def test_seeded_defects_report_as_recorded():
    golden = json.loads(defect_corpus.GOLDEN.read_text())
    got = json.loads(json.dumps(defect_corpus.describe()))
    assert sorted(got) == sorted(golden)
    moved = sorted(name for name in golden if got[name] != golden[name])
    assert not moved, {name: got[name] for name in moved}
    assert {f["code"][:2] for fs in golden.values() for f in fs} == {
        "IR", "LT", "MP", "EQ",
    }
