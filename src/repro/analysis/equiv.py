"""Translation validation: symbolic equivalence certification (EQ6xx).

Every other analyzer in this package verifies a *safety* property (races,
lifetimes, packing); this one verifies *functional equivalence* — that
the lowered instruction stream denotes exactly the function the source
graph denotes, per compiled plan, in the translation-validation tradition
(Pnueli et al.; Necula 2000): certify each compilation instead of
verifying the compiler once.

Both sides are hash-consed into one canonical symbolic expression DAG
(:class:`SymbolicTable`), under normalization rules that erase exactly
the rewrites the pipeline is allowed to make:

* **identity aliases** (full-range ``slice_axis``, single-input
  ``concat``, same-shape ``broadcast_to``/``reshape``) forward to their
  input's value;
* **commutative operands** of two-input ``add``/``mul`` are ordered by
  content digest (IEEE-exact: ``a+b`` and ``b+a`` are bitwise equal);
* **recompute mirrors** substitute their forward originals after a
  structural equality check (EQ607 on disagreement);
* **fused chains** expand member by member through the accumulator;
* **batched GEMMs** un-stack into per-member applications;
* **unstable RNG** nodes (a ``dropout`` whose seed is not a plain int is
  a function of the ambient RNG clock, not of its inputs) become opaque
  per-node leaves, so any duplication or reordering of them is visible.

The stream side then symbolically executes the lowered descriptors and
compares every produced register's canonical value against the graph's.
Findings:

* **EQ601** — a lowered instruction's value differs from the source
  graph's value for that register;
* **EQ602** — a rewrite with no justifying witness (fused/batched/alias
  instruction missing from the plan's :class:`~repro.analysis.witness.
  WitnessSet`, a RECOMPUTE node with no mirror, an alias-root merge no
  witness explains);
* **EQ603** — a witness failing shape/dtype/member/wiring checks
  (including a swapped batched-GEMM member);
* **EQ604** — an in-place redirect that changes an observable value
  (target group read after the overwrite, read at a non-in-place
  position, or pinned by a source/constant/output);
* **EQ605** — an alias view whose index disagrees with the witness or
  with an independent re-derivation from the node's attrs;
* **EQ606** — reordering across an RNG-clock boundary (unstable RNG
  mirrored, stream order inverting the schedule order of unstable RNG
  nodes, or two of them sharing one parallel wavefront level);
* **EQ607** — a recompute mirror structurally inequivalent to its
  original.

What is provable: value equality of every register up to the normalized
theory above (no associativity, no algebraic simplification — exactly
the identities the executor relies on for bitwise reproduction). What is
not: kernel implementations themselves (``kernel`` ≡ ``compute``
is the op contract, tested dynamically), and scheduling/liveness safety,
which the other five analyzer families own. DESIGN.md §12 documents the
witness format and these rules.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

import numpy as np

from repro.graph import Node, Stage, Tensor, dtype_name
from repro.memplan.elision import (
    alias_view_indices,
    describe_index,
    inplace_positions,
)
from repro.runtime.lowering import PlanLowering

from repro.analysis.findings import Finding, finding
from repro.analysis.witness import WitnessSet

__all__ = [
    "SymbolicTable",
    "check_equivalence",
    "certify_outputs",
    "fingerprint_outputs",
]

_ANALYZER = "equiv"
_SOURCE_OPS = ("placeholder", "variable")
#: two-operand ops where IEEE arithmetic is exactly commutative
_COMMUTATIVE_OPS = frozenset({"add", "mul"})
#: ops reading the ambient RNG clock (pure iff their seed is a plain int)
_RNG_OPS = frozenset({"dropout"})
#: attrs that never change numerics: cost-model steering ("layout", the
#: ``gemm_batch_key`` precedent) and rewrite provenance marks
_IGNORED_ATTRS = frozenset({"layout", "echo_manual_recompute"})


class SymbolicTable:
    """Hash-consed symbolic expressions with stable content digests.

    Expressions are interned structurally: two calls with equal
    ``(kind, payload, children)`` return the same value number, so
    equivalence checks are integer comparisons. Each value number also
    carries a sha256 content digest — a pure function of the expression's
    structure, stable across processes — used for canonical commutative
    ordering and for cross-process graph fingerprints.
    """

    def __init__(self) -> None:
        self._intern: dict[tuple[Any, ...], int] = {}
        self._digests: list[str] = []

    def expr(self, kind: str, payload: tuple[Any, ...],
             children: tuple[int, ...] = ()) -> int:
        key = (kind, payload, children)
        vn = self._intern.get(key)
        if vn is not None:
            return vn
        # One hash call over the concatenation: kind, payload, then the
        # children's digests, in that order.
        digests = self._digests
        blob = kind + repr(payload) + "".join([digests[c] for c in children])
        vn = len(digests)
        digests.append(hashlib.sha256(blob.encode("utf-8")).hexdigest())
        self._intern[key] = vn
        return vn

    def digest(self, vn: int) -> str:
        return self._digests[vn]

    def __len__(self) -> int:
        return len(self._digests)


def _array_digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode("utf-8"))
    h.update(repr(tuple(a.shape)).encode("utf-8"))
    h.update(a.tobytes())
    return h.hexdigest()


def _canon_attrs(node: Node) -> tuple[Any, ...]:
    """Numerics-relevant attrs, sorted, with arrays content-digested."""
    items: list[tuple[Any, ...]] = []
    for key in sorted(node.attrs):
        if key in _IGNORED_ATTRS:
            continue
        value = node.attrs[key]
        if isinstance(value, np.ndarray):
            items.append((key, "ndarray", _array_digest(value)))
        else:
            items.append((key, repr(value)))
    return tuple(items)


def _stable_rng(node: Node) -> bool:
    """Whether ``node`` is a pure function of its inputs and attrs.

    Counter-based dropout with a plain-int seed is (the mask is a fixed
    function of ``(seed, step)``); any other seed makes the node depend
    on the ambient RNG clock and thus on *when* it executes.
    """
    if node.op.name not in _RNG_OPS:
        return True
    return type(node.attrs.get("seed")) is int


def _identity_passthrough(node: Node) -> bool:
    """Ops whose single output is definitionally input 0's exact value."""
    if not node.inputs or len(node.out_specs) != 1:
        return False
    in_spec = node.inputs[0].spec
    out_spec = node.out_specs[0]
    op = node.op.name
    if op == "concat":
        return len(node.inputs) == 1
    if op in ("slice_axis", "broadcast_to", "reshape"):
        # Same shape+dtype means the op is the identity: a slice of its
        # input's full extent, a no-op broadcast, a no-op reshape.
        return (
            out_spec.shape == in_spec.shape and out_spec.dtype == in_spec.dtype
        )
    return False


class _ExprBuilder:
    """Canonicalize graph values into a :class:`SymbolicTable`.

    Collects EQ602/EQ606/EQ607 findings discovered during graph-side
    canonicalization; ``flagged`` holds the uids of nodes already
    explained by such a finding, so the stream comparison can suppress
    cascading EQ601 noise for them.
    """

    def __init__(self, table: SymbolicTable) -> None:
        self.table = table
        self.findings: list[Finding] = []
        self.flagged: set[int] = set()
        self._memo: dict[tuple[int, int], int] = {}
        #: canonical attrs per node object (a node is applied once on the
        #: graph side and once per instruction executing it)
        self._attrs: dict[Node, tuple[Any, ...]] = {}

    # -- graph side ----------------------------------------------------------

    def graph_expr(self, node: Node, index: int = 0) -> int:
        """Canonical value number of output ``index`` of ``node``."""
        key = (node.uid, index)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Iterative post-order: graphs routinely exceed the recursion
        # limit (an unrolled LSTM backward pass is thousands of nodes deep).
        stack: list[tuple[Node, bool]] = [(node, False)]
        while stack:
            n, ready = stack.pop()
            if (n.uid, 0) in self._memo:
                continue
            if ready:
                self._eval_node(n)
                continue
            stack.append((n, True))
            for t in n.inputs:
                if (t.node.uid, 0) not in self._memo:
                    stack.append((t.node, False))
            original = n.mirror_of
            if original is not None and (original.uid, 0) not in self._memo:
                stack.append((original, False))
        return self._memo[key]

    def _eval_node(self, n: Node) -> None:
        op = n.op.name
        if op in _SOURCE_OPS:
            for i, spec in enumerate(n.out_specs):
                self._memo[(n.uid, i)] = self.table.expr(
                    "source", (n.name, spec.shape, dtype_name(spec.dtype), i)
                )
            return
        if op == "constant":
            spec = n.out_specs[0]
            self._memo[(n.uid, 0)] = self.table.expr(
                "const",
                (_array_digest(np.asarray(n.attrs["value"])),
                 spec.shape, dtype_name(spec.dtype)),
            )
            return
        memo = self._memo
        children = tuple([
            memo[t.key] if t.key in memo else self._opaque(t)
            for t in n.inputs
        ])
        original = n.mirror_of
        if original is not None:
            self._eval_mirror(n, original, children)
            return
        if n.stage is Stage.RECOMPUTE:
            self._flag(
                finding(
                    "EQ602",
                    f"recompute node {n.name!r} carries no mirror witness "
                    "(mirror_of is unset); its value cannot be certified "
                    "against a forward original",
                    _ANALYZER,
                    node=n.name,
                ),
                n.uid,
            )
        for i in range(len(n.out_specs)):
            self._memo[(n.uid, i)] = self.apply(n, children, i)

    def _eval_mirror(
        self, n: Node, original: Node, children: tuple[int, ...]
    ) -> None:
        """Check mirror ≡ original structurally, then substitute."""
        if not _stable_rng(n):
            # A clock-dependent RNG node mirrored into the backward pass
            # draws a *different* mask than its original: duplicating it
            # crosses the RNG-clock boundary no matter where it runs.
            self._flag(
                finding(
                    "EQ606",
                    f"recompute mirror {n.name!r} duplicates unstable RNG "
                    f"node {original.name!r}; replaying it advances the "
                    "RNG clock and changes the mask",
                    _ANALYZER,
                    node=n.name,
                ),
                n.uid,
            )
        else:
            mine = tuple(
                self.apply(n, children, i) for i in range(len(n.out_specs))
            )
            orig = tuple(
                self._memo.get((original.uid, i))
                for i in range(len(original.out_specs))
            )
            if mine != orig or n.out_specs != original.out_specs:
                self._flag(
                    finding(
                        "EQ607",
                        f"recompute mirror {n.name!r} is not equivalent to "
                        f"its original {original.name!r}: canonical values "
                        "disagree after normalization",
                        _ANALYZER,
                        node=n.name,
                    ),
                    n.uid,
                )
        # Substitute by the original regardless: downstream consumers are
        # then compared against the source program, and a broken mirror
        # surfaces exactly once (above) instead of cascading.
        memo = self._memo
        for i in range(len(n.out_specs)):
            key = (original.uid, i)
            memo[(n.uid, i)] = (
                memo[key] if key in memo else self._opaque(Tensor(n, i))
            )

    def _flag(self, f: Finding, uid: int) -> None:
        if uid not in self.flagged:
            self.findings.append(f)
            self.flagged.add(uid)

    def _opaque(self, t: Tensor) -> int:
        """Fallback leaf for an unresolvable reference (cyclic/corrupt);
        built only on a memo miss, so a clean graph interns none."""
        return self.table.expr("unresolved", (t.node.uid, t.index))

    # -- shared application (graph and stream sides) -------------------------

    def apply(self, n: Node, children: tuple[int, ...], index: int) -> int:
        """Canonical value of applying ``n``'s op to symbolic operands."""
        if not _stable_rng(n):
            # Clock-dependent: opaque leaf keyed by the node's identity
            # (the forward original's, for a mirror — though mirroring an
            # unstable node is itself an EQ606).
            base = n.mirror_of if n.mirror_of is not None else n
            return self.table.expr("rng", (base.uid, index))
        if index == 0 and children and _identity_passthrough(n):
            return children[0]
        if n.op.name in _COMMUTATIVE_OPS and len(children) == 2:
            a, b = children
            if self.table.digest(b) < self.table.digest(a):
                children = (b, a)
        attrs = self._attrs.get(n)
        if attrs is None:
            attrs = self._attrs[n] = _canon_attrs(n)
        spec = n.out_specs[index]
        return self.table.expr(
            "app",
            (n.op.name, attrs, spec.shape, dtype_name(spec.dtype), index),
            children,
        )


def _lowering_of(plan: Any) -> PlanLowering:
    low = getattr(plan, "lowering", plan)
    if not isinstance(low, PlanLowering):
        raise TypeError(
            f"expected a CompiledPlan or PlanLowering, got {type(plan)!r}"
        )
    return low


def _rng_members(desc: dict[str, Any]) -> list[Node]:
    """Unstable RNG nodes an instruction executes (incl. fused members)."""
    if desc["kind"] == "fused":
        nodes = [member for _op, member, _p in desc["chain"]]
    elif desc["kind"] == "batched":
        nodes = list(desc["nodes"])
    else:
        nodes = [desc["node"]]
    return [n for n in nodes if n.op.name in _RNG_OPS and not _stable_rng(n)]


def check_equivalence(
    plan: Any,
    outputs: Sequence[Tensor] | None = None,
    order: Sequence[Node] | None = None,
) -> list[Finding]:
    """Certify that a compiled plan denotes its source graph's function.

    Accepts a :class:`~repro.runtime.compiled.CompiledPlan` or a bare
    :class:`~repro.runtime.lowering.PlanLowering` (then ``order`` — the
    node schedule the plan was lowered from — is required). Returns EQ6xx
    findings; an empty list is the certificate.
    """
    low = _lowering_of(plan)
    if order is None:
        order = getattr(plan, "order", None)
    if order is None:
        raise TypeError("check_equivalence needs the plan's node order")
    order = list(order)

    table = SymbolicTable()
    builder = _ExprBuilder(table)
    witnesses = low.witnesses if low.witnesses is not None else WitnessSet()
    findings: list[Finding] = []

    # The graph's defining (node, output index) for every register slot —
    # the source-of-truth side of each per-instruction comparison. Taken
    # from ``slot_of`` (graph identities), never from the descriptors,
    # so a corrupted descriptor cannot corrupt its own expectation.
    by_uid = {n.uid: n for n in order}
    owner: dict[int, tuple[Node, int]] = {}
    for (uid, out_index), slot in low.slot_of.items():
        node = by_uid.get(uid)
        if node is not None:
            owner[slot] = (node, out_index)

    def expected_of(slot: int) -> int | None:
        own = owner.get(slot)
        if own is None:
            return None
        return builder.graph_expr(own[0], own[1])

    # Symbolic register file, seeded with the source/constant leaves.
    sym: dict[int, int] = {}
    for slot in (*low.source_slots, *low.constant_slots):
        expected = expected_of(slot)
        if expected is not None:
            sym[slot] = expected

    def child_of(slot: int) -> int:
        vn = sym.get(slot)
        if vn is not None:
            return vn
        # Slot read before any definition: LT101's finding, not ours —
        # fall back to the graph's value so tracking continues.
        expected = expected_of(slot)
        return expected if expected is not None else table.expr(
            "unresolved-slot", (slot,)
        )

    def compare(idx: int, desc: dict[str, Any], out_pos: int,
                computed: int | None, suppress: bool) -> None:
        """Compare one produced register against the graph, then assign."""
        oslot = desc["out_slots"][out_pos]
        expected = expected_of(oslot)
        if expected is None:
            if computed is not None:
                sym[oslot] = computed
            return
        node = desc["node"]
        if (
            computed is not None
            and computed != expected
            and not suppress
            and node.uid not in builder.flagged
            and owner[oslot][0].uid not in builder.flagged
        ):
            findings.append(
                finding(
                    "EQ601",
                    f"instruction {idx} ({node.name}) computes canonical "
                    f"value {table.digest(computed)[:12]} for slot {oslot}, "
                    f"but the source graph defines "
                    f"{table.digest(expected)[:12]} "
                    f"({owner[oslot][0].name})",
                    _ANALYZER,
                    node=node.name,
                    instr=idx,
                    slot=oslot,
                )
            )
        # Track the graph's value from here on: one defect, one finding.
        sym[oslot] = expected

    for idx, desc in enumerate(low.descs):
        kind = desc["kind"]
        if kind == "fused":
            findings.extend(
                _check_fused(idx, desc, witnesses, builder, child_of, compare)
            )
        elif kind == "batched":
            findings.extend(
                _check_batched(
                    idx, desc, witnesses, builder, child_of, compare
                )
            )
        elif kind == "alias":
            findings.extend(
                _check_alias(idx, desc, witnesses, builder, child_of, compare)
            )
        else:
            node = desc["node"]
            children = tuple(child_of(s) for s in desc["in_slots"])
            for i in range(len(desc["out_slots"])):
                compare(idx, desc, i, builder.apply(node, children, i), False)

    findings.extend(_check_inplace(low, witnesses))
    findings.extend(_check_roots(low, witnesses))
    findings.extend(_check_rng_clock(low, order))
    return builder.findings + findings


def _check_fused(
    idx: int,
    desc: dict[str, Any],
    witnesses: WitnessSet,
    builder: _ExprBuilder,
    child_of: Any,
    compare: Any,
) -> list[Finding]:
    """Expand one fused chain symbolically and verify its witness."""
    findings: list[Finding] = []
    chain = desc["chain"]
    tail = desc["node"]
    suppress = False
    w = witnesses.fusions.get(idx)
    if w is None:
        findings.append(
            finding(
                "EQ602",
                f"fused instruction {idx} (ending at {tail.name}) has no "
                "fusion witness",
                _ANALYZER,
                node=tail.name,
                instr=idx,
            )
        )
    else:
        members = tuple(member.uid for _op, member, _p in chain)
        tail_spec = tail.out_specs[0]
        if (
            w.members != members
            or w.tail_uid != tail.uid
            or w.shape != tail_spec.shape
            or w.dtype != dtype_name(tail_spec.dtype)
        ):
            findings.append(
                finding(
                    "EQ603",
                    f"fusion witness for instruction {idx} disagrees with "
                    f"the lowered chain (members/tail/shape/dtype)",
                    _ANALYZER,
                    node=tail.name,
                    instr=idx,
                )
            )
            suppress = True
    # Member consistency: one accumulator buffer serves the whole chain.
    tail_spec = tail.out_specs[0]
    for _op, member, _pattern in chain:
        if (
            len(member.out_specs) != 1
            or member.out_specs[0].shape != tail_spec.shape
            or member.out_specs[0].dtype != tail_spec.dtype
            or member.stage is not tail.stage
        ):
            findings.append(
                finding(
                    "EQ603",
                    f"fused instruction {idx}: member {member.name!r} "
                    "cannot share the chain accumulator "
                    "(shape/dtype/stage mismatch)",
                    _ANALYZER,
                    node=member.name,
                    instr=idx,
                )
            )
            suppress = True
    acc: int | None = None
    for _op, member, pattern in chain:
        children = tuple(
            (acc if acc is not None else builder.graph_expr(member))
            if s < 0
            else child_of(s)
            for s in pattern
        )
        acc = builder.apply(member, children, 0)
    compare(idx, desc, 0, acc, suppress)
    return findings


def _check_batched(
    idx: int,
    desc: dict[str, Any],
    witnesses: WitnessSet,
    builder: _ExprBuilder,
    child_of: Any,
    compare: Any,
) -> list[Finding]:
    """Un-stack one batched GEMM group and verify member wiring."""
    findings: list[Finding] = []
    nodes: list[Node] = list(desc["nodes"])
    head = nodes[0]
    group_suppress = False
    w = witnesses.batches.get(idx)
    if w is None:
        findings.append(
            finding(
                "EQ602",
                f"batched GEMM instruction {idx} ({head.name} group) has "
                "no batch witness",
                _ANALYZER,
                node=head.name,
                instr=idx,
            )
        )
    else:
        spec = head.out_specs[0]
        if (
            w.members != tuple(n.uid for n in nodes)
            or w.a_slots != tuple(desc["a_slots"])
            or w.b_slots != tuple(desc["b_slots"])
            or w.ta != desc["ta"]
            or w.tb != desc["tb"]
            or w.shape != spec.shape
            or w.dtype != dtype_name(spec.dtype)
        ):
            findings.append(
                finding(
                    "EQ603",
                    f"batch witness for instruction {idx} disagrees with "
                    "the lowered group (members/slots/transpose/shape)",
                    _ANALYZER,
                    node=head.name,
                    instr=idx,
                )
            )
            group_suppress = True
    # Isomorphism: every member must be the same GEMM configuration.
    for n in nodes:
        if (
            n.op.name != head.op.name
            or n.out_specs != head.out_specs
            or n.attrs.get("ta") != head.attrs.get("ta")
            or n.attrs.get("tb") != head.attrs.get("tb")
            or n.stage is not head.stage
        ):
            findings.append(
                finding(
                    "EQ603",
                    f"batched instruction {idx}: member {n.name!r} is not "
                    "isomorphic to the group head (op/shape/transpose/stage)",
                    _ANALYZER,
                    node=n.name,
                    instr=idx,
                )
            )
            group_suppress = True
    for k, member in enumerate(nodes):
        suppress = group_suppress
        a_vn = child_of(desc["a_slots"][k])
        b_vn = child_of(desc["b_slots"][k])
        if len(member.inputs) >= 2:
            exp_a = builder.graph_expr(
                member.inputs[0].node, member.inputs[0].index
            )
            exp_b = builder.graph_expr(
                member.inputs[1].node, member.inputs[1].index
            )
            if (a_vn, b_vn) != (exp_a, exp_b) and not suppress:
                findings.append(
                    finding(
                        "EQ603",
                        f"batched instruction {idx}: member {k} "
                        f"({member.name}) is wired to operand slots that "
                        "hold another member's values (swapped member)",
                        _ANALYZER,
                        node=member.name,
                        instr=idx,
                        slot=desc["out_slots"][k],
                    )
                )
                suppress = True
        compare(
            idx, desc, k, builder.apply(member, (a_vn, b_vn), 0), suppress
        )
    return findings


def _check_alias(
    idx: int,
    desc: dict[str, Any],
    witnesses: WitnessSet,
    builder: _ExprBuilder,
    child_of: Any,
    compare: Any,
) -> list[Finding]:
    """Verify one elided copy's view witness against a re-derivation."""
    findings: list[Finding] = []
    node = desc["node"]
    actual = desc.get("alias_index")
    serialized = (
        tuple(describe_index(ix) for ix in actual)
        if isinstance(actual, list)
        else None
    )
    w = witnesses.aliases.get(idx)
    if w is None:
        findings.append(
            finding(
                "EQ602",
                f"alias instruction {idx} ({node.name}) has no elision "
                "witness",
                _ANALYZER,
                node=node.name,
                instr=idx,
            )
        )
    elif (
        w.op != node.op.name
        or not desc["in_slots"]
        or w.src_slot != desc["in_slots"][0]
        or w.out_slots != tuple(desc["out_slots"])
    ):
        findings.append(
            finding(
                "EQ603",
                f"elision witness for instruction {idx} disagrees with the "
                "lowered alias (op/source/output slots)",
                _ANALYZER,
                node=node.name,
                instr=idx,
            )
        )
    # Range check: the baked index, the witness, and a fresh re-derivation
    # from the node's attrs must all agree — any disagreement means the
    # bound view does not hold the copy kernel's exact values.
    rederived = alias_view_indices(desc)
    expected_ser = (
        tuple(describe_index(ix) for ix in rederived)
        if rederived is not None
        else None
    )
    if expected_ser is None:
        findings.append(
            finding(
                "EQ605",
                f"alias instruction {idx} ({node.name}): op is not "
                "view-equivalent to a copy; the elision is unjustifiable",
                _ANALYZER,
                node=node.name,
                instr=idx,
            )
        )
    elif serialized != expected_ser:
        findings.append(
            finding(
                "EQ605",
                f"alias instruction {idx} ({node.name}): baked view index "
                f"{serialized!r} differs from the re-derived view "
                f"{expected_ser!r}",
                _ANALYZER,
                node=node.name,
                instr=idx,
            )
        )
    elif w is not None and w.indices != expected_ser:
        findings.append(
            finding(
                "EQ605",
                f"alias instruction {idx} ({node.name}): witness view "
                f"index {w.indices!r} fails its range check against "
                f"{expected_ser!r}",
                _ANALYZER,
                node=node.name,
                instr=idx,
            )
        )
    # Value side: a correct view binds exactly the op's value.
    children = tuple(child_of(s) for s in desc["in_slots"])
    for i in range(len(desc["out_slots"])):
        compare(idx, desc, i, builder.apply(node, children, i), False)
    return findings


def _check_inplace(low: PlanLowering, witnesses: WitnessSet) -> list[Finding]:
    """EQ604: every in-place redirect must be value-unobservable."""
    findings: list[Finding] = []
    if not witnesses.inplace:
        return findings
    pinned = set(low.source_slots) | set(low.constant_slots) | set(
        low.output_slots
    )
    reads_at: dict[int, list[int]] = {}
    for idx, desc in enumerate(low.descs):
        for s in desc["in_slots"]:
            reads_at.setdefault(s, []).append(idx)
    for w in witnesses.inplace:
        if not 0 <= w.instr < len(low.descs):
            findings.append(
                finding(
                    "EQ604",
                    f"in-place witness targets nonexistent instruction "
                    f"{w.instr}",
                    _ANALYZER,
                    instr=w.instr,
                )
            )
            continue
        desc = low.descs[w.instr]
        name = desc["node"].name
        if desc["kind"] not in ("out", "fused") or tuple(
            desc["out_slots"]
        ) != (w.out,):
            findings.append(
                finding(
                    "EQ604",
                    f"in-place witness at instruction {w.instr} ({name}) "
                    "does not describe that instruction's single output",
                    _ANALYZER,
                    node=name,
                    instr=w.instr,
                    slot=w.out,
                )
            )
            continue
        positions = dict(inplace_positions(desc))
        if positions.get(w.target) != 1:
            findings.append(
                finding(
                    "EQ604",
                    f"in-place redirect at instruction {w.instr} ({name}) "
                    f"overwrites slot {w.target}, which is not read exactly "
                    "once at an in-place-capable operand position — the "
                    "kernel observes its own output",
                    _ANALYZER,
                    node=name,
                    instr=w.instr,
                    slot=w.target,
                )
            )
            continue
        group = set(w.members)
        if group & pinned:
            findings.append(
                finding(
                    "EQ604",
                    f"in-place redirect at instruction {w.instr} ({name}) "
                    "overwrites a group pinned by a source/constant/output "
                    "slot — the caller observes the overwrite",
                    _ANALYZER,
                    node=name,
                    instr=w.instr,
                    slot=w.target,
                )
            )
            continue
        late = [
            (s, j)
            for s in group
            for j in reads_at.get(s, ())
            if j > w.instr
        ]
        if late:
            s, j = min(late, key=lambda p: p[1])
            findings.append(
                finding(
                    "EQ604",
                    f"in-place redirect at instruction {w.instr} ({name}) "
                    f"overwrites slot {w.target}, but group member {s} is "
                    f"read by instruction {j} afterwards — the reader "
                    "observes the new value",
                    _ANALYZER,
                    node=name,
                    instr=w.instr,
                    slot=s,
                )
            )
    return findings


def _check_roots(low: PlanLowering, witnesses: WitnessSet) -> list[Finding]:
    """EQ602: every alias-root merge must be explained by some rewrite.

    Reconstructs the expected alias partition from first principles —
    view instructions, alias (elision) instructions, batched groups, and
    witnessed in-place redirects — and compares it against the lowered
    root table. A merge nothing explains means storage is being shared
    by an unwitnessed rewrite.
    """
    nslots = len(low.root)
    parent = list(range(nslots))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for desc in low.descs:
        kind = desc["kind"]
        if kind in ("view", "alias") and desc["in_slots"]:
            for o in desc["out_slots"]:
                union(desc["in_slots"][0], o)
        elif kind == "batched":
            outs = desc["out_slots"]
            for o in outs[1:]:
                union(outs[0], o)
    for w in witnesses.inplace:
        if 0 <= w.out < nslots and 0 <= w.target < nslots:
            union(w.out, w.target)

    expected_groups: dict[int, list[int]] = {}
    actual_groups: dict[int, list[int]] = {}
    for s in range(nslots):
        expected_groups.setdefault(find(s), []).append(s)
        actual_groups.setdefault(low.root[s], []).append(s)

    findings: list[Finding] = []
    expected_of = {s: tuple(g) for g in expected_groups.values() for s in g}
    actual_of = {s: tuple(g) for g in actual_groups.values() for s in g}
    reported: set[tuple[int, ...]] = set()
    for s in range(nslots):
        if expected_of[s] != actual_of[s] and actual_of[s] not in reported:
            reported.add(actual_of[s])
            findings.append(
                finding(
                    "EQ602",
                    f"alias-root table merges slots {list(actual_of[s])} "
                    "but no view/alias/batch/in-place witness explains "
                    f"that group (expected {list(expected_of[s])})",
                    _ANALYZER,
                    slot=s,
                )
            )
            if len(findings) >= 8:
                break
    return findings


def _check_rng_clock(
    low: PlanLowering, order: Sequence[Node]
) -> list[Finding]:
    """EQ606: unstable RNG nodes must keep their clock order, serially."""
    findings: list[Finding] = []
    stream: list[tuple[int, Node]] = []
    for idx, desc in enumerate(low.descs):
        for n in _rng_members(desc):
            stream.append((idx, n))
    if not stream:
        return findings
    clock = {n.uid: pos for pos, n in enumerate(order)}
    prev_pos = -1
    prev_name = ""
    for idx, n in stream:
        pos = clock.get(n.uid, n.uid + len(order))
        if pos < prev_pos:
            findings.append(
                finding(
                    "EQ606",
                    f"instruction {idx} executes unstable RNG node "
                    f"{n.name!r} after {prev_name!r}, inverting the "
                    "schedule's RNG-clock order",
                    _ANALYZER,
                    node=n.name,
                    instr=idx,
                )
            )
        prev_pos = max(prev_pos, pos)
        prev_name = n.name if pos >= prev_pos else prev_name
    if low.program_layout is not None:
        rng_instrs = {idx for idx, _n in stream}
        for kind, members in low.program_layout:
            if kind != "parallel":
                continue
            level = [i for chunk in members for i in chunk if i in rng_instrs]
            if len(level) > 1:
                findings.append(
                    finding(
                        "EQ606",
                        f"parallel wavefront level runs {len(level)} "
                        "unstable RNG instructions concurrently "
                        f"(instructions {sorted(level)}); their clock "
                        "order is nondeterministic",
                        _ANALYZER,
                        instr=min(level),
                    )
                )
    return findings


def certify_outputs(
    outputs: Sequence[Tensor],
) -> tuple[str, list[Finding]]:
    """Canonical fingerprint of a graph's outputs, plus graph-side findings.

    The fingerprint is a pure function of the graph's *normalized*
    denotation: recompute mirrors collapse onto their originals, so a
    faithful Echo rewrite leaves it unchanged — the pass's own
    translation-validation witness (see ``EchoPass``). Findings carry any
    EQ602/EQ606/EQ607 discovered while canonicalizing.
    """
    table = SymbolicTable()
    builder = _ExprBuilder(table)
    h = hashlib.sha256()
    for t in outputs:
        h.update(table.digest(builder.graph_expr(t.node, t.index)).encode())
    return h.hexdigest(), builder.findings


def fingerprint_outputs(outputs: Sequence[Tensor]) -> str:
    """Canonical output fingerprint only (see :func:`certify_outputs`)."""
    return certify_outputs(outputs)[0]
