"""Compiled execution plans: the training hot loop without an interpreter.

The seed executor walked the schedule as a dict-keyed interpreter: per-step
``TensorKey`` lookups, a ``placeholder/variable`` branch, per-node
try/except plumbing, per-output shape checks, and a fresh numpy allocation
for every intermediate on every iteration. This module lowers a schedule
*once* into a flat :class:`CompiledPlan`:

* tensors get dense integer **slots** into a list register file — no dict
  lookups in the loop;
* each node becomes one precompiled **instruction closure** with its input
  and output slots and its error context bound at compile time — the run
  loop is ``for step in steps: step(regs)``. Closures are *templated*:
  slots, shapes and byte counts are default-argument values, not source
  literals, so every instruction of one form (across timesteps, buckets
  and plans) is instantiated from a single code object in the
  process-wide :data:`TEMPLATES` memo instead of being compiled again
  (``compile()`` was a measured 12% of a cold NMT build);
* chains of single-consumer elementwise/activation nodes are **fused** into
  one instruction that streams a single accumulator buffer through the
  chain with ``out=`` kernels (the cuDNN-style pointwise fusion the paper's
  Figure 7a launch-bound story rests on). In the serial lowering a chain
  may start at a GEMM and never makes a member wait, so fusion shortens
  the stream without lengthening a live range (``_fuse_chains``);
* isomorphic single-consumer ``matmul`` nodes are **batched** into one
  stacked GEMM instruction (``batch_gemms``): same-shape groups — the per
  decoder-step attention scoring GEMMs are the signature case — execute as
  one ``np.matmul`` over a leading group axis, cutting kernel dispatches
  where thread parallelism cannot help;
* because a plan's instruction stream repeats identically every iteration,
  buffer reuse is decided *at compile time* (:mod:`repro.memplan`): copies
  become aliases, last-use writes land in their dying input, and every
  remaining intermediate gets a **static buffer** — a slice of one
  contiguous **arena** extent, packed by exact live interval — that
  ``out=`` kernels write straight into through closure-bound arrays.
  Steady-state iterations allocate only the run's escaping outputs;
* with ``threads > 1`` the instruction stream is partitioned into
  **wavefronts** (:mod:`repro.runtime.wavefront`): dependency levels whose
  instructions may execute as cost-balanced chunks on a persistent worker
  pool (:mod:`repro.runtime.workers`). A level is split only when its
  predicted *host* seconds buy back one measured thread hand-off per
  extra chunk; everything else stays serial, and a plan with no level
  worth splitting runs the same single baked body as ``threads=1``.
  Echo stage boundaries remain barriers, and storage-hazard
  edges (the extent's bytes are reused across slots) serialize any two
  instructions whose placements intersect — so parallel execution is
  bitwise-identical to serial execution by construction.

Plans compiled against a shared arena (the bucketed trainer) carve their
static buffers from a parked extent when one is already large enough, so
sibling plans built largest-first overlay the same storage — the
host-side analogue of the paper's executors sharing one memory pool.
Built smallest-first (the order ``default_buckets`` and the harness use)
every plan outgrows what is parked and takes its own extent: footprint is
then the *sum* over buckets (``reuse_count`` 0; ROADMAP item 4). Sharing
is safe because executors run one iteration to completion at a
time and outputs never alias plan storage. The arena itself is thread-safe,
so parallel chunks may allocate escaping outputs concurrently.

Numerics are bitwise-identical to a plain topological walk calling each
op's ``compute`` (``tests/helpers.reference_run``): every
``compute_into`` implementation reproduces its ``compute`` expression tree
exactly; fusion only reorders *where* a kernel runs in the schedule (legal
because the chain's interior values have exactly one consumer); batching
issues the same per-slice BLAS call through a stacked view; and wavefront
execution only overlaps instructions with no value or storage hazard
between them. Fusion, batching, and wavefronts never cross a stage
boundary, so Echo's mirrored recompute regions keep their checkpoint
semantics and the pass's stash/footprint accounting — which reads the
node-based memory plan, not the lowered stream — is field-for-field
unchanged.

The simulated *cost* and *memory* models stay node-based: plans report the
same per-node timings and the memory planner sees the original schedule, so
every figure reproduction is unchanged — only the host-side execution gets
faster.
"""

from __future__ import annotations

import builtins
import threading
from dataclasses import dataclass, field
from types import CodeType, FunctionType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.graph import Node, Tensor, dtype_name
from repro.memplan.planner import MemplanRecord, plan_buffers
from repro.memplan.slotindex import SlotIndex, resolve_roots
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.ops.matmul import gemm_batch_key, stacked_operand
from repro.runtime.memory import TensorKey
from repro.runtime.pool import round_up
from repro.runtime.wavefront import (
    InstrInfo,
    WavefrontSchedule,
    analyze_wavefronts,
)
from repro.runtime.workers import shared_pool

_SOURCE_OPS = ("placeholder", "variable")


#: ``co_filename`` of every generated closure; profilers and the benchmark
#: harness attribute plan frames by this name
PLAN_FILENAME = "<compiled-plan>"

#: globals of every generated closure: bodies reach their compile-time
#: constants through default arguments, so only builtins resolve here
_CLOSURE_GLOBALS = {"__builtins__": builtins}


class ExecutionError(RuntimeError):
    """Raised on bad feeds or kernel failures."""


class TemplateMemo:
    """Source-keyed memo of generated-closure code objects.

    Generated sources name slots, shapes and byte counts as parameters
    (bound per instruction as default-argument values), never as literals,
    so one entry serves every instruction of that form — across timesteps,
    buckets and plans. Bounded, first-in first-out. ``codes`` is read
    without the lock (a plain dict lookup); inserts and evictions take it,
    and two threads compiling the same source store equivalent code.
    """

    def __init__(self, limit: int = 1024) -> None:
        self.limit = limit
        self.codes: dict[str, CodeType] = {}
        self._lock = threading.Lock()

    def compile(self, src: str) -> CodeType:
        """Compile ``src`` (a single ``def``) and keep its function code."""
        module = compile(src, PLAN_FILENAME, "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        with self._lock:
            while len(self.codes) >= self.limit:
                del self.codes[next(iter(self.codes))]
            self.codes[src] = code
        return code


#: the process-wide memo every :class:`CompiledPlan` instantiates from
TEMPLATES = TemplateMemo()


def _names(prefix: str, n: int) -> tuple[str, ...]:
    """Parameter names ``prefix0 .. prefix{n-1}`` of a generated closure."""
    return tuple([f"{prefix}{j}" for j in range(n)])


def _regs(prefix: str, n: int) -> tuple[str, ...]:
    """Register reads ``regs[prefix0] ..`` through slot parameters."""
    return tuple([f"regs[{prefix}{j}]" for j in range(n)])


def _clear_src(n: int) -> str:
    """Unrolled register drops through the ``_c*`` slot parameters."""
    return "".join([f"\n    regs[_c{j}] = None" for j in range(n)])


def _raw_kernel(node: Node):
    """Bare ``k(*inputs, out)`` callable bypassing ``compute_into``, or None.

    Only bound when the specialization is provably bit-identical to the
    op's ``compute_into``: a single output whose dtype exactly matches
    every input (so the wrapper's cast-fallback path cannot trigger) and a
    kernel that is a plain ufunc application. This removes one Python call
    plus argument packing from the hottest instructions.
    """
    if len(node.out_specs) != 1:
        return None
    out_dtype = node.out_specs[0].dtype
    for t in node.inputs:
        if t.dtype != out_dtype:
            return None
    op = node.op
    fn = getattr(op, "_fn", None)
    if isinstance(fn, np.ufunc) and fn.nin == len(node.inputs):
        return fn  # ufuncs take ``out`` positionally
    into_fn = getattr(op, "_into_fn", None)
    if into_fn is not None and np.issubdtype(out_dtype, np.floating):
        scalar = node.attrs["scalar"]

        def k(x, out, _f=into_fn, _c=scalar):
            _f(x, _c, out)

        return k
    if op.name == "tanh":
        return np.tanh
    if op.name == "sigmoid":
        from repro.ops.activation import _sigmoid_into

        return _sigmoid_into
    return None


def _failing_node(step: Any, regs: list) -> Node:
    """The node to blame when ``step`` raised on the register file ``regs``.

    A fused step runs several kernels: its chain is walked again through
    plain ``compute`` calls and the first member that raises is named (the
    tail when none does — a head that had already overwritten its in-place
    operand may not fail twice).
    """
    acc = None
    for op, member, pattern in getattr(step, "_chain", ()):
        try:
            acc = op.compute(
                member, [acc if s < 0 else regs[s] for s in pattern]
            )[0]
        except Exception:
            return member
    return step._node


def bind_source(
    table: Mapping[str, np.ndarray], node: Node, kind: str
) -> np.ndarray:
    """Validate and normalize one feed/param binding (shared error contract)."""
    if node.name not in table:
        raise ExecutionError(f"{kind} {node.name!r} was not bound")
    arr = np.asarray(table[node.name])
    spec = node.out_specs[0]
    if tuple(arr.shape) != spec.shape:
        raise ExecutionError(
            f"{kind} {node.name!r}: bound shape {arr.shape} != "
            f"declared {spec.shape}"
        )
    if arr.dtype != spec.dtype:
        arr = arr.astype(spec.dtype)
    return arr


class Arena:
    """Extent pool and output allocator behind a plan's ``out=`` kernels.

    A plan's static buffers are views into one contiguous raw extent
    (page-rounded like the ``pool.py`` device pool). The buffer planner
    takes it with :meth:`acquire_extent` at compile time and parks it again
    with :meth:`release_extent`, so plans sharing an arena overlay one
    extent. At runtime only :meth:`acquire_fresh` is called, for outputs
    that escape the plan.

    The extent list and the counters each sit behind their own lock:
    wavefront chunks allocate outputs concurrently, and concurrent session
    compiles share an arena.
    """

    def __init__(self) -> None:
        self._stats_lock = threading.Lock()
        #: parked contiguous extents, reusable by later plans
        self._extents: list[np.ndarray] = []
        self._extent_lock = threading.Lock()
        #: buffers created fresh (extent misses and escaping outputs);
        #: steady-state iterations add only the run's outputs
        self.fresh_count = 0
        #: extent acquisitions served from the parked list
        self.reuse_count = 0
        #: zero-byte acquisitions (served fresh, never pooled)
        self.zero_byte_count = 0
        #: cumulative bytes of fresh buffers
        self.fresh_bytes = 0

    def acquire_fresh(
        self, shape: tuple[int, ...], dtype: np.dtype, nbytes: int
    ) -> np.ndarray:
        """A buffer that escapes the plan (a graph output).

        Never served from a parked extent: that may be some plan's static
        storage, and an output must survive later iterations.
        """
        with self._stats_lock:
            if nbytes <= 0:
                self.zero_byte_count += 1
            else:
                self.fresh_count += 1
                self.fresh_bytes += nbytes
        return np.empty(shape, dtype=dtype)

    def acquire_extent(self, nbytes: int) -> np.ndarray:
        """One contiguous raw extent for a plan's static buffers.

        Served from the parked-extent list when a large-enough extent is
        available (smallest fit first), else allocated fresh, page-rounded
        — a parked extent never grows, so sibling plans overlay one extent
        only when the largest was built first.
        """
        best = None
        with self._extent_lock:
            for i, raw in enumerate(self._extents):
                if raw.nbytes >= nbytes and (
                    best is None or raw.nbytes < self._extents[best].nbytes
                ):
                    best = i
            if best is not None:
                found = self._extents.pop(best)
        if best is not None:
            with self._stats_lock:
                self.reuse_count += 1
            return found
        size = round_up(max(nbytes, 1))
        raw = np.empty(size, dtype=np.uint8)
        with self._stats_lock:
            self.fresh_count += 1
            self.fresh_bytes += size
        return raw

    def release_extent(self, raw: np.ndarray) -> None:
        """Park an extent for reuse by later plans sharing this arena."""
        with self._extent_lock:
            self._extents.append(raw)

    @property
    def held_bytes(self) -> int:
        """Bytes currently parked on the extent list."""
        with self._extent_lock:
            return sum(raw.nbytes for raw in self._extents)


def storage_base(arr: np.ndarray) -> np.ndarray:
    """The raw buffer ultimately backing ``arr`` (walks ``.base``)."""
    raw = arr
    while raw.base is not None:
        raw = raw.base
    return raw


@dataclass
class PlanLowering:
    """Compile-time artifacts of one :class:`CompiledPlan`, for analysis.

    This is the contract the static analyzers in :mod:`repro.analysis`
    consume: everything the compiler decided — instruction descriptors,
    slot identities, alias roots, the simulated free replay, and the
    static buffer assignment — captured *before* the closures are baked,
    so a verifier can recompute liveness and storage reuse independently
    and cross-check the plan without executing it.

    ``descs`` entries are dicts with at least ``kind`` (``out`` /
    ``generic`` / ``view`` / ``fused`` / ``batched`` / ``alias``),
    ``node``, ``in_slots`` and ``out_slots``; batched entries
    additionally carry ``nodes``, ``a_slots``/``b_slots`` and
    ``scratch_a``/``scratch_b`` arrays; alias entries (copy elision)
    carry ``alias_index``. They are the compiler's own
    working records (shared, not copied) — treat them as read-only
    unless deliberately corrupting a fixture.
    """

    #: instruction descriptors, stream order
    descs: list[dict[str, Any]]
    #: tensor key -> register slot
    slot_of: dict[TensorKey, int]
    #: alias-group root of each slot (views/batched members share storage)
    root: list[int]
    source_slots: frozenset[int]
    constant_slots: frozenset[int]
    output_slots: frozenset[int]
    #: whether each *root* slot's storage participates in the arena replay
    releasable: list[bool]
    #: instruction index -> [(slot, root, releasable)] freed after it
    frees_at: dict[int, list[tuple[int, int, bool]]]
    #: root slot -> permanently-assigned static buffer view
    static_views: dict[int, np.ndarray]
    #: the buffer planner's record (placements, elisions, in-place rewrites)
    memplan: MemplanRecord
    #: placement byte-range hazard tokens keyed like ``memplan.placements``
    storage_tokens: dict[Any, tuple[int, ...]]
    #: wavefront program layout (serial runs / parallel chunk lists) when
    #: the plan compiled a parallel program, else None
    program_layout: list[tuple[str, Any]] | None = None
    #: the InstrInfos the wavefront analysis ran on (threads > 1 only)
    infos: list[InstrInfo] | None = None
    #: the wavefront schedule the program was baked from (threads > 1)
    schedule: WavefrontSchedule | None = None
    #: id(raw buffer) -> nbytes for every distinct static storage base
    static_bases: dict[int, int] = field(default_factory=dict)
    #: :class:`repro.analysis.witness.WitnessSet` of every rewrite the
    #: lowering performed (fusion/batching/elision/in-place), consumed by
    #: the equivalence certifier; None only for hand-built fixtures
    witnesses: Any = None
    #: producer/consumer-by-slot index of ``descs``, built at lowering
    #: time; read through :meth:`slot_index`, which re-derives it when the
    #: descriptors were edited since
    index: SlotIndex | None = None

    def slot_index(self) -> SlotIndex:
        """The :class:`SlotIndex` of ``descs`` as they are now."""
        if self.index is None or not self.index.is_current(self.descs):
            self.index = SlotIndex(self.descs)
        return self.index


def build_instr_infos(
    descs: Sequence[dict[str, Any]],
    root: Sequence[int],
    storage_tokens: Mapping[Any, tuple[int, ...]],
    device: Any | None = None,
) -> list[InstrInfo]:
    """Dependence-relevant facts for each instruction descriptor.

    Shared by the wavefront planner (``device`` set: each instruction is
    priced in predicted *host* seconds, the unit the wavefront gate
    compares with a thread hand-off) and the static race analyzer
    (``device`` None: zero costs — hazard structure only, no cost model
    construction).

    Storage hazards are labeled by placement byte-range tokens: every
    static buffer shares one extent, so a "same raw base" rule would
    serialize everything; the tokens record exact byte-range intersection
    instead — see :func:`repro.memplan.coloring.atomic_tokens`.
    """

    def bases_of_slot(slot: int) -> tuple[int, ...]:
        return storage_tokens.get(root[slot], ())

    infos: list[InstrInfo] = []
    for idx, desc in enumerate(descs):
        kind = desc["kind"]
        read_bases: set[int] = set()
        write_bases: set[int] = set()
        for s in desc["in_slots"]:
            read_bases.update(bases_of_slot(s))
        if kind not in ("view", "alias"):  # views touch no storage themselves
            for s in desc["out_slots"]:
                write_bases.update(bases_of_slot(s))
        for scratch_key in ("scratch_a", "scratch_b"):
            scratch = desc.get(scratch_key)
            if scratch is None:
                continue
            # Zero-byte scratch has no placement; its own array is its base.
            write_bases.update(
                storage_tokens.get(
                    ("scratch", idx, scratch_key[-1]),
                    (id(storage_base(scratch)),),
                )
            )
        if kind == "fused":
            cost_nodes = [member for _op, member, _p in desc["chain"]]
        elif kind == "batched":
            cost_nodes = desc["nodes"]
        else:
            cost_nodes = [desc["node"]]
        cost = 0.0
        if device is not None:
            cost = sum(device.predict_host_seconds(n) for n in cost_nodes)
        infos.append(
            InstrInfo(
                index=idx,
                reads=tuple(desc["in_slots"]),
                writes=tuple(desc["out_slots"]),
                read_bases=tuple(sorted(read_bases)),
                write_bases=tuple(sorted(write_bases)),
                stage=desc["node"].stage,
                cost_seconds=cost,
            )
        )
    return infos


class CompiledPlan:
    """A schedule lowered to slot-indexed instruction closures.

    Built once per (graph, arena, thread config); :meth:`run` executes one
    iteration. The plan's static buffers are reused across iterations, so
    a plan (and any plan sharing its arena) must not run re-entrantly; the
    training loop runs one iteration to completion at a time, matching the
    seed. With ``threads > 1`` a single iteration's independent
    instructions overlap internally, but the iteration still runs to
    completion before the next begins.
    """

    def __init__(
        self,
        order: Sequence[Node],
        outputs: Sequence[Tensor],
        arena: Arena | None = None,
        fuse: bool = True,
        threads: int = 1,
        batch_gemms: bool | None = None,
        device: Any | None = None,
    ) -> None:
        self.order = list(order)
        self.outputs = list(outputs)
        self.arena = arena if arena is not None else Arena()
        self.fuse = fuse
        self.threads = max(1, int(threads))
        #: batching defaults on exactly when wavefront execution is on —
        #: the serial default path stays byte-for-byte the PR-1 plan
        self.batch_gemms = (
            self.threads > 1 if batch_gemms is None else bool(batch_gemms)
        )
        self._device = device
        #: result arrays allocated by generic (non-``out=``) instructions,
        #: cumulative across runs (benchmarks read deltas)
        self.generic_alloc_count = 0
        self._alloc_lock = threading.Lock() if self.threads > 1 else None
        #: program item finalizing each slot's value (wavefront plans);
        #: drives the level-completion hook consumers key overlap off of
        self._item_of_slot: dict[int, int] = {}
        self._wavefront_infos: list[InstrInfo] | None = None
        self._wavefront_schedule: WavefrontSchedule | None = None
        #: copy kernels rewritten to register-view aliases
        self.elided_copy_count = 0
        #: instructions writing ``out=`` into a dying input's storage
        self.inplace_write_count = 0
        #: interval waterline of the packed static buffers (lower bound)
        self.planned_peak_bytes = 0
        #: achieved extent size of the packing
        self.packed_extent_bytes = 0
        #: closure sources this plan had to ``compile`` / found in the
        #: process-wide :data:`TEMPLATES` memo
        self.templates_compiled = 0
        self.template_hits = 0
        with obs_trace.span(
            "plan.lower", "plan",
            {"nodes": len(self.order), "threads": self.threads},
        ) as sp:
            self._compile()
            if self.threads > 1:  # serial plans never reach the gate
                sp["wavefront_levels"] = self.wavefront_level_count
                sp["wavefront_levels_parallel"] = self.parallel_level_count
                sp["wavefront_levels_gated"] = self.gated_level_count
                sp["wavefront_saving_s"] = self.wavefront_saving_seconds

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        order = self.order
        output_keys = {t.key for t in self.outputs}

        source_nodes = [n for n in order if n.op.name in _SOURCE_OPS]
        constant_nodes = [n for n in order if n.op.name == "constant"]
        body = [
            n
            for n in order
            if n.op.name not in _SOURCE_OPS and n.op.name != "constant"
        ]

        if self.fuse:
            chains = self._fuse_chains(
                body, output_keys,
                serial=self.threads == 1 and not self.batch_gemms,
            )
        else:
            chains = [[n] for n in body]

        # Slot assignment: sources, constants, and every materialized
        # instruction output. Fused-chain interiors never materialize.
        slot_of: dict[TensorKey, int] = {}

        def new_slot(key: TensorKey) -> int:
            slot_of[key] = len(slot_of)
            return slot_of[key]

        for node in source_nodes:
            new_slot((node.uid, 0))
        for node in constant_nodes:
            new_slot((node.uid, 0))
        for chain in chains:
            tail = chain[-1]
            for i in range(len(tail.out_specs)):
                new_slot((tail.uid, i))

        nslots = len(slot_of)
        template: list[np.ndarray | None] = [None] * nslots
        for node in constant_nodes:
            template[slot_of[(node.uid, 0)]] = node.attrs["value"]
        self._template = template
        self._bindings: list[tuple[int, Node, str]] = [
            (
                slot_of[(n.uid, 0)],
                n,
                "placeholder" if n.op.name == "placeholder" else "variable",
            )
            for n in source_nodes
        ]

        # Alias roots: a view output shares its input's storage; the whole
        # group's storage is reusable only when every member is dead.
        root = list(range(nslots))
        arena_produced = [False] * nslots
        source_slots = {slot_of[(n.uid, 0)] for n in source_nodes}
        constant_slots = {slot_of[(n.uid, 0)] for n in constant_nodes}
        output_slots = {slot_of[t.key] for t in self.outputs}

        # First pass: instruction descriptors (kind, slots) + root/arena
        # marking, so releasability is known before buffers are assigned.
        descs: list[dict[str, Any]] = []
        for chain in chains:
            tail = chain[-1]
            out_slots = tuple(
                slot_of[(tail.uid, i)] for i in range(len(tail.out_specs))
            )
            if len(chain) > 1:
                interior = {(n.uid, 0) for n in chain[:-1]}
                patterns = []
                in_slots: list[int] = []
                for member in chain:
                    pattern = tuple(
                        -1 if t.key in interior else slot_of[t.key]
                        for t in member.inputs
                    )
                    patterns.append((member.op, member, pattern))
                    in_slots.extend(s for s in pattern if s >= 0)
                descs.append(
                    {
                        "kind": "fused",
                        "chain": patterns,
                        "node": tail,
                        "in_slots": tuple(in_slots),
                        "out_slots": out_slots,
                        # Rewrite witness, stamped where the decision is
                        # made (position-independent: final instruction
                        # indices are assigned after batching).
                        "witness": {
                            "members": tuple(m.uid for m in chain),
                            "tail": tail.uid,
                            "shape": tail.out_specs[0].shape,
                            "dtype": dtype_name(tail.out_specs[0].dtype),
                        },
                    }
                )
                arena_produced[out_slots[0]] = True
                continue
            node = tail
            in_slots = tuple(slot_of[t.key] for t in node.inputs)
            if node.op.may_alias and node.inputs:
                kind = "view"
                root[out_slots[0]] = root[in_slots[0]]
            elif node.op.supports_out:
                kind = "out"
                for s in out_slots:
                    arena_produced[s] = True
            else:
                kind = "generic"
            descs.append(
                {
                    "kind": kind,
                    "node": node,
                    "in_slots": in_slots,
                    "out_slots": out_slots,
                }
            )

        # Isomorphic-GEMM batching pre-pass: rewrite groups of independent
        # same-shape matmul instructions into stacked batched instructions.
        self.batched_gemm_groups = 0
        self.batched_gemm_nodes = 0
        if self.batch_gemms:
            with obs_trace.span("gemm.batch", "plan") as sp:
                descs = self._batch_isomorphic_gemms(
                    descs, output_slots, root, arena_produced
                )
                sp["groups"] = self.batched_gemm_groups
                sp["nodes"] = self.batched_gemm_nodes

        # Buffer planning (repro.memplan): releasability, liveness, and
        # static storage assignment. The planner first rewrites the stream —
        # view-equivalent copies become ``alias`` instructions, last-use
        # in-place-capable writes take over their dying input's storage —
        # then packs every group's exact live interval into one contiguous
        # arena extent by first-fit-decreasing coloring. Outputs and groups
        # that escape through an output stay dynamic — they are handed to
        # the caller every run and must never be overwritten.
        # The stream is final from here on (planning rewrites kinds and
        # alias groups, never an instruction's slots): index it once.
        index = SlotIndex(descs)
        assignment = plan_buffers(
            descs,
            root,
            nslots,
            arena_produced,
            source_slots,
            constant_slots,
            output_slots,
            self.arena,
            index,
        )
        releasable = assignment.releasable
        frees_at = assignment.frees_at
        static_views = assignment.static_views
        self.elided_copy_count = assignment.elided_copy_count
        self.inplace_write_count = assignment.inplace_write_count
        self.planned_peak_bytes = assignment.record.planned_peak_bytes
        self.packed_extent_bytes = assignment.record.extent_bytes

        # Per-instruction register clears: drop references to per-run
        # arrays (outputs of generic/dynamic instructions and views of
        # them) when dead. A slot whose alias-group *root* is static —
        # the buffer itself, a view of it, an in-place-merged output —
        # holds at most an array header over storage that persists by
        # design, in a register file that lives for one run, so it is
        # filtered out of the hot loop entirely.
        clears_at: dict[int, tuple[int, ...]] = {
            idx: tuple(s for s, r, _rel in fs if r not in static_views)
            for idx, fs in frees_at.items()
        }

        # Wavefront schedule (threads > 1): dependency levels over the
        # instruction stream, cost-gated. In program mode register clears
        # move to segment/level boundaries — level order may execute a
        # slot's stream-last consumer before another consumer in a deeper
        # level, so inline clears keyed by stream position would be unsafe.
        self.wavefront_region_count = 0
        self.wavefront_level_count = 0
        self.parallel_level_count = 0
        #: multi-instruction levels the host-seconds gate kept serial
        self.gated_level_count = 0
        self.parallel_instruction_count = 0
        self.max_wavefront_width = 0
        #: modelled host seconds per run the parallel levels save, net of
        #: their hand-offs (what the gate priced; 0 for a serial plan)
        self.wavefront_saving_seconds = 0.0
        program_layout = None
        if self.threads > 1 and descs:
            program_layout = self._plan_program(
                descs, root, assignment.storage_tokens
            )

        inline_clears = clears_at if program_layout is None else {}

        # Second pass: bake closures. Static buffers are looked up by
        # alias-group *root*, so in-place-rewritten slots resolve to the
        # dying input's buffer.
        steps: list[Callable[[list], None]] = []
        stats = {
            "out": 0, "generic": 0, "view": 0, "fused": 0, "batched": 0,
            "alias": 0,
        }
        for idx, desc in enumerate(descs):
            clear = inline_clears.get(idx, ())
            kind = desc["kind"]
            stats[kind] += 1
            if kind == "fused":
                steps.append(
                    self._make_fused_step(
                        desc["chain"],
                        desc["out_slots"][0],
                        clear,
                        static_views.get(root[desc["out_slots"][0]]),
                    )
                )
            elif kind == "batched":
                steps.append(
                    self._make_batched_step(
                        desc, clear,
                        static_views.get(root[desc["out_slots"][0]]),
                    )
                )
            elif kind == "out":
                steps.append(
                    self._make_out_step(
                        desc["node"],
                        desc["in_slots"],
                        desc["out_slots"],
                        clear,
                        tuple(
                            static_views.get(root[s])
                            for s in desc["out_slots"]
                        ),
                    )
                )
            elif kind == "alias":
                steps.append(
                    self._make_alias_step(
                        desc["node"],
                        desc["in_slots"],
                        desc["out_slots"],
                        desc["alias_index"],
                        clear,
                    )
                )
            elif kind == "view":
                steps.append(
                    self._make_view_step(
                        desc["node"], desc["in_slots"], desc["out_slots"], clear
                    )
                )
            else:
                guard = tuple(
                    s
                    for s in dict.fromkeys(desc["in_slots"])
                    if root[s] in static_views
                )
                steps.append(
                    self._make_generic_step(
                        desc["node"], desc["in_slots"], desc["out_slots"],
                        clear, guard,
                    )
                )
        self._steps = steps
        self._slot_of = slot_of
        self._output_slots = [slot_of[t.key] for t in self.outputs]

        # The dispatch loop itself is baked as one generated function —
        # a straight-line sequence of step calls with no iterator
        # machinery. Error context is recovered by the step-by-step
        # fallback in :meth:`run`.
        self._body = self._bake_body(range(len(steps)), ())
        self._program = None
        if program_layout is not None:
            self._program = self._bake_program(
                program_layout, descs, clears_at, static_views
            )

        reg = obs_metrics.registry()
        if reg is not None:
            reg.counter("plan.codegen.templates_compiled").inc(
                self.templates_compiled
            )
            reg.counter("plan.codegen.template_hits").inc(self.template_hits)
            for name, count in (
                ("levels", self.wavefront_level_count),
                ("levels_parallel", self.parallel_level_count),
                ("levels_gated", self.gated_level_count),
            ):
                reg.counter(f"plan.wavefront.{name}").inc(count)

        self.num_nodes = len(order)
        self.num_instructions = len(self._bindings) + len(steps)
        self.fused_chain_count = stats["fused"]
        self.fused_node_count = sum(
            len(c) for c in chains if len(c) > 1
        )
        self.instruction_kinds = stats
        self.static_slot_count = len(static_views)
        raws: dict[int, int] = {}
        for view in static_views.values():
            base = storage_base(view)
            raws[id(base)] = base.nbytes
        self.static_storage_bytes = sum(raws.values())

        # Collect every rewrite witness into one plan-level set for the
        # equivalence certifier. Imported lazily: repro.analysis imports
        # this module at package level, and the witness dataclasses are
        # deliberately dependency-free.
        from repro.analysis.witness import (
            AliasWitness,
            BatchWitness,
            FusionWitness,
            InplaceWitness,
            WitnessSet,
        )

        witness_set = WitnessSet()
        for idx, desc in enumerate(descs):
            payload = desc.get("witness")
            if payload is None:
                continue
            if desc["kind"] == "fused":
                witness_set.fusions[idx] = FusionWitness(
                    instr=idx,
                    tail_uid=payload["tail"],
                    members=payload["members"],
                    shape=payload["shape"],
                    dtype=payload["dtype"],
                )
            elif desc["kind"] == "batched":
                witness_set.batches[idx] = BatchWitness(instr=idx, **payload)
        for rec in assignment.record.elided:
            witness_set.aliases[rec["instr"]] = AliasWitness(
                instr=rec["instr"],
                op=rec["op"],
                src_slot=rec["src_slot"],
                out_slots=tuple(rec["out_slots"]),
                indices=tuple(rec.get("indices", ())),
            )
        witness_set.inplace = tuple(
            InplaceWitness(
                instr=rec["instr"],
                out=rec["out"],
                target=rec["target"],
                root=rec["root"],
                members=tuple(rec["members"]),
            )
            for rec in assignment.record.inplace
        )

        #: compile-time record for the static analyzers (repro.analysis)
        self.lowering = PlanLowering(
            descs=descs,
            slot_of=dict(slot_of),
            root=list(root),
            source_slots=frozenset(source_slots),
            constant_slots=frozenset(constant_slots),
            output_slots=frozenset(output_slots),
            releasable=list(releasable),
            frees_at={idx: list(fs) for idx, fs in frees_at.items()},
            static_views=dict(static_views),
            program_layout=program_layout,
            infos=self._wavefront_infos,
            schedule=self._wavefront_schedule,
            static_bases=dict(raws),
            memplan=assignment.record,
            storage_tokens=assignment.storage_tokens,
            witnesses=witness_set,
            index=index,
        )

    def instr_infos(self) -> list[InstrInfo]:
        """InstrInfos over the lowered stream, costs zeroed.

        Rebuilt on demand from the lowering record so serial plans (which
        never ran the wavefront planner) can still be race-analyzed
        against a hypothetical schedule.
        """
        low = self.lowering
        if low.infos is not None:
            return low.infos
        return build_instr_infos(low.descs, low.root, low.storage_tokens)

    # -- batched-GEMM pre-pass ----------------------------------------------

    def _batch_isomorphic_gemms(
        self,
        descs: list[dict[str, Any]],
        output_slots: set[int],
        root: list[int],
        arena_produced: list[bool],
    ) -> list[dict[str, Any]]:
        """Group independent isomorphic matmul instructions into stacks.

        Eligible members are single-output ``out``-kind matmuls whose
        result has exactly one consumer and does not escape as a graph
        output. A group closes when the stream consumes any member's
        output (so members are dataflow-independent: any dependency path
        between two matmuls passes through a consumer of the earlier one,
        which would sit between them in the topological stream) or when
        the stream crosses a stage boundary (batching never spans an Echo
        barrier). The merged instruction executes at the *last* member's
        position — every member input is produced before it, every
        consumer after — and each member slot receives a view of the
        stacked result, so downstream instructions are untouched.
        """
        consumer_count: dict[int, int] = {}
        for desc in descs:
            for s in desc["in_slots"]:
                consumer_count[s] = consumer_count.get(s, 0) + 1

        def eligible(desc: dict[str, Any]):
            if desc["kind"] != "out":
                return None
            node = desc["node"]
            key = gemm_batch_key(node)
            if key is None:
                return None
            out_slot = desc["out_slots"][0]
            if out_slot in output_slots:
                return None
            if consumer_count.get(out_slot, 0) != 1:
                return None
            return (node.stage, *key)

        groups: list[list[int]] = []
        open_groups: dict[Any, list[int]] = {}
        member_out: dict[Any, set[int]] = {}

        def close(key: Any) -> None:
            grp = open_groups.pop(key, None)
            member_out.pop(key, None)
            if grp and len(grp) >= 2:
                groups.append(grp)

        prev_stage = None
        for idx, desc in enumerate(descs):
            stage = desc["node"].stage
            if stage is not prev_stage:
                for key in list(open_groups):
                    close(key)
                prev_stage = stage
            reads = set(desc["in_slots"])
            for key in list(open_groups):
                if reads & member_out[key]:
                    close(key)
            key = eligible(desc)
            if key is not None:
                open_groups.setdefault(key, []).append(idx)
                member_out.setdefault(key, set()).add(desc["out_slots"][0])
        for key in list(open_groups):
            close(key)

        if not groups:
            return descs

        drop: set[int] = set()
        merged_at: dict[int, dict[str, Any]] = {}
        for grp in groups:
            nodes = [descs[i]["node"] for i in grp]
            a_slots = tuple(descs[i]["in_slots"][0] for i in grp)
            b_slots = tuple(descs[i]["in_slots"][1] for i in grp)
            out_slots = tuple(descs[i]["out_slots"][0] for i in grp)
            # A shared operand (one slot feeds every member — the fixed key
            # matrix in attention scoring) skips stacking entirely:
            # np.matmul broadcasts it across the group. At most one side
            # stays 2-D so the stacked kernel always emits [G x M x N].
            shared_a = len(set(a_slots)) == 1
            shared_b = not shared_a and len(set(b_slots)) == 1
            merged = {
                "kind": "batched",
                "node": nodes[0],
                "nodes": nodes,
                "a_slots": a_slots,
                "b_slots": b_slots,
                "shared_a": shared_a,
                "shared_b": shared_b,
                "ta": nodes[0].attrs["ta"],
                "tb": nodes[0].attrs["tb"],
                "in_slots": tuple(dict.fromkeys(a_slots + b_slots)),
                "out_slots": out_slots,
                "scratch_a": None,
                "scratch_b": None,
                # Rewrite witness for the equivalence certifier: the
                # exact member/operand wiring this stack claims.
                "witness": {
                    "members": tuple(n.uid for n in nodes),
                    "a_slots": a_slots,
                    "b_slots": b_slots,
                    "ta": nodes[0].attrs["ta"],
                    "tb": nodes[0].attrs["tb"],
                    "shape": nodes[0].out_specs[0].shape,
                    "dtype": dtype_name(nodes[0].out_specs[0].dtype),
                },
            }
            merged_at[grp[-1]] = merged
            drop.update(grp[:-1])
            # Member slots form one alias group rooted at the first slot:
            # they are views of one stacked buffer, released together.
            # (Each member is its own root until now; slots already
            # aliasing a member follow it when the table is resolved.)
            group_root = out_slots[0]
            for s in out_slots:
                root[s] = group_root
            arena_produced[group_root] = True
            self.batched_gemm_groups += 1
            self.batched_gemm_nodes += len(grp)

        resolve_roots(root)
        rewritten: list[dict[str, Any]] = []
        for idx, desc in enumerate(descs):
            if idx in drop:
                continue
            rewritten.append(merged_at.get(idx, desc))
        return rewritten

    # -- wavefront program ---------------------------------------------------

    def _plan_program(
        self,
        descs: list[dict[str, Any]],
        root: list[int],
        storage_tokens: dict[Any, tuple[int, ...]],
    ) -> list[tuple[str, Any]] | None:
        """Partition the stream into serial segments and parallel levels.

        Returns a layout: ``("serial", [desc idx...])`` and
        ``("parallel", [[desc idx chunk]...])`` items, in execution order.
        Runs of serial levels merge into one segment; a schedule with no
        parallel level has no program at all (None) — the plan executes
        the plain baked body, exactly as ``threads=1`` would.
        """
        device = self._device
        if device is None:
            # The ambient default: calibrated when a tuning store has
            # coverage (REPRO_TUNE_DIR), plain analytical otherwise.
            from repro.pgo.calibrated import default_device

            device = default_device()
            self._device = device

        infos = build_instr_infos(descs, root, storage_tokens, device)
        self._wavefront_infos = infos

        schedule = analyze_wavefronts(infos, self.threads)
        self._wavefront_schedule = schedule
        self.wavefront_region_count = schedule.region_count
        self.wavefront_level_count = len(schedule.levels)
        self.parallel_level_count = len(schedule.parallel_levels)
        self.gated_level_count = schedule.gated_level_count
        self.parallel_instruction_count = schedule.parallel_instruction_count
        self.max_wavefront_width = schedule.max_width
        self.wavefront_saving_seconds = schedule.saving_seconds
        if not self.parallel_level_count:
            return None

        layout: list[tuple[str, Any]] = []
        serial_run: list[int] = []
        for wf in schedule.levels:
            if not wf.parallel:
                serial_run.extend(wf.instructions)
                continue
            if serial_run:
                layout.append(("serial", serial_run))
                serial_run = []
            layout.append(("parallel", wf.chunks))
        if serial_run:
            layout.append(("serial", serial_run))
        return layout

    def _bake_program(
        self,
        layout: list[tuple[str, Any]],
        descs: list[dict[str, Any]],
        clears_at: dict[int, tuple[int, ...]],
        static_views: dict[int, np.ndarray],
    ) -> list[tuple[Any, ...]]:
        """Bake the wavefront layout into executable program items.

        Clears are re-homed from stream positions to program items: a slot
        is dropped after the *last program item* that consumes it (levels
        may execute a stream-later consumer before a stream-earlier one,
        so the serial clear placement would be unsafe). Each item becomes
        ``(runner, chunks_or_None, clear_slots)``.
        """
        item_of: dict[int, int] = {}
        for item_idx, (_kind, members) in enumerate(layout):
            idxs = (
                [i for chunk in members for i in chunk]
                if _kind == "parallel"
                else members
            )
            for i in idxs:
                item_of[i] = item_idx

        # Which program item finalizes each written slot: consumers of the
        # level-completion hook (distributed gradient overlap) use this to
        # know when an output register may be read mid-run.
        self._item_of_slot = {}
        for idx, desc in enumerate(descs):
            for s in desc["out_slots"]:
                self._item_of_slot[s] = max(
                    self._item_of_slot.get(s, -1), item_of[idx]
                )

        clear_slots: set[int] = set()
        for slots in clears_at.values():
            clear_slots.update(slots)
        last_item: dict[int, int] = {}
        for idx, desc in enumerate(descs):
            item = item_of[idx]
            for s in desc["in_slots"]:
                if s in clear_slots:
                    last_item[s] = max(last_item.get(s, -1), item)
            for s in desc["out_slots"]:
                if s in clear_slots:
                    last_item.setdefault(s, item)
        item_clears: dict[int, list[int]] = {}
        for s, item in last_item.items():
            item_clears.setdefault(item, []).append(s)

        program: list[tuple[Any, ...]] = []
        for item_idx, (kind, members) in enumerate(layout):
            clears = tuple(sorted(item_clears.get(item_idx, ())))
            if kind == "serial":
                program.append(
                    ("serial", self._bake_body(members, clears), None)
                )
            else:
                chunk_fns = [self._bake_body(chunk, ()) for chunk in members]
                program.append(("parallel", chunk_fns, clears))
        return program

    def _bake_body(
        self, step_indices: Sequence[int], clears: tuple[int, ...]
    ) -> Callable[[list], None]:
        """One straight-line function calling the given steps in order.

        Used for the full serial body, for serial program segments, and
        for parallel chunks (no iterator machinery anywhere in the hot
        loop). ``clears`` appends register drops after the last step.
        The source depends only on the two counts, so same-shape plans
        and equal-sized chunks share one template.
        """
        if not step_indices and not clears:
            return lambda regs: None
        callees = _names("_s", len(step_indices))
        params = ", ".join(("regs",) + callees + _names("_c", len(clears)))
        calls = "".join(f"\n    {name}(regs)" for name in callees)
        src = f"def body({params}):{calls}{_clear_src(len(clears))}\n"
        steps = self._steps
        return self._bake(src, (*[steps[i] for i in step_indices], *clears))

    @staticmethod
    def _fuse_chains(
        body: list[Node],
        output_keys: set[TensorKey],
        serial: bool = False,
    ) -> list[list[Node]]:
        """Group the body into maximal single-consumer chains.

        An edge producer->consumer fuses when both ops are single-output
        and ``fusion_eligible``, the producer's only consumer is this node
        (once, at an in-place-capable operand position), shapes and dtypes
        match (so one accumulator buffer serves the whole chain), the
        value does not escape as a graph output, and both nodes belong to
        the same stage — fusion never crosses a checkpoint boundary, so
        Echo's mirrored recompute regions stay intact.

        A chain executes at its tail's position, so every member it makes
        wait keeps that member's operands live. The ``serial`` lowering
        (``threads == 1``, no GEMM batching) therefore adds two rules that
        keep fusion from lengthening a live range: a chain may also
        *start* at a ``fusion_head`` GEMM, and of a consumer's fusable
        producers the one scheduled *last* takes it — the others are
        complete by then and are read as external operands. Gradient
        accumulation ``add(acc, matmul(..))`` then lowers to one ``[matmul
        -> add]`` per timestep at the matmul's own position, reading the
        running sum: two live buffers per shared weight. First-producer-
        wins chains every ``add`` at the end of backward instead and keeps
        all T partial products live until then.

        With ``threads > 1`` or ``batch_gemms`` the stream stays as it
        was: the batcher and the wavefront gate reason about free-standing
        ``matmul`` instructions, and GEMM heads at ``threads=2`` dissolved
        batched groups — measured ``iter_host_ops`` 85 802 -> 86 746
        (+1.1%, bound 1%) on the harness ``wordlm_dist2``. The condition
        goes when that layer does (ROADMAP item 2).
        """
        consumers: dict[TensorKey, list[tuple[Node, int]]] = {}
        for n in body:
            for pos, t in enumerate(n.inputs):
                consumers.setdefault(t.key, []).append((n, pos))

        next_of: dict[int, Node] = {}
        prev_of: dict[int, Node] = {}
        # Claims are first come, first served: walking the stream backwards
        # hands each consumer to its last-scheduled producer.
        for a in reversed(body) if serial else body:
            if len(a.out_specs) != 1 or not (
                a.op.fusion_eligible or (serial and a.op.fusion_head)
            ):
                continue
            key = (a.uid, 0)
            if key in output_keys:
                continue
            cons = consumers.get(key, [])
            if len(cons) != 1:
                continue
            b, pos = cons[0]
            if not b.op.fusion_eligible or len(b.out_specs) != 1:
                continue
            if pos not in b.op.inplace_operands:
                continue
            if b.uid in prev_of:
                continue
            if a.out_specs[0].shape != b.out_specs[0].shape:
                continue
            if a.out_specs[0].dtype != b.out_specs[0].dtype:
                continue
            if a.stage is not b.stage:
                continue
            next_of[a.uid] = b
            prev_of[b.uid] = a

        chains: list[list[Node]] = []
        for n in body:
            if n.uid in next_of:
                continue  # absorbed into its consumer's instruction
            chain = [n]
            cur = n
            while cur.uid in prev_of:
                cur = prev_of[cur.uid]
                chain.append(cur)
            chain.reverse()
            chains.append(chain)
        return chains

    # -- closure factories ---------------------------------------------------

    def _bake(
        self, src: str, values: tuple, node: Node | None = None
    ) -> Callable[[list], None]:
        """Instantiate one generated closure from its template.

        ``src`` is a single ``def f(regs, <params>)`` whose body is exact
        minimal bytecode for the instruction (register clears fully
        unrolled) and reads every compile-time constant — kernels, static
        buffers, slot numbers, shapes — through its parameters: local
        loads at run time, no cell or global lookups, and no literal that
        would make the source unique to one instruction. ``values`` binds
        the parameters as defaults; the code object comes from the
        process-wide :data:`TEMPLATES` memo. ``node`` tags instruction
        steps for the failure-replay path in :meth:`run`.
        """
        try:
            code = TEMPLATES.codes[src]
            self.template_hits += 1
        except KeyError:
            code = TEMPLATES.compile(src)
            self.templates_compiled += 1
        fn = FunctionType(code, _CLOSURE_GLOBALS, code.co_name, values)
        if node is not None:
            fn._node = node
        return fn

    def _make_out_step(self, node, in_slots, out_slots, clear, statics):
        acquire_fresh = self.arena.acquire_fresh
        compute_into = node.op.compute_into
        specs = [
            (s.shape, s.dtype, s.nbytes) for s in node.out_specs
        ]
        if len(out_slots) == 1:
            static = statics[0]
            shape, dtype, nbytes = specs[0]
            kernel = _raw_kernel(node)
            n_in = len(in_slots)
            args = ", ".join(_regs("_i", n_in))
            operands = f"({args},)" if n_in == 1 else f"({args})"
            # With a static buffer the step has no allocator at all — the
            # output array is a default-argument constant.
            if static is not None and kernel is not None:
                head, values = "_k, _s", (kernel, static)
                work = f"_k({args}, _s)\n    regs[_o] = _s"
            elif static is not None:
                head, values = "_n, _f, _s", (node, compute_into, static)
                work = f"_f(_n, {operands}, (_s,))\n    regs[_o] = _s"
            elif kernel is not None:
                head = "_a, _sh, _d, _nb, _k"
                values = (acquire_fresh, shape, dtype, nbytes, kernel)
                work = (
                    f"out = _a(_sh, _d, _nb)\n    _k({args}, out)\n"
                    "    regs[_o] = out"
                )
            else:
                head = "_a, _sh, _d, _nb, _n, _f"
                values = (
                    acquire_fresh, shape, dtype, nbytes, node, compute_into,
                )
                work = (
                    "out = _a(_sh, _d, _nb)\n"
                    f"    _f(_n, {operands}, (out,))\n    regs[_o] = out"
                )
            slots = ", ".join(
                _names("_i", n_in) + ("_o",) + _names("_c", len(clear))
            )
            src = (
                f"def step(regs, {head}, {slots}):\n"
                f"    {work}{_clear_src(len(clear))}\n"
            )
            return self._bake(
                src, (*values, *in_slots, out_slots[0], *clear), node
            )

        if all(st is not None for st in statics):

            def step(regs):
                compute_into(node, [regs[s] for s in in_slots], statics)
                for s, arr in zip(out_slots, statics):
                    regs[s] = arr
                for s in clear:
                    regs[s] = None

        else:

            def step(regs):
                outs = [
                    st if st is not None else acquire_fresh(sh, dt, nb)
                    for st, (sh, dt, nb) in zip(statics, specs)
                ]
                compute_into(node, [regs[s] for s in in_slots], outs)
                for s, arr in zip(out_slots, outs):
                    regs[s] = arr
                for s in clear:
                    regs[s] = None

        step._node = node
        return step

    def _make_batched_step(self, desc, clear, static):
        """One stacked GEMM instruction covering a batched group.

        Member inputs are copied into permanent scratch stacks (skipped
        when the operand is shared by every member — the attention-scoring
        case, where one key matrix serves all decoder steps), the stacked
        kernel runs once, and each member's register receives its slice of
        the stacked result.
        """
        node = desc["node"]
        group = len(desc["out_slots"])
        spec = node.out_specs[0]
        params = ["_mm", "_cp", "_EE", "_t"]
        values: list = [np.matmul, np.copyto, ExecutionError, node]
        lines: list[str] = []

        # Operands: member rows copied into the scratch stack, or the one
        # shared register read directly.
        operands = []
        for side, slots, shared, scratch, trans in (
            ("x", desc["a_slots"], desc["shared_a"], desc["scratch_a"],
             desc["ta"]),
            ("y", desc["b_slots"], desc["shared_b"], desc["scratch_b"],
             desc["tb"]),
        ):
            if shared:
                params.append(f"_{side}0")
                values.append(slots[0])
                operands.append(f"regs[_{side}0]" + (".T" if trans else ""))
                continue
            params += [f"_{side}v", f"_{side}s", *_names(f"_{side}", group)]
            values += [
                tuple(scratch[i] for i in range(group)),
                stacked_operand(scratch, trans),
                *slots,
            ]
            lines.extend(
                f"        _cp(_{side}v[{i}], {reg})"
                for i, reg in enumerate(_regs(f"_{side}", group))
            )
            operands.append(f"_{side}s")
        a_expr, b_expr = operands

        if static is not None:
            params += ["_ov", "_S"]
            values += [tuple(static[i] for i in range(group)), static]
            lines.append(f"        _mm({a_expr}, {b_expr}, out=_S)")
            result = "_ov"
        else:
            params += ["_a", "_sh", "_d", "_nb"]
            values += [
                self.arena.acquire_fresh, (group,) + spec.shape, spec.dtype,
                group * spec.nbytes,
            ]
            lines.insert(0, "        buf = _a(_sh, _d, _nb)")
            lines.append(f"        _mm({a_expr}, {b_expr}, out=buf)")
            result = "buf"
        assigns = "".join(
            f"\n    {reg} = {result}[{i}]"
            for i, reg in enumerate(_regs("_o", group))
        )
        params += [*_names("_o", group), *_names("_c", len(clear))]
        values += [*desc["out_slots"], *clear]
        src = (
            f"def step(regs, {', '.join(params)}):\n"
            "    try:\n"
            + "\n".join(lines) + "\n"
            "    except Exception as exc:\n"
            "        raise _EE(\n"
            "            f'kernel failure in batched GEMM group at "
            "{_t!r}: {exc}'\n"
            "        ) from exc"
            f"{assigns}{_clear_src(len(clear))}\n"
        )
        step = self._bake(src, tuple(values), node)
        step._batched = True
        return step

    def _make_fused_step(self, chain, out_slot, clear, static):
        tail = chain[-1][1]
        spec = tail.out_specs[0]
        shape, dtype, nbytes = spec.shape, spec.dtype, spec.nbytes
        # The chain body is fully unrolled: one source line per member,
        # streaming the accumulator ``buf`` through the kernels. Members
        # with a bindable raw kernel (see :func:`_raw_kernel`) skip the
        # ``compute_into`` wrapper entirely. External operands are read
        # through slot parameters numbered along the chain.
        params: list[str] = []
        values: list = []
        in_slots: list[int] = []
        lines = []
        for j, (op, node, pattern) in enumerate(chain):
            args = []
            for s in pattern:
                if s < 0:
                    args.append("buf")
                else:
                    args.append(f"regs[_i{len(in_slots)}]")
                    in_slots.append(s)
            args = ", ".join(args)
            kernel = _raw_kernel(node)
            if kernel is not None:
                params.append(f"_k{j}")
                values.append(kernel)
                lines.append(f"    _k{j}({args}, buf)")
            else:
                params += [f"_f{j}", f"_n{j}"]
                values += [op.compute_into, node]
                comma = "," if len(pattern) == 1 else ""
                lines.append(f"    _f{j}(_n{j}, ({args}{comma}), (buf,))")
        if static is not None:
            params.append("_s")
            values.append(static)
            alloc = "    buf = _s"
        else:
            params += ["_a", "_sh", "_d", "_nb"]
            values += [self.arena.acquire_fresh, shape, dtype, nbytes]
            alloc = "    buf = _a(_sh, _d, _nb)"
        params += [
            *_names("_i", len(in_slots)), "_o", *_names("_c", len(clear)),
        ]
        values += [*in_slots, out_slot, *clear]
        src = (
            f"def step(regs, {', '.join(params)}):\n"
            f"{alloc}\n"
            + "\n".join(lines) + "\n"
            f"    regs[_o] = buf{_clear_src(len(clear))}\n"
        )
        step = self._bake(src, tuple(values), tail)
        step._fused = True
        #: for the failure replay in :meth:`run`, which names the member
        step._chain = chain
        return step

    def _make_alias_step(self, node, in_slots, out_slots, indices, clear):
        """An elided copy: bind a view of the input register, run nothing.

        ``indices`` has one entry per output slot — an index object
        applied to the input (``slice_axis``, leading-axis ``split``) or
        None for a pure rebind (identity ``concat``/``broadcast_to``,
        full-range slice). The bound view holds exactly the values the
        copy kernel would have produced, so downstream kernels are
        bitwise-unchanged; only the copy's launch and its buffer are gone.
        """
        params: list[str] = []
        values: list = []
        lines = []
        for j, index in enumerate(indices):
            if index is None:
                lines.append(f"\n    regs[_o{j}] = regs[_i0]")
            else:
                params.append(f"_ix{j}")
                values.append(index)
                lines.append(f"\n    regs[_o{j}] = regs[_i0][_ix{j}]")
        params += [
            "_i0", *_names("_o", len(out_slots)), *_names("_c", len(clear)),
        ]
        values += [in_slots[0], *out_slots, *clear]
        src = (
            f"def step(regs, {', '.join(params)}):"
            f"{''.join(lines)}{_clear_src(len(clear))}\n"
        )
        return self._bake(src, tuple(values), node)

    def _make_view_step(self, node, in_slots, out_slots, clear):
        slots = ", ".join(
            _names("_i", len(in_slots)) + ("_o",) + _names("_c", len(clear))
        )
        if node.op.name == "reshape" and len(in_slots) == 1:
            # The dominant view op; the target shape is static, so the
            # step is a bare ndarray.reshape (same view ``compute`` makes).
            head, values = "_sh", (node.out_specs[0].shape,)
            work = "regs[_i0].reshape(_sh)"
        else:
            head, values = "_n, _f", (node, node.op.compute)
            args = ", ".join(_regs("_i", len(in_slots)))
            work = f"_f(_n, [{args}])[0]"
        src = (
            f"def step(regs, {head}, {slots}):\n"
            f"    regs[_o] = {work}{_clear_src(len(clear))}\n"
        )
        return self._bake(
            src, (*values, *in_slots, out_slots[0], *clear), node
        )

    def _make_generic_step(self, node, in_slots, out_slots, clear, guard):
        compute = node.op.compute
        specs = list(node.out_specs)
        plan = self
        lock = self._alloc_lock

        def step(regs):
            results = compute(node, [regs[s] for s in in_slots])
            if lock is None:
                plan.generic_alloc_count += len(results)
            else:
                with lock:
                    plan.generic_alloc_count += len(results)
            for j, (s, arr) in enumerate(zip(out_slots, results)):
                expected = specs[j]
                if tuple(arr.shape) != expected.shape:
                    raise ExecutionError(
                        f"{node.name} output {j}: kernel produced shape "
                        f"{arr.shape}, spec says {expected.shape}"
                    )
                for g in guard:
                    src = regs[g]
                    if arr is src or (
                        arr.base is not None and np.may_share_memory(arr, src)
                    ):
                        # The kernel returned (a view of) an input whose
                        # static buffer later instructions overwrite;
                        # detach it.
                        arr = arr.copy()
                        break
                regs[s] = arr
            for s in clear:
                regs[s] = None

        step._node = node
        return step

    # -- execution -----------------------------------------------------------

    @property
    def program_item_count(self) -> int:
        """Number of level-completion hook firings per run (>= 1)."""
        return len(self._program) if self._program is not None else 1

    def output_ready_items(self) -> list[int]:
        """For each plan output, the program item after which its register
        holds the final value.

        Serial plans (no wavefront program) run as one body, so every
        output is item ``0`` — the hook fires once, at the end. Consumers
        overlapping work with execution (distributed gradient reduction)
        compare these indices against the hook's item argument; output
        registers are pinned, never recycled (LT104), so reading one
        after its item completes is safe while later items execute.
        """
        if self._program is None:
            return [0] * len(self._output_slots)
        return [
            self._item_of_slot.get(s, 0) for s in self._output_slots
        ]

    def output_value(self, regs: list, index: int) -> np.ndarray:
        """Read plan output ``index`` from a live register file.

        For hook consumers: valid once ``output_ready_items()[index]``
        has retired (the register is pinned thereafter).
        """
        return regs[self._output_slots[index]]

    def run(
        self,
        feeds: Mapping[str, np.ndarray] | None = None,
        params: Mapping[str, np.ndarray] | None = None,
        on_item: Any | None = None,
    ) -> list[np.ndarray]:
        """Execute one iteration; returns the output arrays.

        ``on_item(item_index, regs)`` — the level-completion hook — is
        invoked after each program item (serial segment or parallel
        level) retires, with the live register file. Hook consumers may
        *read* registers whose finalizing item has passed (see
        :meth:`output_ready_items`) but must never write any; exceptions
        propagate and abort the run.
        """
        feeds = feeds or {}
        params = params or {}
        regs = self._template[:]
        for slot, node, kind in self._bindings:
            regs[slot] = bind_source(
                feeds if kind == "placeholder" else params, node, kind
            )
        hook_error: list[BaseException] = []

        def fire(item_idx: int) -> None:
            try:
                on_item(item_idx, regs)
            except BaseException as exc:
                # Remember it: hook failures must reach the caller as-is
                # (the distributed trainer dispatches on them), not be
                # re-attributed to a kernel by the replay below.
                hook_error.append(exc)
                raise

        traced = obs_trace.TRACING
        try:
            if self._program is None:
                if traced:
                    with obs_trace.span("exec.body", "exec"):
                        self._body(regs)
                else:
                    self._body(regs)
                if on_item is not None:
                    fire(0)
            else:
                # Resolved per run, never cached on the plan: a forked
                # child inherits the plan but not the pool's threads.
                pool = shared_pool(self.threads - 1)
                for item_idx, (kind, payload, clears) in enumerate(
                    self._program
                ):
                    if kind == "serial":
                        if traced:
                            with obs_trace.span(
                                "wavefront.item", "exec",
                                {"item": item_idx, "kind": "serial"},
                            ):
                                payload(regs)
                        else:
                            payload(regs)
                    else:
                        if traced:
                            with obs_trace.span(
                                "wavefront.item", "exec",
                                {"item": item_idx, "kind": "level",
                                 "chunks": len(payload)},
                            ):
                                pool.run_level(payload, regs)
                        else:
                            pool.run_level(payload, regs)
                        for s in clears:
                            regs[s] = None
                    if on_item is not None:
                        fire(item_idx)
        except ExecutionError:
            raise
        except Exception as first:
            if hook_error:
                raise
            # Slow path, failures only: re-execute step by step from fresh
            # registers to attribute the failure to a node. Kernels are
            # deterministic (dropout is counter-based on the already-set
            # global step), so the replay reproduces the same failure.
            regs = self._template[:]
            for slot, node, kind in self._bindings:
                regs[slot] = bind_source(
                    feeds if kind == "placeholder" else params, node, kind
                )
            step = None
            try:
                for step in self._steps:
                    step(regs)
            except ExecutionError:
                raise
            except Exception as exc:
                node = _failing_node(step, regs) if step is not None else None
                raise ExecutionError(
                    f"kernel failure in {node!r}: {exc}"
                ) from exc
            raise ExecutionError(f"kernel failure: {first}") from first
        return [regs[s] for s in self._output_slots]
