"""Wavefront analysis over a lowered instruction stream.

The compiled plan executes one instruction at a time even though the
training graph is wide: bidirectional encoder directions, the four LSTM
gate branches, independent weight-gradient GEMMs. This module partitions
the instruction stream into *wavefronts* — dependency levels whose
instructions are mutually independent — and decides which levels are
worth executing on parallel worker threads and which must stay serial
because the thread hand-off would cost more than the overlap buys.

Dependencies are computed at two granularities:

* **values** (RAW): an instruction reading a slot depends on the
  instruction that wrote it;
* **storage** (WAR/WAW): the plan's static buffer assignment reuses raw
  arena pages across slots, so an instruction overwriting a page must wait
  for the readers of the page's previous tenant, and writers of one page
  are totally ordered. Without these edges two "independent" instructions
  could race on shared storage.

Echo stage boundaries are hard barriers: levels never span a change of
:class:`repro.graph.Stage` in the stream, so mirrored recompute regions
replay exactly as the serial plan (and the memory/footprint accounting,
which is node-based, is untouched). Checkpoint stash points sit on those
boundaries by construction — a stash is the last forward-stage value a
backward/recompute run consumes.

**The gate is priced in host seconds.** Echo accepts a rewrite only when
its modelled benefit exceeds its modelled overhead; the same rule decides
parallelism here, with both sides in the unit the overhead is actually
paid in. ``InstrInfo.cost_seconds`` is the predicted *host* wall-clock of
the instruction's numpy kernels (measured records when the device model
is calibrated, a fixed host roofline otherwise — see
:meth:`repro.gpumodel.DeviceModel.predict_host_seconds`), and a level is
split into ``k`` chunks only when::

    level cost - heaviest chunk  >  (k - 1) * HANDOFF_SECONDS

i.e. every chunk handed to a worker must buy back its own hand-off. The
best ``k`` in ``2..threads`` wins; no ``k`` paying means the level stays
serial. That keeps every level of 1-30 us LSTM-cell kernels serial — a
plan made only of such levels falls back to the single baked body and is
instruction-for-instruction the serial plan — while levels of genuinely
large independent kernels (milliseconds each) keep their chunks.
Simulated device seconds are no proxy here: the device model prices no
kernel below ~2.2 us while a hand-off costs the host 12-3000 us, and a
gate in those units let every two-instruction level through (word-LM
batch 8: 15.7 ms at ``threads=2`` against 9.7 ms at ``threads=1``).

This module is also the program half of a ``threads > 1``
:class:`repro.runtime.compiled.CompiledPlan`: :func:`plan_program` turns a
lowering's schedule into a layout of serial segments and parallel levels,
and :func:`bake_program` bakes it through the plan's code generator with
register clears re-homed to program items. A plan with no level worth
splitting has no program and runs the same single baked body as
``threads=1`` — so parallel execution only ever overlaps instructions with
no value or storage hazard between them, and stays bitwise-identical to
serial execution by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.runtime.arena import storage_base

__all__ = [
    "InstrInfo",
    "Wavefront",
    "WavefrontSchedule",
    "analyze_wavefronts",
    "bake_program",
    "build_instr_infos",
    "partition_chunks",
    "plan_program",
    "HANDOFF_SECONDS",
]

#: Host seconds one chunk handed to a worker thread costs the level:
#: wall-clock of the level run through :meth:`repro.runtime.workers.
#: WorkerPool.run_level` as two chunks, minus its heavier chunk run alone.
#: Measured on the 2-core CI-class host (numpy 2.4, OpenBLAS pinned to one
#: thread); "in plan" rows time the level inside a training iteration
#: (``on_item`` timestamps), where the worker has idled for tens of
#: milliseconds, the others a hot loop over the pair.
#:
#: =========================================  ========  ========  ========
#: level (two chunks)                         serial    parallel  overhead
#: =========================================  ========  ========  ========
#: no-op                                      -         12 us     12 us
#: 64 KiB ``np.add`` (4 us each)              6.5 us    84 us     80 us
#: 128^3 sgemm (46 us)                        93 us     119 us    73 us
#: 256^3 sgemm (287 us)                       631 us    726 us    439 us
#: 512^3 sgemm (2.38 ms)                      4.92 ms   2.72 ms   0.33 ms
#: 4 MiB ``np.add`` (0.57 ms)                 1.00 ms   0.72 ms   0.15 ms
#: word-LM dW/dh, batch 8 (0.35 ms)           0.84 ms   0.90 ms   0.55 ms
#: same, in plan: iteration                   9.87 ms   10.2 ms   ~0.7 ms
#: NMT dW/dh, hidden 128 batch 32 (1.9 ms)    3.4 ms    3.2 ms    1.3 ms
#: same, in plan: the level's item            4.6-4.9   4.6-5.4   2.3-3.0
#: =========================================  ========  ========  ========
#:
#: The queue put, wake-up and barrier are the first 12-80 us. The rest is
#: overlap that does not happen: a woken worker needs the interpreter
#: lock to dispatch, kernels that keep it run back to back, and the
#: output-layer GEMM pairs that are the only wide *and* heavy levels of
#: our models did not overlap on this host even with the lock released
#: (0.90-1.12x over seven operand layouts) — only the square 512^3 pair
#: and the 4 MiB adds ever won. The constant sits above every in-plan
#: overhead measured. It is a constant, not an option: the decision must
#: repeat exactly from run to run (``iter_host_ops`` and the persisted
#: layouts depend on it).
HANDOFF_SECONDS = 3e-3


@dataclass
class InstrInfo:
    """Dependence-relevant facts about one lowered instruction."""

    index: int
    reads: tuple[int, ...]  # slots read
    writes: tuple[int, ...]  # slots written
    read_bases: tuple[int, ...]  # storage ids read (static buffers)
    write_bases: tuple[int, ...]  # storage ids written (static + scratch)
    stage: object  # repro.graph.Stage of the instruction's node(s)
    cost_seconds: float  # predicted host wall-clock of its kernels


@dataclass
class Wavefront:
    """One dependency level inside a stage region."""

    instructions: list[int]  # instruction indices, stream order
    cost_seconds: float  # predicted host seconds, executed serially
    parallel: bool  # cost gate verdict
    #: the cost-balanced chunks a parallel level executes as (else empty)
    chunks: list[list[int]] = field(default_factory=list)
    #: modelled host seconds the split saves net of its hand-offs (0 when
    #: the level stays serial)
    saving_seconds: float = 0.0


@dataclass
class WavefrontSchedule:
    """Level structure of one instruction stream."""

    levels: list[Wavefront] = field(default_factory=list)
    region_count: int = 0  # stage regions (barrier-separated)

    @property
    def parallel_levels(self) -> list[Wavefront]:
        return [w for w in self.levels if w.parallel]

    @property
    def gated_level_count(self) -> int:
        """Multi-instruction levels the cost gate kept serial."""
        return sum(
            1 for w in self.levels
            if len(w.instructions) > 1 and not w.parallel
        )

    @property
    def parallel_instruction_count(self) -> int:
        return sum(len(w.instructions) for w in self.parallel_levels)

    @property
    def saving_seconds(self) -> float:
        """Modelled net host seconds per run the parallel levels buy."""
        return sum(w.saving_seconds for w in self.levels)

    @property
    def max_width(self) -> int:
        return max((len(w.instructions) for w in self.levels), default=0)


def _dependency_edges(infos: Sequence[InstrInfo]) -> list[list[int]]:
    """Predecessor lists from value (RAW) and storage (WAR/WAW) hazards."""
    preds: list[list[int]] = [[] for _ in infos]

    writer_of_slot: dict[int, int] = {}
    for info in infos:
        for s in info.reads:
            producer = writer_of_slot.get(s)
            if producer is not None:
                preds[info.index].append(producer)
        for s in info.writes:
            writer_of_slot[s] = info.index

    # Storage hazards per raw base, stream order: readers must precede the
    # next writer (WAR); writers are totally ordered (WAW). RAW through
    # storage coincides with slot RAW and needs no extra edge.
    last_writer: dict[int, int] = {}
    readers_since: dict[int, list[int]] = {}
    for info in infos:
        for b in info.read_bases:
            readers_since.setdefault(b, []).append(info.index)
        for b in info.write_bases:
            prev_writer = last_writer.get(b)
            if prev_writer is not None and prev_writer != info.index:
                preds[info.index].append(prev_writer)
            for r in readers_since.get(b, ()):
                if r != info.index:
                    preds[info.index].append(r)
            readers_since[b] = []
            last_writer[b] = info.index
    return preds


def analyze_wavefronts(
    infos: Sequence[InstrInfo],
    threads: int,
) -> WavefrontSchedule:
    """Partition the stream into cost-gated dependency levels.

    ``infos`` must be in stream (schedule) order with ``index`` equal to
    the list position. Levels are computed independently inside each
    maximal run of equal ``stage`` — stage transitions are barriers.
    """
    if any(info.index != i for i, info in enumerate(infos)):
        raise ValueError("InstrInfo.index must match stream position")
    schedule = WavefrontSchedule()
    if not infos:
        return schedule
    preds = _dependency_edges(infos)

    # Stage regions: maximal runs of equal stage.
    regions: list[tuple[int, int]] = []
    start = 0
    for i in range(1, len(infos)):
        if infos[i].stage is not infos[start].stage:
            regions.append((start, i))
            start = i
    regions.append((start, len(infos)))
    schedule.region_count = len(regions)

    level_of: dict[int, int] = {}
    for lo, hi in regions:
        by_level: dict[int, list[int]] = {}
        for i in range(lo, hi):
            # Predecessors outside the region executed behind the barrier.
            level = 0
            for p in preds[i]:
                if p >= lo:
                    lp = level_of[p]
                    if lp >= level:
                        level = lp + 1
            level_of[i] = level
            by_level.setdefault(level, []).append(i)
        for level in sorted(by_level):
            members = by_level[level]
            costs = [infos[i].cost_seconds for i in members]
            chunks, saving = partition_chunks(members, costs, threads)
            parallel = len(chunks) > 1
            schedule.levels.append(
                Wavefront(
                    members,
                    sum(costs),
                    parallel,
                    chunks if parallel else [],
                    saving,
                )
            )
    return schedule


def _lpt(
    costs: Sequence[float], num_chunks: int
) -> tuple[list[list[int]], float]:
    """Largest-first onto the lightest chunk; ties broken by position.

    Returns the chunks (positions into ``costs``) and the heaviest load.
    """
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    loads = [0.0] * num_chunks
    chunks: list[list[int]] = [[] for _ in range(num_chunks)]
    for i in order:
        lightest = min(range(num_chunks), key=lambda c: (loads[c], c))
        chunks[lightest].append(i)
        loads[lightest] += costs[i]
    return chunks, max(loads)


def partition_chunks(
    items: Sequence[int],
    costs: Sequence[float],
    threads: int,
    handoff_seconds: float = HANDOFF_SECONDS,
) -> tuple[list[list[int]], float]:
    """The gate: split a level into the chunk set that saves the most.

    For every chunk count ``k`` in ``2..min(threads, len(items))`` the
    items are dealt largest-first onto the lightest chunk (LPT) and the
    split is priced at ``total - heaviest chunk - (k - 1) * handoff`` host
    seconds: what the overlap buys minus one hand-off per chunk given to a
    worker. Returns ``(chunks, saving)`` for the best positive saving
    (smallest ``k`` on ties), chunks restored to stream order for
    cache-friendly execution — or ``([items], 0.0)`` when no split pays
    and the level stays serial. Deterministic throughout.
    ``handoff_seconds`` is a parameter for the gate's own tests only;
    plans always compile with the constant.
    """
    best: list[list[int]] | None = None
    best_saving = 0.0
    total = sum(costs)
    for k in range(2, min(threads, len(items)) + 1):
        chunks, heaviest = _lpt(costs, k)
        saving = total - heaviest - (k - 1) * handoff_seconds
        if saving > best_saving:
            best, best_saving = chunks, saving
    if best is None:
        return [list(items)], 0.0
    placed = [sorted(items[i] for i in chunk) for chunk in best if chunk]
    placed.sort(key=lambda c: c[0])
    return placed, best_saving


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


def plan_program(
    plan: Any, low: Any, device: Any | None
) -> list[tuple[str, Any]] | None:
    """Partition a lowering's stream into serial segments and parallel
    levels.

    Returns a layout: ``("serial", [desc idx...])`` and
    ``("parallel", [[desc idx chunk]...])`` items, in execution order.
    Runs of serial levels merge into one segment; a schedule with no
    parallel level has no program at all (None) — the plan executes
    the plain baked body, exactly as ``threads=1`` would. The infos,
    schedule and layout are recorded on the lowering ``low``, the level
    statistics on ``plan``.
    """
    if device is None:
        # The ambient default: calibrated when a tuning store has
        # coverage (REPRO_TUNE_DIR), plain analytical otherwise.
        from repro.pgo.calibrated import default_device

        device = default_device()

    infos = build_instr_infos(low.descs, low.root, low.storage_tokens, device)
    low.infos = infos

    schedule = analyze_wavefronts(infos, plan.threads)
    low.schedule = schedule
    plan.wavefront_region_count = schedule.region_count
    plan.wavefront_level_count = len(schedule.levels)
    plan.parallel_level_count = len(schedule.parallel_levels)
    plan.gated_level_count = schedule.gated_level_count
    plan.parallel_instruction_count = schedule.parallel_instruction_count
    plan.max_wavefront_width = schedule.max_width
    plan.wavefront_saving_seconds = schedule.saving_seconds
    if not plan.parallel_level_count:
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
    low.program_layout = layout
    return layout


def bake_program(
    plan: Any,
    codegen: Any,
    layout: list[tuple[str, Any]],
    descs: list[dict[str, Any]],
    clears_at: dict[int, tuple[int, ...]],
) -> list[tuple[Any, ...]]:
    """Bake the wavefront layout into executable program items.

    Clears are re-homed from stream positions to program items: a slot
    is dropped after the *last program item* that consumes it (levels
    may execute a stream-later consumer before a stream-earlier one,
    so the serial clear placement would be unsafe). Each item becomes
    ``(runner, chunks_or_None, clear_slots)``; bodies are baked by
    ``codegen`` (a :class:`repro.runtime.codegen.PlanCodegen`).
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
    plan._item_of_slot = {}
    for idx, desc in enumerate(descs):
        for s in desc["out_slots"]:
            plan._item_of_slot[s] = max(
                plan._item_of_slot.get(s, -1), item_of[idx]
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
                ("serial", codegen.bake_body(members, clears), None)
            )
        else:
            chunk_fns = [codegen.bake_body(chunk, ()) for chunk in members]
            program.append(("parallel", chunk_fns, clears))
    return program
