"""Code generation: a lowered stream becomes instruction closures.

Each descriptor of a :class:`repro.runtime.lowering.PlanLowering` becomes
one precompiled **instruction closure** with its input and output slots
and its error context bound at compile time, so the run loop is a
straight-line call sequence. Closures are *templated*: slots, shapes,
kernels, static buffers and byte counts are default-argument values, not
source literals, so every instruction of one form (across timesteps,
buckets and plans) is instantiated from a single code object in the
process-wide :data:`TEMPLATES` memo instead of being compiled again
(``compile()`` was a measured 12% of a cold NMT build). Each instruction
calls its node's :meth:`~repro.graph.Op.kernel`, built once here with
every attribute resolved, writing straight into the static buffers the
lowering assigned, so steady-state iterations allocate only the run's
escaping outputs. Views of static storage are computed once, here, and
placed in the register file every run starts from
(:meth:`PlanCodegen.bake_steps`), and one generated binder per plan
binds the feeds.

Every closure reproduces its op's ``compute`` bit for bit: kernels are
bitwise-identical to ``compute`` by contract, and a stacked GEMM issues
the same per-slice BLAS call as the matmuls it replaces.
"""

from __future__ import annotations

import builtins
import functools
import threading
from types import CodeType, FunctionType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.graph import Node
from repro.ops.matmul import stacked_operand
from repro.runtime.arena import Arena
from repro.runtime.lowering import PlanLowering

#: ``co_filename`` of every generated closure; profilers and the benchmark
#: harness attribute plan frames by this name
PLAN_FILENAME = "<compiled-plan>"

#: globals of every generated closure: bodies reach their compile-time
#: constants through default arguments, so only builtins resolve here
_CLOSURE_GLOBALS = {"__builtins__": builtins}


class ExecutionError(RuntimeError):
    """Raised on bad feeds or kernel failures."""


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


#: the process-wide memo every plan instantiates from
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


@functools.lru_cache(maxsize=1024)
def _out_source(n_in: int, n_clear: int, fresh: tuple[bool, ...]) -> str:
    """``_k(regs[_i0], .., _s0, ..)`` for an ``out`` instruction; output
    ``j`` is the bound buffer ``_sj``, or allocated from ``_a`` where
    ``fresh[j]``. Memoized by form: most instructions share a handful."""
    params, lines = ["_k", "_a"], []
    for j, is_fresh in enumerate(fresh):
        if is_fresh:
            params += [f"_sh{j}", f"_d{j}", f"_nb{j}"]
            lines.append(f"    _s{j} = _a(_sh{j}, _d{j}, _nb{j})")
        else:
            params.append(f"_s{j}")
    n_out = len(fresh)
    args = ", ".join(_regs("_i", n_in) + _names("_s", n_out))
    lines.append(f"    _k({args})")
    lines += [f"    regs[_o{j}] = _s{j}" for j in range(n_out)]
    params += [
        *_names("_i", n_in), *_names("_o", n_out), *_names("_c", n_clear),
    ]
    return (
        f"def step(regs, {', '.join(params)}):\n"
        + "\n".join(lines) + f"{_clear_src(n_clear)}\n"
    )


@functools.lru_cache(maxsize=1024)
def _fused_source(
    members: tuple[tuple[bool, ...], ...], fresh: bool, n_clear: int
) -> str:
    """A fused chain: one ``_kj(.., buf)`` line per member, streaming the
    accumulator ``buf`` (``members[j][p]``: operand ``p`` of member ``j``
    is ``buf``) through the kernels, external operands read through slot
    parameters numbered along the chain."""
    lines = ["    buf = _a(_sh, _d, _nb)" if fresh else "    buf = _s"]
    n_in = 0
    for j, pattern in enumerate(members):
        args = []
        for is_buf in pattern:
            if is_buf:
                args.append("buf")
            else:
                args.append(f"regs[_i{n_in}]")
                n_in += 1
        lines.append(f"    _k{j}({', '.join(args)}, buf)")
    params = [
        *_names("_k", len(members)),
        *(("_a", "_sh", "_d", "_nb") if fresh else ("_s",)),
        *_names("_i", n_in), "_o", *_names("_c", n_clear),
    ]
    return (
        f"def step(regs, {', '.join(params)}):\n"
        + "\n".join(lines) + "\n"
        f"    regs[_o] = buf{_clear_src(n_clear)}\n"
    )


def _fold(
    desc: dict[str, Any], fixed: dict[int, np.ndarray]
) -> list[np.ndarray] | None:
    """The views a ``view`` / ``alias`` descriptor binds, computed at bake
    time — or None unless its one input is ``fixed`` and every view
    shares that array's memory (a reshape that copies keeps its step)."""
    if len(desc["in_slots"]) != 1:
        return None
    src = fixed.get(desc["in_slots"][0])
    if src is None:
        return None
    if desc["kind"] == "alias":
        views = [
            src if index is None else src[index]
            for index in desc["alias_index"]
        ]
    else:
        node = desc["node"]
        if node.op.name == "reshape":
            views = [src.reshape(node.out_specs[0].shape)]
        else:
            views = [node.op.compute(node, [src])[0]]
    for view in views:
        if not np.may_share_memory(view, src):
            return None
    return views


class PlanCodegen:
    """Bakes one plan's closures from its lowering.

    ``plan`` owns ``generic_alloc_count``, which generic steps bump on
    every run (under a lock when ``threads > 1``: wavefront chunks run
    them concurrently). ``templates_compiled`` / ``template_hits`` count
    closure sources this plan had to ``compile`` / found in
    :data:`TEMPLATES`.
    """

    def __init__(self, plan: Any, arena: Arena, threads: int) -> None:
        self.plan = plan
        self.arena = arena
        self.lock = threading.Lock() if threads > 1 else None
        #: one entry per descriptor, None where a view was folded
        self.steps: list[Callable[[list], None] | None] = []
        self.templates_compiled = 0
        self.template_hits = 0

    def bake_steps(
        self,
        low: PlanLowering,
        clears_at: dict[int, tuple[int, ...]],
        template: list,
    ) -> list[Callable[[list], None] | None]:
        """One closure per descriptor; ``clears_at`` inlines register
        clears (empty when a wavefront program re-homes them). Static
        buffers are looked up by alias-group *root*, so in-place-rewritten
        slots resolve to the dying input's buffer.

        A ``view`` / ``alias`` descriptor is *folded* — its entry is None
        and its views are written into ``template``, the register file
        every run starts from — when its input register holds the same
        array on every run (a static buffer an earlier step writes, or an
        earlier folded view) and each view shares that array's memory. Slots
        are single-assignment, static-rooted registers are never cleared
        and a static buffer's address is fixed for the plan's life, so the
        register holds exactly the view the step would have bound.
        """
        root, static_views = low.root, low.static_views
        #: slot -> the array its register holds on every run
        fixed: dict[int, np.ndarray] = {}
        steps = self.steps
        for idx, desc in enumerate(low.descs):
            clear = clears_at.get(idx, ())
            kind = desc["kind"]
            out_slots = desc["out_slots"]
            if kind == "view" or kind == "alias":
                views = None if clear else _fold(desc, fixed)
                if views is not None:
                    for s, view in zip(out_slots, views):
                        template[s] = fixed[s] = view
                    steps.append(None)
                    continue
            if kind == "view":
                step = self._make_view_step(
                    desc["node"], desc["in_slots"], out_slots, clear
                )
            elif kind == "alias":
                step = self._make_alias_step(
                    desc["node"], desc["in_slots"], out_slots,
                    desc["alias_index"], clear,
                )
            elif kind == "batched":
                static = static_views.get(root[out_slots[0]])
                members = None
                if static is not None:
                    members = tuple(static[i] for i in range(len(out_slots)))
                    fixed.update(zip(out_slots, members))
                step = self._make_batched_step(desc, clear, static, members)
            elif kind == "generic":
                guard = tuple(
                    s
                    for s in dict.fromkeys(desc["in_slots"])
                    if root[s] in static_views
                )
                step = self._make_generic_step(
                    desc["node"], desc["in_slots"], out_slots, clear, guard
                )
            else:
                statics = [static_views.get(root[s]) for s in out_slots]
                for s, static in zip(out_slots, statics):
                    if static is not None:
                        fixed[s] = static
                if kind == "fused":
                    step = self._make_fused_step(
                        desc["chain"], out_slots[0], clear, statics[0]
                    )
                else:
                    step = self._make_out_step(
                        desc["node"], desc["in_slots"], out_slots, clear,
                        statics,
                    )
            steps.append(step)
        return steps

    def bake_binder(
        self, template: list, bindings: Sequence[tuple[int, Node, str]]
    ) -> Callable[..., list]:
        """``bind(feeds, params) -> regs``: a copy of ``template`` with every
        source bound, one unrolled block per ``(slot, node, kind)``.

        A value that is exactly an ``ndarray`` of the declared shape and
        dtype is bound as is; anything else — a missing key, a list, a
        subclass, another shape or dtype — goes through
        :func:`bind_source`, which raises or converts exactly as before.
        Nothing is cached across runs.
        """
        params = ["_t", "_nd", "_bs"]
        values: list = [template, np.ndarray, bind_source]
        lines = ["    regs = _t[:]"]
        for j, (slot, node, kind) in enumerate(bindings):
            table = "feeds" if kind == "placeholder" else "params"
            spec = node.out_specs[0]
            params += [f"_n{j}", f"_sh{j}", f"_d{j}", f"_b{j}", f"_r{j}"]
            values += [node.name, spec.shape, spec.dtype, node, slot]
            lines.append(
                f"    v = {table}.get(_n{j})\n"
                f"    if type(v) is _nd and v.shape == _sh{j} "
                f"and v.dtype == _d{j}:\n"
                f"        regs[_r{j}] = v\n"
                "    else:\n"
                f"        regs[_r{j}] = _bs({table}, _b{j}, {kind!r})"
            )
        src = (
            f"def bind(feeds, params, {', '.join(params)}):\n"
            + "\n".join(lines) + "\n    return regs\n"
        )
        return self._bake(src, tuple(values))

    def bake_body(
        self, step_indices: Sequence[int], clears: tuple[int, ...]
    ) -> Callable[[list], None]:
        """One straight-line function calling the given steps in order.

        Used for the full serial body, for serial program segments, and
        for parallel chunks (no iterator machinery anywhere in the hot
        loop); folded descriptors have no step and are skipped. ``clears``
        appends register drops after the last step. The source depends
        only on the two counts, so same-shape plans and equal-sized chunks
        share one template.
        """
        all_steps = self.steps
        steps = [
            all_steps[i] for i in step_indices if all_steps[i] is not None
        ]
        if not steps and not clears:
            return lambda regs: None
        callees = _names("_s", len(steps))
        params = ", ".join(("regs",) + callees + _names("_c", len(clears)))
        calls = "".join(f"\n    {name}(regs)" for name in callees)
        src = f"def body({params}):{calls}{_clear_src(len(clears))}\n"
        return self._bake(src, (*steps, *clears))

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
        steps for the plan's failure-replay path.
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
        """The node's kernel writes each output into its static buffer, or
        into an array fresh from the arena where the output has none."""
        values = [node.op.kernel(node), self.arena.acquire_fresh]
        fresh: tuple[bool, ...] = ()
        for static, spec in zip(statics, node.out_specs):
            if static is None:
                values += [spec.shape, spec.dtype, spec.nbytes]
            else:
                values.append(static)
            fresh += (static is None,)
        src = _out_source(len(in_slots), len(clear), fresh)
        values += [*in_slots, *out_slots, *clear]
        return self._bake(src, tuple(values), node)

    def _make_batched_step(self, desc, clear, static, members):
        """One stacked GEMM instruction covering a batched group.

        Member inputs are copied into permanent scratch stacks (skipped
        when the operand is shared by every member — the attention-scoring
        case, where one key matrix serves all decoder steps), the stacked
        kernel runs once, and each member's register receives its slice of
        the stacked result: ``members``, the slices of the ``static``
        stack, or slices of a fresh one.
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
            values += [members, static]
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
        kernels, in_slots = [], []
        members: tuple[tuple[bool, ...], ...] = ()
        for op, node, pattern in chain:
            kernels.append(op.kernel(node))
            member: tuple[bool, ...] = ()
            for s in pattern:
                member += (s < 0,)
                if s >= 0:
                    in_slots.append(s)
            members += (member,)
        if static is None:
            spec = tail.out_specs[0]
            buffer = (self.arena.acquire_fresh, spec.shape, spec.dtype,
                      spec.nbytes)
        else:
            buffer = (static,)
        src = _fused_source(members, static is None, len(clear))
        step = self._bake(
            src, (*kernels, *buffer, *in_slots, out_slot, *clear), tail
        )
        step._fused = True
        #: for the plan's failure replay, which names the member
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
        plan = self.plan
        lock = self.lock

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
