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
escaping outputs; the few ops without an ``out=`` kernel (``generic``
instructions) call ``compute`` through the same kind of template.

What a run never decides is baked (:meth:`PlanCodegen.bake_steps`): a
register that holds the same array on every run — a constant, a static
buffer, a batched member, a view of static storage — is *fixed*. Its
array is placed in the register file every run starts from, no step
writes it, and every step that reads it binds the array itself as a
default instead of loading it from the register file; views of static
storage are computed here once and their steps dropped. One generated
binder per plan binds the feeds.

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


def _clear_src(n: int) -> str:
    """Unrolled register drops through the ``_c*`` slot parameters."""
    return "".join([f"\n    regs[_c{j}] = None" for j in range(n)])


def _read(prefix: str, j: int, fixed: bool) -> tuple[str, str]:
    """``(parameter, expression)`` of operand ``j``: the slot ``{prefix}j``
    read through the register file, or — where the register is fixed —
    its array, bound as ``{prefix}vj``."""
    if fixed:
        return f"{prefix}v{j}", f"{prefix}v{j}"
    return f"{prefix}{j}", f"regs[{prefix}{j}]"


def _reads(prefix: str, fixed: tuple[bool, ...]) -> tuple[list, list]:
    """Parameters and expressions of operands ``prefix0 ..`` (``fixed[j]``:
    operand ``j`` is a fixed register), as :func:`_read` names them."""
    params, exprs = [], []
    for j, is_fixed in enumerate(fixed):
        param, expr = _read(prefix, j, is_fixed)
        params.append(param)
        exprs.append(expr)
    return params, exprs


def _operands(
    slots: Sequence[int], template: list
) -> tuple[tuple[bool, ...], list]:
    """Which of ``slots`` are fixed, and the default each binds: the
    register's array where it is fixed, else the slot number."""
    fixed: tuple[bool, ...] = ()
    values: list = []
    for s in slots:
        value = template[s]
        if value is None:
            fixed += (False,)
            values += [s]
        else:
            fixed += (True,)
            values += [value]
    return fixed, values


@functools.lru_cache(maxsize=1024)
def _out_source(
    ins: tuple[bool, ...], n_clear: int, fresh: tuple[bool, ...]
) -> str:
    """``_k(<inputs>, _s0, ..)`` for an ``out`` instruction (``ins[j]``:
    input ``j`` is fixed); output ``j`` is the bound static buffer ``_sj``
    — a fixed register nothing writes — or, where ``fresh[j]``, allocated
    from ``_a`` and stored to ``regs[_oj]``. Memoized by form: most
    instructions share a handful."""
    params, lines = ["_k", "_a"], []
    for j, is_fresh in enumerate(fresh):
        if is_fresh:
            params += [f"_sh{j}", f"_d{j}", f"_nb{j}"]
            lines.append(f"    _s{j} = _a(_sh{j}, _d{j}, _nb{j})")
        else:
            params.append(f"_s{j}")
    in_params, args = _reads("_i", ins)
    params += in_params
    lines.append(f"    _k({', '.join(args + list(_names('_s', len(fresh))))})")
    for j, is_fresh in enumerate(fresh):
        if is_fresh:
            params.append(f"_o{j}")
            lines.append(f"    regs[_o{j}] = _s{j}")
    params += _names("_c", n_clear)
    return (
        f"def step(regs, {', '.join(params)}):\n"
        + "\n".join(lines) + f"{_clear_src(n_clear)}\n"
    )


@functools.lru_cache(maxsize=1024)
def _fused_source(
    members: tuple[tuple[str, ...], ...], fresh: bool, n_clear: int
) -> str:
    """A fused chain: one ``_kj(.., acc)`` line per member, streaming the
    accumulator through the kernels. ``members[j][p]`` says what operand
    ``p`` of member ``j`` is: ``"acc"``, a register (``"reg"``) or a fixed
    register's array (``"fix"``); external operands are numbered along
    the chain. The accumulator is the bound static buffer ``_s`` (a fixed
    register: nothing stores it) or, where ``fresh``, allocated from
    ``_a`` and stored to ``regs[_o]``."""
    acc = "buf" if fresh else "_s"
    lines = ["    buf = _a(_sh, _d, _nb)"] if fresh else []
    in_params: list[str] = []
    for j, pattern in enumerate(members):
        args = []
        for how in pattern:
            if how == "acc":
                args.append(acc)
            else:
                param, expr = _read("_i", len(in_params), how == "fix")
                in_params.append(param)
                args.append(expr)
        lines.append(f"    _k{j}({', '.join(args)}, {acc})")
    if fresh:
        lines.append("    regs[_o] = buf")
    params = [
        *_names("_k", len(members)),
        *(("_a", "_sh", "_d", "_nb", *in_params, "_o") if fresh
          else ("_s", *in_params)),
        *_names("_c", n_clear),
    ]
    return (
        f"def step(regs, {', '.join(params)}):\n"
        + "\n".join(lines) + f"{_clear_src(n_clear)}\n"
    )


@functools.lru_cache(maxsize=1024)
def _generic_source(
    ins: tuple[bool, ...], n_out: int, guards: tuple[bool, ...],
    n_clear: int,
) -> str:
    """A ``generic`` instruction: ``_f(_n, [<inputs>])`` — the node's
    ``compute`` — with each result's shape checked against its spec and
    detached (copied) when it is, or is a view of, a *guard*: an input
    whose static buffer later instructions overwrite (``guards[g]``: guard
    ``g`` is fixed). Every result is stored to ``regs[_oj]``."""
    in_params, args = _reads("_i", ins)
    guard_params, guard_exprs = _reads("_g", guards)
    params = ["_f", "_n", "_nm", "_EE", "_ms", *in_params, *guard_params]
    results = _names("_r", n_out)
    target = ", ".join(results) + ("," if n_out == 1 else "")
    lines = [f"    {target} = _f(_n, [{', '.join(args)}])"]
    for j, r in enumerate(results):
        params.append(f"_sh{j}")
        lines.append(
            f"    if {r}.shape != _sh{j}:\n"
            "        raise _EE(\n"
            f"            f'{{_nm}} output {j}: kernel produced shape "
            f"{{{r}.shape}}, spec says {{_sh{j}}}'\n"
            "        )"
        )
        if guard_exprs:
            same = " or ".join([f"{r} is {g}" for g in guard_exprs])
            shares = " or ".join([f"_ms({r}, {g})" for g in guard_exprs])
            if len(guard_exprs) > 1:
                shares = f"({shares})"
            lines.append(
                f"    if {same} or {r}.base is not None and {shares}:\n"
                f"        {r} = {r}.copy()"
            )
        lines.append(f"    regs[_o{j}] = {r}")
    params += [*_names("_o", n_out), *_names("_c", n_clear)]
    return (
        f"def step(regs, {', '.join(params)}):\n"
        + "\n".join(lines) + f"{_clear_src(n_clear)}\n"
    )


@functools.lru_cache(maxsize=1024)
def _alias_source(
    fixed: bool, indexed: tuple[bool, ...], n_clear: int
) -> str:
    """An ``alias`` instruction: output ``j`` is the input itself or, where
    ``indexed[j]``, the input indexed by ``_ixj`` (``fixed``: the input is
    a fixed register, bound as ``_iv0``)."""
    src_param, src_expr = _read("_i", 0, fixed)
    params = [f"_ix{j}" for j, has in enumerate(indexed) if has]
    lines = [
        f"\n    regs[_o{j}] = {src_expr}" + (f"[_ix{j}]" if has else "")
        for j, has in enumerate(indexed)
    ]
    params += [src_param, *_names("_o", len(indexed)), *_names("_c", n_clear)]
    return (
        f"def step(regs, {', '.join(params)}):"
        f"{''.join(lines)}{_clear_src(n_clear)}\n"
    )


@functools.lru_cache(maxsize=1024)
def _view_source(ins: tuple[bool, ...], n_clear: int, reshape: bool) -> str:
    """A ``view`` instruction: ``<input>.reshape(_sh)`` where ``reshape``,
    else the first result of ``_f(_n, [<inputs>])`` (``ins[j]``: input
    ``j`` is fixed), stored to ``regs[_o]``."""
    in_params, args = _reads("_i", ins)
    if reshape:
        head, work = "_sh", f"{args[0]}.reshape(_sh)"
    else:
        head, work = "_n, _f", f"_f(_n, [{', '.join(args)}])[0]"
    params = [head, *in_params, "_o", *_names("_c", n_clear)]
    return (
        f"def step(regs, {', '.join(params)}):\n"
        f"    regs[_o] = {work}{_clear_src(n_clear)}\n"
    )


def _fold(desc: dict[str, Any], template: list) -> list[np.ndarray] | None:
    """The views a ``view`` / ``alias`` descriptor binds, computed at bake
    time — or None unless its one input is fixed (``template`` holds its
    array) and every view shares that array's memory (a reshape that
    copies keeps its step)."""
    if len(desc["in_slots"]) != 1:
        return None
    src = template[desc["in_slots"][0]]
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

    ``generic_outputs`` counts the results the plan's generic steps
    allocate per run. ``templates_compiled`` / ``template_hits`` count
    closure sources this plan had to ``compile`` / found in
    :data:`TEMPLATES`.
    """

    def __init__(self, arena: Arena) -> None:
        self.arena = arena
        #: one entry per descriptor, None where a view was folded
        self.steps: list[Callable[[list], None] | None] = []
        self.generic_outputs = 0
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

        ``template`` — the register file every run starts from, holding
        the plan's constants on entry — also records which registers are
        *fixed*: those holding the same array on every run. Slots are
        single-assignment, static-rooted registers are never cleared and a
        static buffer's address is fixed for the plan's life, so each
        static ``out`` / ``fused`` output and batched member is fixed: its
        array goes into ``template`` and its step stores nothing. Every
        step reading a fixed register binds its array as a default instead
        of loading the register.

        A ``view`` / ``alias`` descriptor is *folded* — its entry is None
        and its views are written into ``template`` — when its input
        register is fixed and each view shares that array's memory: the
        register then holds exactly the view the step would have bound.
        """
        root, static_views = low.root, low.static_views
        descs = low.descs
        steps: list[Callable[[list], None] | None] = [None] * len(descs)
        for idx, desc in enumerate(descs):
            clear = clears_at[idx] if idx in clears_at else ()
            kind = desc["kind"]
            out_slots = desc["out_slots"]
            if kind == "view" or kind == "alias":
                views = None if clear else _fold(desc, template)
                if views is not None:
                    for s, view in zip(out_slots, views):
                        template[s] = view
                    continue
            if kind == "view":
                step = self._make_view_step(
                    desc["node"], desc["in_slots"], out_slots, clear,
                    template,
                )
            elif kind == "alias":
                step = self._make_alias_step(
                    desc["node"], desc["in_slots"], out_slots,
                    desc["alias_index"], clear, template,
                )
            elif kind == "batched":
                head = root[out_slots[0]]
                static = static_views[head] if head in static_views else None
                step = self._make_batched_step(desc, clear, static, template)
                if static is not None:
                    for i, s in enumerate(out_slots):
                        template[s] = static[i]
            elif kind == "generic":
                guard: tuple[int, ...] = ()
                for s in desc["in_slots"]:
                    if root[s] in static_views and s not in guard:
                        guard += (s,)
                step = self._make_generic_step(
                    desc["node"], desc["in_slots"], out_slots, clear, guard,
                    template,
                )
                self.generic_outputs += len(out_slots)
            else:
                statics: list[np.ndarray | None] = []
                for s in out_slots:
                    statics += [
                        static_views[root[s]] if root[s] in static_views
                        else None
                    ]
                if kind == "fused":
                    step = self._make_fused_step(
                        desc["chain"], out_slots[0], clear, statics[0],
                        template,
                    )
                else:
                    step = self._make_out_step(
                        desc["node"], desc["in_slots"], out_slots, clear,
                        statics, template,
                    )
                for s, static in zip(out_slots, statics):
                    if static is not None:
                        template[s] = static
            steps[idx] = step
        self.steps = steps
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

    def _make_out_step(self, node, in_slots, out_slots, clear, statics,
                       template):
        """The node's kernel writes each output into its static buffer, or
        into an array fresh from the arena where the output has none."""
        values = [node.op.kernel(node), self.arena.acquire_fresh]
        fresh: tuple[bool, ...] = ()
        outs: list[int] = []
        for j, static in enumerate(statics):
            if static is None:
                spec = node.out_specs[j]
                values += [spec.shape, spec.dtype, spec.nbytes]
                outs += [out_slots[j]]
                fresh += (True,)
            else:
                values += [static]
                fresh += (False,)
        ins, operands = _operands(in_slots, template)
        src = _out_source(ins, len(clear), fresh)
        return self._bake(src, (*values, *operands, *outs, *clear), node)

    def _make_batched_step(self, desc, clear, static, template):
        """One stacked GEMM instruction covering a batched group.

        Member inputs are copied into permanent scratch stacks (skipped
        when the operand is shared by every member — the attention-scoring
        case, where one key matrix serves all decoder steps), the stacked
        kernel runs once, and each member's register receives its slice of
        the stacked result — except over a ``static`` stack, whose slices
        are fixed registers nothing stores.
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
            fixed, bound = _operands(slots[:1] if shared else slots, template)
            side_params, exprs = _reads(f"_{side}", fixed)
            if shared:
                params += side_params
                values += bound
                operands.append(exprs[0] + (".T" if trans else ""))
                continue
            params += [f"_{side}d", f"_{side}s", *side_params]
            values += [
                tuple(scratch[i] for i in range(group)),
                stacked_operand(scratch, trans),
                *bound,
            ]
            lines.extend(
                f"        _cp(_{side}d[{i}], {expr})"
                for i, expr in enumerate(exprs)
            )
            operands.append(f"_{side}s")
        a_expr, b_expr = operands

        assigns = ""
        if static is not None:
            params.append("_S")
            values.append(static)
            lines.append(f"        _mm({a_expr}, {b_expr}, out=_S)")
        else:
            params += ["_a", "_sh", "_d", "_nb", *_names("_o", group)]
            values += [
                self.arena.acquire_fresh, (group,) + spec.shape, spec.dtype,
                group * spec.nbytes, *desc["out_slots"],
            ]
            lines.insert(0, "        buf = _a(_sh, _d, _nb)")
            lines.append(f"        _mm({a_expr}, {b_expr}, out=buf)")
            assigns = "".join(
                f"\n    regs[_o{i}] = buf[{i}]" for i in range(group)
            )
        params += _names("_c", len(clear))
        values += clear
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

    def _make_fused_step(self, chain, out_slot, clear, static, template):
        tail = chain[-1][1]
        kernels, operands = [], []
        members: tuple[tuple[str, ...], ...] = ()
        for op, node, pattern in chain:
            kernels += [op.kernel(node)]
            member: tuple[str, ...] = ()
            for s in pattern:
                if s < 0:
                    member += ("acc",)
                elif template[s] is None:
                    member += ("reg",)
                    operands += [s]
                else:
                    member += ("fix",)
                    operands += [template[s]]
            members += (member,)
        if static is None:
            spec = tail.out_specs[0]
            values = (
                *kernels, self.arena.acquire_fresh, spec.shape, spec.dtype,
                spec.nbytes, *operands, out_slot, *clear,
            )
        else:
            values = (*kernels, static, *operands, *clear)
        src = _fused_source(members, static is None, len(clear))
        step = self._bake(src, values, tail)
        step._fused = True
        #: for the plan's failure replay, which names the member
        step._chain = chain
        return step

    def _make_alias_step(self, node, in_slots, out_slots, indices, clear,
                         template):
        """An elided copy: bind a view of the input register, run nothing.

        ``indices`` has one entry per output slot — an index object
        applied to the input (``slice_axis``, leading-axis ``split``) or
        None for a pure rebind (identity ``concat``/``broadcast_to``,
        full-range slice). The bound view holds exactly the values the
        copy kernel would have produced, so downstream kernels are
        bitwise-unchanged; only the copy's launch and its buffer are gone.
        """
        array = template[in_slots[0]]
        operand = in_slots[0] if array is None else array
        indexed: tuple[bool, ...] = ()
        values: list = []
        for index in indices:
            indexed += (index is not None,)
            if index is not None:
                values += [index]
        src = _alias_source(array is not None, indexed, len(clear))
        return self._bake(
            src, (*values, operand, *out_slots, *clear), node
        )

    def _make_view_step(self, node, in_slots, out_slots, clear, template):
        ins, operands = _operands(in_slots, template)
        if node.op.name == "reshape" and len(in_slots) == 1:
            # The dominant view op; the target shape is static, so the
            # step is a bare ndarray.reshape (same view ``compute`` makes).
            values = (node.out_specs[0].shape,)
            src = _view_source(ins, len(clear), True)
        else:
            values = (node, node.op.compute)
            src = _view_source(ins, len(clear), False)
        return self._bake(
            src, (*values, *operands, out_slots[0], *clear), node
        )

    def _make_generic_step(self, node, in_slots, out_slots, clear, guard,
                           template):
        """``compute``'s results, shape-checked and detached from any
        static-buffered input they alias (see :func:`_generic_source`)."""
        ins, operands = _operands(in_slots, template)
        guards, guard_values = _operands(guard, template)
        src = _generic_source(ins, len(out_slots), guards, len(clear))
        shapes = [spec.shape for spec in node.out_specs]
        return self._bake(
            src,
            (
                node.op.compute, node, node.name, ExecutionError,
                np.may_share_memory, *operands, *guard_values, *shapes,
                *out_slots, *clear,
            ),
            node,
        )
