"""Code generation: a lowered stream becomes instruction closures.

Each descriptor of a :class:`repro.runtime.lowering.PlanLowering` becomes
one precompiled **instruction closure** with its input and output slots
and its error context bound at compile time, so the run loop is a
straight-line call sequence. Closures are *templated*: slots, shapes,
kernels, static buffers and byte counts are default-argument values, not
source literals, so every instruction of one form (across timesteps,
buckets and plans) is instantiated from a single code object in the
process-wide :data:`TEMPLATES` memo instead of being compiled again
(``compile()`` was a measured 12% of a cold NMT build). ``out=`` kernels
write straight into the static buffers the lowering assigned, so
steady-state iterations allocate only the run's escaping outputs.

Every closure reproduces its op's ``compute`` bit for bit: raw kernels are
bound only where provably identical to ``compute_into`` (see
:func:`_raw_kernel`), and a stacked GEMM issues the same per-slice BLAS
call as the matmuls it replaces.
"""

from __future__ import annotations

import builtins
import threading
from types import CodeType, FunctionType
from typing import Any, Callable, Sequence

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
        self.steps: list[Callable[[list], None]] = []
        self.templates_compiled = 0
        self.template_hits = 0

    def bake_steps(
        self, low: PlanLowering, clears_at: dict[int, tuple[int, ...]]
    ) -> list[Callable[[list], None]]:
        """One closure per descriptor; ``clears_at`` inlines register
        clears (empty when a wavefront program re-homes them). Static
        buffers are looked up by alias-group *root*, so in-place-rewritten
        slots resolve to the dying input's buffer."""
        root, static_views = low.root, low.static_views
        steps = self.steps
        for idx, desc in enumerate(low.descs):
            clear = clears_at.get(idx, ())
            kind = desc["kind"]
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
        return steps

    def bake_body(
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
        steps = self.steps
        return self._bake(src, (*[steps[i] for i in step_indices], *clears))

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
