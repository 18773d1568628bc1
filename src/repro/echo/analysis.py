"""Graph analyses feeding the Echo pass: stash detection and O-shape
candidate mining.

A *stashed* tensor is a forward-pass value with at least one backward-pass
consumer — the framework must keep it alive across the forward/backward
boundary (a feature map). Echo's candidates are connected regions of
recompute-cheap forward nodes; eliminating a region's stashed outputs
costs re-executing the region during backward and stashing its border
inputs instead. A region is *O-shaped* exactly when the border is much
smaller than the stashed interior.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.graph import GraphFacts, Node, Stage, Tensor

TensorKey = tuple[int, int]

_SOURCE_OPS = ("placeholder", "variable", "constant")


def stashed_tensors(
    order: Sequence[Node], output_keys: set[TensorKey]
) -> dict[TensorKey, Tensor]:
    """Forward tensors with backward/recompute consumers (feature maps).

    Graph outputs are excluded: they are pinned for the caller regardless,
    so eliminating their stash saves nothing.
    """
    result: dict[TensorKey, Tensor] = {}
    for node in order:
        if node.stage is Stage.FORWARD:
            continue
        for t in node.inputs:
            if (
                t.node.stage is Stage.FORWARD
                and t.node.op.name not in _SOURCE_OPS
                and t.key not in output_keys
            ):
                result[t.key] = t
    return result


def is_recompute_cheap(node: Node, allow_gemm: bool) -> bool:
    """Whether Echo may mirror this node into the backward pass."""
    if node.stage is not Stage.FORWARD:
        return False
    if node.op.name in _SOURCE_OPS:
        return False
    if node.op.recompute_cheap:
        return True
    if allow_gemm and node.op.name in ("matmul", "fully_connected", "batch_dot"):
        return True
    return False


@dataclass
class Candidate:
    """One connected recompute region and its static cost/benefit."""

    nodes: list[Node]  # mirrorable nodes, topological order
    #: stashed tensors this region can stop stashing
    eliminated: list[Tensor]
    #: border tensors that must newly stay alive into the backward pass
    new_stashes: list[Tensor]
    #: per-backward-pass recompute GPU kernel time, seconds
    kernel_seconds: float = 0.0
    #: per-backward-pass CPU launch (CUDA API) time, seconds
    api_seconds: float = 0.0
    #: identifies the connected component this cone was cut from; the
    #: full and free variants of one component are mutually exclusive
    component_id: int = -1

    @property
    def recompute_seconds(self) -> float:
        return self.kernel_seconds + self.api_seconds

    @property
    def eliminated_bytes(self) -> int:
        return sum(t.nbytes for t in self.eliminated)

    @property
    def new_stash_bytes(self) -> int:
        return sum(t.nbytes for t in self.new_stashes)

    @property
    def benefit_bytes(self) -> int:
        return self.eliminated_bytes - self.new_stash_bytes

    #: stashed tensors produced inside the region that must NOT be
    #: eliminated (their first backward use is at the boundary, so a
    #: mirror would live just as long as the stash); the rewrite keeps
    #: their consumers on the originals.
    preserved: frozenset[TensorKey] = frozenset()

    @property
    def is_o_shape(self) -> bool:
        """Small border, large interior — the paper's defining property."""
        return self.eliminated_bytes >= 4 * max(self.new_stash_bytes, 1)

    def __repr__(self) -> str:
        return (
            f"Candidate({len(self.nodes)} nodes, "
            f"-{self.eliminated_bytes / 2**20:.2f} MiB "
            f"+{self.new_stash_bytes / 2**20:.2f} MiB, "
            f"{self.recompute_seconds * 1e6:.1f} us)"
        )


def _connected_components(nodes: Iterable[Node]) -> list[list[Node]]:
    """Components of the cheap-node set under producer/consumer edges."""
    node_list = list(nodes)
    in_set = {n.uid for n in node_list}
    parent: dict[int, int] = {n.uid: n.uid for n in node_list}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    for node in node_list:
        for t in node.inputs:
            if t.node.uid in in_set:
                union(node.uid, t.node.uid)

    groups: dict[int, list[Node]] = defaultdict(list)
    for node in node_list:
        groups[find(node.uid)].append(node)
    components = [sorted(g, key=lambda n: n.uid) for g in groups.values()]
    components.sort(key=lambda g: g[0].uid)
    return components


def mine_candidates(
    order: Sequence[Node],
    output_keys: set[TensorKey],
    allow_gemm: bool = False,
    device=None,
    fanout_limit: int = 4,
    facts: GraphFacts | None = None,
) -> list[Candidate]:
    """Find every connected recompute region with its static cost/benefit.

    Within a component, only nodes actually needed to rebuild the stashed
    outputs are counted (and later mirrored): a cheap node whose value no
    backward consumer transitively needs is pruned from the region.

    Cheap nodes whose output fans out to more than ``fanout_limit`` forward
    consumers are demoted to checkpoints: they stay stashed, and the
    regions of their many consumers (e.g. the 30 decoder timesteps all
    reading the shared attention key projection) remain independent
    candidates instead of fusing into one all-or-nothing component.

    ``facts`` is the graph state's :class:`~repro.graph.GraphFacts` record
    when the caller holds one: region costs are then read from its
    per-node cost table (priced once per node, shared with the iteration
    estimate and the executor's timings) instead of re-priced per region.
    """
    stashes = stashed_tensors(order, output_keys)
    costs = _node_costs(order, device, facts)

    fanout: dict[int, int] = {}
    for node in order:
        if node.stage is not Stage.FORWARD:
            continue
        for t in node.inputs:
            fanout[t.node.uid] = fanout.get(t.node.uid, 0) + 1
    cheap_nodes = [
        n
        for n in order
        if is_recompute_cheap(n, allow_gemm)
        and fanout.get(n.uid, 0) <= fanout_limit
    ]

    # Lifetime-gain guard: eliminating a stash replaces its lifetime
    # [forward, last backward use] with the mirror's [first backward use,
    # last backward use]. If the first backward use sits at the boundary
    # (e.g. the stacked decoder output feeding the loss projection), the
    # mirror lives exactly as long as the stash did — and drags its whole
    # recompute cone live with it. Such roots stay stashed.
    position = {n.uid: i for i, n in enumerate(order)}
    boundary = len(order)
    for i, n in enumerate(order):
        if n.stage is not Stage.FORWARD:
            boundary = i
            break
    backward_len = max(len(order) - boundary, 1)
    min_gain_steps = max(3, int(0.02 * backward_len))
    first_bwd_use: dict[TensorKey, int] = {}
    for node in order:
        if node.stage is Stage.FORWARD:
            continue
        p = position[node.uid]
        for t in node.inputs:
            if t.key in stashes and p < first_bwd_use.get(t.key, 1 << 60):
                first_bwd_use[t.key] = p
    eliminable = {
        key: t
        for key, t in stashes.items()
        if first_bwd_use.get(key, boundary) - boundary >= min_gain_steps
    }

    # Each component reads its own roots and stashed outputs from these
    # two groupings instead of filtering every stash of the graph.
    components = _connected_components(cheap_nodes)
    component_of = {
        n.uid: i for i, component in enumerate(components) for n in component
    }
    roots_of: list[list[Tensor]] = [[] for _ in components]
    for key, t in eliminable.items():
        i = component_of.get(key[0])
        if i is not None:
            roots_of[i].append(t)
    stashed_of: dict[int, list[TensorKey]] = {}
    for key in stashes:
        stashed_of.setdefault(key[0], []).append(key)

    candidates: list[Candidate] = []
    for component, roots in zip(components, roots_of):
        if not roots:
            continue
        component_uids = {n.uid for n in component}
        cid = component[0].uid
        full = _cone_candidate(
            component, component_uids, roots, stashes, stashed_of,
            output_keys, costs, stop_at_stashed=False,
        )
        if full is not None:
            full.component_id = cid
            candidates.append(full)
        # Free-recompute variant: the maximal sub-region whose every
        # external input is stashed anyway (or a source), so recomputing
        # it stashes NOTHING new — e.g. rebuilding the LSTM h/c chain from
        # the stashed gate pre-activations. When the full cone's border
        # outweighs its interior (the DS2 recurrent chains), this variant
        # still pays off.
        free = _free_region_candidate(
            component, roots, stashes, stashed_of, costs
        )
        if free is not None and (
            full is None
            or {n.uid for n in free.nodes} != {n.uid for n in full.nodes}
        ):
            free.component_id = cid
            candidates.append(free)
    return candidates


def _node_costs(order: Sequence[Node], device, facts: GraphFacts | None):
    """``uid -> KernelCost`` over ``order`` (None when there is no device)."""
    if device is None:
        return None
    if facts is not None:
        return facts.node_costs(device)
    return {n.uid: device.node_cost(n) for n in order}


def _preserved(
    region: list[Node],
    eliminated: list[Tensor],
    stashed_of: dict[int, list[TensorKey]],
) -> frozenset[TensorKey]:
    """Stashed outputs of ``region`` that stay stashed."""
    eliminated_keys = {t.key for t in eliminated}
    return frozenset([
        key
        for node in region
        for key in stashed_of.get(node.uid, ())
        if key not in eliminated_keys
    ])


def _region_cost(region: list[Node], costs) -> tuple[float, float]:
    """(kernel, API) seconds of executing ``region`` once."""
    kernel = api = 0.0
    if costs is not None:
        for node in region:
            cost = costs[node.uid]
            kernel += cost.kernel_seconds
            api += cost.api_seconds
    return kernel, api


def _free_region_candidate(
    component: list[Node],
    roots: list[Tensor],
    stashes: dict[TensorKey, Tensor],
    stashed_of: dict[int, list[TensorKey]],
    costs,
) -> Candidate | None:
    """Largest sub-region with an empty new-stash set (fixpoint growth).

    A node joins the region when every input is (a) produced inside the
    region, (b) stashed for other reasons (a free checkpoint), or (c) a
    source (placeholder/variable/constant, resident anyway).
    """
    region_uids: set[int] = set()
    changed = True
    while changed:
        changed = False
        for node in component:
            if node.uid in region_uids:
                continue
            if all(
                t.node.uid in region_uids
                or t.key in stashes
                or t.node.op.name in _SOURCE_OPS
                for t in node.inputs
            ):
                region_uids.add(node.uid)
                changed = True
    if not region_uids:
        return None
    # Keep only nodes needed to rebuild eliminable roots. A root can be
    # eliminated only if it is produced inside the region AND no region
    # node relies on it as a free checkpoint from outside... it cannot:
    # region-internal producers shadow the stash, so internal edges are
    # served by mirrors. Prune to the ancestor cone of internal roots.
    internal_roots = [t for t in roots if t.node.uid in region_uids]
    if not internal_roots:
        return None
    needed: set[int] = set()
    stack = [t.node for t in internal_roots]
    while stack:
        node = stack.pop()
        if node.uid in needed or node.uid not in region_uids:
            continue
        needed.add(node.uid)
        stack.extend(t.node for t in node.inputs)
    region = [n for n in component if n.uid in needed]
    eliminated = [t for t in internal_roots if t.node.uid in needed]
    if not eliminated:
        return None
    kernel, api = _region_cost(region, costs)
    preserved = _preserved(region, eliminated, stashed_of)
    return Candidate(
        nodes=region,
        eliminated=eliminated,
        new_stashes=[],
        kernel_seconds=kernel,
        api_seconds=api,
        preserved=preserved,
    )


def _cone_candidate(
    component: list[Node],
    component_uids: set[int],
    roots: list[Tensor],
    stashes: dict[TensorKey, Tensor],
    stashed_of: dict[int, list[TensorKey]],
    output_keys: set[TensorKey],
    costs,
    stop_at_stashed: bool,
) -> Candidate | None:
    """Build one candidate from a component's recompute cone.

    ``stop_at_stashed=False`` walks the whole cheap ancestor cone (largest
    elimination, largest border). ``stop_at_stashed=True`` stops the walk
    at inputs that are stashed for *other* reasons: those act as free
    checkpoints, shrinking both the mirror set and the new-stash set.
    """
    needed: set[int] = set()
    stack = [t.node for t in roots]
    while stack:
        node = stack.pop()
        if node.uid in needed or node.uid not in component_uids:
            continue
        needed.add(node.uid)
        for t in node.inputs:
            if stop_at_stashed and t.key in stashes:
                continue
            stack.append(t.node)
    region = [n for n in component if n.uid in needed]
    if not region:
        return None
    region_uids = {n.uid for n in region}

    eliminated = [t for t in roots if t.node.uid in region_uids]
    if not eliminated:
        return None
    border: dict[TensorKey, Tensor] = {}
    for node in region:
        for t in node.inputs:
            if t.node.uid in region_uids:
                continue
            already_free = (
                t.node.op.name in _SOURCE_OPS
                or t.key in stashes
                or t.key in output_keys
            )
            if not already_free:
                border[t.key] = t
    kernel, api = _region_cost(region, costs)
    preserved = _preserved(region, eliminated, stashed_of)
    return Candidate(
        nodes=region,
        eliminated=eliminated,
        new_stashes=list(border.values()),
        kernel_seconds=kernel,
        api_seconds=api,
        preserved=preserved,
    )


@dataclass(frozen=True)
class IterationCost:
    """Baseline iteration cost split into its two overlapping streams.

    The GPU executes kernels while the CPU launches the next ones, so the
    iteration is bound by the larger stream; recomputation that fits into
    the slack of the non-binding stream is effectively free — which is how
    the paper's launch-bound configurations recompute at ~zero cost.
    """

    kernel_seconds: float
    api_seconds: float

    @property
    def seconds(self) -> float:
        return max(self.kernel_seconds, self.api_seconds)

    def marginal(self, extra_kernel: float, extra_api: float) -> float:
        """Iteration-time increase from adding work to both streams."""
        new = max(
            self.kernel_seconds + extra_kernel, self.api_seconds + extra_api
        )
        return new - self.seconds


def estimate_iteration_cost(
    order: Sequence[Node], device, facts: GraphFacts | None = None
) -> IterationCost:
    """Baseline per-stream iteration cost for the overhead budget."""
    kernel, api = _region_cost(
        [n for n in order if n.op.name not in _SOURCE_OPS],
        _node_costs(order, device, facts),
    )
    return IterationCost(kernel_seconds=kernel, api_seconds=api)
