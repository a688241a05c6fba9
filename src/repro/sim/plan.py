"""Ahead-of-time simulation plans for Pegasus graphs.

The event-driven interpreter (:mod:`repro.sim.dataflow`) rediscovers the
same structural facts on every event: which node class it is looking at
(an ``isinstance`` chain per firing), who consumes each output (an
:class:`~repro.pegasus.graph.OutPort` construction plus a sorted
``graph.uses()`` lookup per emitted value), which inputs are constant
wires (set lookups per readiness check), and what the operator's latency
is. All of that is a pure function of the graph, so a :class:`SimPlan`
computes it once:

- the **sticky set** (constant wires: const/param/&symbol closed under
  pure arithmetic) plus an evaluation *recipe* — structure is per-graph,
  the values depend on the run's arguments and memory layout and are
  evaluated per run by :meth:`SimPlan.evaluate_sticky`;
- one :class:`NodeSpec` per dynamic node: a kind tag replacing the
  dispatch chain, per-input-slot bindings (queue / prebound sticky value /
  absent-optional token), the folded result latency and a prebound
  evaluator for pure operators, and flat per-output fanout tables of
  ``(consumer id, slot index)`` pairs in the interpreter's delivery order;
- the priming lists (initial tokens, fully-constant strict nodes) and the
  symbol nodes whose objects must be allocated before evaluation.

Plans are cached per graph in :func:`plan_for` — a bounded LRU keyed on
the graph object and validated against ``graph.version`` — so sweeps that
simulate the same compilation many times (fig18/fig19, ablation,
differential checks) plan once, while a graph mutated by a later pass is
transparently re-planned and a long-lived service worker cannot
accumulate unbounded plans (or the codegen modules hanging off them).
The plan holds node references and closures, so it is never
pickled — the persistent compilation cache stores graphs only, and plans
are rebuilt per process (microseconds, amortized over millions of events).

Semantics live in :mod:`repro.sim.engine`; this module only *describes*
the graph. Both must mirror :mod:`repro.sim.dataflow` exactly — the
interpreter remains the executable specification.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import SimulationError
from repro.pegasus.graph import Graph, OutPort
from repro.pegasus import nodes as N
from repro.sim import latencies, ops

# Kind tags: one per firing rule in the interpreter's _fire_once.
PURE = "pure"              # binop/unop/cast/mux
ETA = "eta"
COMBINE = "combine"
LOAD = "load"
STORE = "store"
RETURN = "return"
MERGE = "merge"
CTRLSTREAM = "ctrlstream"
TOKENGEN = "tokengen"
INITIAL = "initial"        # emitted at priming; never fires afterwards
BLOCKED = "blocked"        # an unconnected required input: can never fire
UNKNOWN = "unknown"        # unrecognized node class: error only if fired

# Per-slot binding codes.
SLOT_QUEUE = "q"           # consume from the FIFO channel
SLOT_STICKY = "s"          # read the prebound constant wire (aux = node id)
SLOT_ABSENT = "t"          # optional input left unconnected: yields TOKEN

_STICKY_PURE = (N.BinOpNode, N.UnOpNode, N.CastNode, N.MuxNode)


def _is_sticky_port(port, sticky_ids) -> bool:
    # Sticky producers are all single-output kinds, so slot 0 is the only
    # port a sticky node exposes; this mirrors ``port in simulator._sticky``.
    return port.index == 0 and port.node.id in sticky_ids


def _optional_input(node, index: int) -> bool:
    return isinstance(node, N.LoadNode) and index == N.LoadNode.TOKEN_IN


def pure_evaluator(node):
    """A prebound ``values -> result`` mirroring ``_evaluate_pure``."""
    if isinstance(node, N.BinOpNode):
        op, type_ = node.op, node.type
        if op in ("div", "rem"):
            eval_binop = ops.eval_binop

            def evaluate(values):
                # Speculated division must not trap (see _evaluate_pure).
                try:
                    return eval_binop(op, type_, values[0], values[1])
                except SimulationError:
                    return 0
        else:
            eval_binop = ops.eval_binop

            def evaluate(values):
                return eval_binop(op, type_, values[0], values[1])
        return evaluate
    if isinstance(node, N.UnOpNode):
        op, type_ = node.op, node.type
        eval_unop = ops.eval_unop
        return lambda values: eval_unop(op, type_, values[0])
    if isinstance(node, N.CastNode):
        from_type, to_type = node.from_type, node.to_type
        eval_cast = ops.eval_cast
        return lambda values: eval_cast(values[0], from_type, to_type)
    if isinstance(node, N.MuxNode):
        arms = node.arms
        truthy = ops.truthy

        def evaluate(values):
            for arm in range(arms):
                if truthy(values[2 * arm]):
                    return values[2 * arm + 1]
            return 0  # no predicate true: the value is dead downstream
        return evaluate
    raise SimulationError(f"not a pure node: {node!r}")


def _pure_latency(node) -> int:
    if isinstance(node, N.BinOpNode):
        return latencies.binop_latency(node.op, node.type)
    if isinstance(node, N.UnOpNode):
        return latencies.unop_latency(node.op, node.type)
    if isinstance(node, N.CastNode):
        return latencies.cast_latency(node.from_type, node.to_type)
    return latencies.WIRE  # mux


class NodeSpec:
    """Flat firing metadata for one dynamic node."""

    __slots__ = ("node", "id", "kind", "num_outputs", "slots", "oneshot",
                 "primed", "latency", "evaluate", "has_value", "fanout")

    def __init__(self, node):
        self.node = node
        self.id = node.id
        self.kind = UNKNOWN
        self.num_outputs = node.num_outputs
        self.slots: tuple = ()
        # Strict node whose every input is a constant wire (or an absent
        # optional token): fires exactly once, at priming.
        self.oneshot = False
        # Fired at priming time (matches the interpreter's priming loop;
        # includes e.g. merges with all-sticky inputs, which no-op there).
        self.primed = False
        self.latency = 0
        self.evaluate = None
        self.has_value = False
        self.fanout: tuple = ()


class SimPlan:
    """Per-graph compilation of the dataflow firing rules into flat tables."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.version = graph.version
        self._build_sticky()
        self._build_specs()

    # ------------------------------------------------------------------
    # Sticky wires

    def _build_sticky(self) -> None:
        sticky_ids: set[int] = set()
        recipe: list[tuple] = []  # (node, tag, evaluator|None) in topo order
        for node in self.graph.topological_order():
            if isinstance(node, N.ConstNode):
                tag = "const"
            elif isinstance(node, N.ParamNode):
                tag = "param"
            elif isinstance(node, N.SymbolAddrNode):
                tag = "symbol"
            elif isinstance(node, _STICKY_PURE) and all(
                    p is not None and _is_sticky_port(p, sticky_ids)
                    for p in node.inputs):
                tag = "pure"
            else:
                continue
            sticky_ids.add(node.id)
            recipe.append((node, tag,
                           pure_evaluator(node) if tag == "pure" else None))
        self.sticky_ids = frozenset(sticky_ids)
        self._sticky_recipe = recipe
        # Objects the interpreter allocates while initializing node state,
        # before sticky evaluation runs (in node-id order).
        self.symbol_nodes = self.graph.by_kind(N.SymbolAddrNode)
        self.initial_tokens = self.graph.by_kind(N.InitialTokenNode)

    def evaluate_sticky(self, args: list, memory) -> dict[int, object]:
        """Constant-wire values for one run: ``node id -> value``.

        Mirrors ``DataflowSimulator._compute_sticky`` (same order, same
        allocation sequence, same missing-argument error) but resolves
        structure from the prebuilt recipe.
        """
        values: dict[int, object] = {}
        for node, tag, evaluate in self._sticky_recipe:
            if tag == "const":
                value = node.value
            elif tag == "param":
                if node.index >= len(args):
                    raise SimulationError(
                        f"missing argument for parameter {node.name!r}"
                    )
                value = args[node.index]
            elif tag == "symbol":
                value = memory.allocate(node.symbol)
            else:
                value = evaluate([values[p.node.id] for p in node.inputs])
            values[node.id] = value
        return values

    # ------------------------------------------------------------------
    # Dynamic node specs

    def _build_specs(self) -> None:
        sticky_ids = self.sticky_ids
        specs: list[NodeSpec] = []
        for node in self.graph:  # node-id order, like the priming loop
            if node.id in sticky_ids:
                continue
            spec = NodeSpec(node)
            specs.append(spec)
            if isinstance(node, N.MergeNode):
                spec.kind = MERGE
            elif isinstance(node, N.ControlStreamNode):
                spec.kind = CTRLSTREAM
            elif isinstance(node, N.TokenGenNode):
                spec.kind = TOKENGEN
            elif isinstance(node, _STICKY_PURE):
                spec.kind = PURE
                spec.latency = _pure_latency(node)
                spec.evaluate = pure_evaluator(node)
            elif isinstance(node, N.EtaNode):
                spec.kind = ETA
            elif isinstance(node, N.CombineNode):
                spec.kind = COMBINE
            elif isinstance(node, N.LoadNode):
                spec.kind = LOAD
            elif isinstance(node, N.StoreNode):
                spec.kind = STORE
            elif isinstance(node, N.ReturnNode):
                spec.kind = RETURN
                spec.has_value = node.type is not None
            elif isinstance(node, N.InitialTokenNode):
                spec.kind = INITIAL
            # UNKNOWN kinds stay unknown: the engine raises the
            # interpreter's "cannot fire" error only if one ever fires.
            self._classify_slots(spec, sticky_ids)
            spec.fanout = tuple(
                tuple((use.node.id, use.index)
                      for use in self.graph.uses(OutPort(node, out_index))
                      if use.node.id not in sticky_ids)
                for out_index in range(node.num_outputs)
            )
        self.specs = specs
        self.primed = [spec for spec in specs if spec.primed]

    def _classify_slots(self, spec: NodeSpec, sticky_ids) -> None:
        node = spec.node
        slots = []
        blocked = False
        for index, port in enumerate(node.inputs):
            if port is None:
                if _optional_input(node, index):
                    slots.append((SLOT_ABSENT, None))
                else:
                    blocked = True
                    slots.append((SLOT_QUEUE, None))  # never filled
            elif _is_sticky_port(port, sticky_ids):
                slots.append((SLOT_STICKY, port.node.id))
            else:
                slots.append((SLOT_QUEUE, None))
        spec.slots = tuple(slots)
        strict = spec.kind in (PURE, ETA, COMBINE, LOAD, STORE, RETURN,
                               UNKNOWN)
        if blocked and strict:
            # A required input is unconnected: _input_ready stays false.
            spec.kind = BLOCKED
        # Priming condition — mirrors _all_inputs_constant over the slot
        # codes (merge/ctrlstream/tokengen included; their firing rules
        # simply find empty queues at time 0).
        all_const = bool(node.inputs) and all(
            code != SLOT_QUEUE for code, _ in slots)
        spec.primed = all_const
        spec.oneshot = all_const and strict


# ----------------------------------------------------------------------
# Per-graph cache

#: Most plans a process keeps alive at once. A weak map looks tempting
#: here, but a plan strongly references its graph (``plan.graph``), so a
#: WeakKeyDictionary value pins its own key forever — and the codegen
#: engine hangs a generated module off each plan, so a long-lived
#: ``repro serve`` worker would accumulate one compiled module per graph
#: it ever simulated. A small LRU bounds that: sweeps touch a handful of
#: graphs repeatedly, so 64 is generous. Read dynamically (tests shrink
#: it via monkeypatch).
PLAN_CACHE_LIMIT = 64

_PLANS: "OrderedDict[int, SimPlan]" = OrderedDict()
# Sim threads of one process (``repro serve``) share the cache: a lookup,
# its LRU bump and any eviction must be one step, or another thread can
# evict the key between ``get`` and ``move_to_end``.
_PLANS_LOCK = threading.Lock()


def plan_for(graph: Graph) -> SimPlan:
    """The (possibly cached) :class:`SimPlan` for ``graph``.

    Cached per graph object (an LRU bounded by :data:`PLAN_CACHE_LIMIT`)
    and invalidated by ``graph.version``, so repeated simulations of one
    compilation share a plan — and its generated codegen module — while
    graphs mutated by optimization passes are re-planned on next use.
    """
    key = id(graph)
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        # The identity guard (`plan.graph is graph`) defends against id()
        # reuse after a previously-cached graph was garbage collected.
        if plan is None or plan.graph is not graph \
                or plan.version != graph.version:
            # Built under the lock, so threads racing on one graph share
            # one plan.
            plan = SimPlan(graph)
            _PLANS[key] = plan
            while len(_PLANS) > PLAN_CACHE_LIMIT:
                _PLANS.popitem(last=False)
        else:
            _PLANS.move_to_end(key)
    return plan


def invalidate_plan(graph: Graph) -> None:
    """Drop the cached plan for ``graph`` (mutation done behind its back)."""
    with _PLANS_LOCK:
        _PLANS.pop(id(graph), None)


def plan_cache_info() -> tuple[int, int]:
    """``(entries, limit)`` of the process-wide plan cache."""
    return len(_PLANS), PLAN_CACHE_LIMIT


def clear_plan_cache() -> None:
    """Empty the plan cache (releases plans and their generated modules)."""
    with _PLANS_LOCK:
        _PLANS.clear()
