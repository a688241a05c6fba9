"""Event-driven dataflow simulation of Pegasus graphs (§7.3).

Semantics follow the paper's asynchronous-circuit model: each node is a
hardware operator; an operator fires when the values it needs are present
on its input channels and re-fires as often as new values arrive (fully
pipelined, initiation interval limited only by its inputs). Channels are
FIFO queues. Special rules:

- **constants** (const, param, symbol-address — and pure nodes fed only by
  them) are wires tied to a value: always readable, never consumed;
- **merge** forwards whichever input arrives (inputs are mutually exclusive
  per control instance, so FIFO arrival order is the program order);
- **eta** consumes (value, predicate) and forwards the value only on true;
- **load/store** with a false predicate forward their token instantaneously
  without touching memory (§3.1); with a true predicate the functional
  effect happens at fire time and the token/value appear when the memory
  system completes the access;
- **tk(n)** implements the token generator of §6.3 (credits/demands);
- **return** ends the simulation; its completion time is the cycle count.
"""

from __future__ import annotations

import heapq
import time as _time
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.errors import (
    DeadlockError,
    EventLimitError,
    SimulationError,
    SimulationTimeout,
)
from repro.pegasus.graph import Graph, OutPort
from repro.pegasus import nodes as N
from repro.sim import latencies, ops
from repro.sim.memory_image import MemoryImage
from repro.sim.memsys import MemoryStats, MemorySystem, PERFECT_MEMORY

TOKEN = object()  # the single token value

DEFAULT_EVENT_LIMIT = 100_000_000

#: Probe hooks the simulators call per event; a listener on any of them
#: needs the executors' instrumented (sequence-keyed heap) path.
SIM_HOOKS = ("fire", "emit", "enqueue", "dequeue")
#: Probe hooks the memory system calls per access.
MEM_HOOKS = ("mem_access", "lsq")


def listens(probes, hooks) -> bool:
    """True when the probe bus ``probes`` has a listener on any of
    ``hooks``; an empty bus (or none) listens to nothing."""
    return probes is not None and any(
        getattr(probes, hook, None) is not None for hook in hooks)


def share_probes(memsys, probes) -> None:
    """Hand ``probes`` to ``memsys`` when it listens to a memory hook.

    A bus without ``mem_access``/``lsq`` listeners stays off the memory
    system, so perfect memory keeps its direct-issue path
    (:meth:`~repro.sim.memsys.MemorySystem.perfect_issue`).
    """
    if getattr(memsys, "probes", None) is None \
            and listens(probes, MEM_HOOKS):
        memsys.probes = probes


@dataclass
class DataflowResult:
    """Outcome of a spatial execution."""

    return_value: object
    cycles: int
    fired: int
    loads: int            # loads that actually accessed memory
    stores: int           # stores that actually accessed memory
    skipped_memops: int   # predicated-false memory operations
    memory: MemoryImage
    memory_stats: MemoryStats
    fire_counts: dict[int, int] = field(default_factory=dict)
    # Filled by api.simulate(profile=...): an observe.ProfileReport with
    # per-opcode/per-node counters and the critical-path attribution.
    profile: object = None

    @property
    def memory_operations(self) -> int:
        return self.loads + self.stores


class _NodeState:
    __slots__ = ("queues", "tk_credits", "tk_demands", "last_done",
                 "merge_expect")

    def __init__(self, node: N.Node):
        self.queues: list[deque] = [deque() for _ in node.inputs]
        self.tk_credits = getattr(node, "count", 0)
        self.tk_demands = 0
        # Memory operators complete in issue order (a hardware operator's
        # results come out of its pipeline FIFO); token-counting structures
        # (collectors, tk(n)) rely on this.
        self.last_done = 0
        # Controlled (loop) merges: which input class the next output is
        # drawn from; None = awaiting the control predicate's decision.
        self.merge_expect: str | None = "entry"


class DataflowSimulator:
    """Executes one Pegasus graph against a memory image and memory system."""

    #: How often (in events) the wall-clock budget is polled.
    WALL_CHECK_INTERVAL = 4096
    #: How many hottest nodes an event-limit overrun reports.
    HOT_NODE_COUNT = 5

    def __init__(self, graph: Graph, memory: MemoryImage | None = None,
                 memsys: MemorySystem | None = None,
                 event_limit: int = DEFAULT_EVENT_LIMIT,
                 faults=None, wall_limit: float | None = None,
                 probes=None):
        self.graph = graph
        self.memory = memory if memory is not None else MemoryImage()
        self.memsys = memsys or MemorySystem(PERFECT_MEMORY)
        self.event_limit = event_limit
        self.wall_limit = wall_limit
        # Deterministic fault injection (a resilience.faults.FaultPlan):
        # one injector per run, shared with the memory system so every
        # fault family draws from the same seeded stream.
        self.fault_plan = faults
        self._inject = faults.injector() if faults is not None else None
        if self._inject is not None and \
                getattr(self.memsys, "faults", None) is None:
            self.memsys.faults = self._inject
        # Observability (an observe.probes.ProbeBus). Each hook is cached
        # as a per-channel attribute that stays None when nothing
        # subscribed, so every instrumentation site costs one identity
        # test when observation is off. Subscribe before run().
        self.probes = probes
        self._p_fire = None
        self._p_emit = None
        self._p_enqueue = None
        self._p_dequeue = None
        self._state: dict[int, _NodeState] = {}
        self._sticky: dict[OutPort, object] = {}
        self._sticky_nodes: set[int] = set()
        self._events: list = []
        self._seq = 0
        self._now = 0
        self._fired = 0
        self._loads = 0
        self._stores = 0
        self._skipped = 0
        self._fire_counts: Counter[int] = Counter()
        self._done = False
        self._return_value: object = None
        # Strict nodes whose every input is a constant wire have no arrival
        # to trigger them; they fire exactly once (their hyperblock is the
        # entry region, which executes once).
        self._oneshot_fired: set[int] = set()

    # ------------------------------------------------------------------

    def run(self, args: list[object] | None = None) -> DataflowResult:
        """Execute the graph with entry arguments ``args``."""
        args = args if args is not None else []
        if self.probes is not None:
            self._p_fire = self.probes.fire
            self._p_emit = self.probes.emit
            self._p_enqueue = self.probes.enqueue
            self._p_dequeue = self.probes.dequeue
        share_probes(self.memsys, self.probes)
        for node in self.graph:
            self._state[node.id] = _NodeState(node)
            if isinstance(node, N.SymbolAddrNode):
                self.memory.allocate(node.symbol)
        self._compute_sticky(args)
        # Prime the graph: initial tokens fire at time 0, and fully-constant
        # strict nodes take their single firing.
        for node in self.graph.by_kind(N.InitialTokenNode):
            self._emit(node, {0: TOKEN}, at=0)
        for node in self.graph:
            if node.id in self._sticky_nodes or not node.inputs:
                continue
            if self._all_inputs_constant(node):
                self._try_fire(node, 0)
        events = 0
        started = _time.monotonic()
        while self._events and not self._done:
            events += 1
            if events > self.event_limit:
                raise EventLimitError(
                    f"{self.graph.name}: event limit exceeded "
                    f"({self.event_limit}) at cycle {self._now}",
                    self.event_limit, self._now,
                    hot_nodes=self._hottest_nodes(),
                )
            if self.wall_limit is not None \
                    and events % self.WALL_CHECK_INTERVAL == 0:
                elapsed = _time.monotonic() - started
                if elapsed > self.wall_limit:
                    raise SimulationTimeout(
                        f"{self.graph.name}: simulation exceeded its "
                        f"wall-clock budget at cycle {self._now}",
                        self.wall_limit, elapsed,
                    )
            time, _, _, node, outputs = heapq.heappop(self._events)
            self._now = max(self._now, time)
            self._deliver(node, outputs, time)
        if not self._done:
            from repro.resilience.forensics import build_deadlock_report
            report = build_deadlock_report(self)
            raise DeadlockError(
                f"{self.graph.name}: dataflow execution deadlocked",
                self._now, pending=list(report.blocked), report=report,
            )
        return DataflowResult(
            return_value=self._return_value,
            cycles=self._now,
            fired=self._fired,
            loads=self._loads,
            stores=self._stores,
            skipped_memops=self._skipped,
            memory=self.memory,
            memory_stats=self.memsys.stats,
            fire_counts=dict(self._fire_counts),
        )

    # ------------------------------------------------------------------
    # Constants

    _STICKY_PURE = (N.BinOpNode, N.UnOpNode, N.CastNode, N.MuxNode)

    def _compute_sticky(self, args: list[object]) -> None:
        """Evaluate the constant subgraph once; its ports become wires."""
        for node in self.graph.topological_order():
            if isinstance(node, N.ConstNode):
                self._sticky[node.out()] = node.value
            elif isinstance(node, N.ParamNode):
                if node.index >= len(args):
                    raise SimulationError(
                        f"missing argument for parameter {node.name!r}"
                    )
                self._sticky[node.out()] = args[node.index]
            elif isinstance(node, N.SymbolAddrNode):
                self._sticky[node.out()] = self.memory.allocate(node.symbol)
            elif isinstance(node, self._STICKY_PURE):
                if all(p is not None and p in self._sticky for p in node.inputs):
                    values = [self._sticky[p] for p in node.inputs]
                    self._sticky[node.out()] = self._evaluate_pure(node, values)
                else:
                    continue
            else:
                continue
            self._sticky_nodes.add(node.id)

    # ------------------------------------------------------------------
    # Event plumbing

    def _emit(self, node: N.Node, outputs: dict[int, object], at: int) -> None:
        if self._p_emit is not None:
            self._p_emit(node, outputs, at)
        self._seq += 1
        key = self._seq
        if self._inject is not None:
            key = self._inject.reorder_key(node.id, at, self._seq)
        heapq.heappush(self._events, (at, key, self._seq, node, outputs))

    def _hottest_nodes(self) -> list[tuple[str, int]]:
        """Top-k nodes by fire count, labelled — livelock forensics."""
        hottest = heapq.nlargest(self.HOT_NODE_COUNT,
                                 self._fire_counts.items(),
                                 key=lambda item: (item[1], -item[0]))
        result = []
        for node_id, count in hottest:
            node = self.graph.nodes.get(node_id)
            label = f"{node.label()}#{node_id}" if node else f"#{node_id}"
            result.append((label, count))
        return result

    def _deliver(self, node: N.Node, outputs: dict[int, object], time: int) -> None:
        for out_index, value in outputs.items():
            port = OutPort(node, out_index)
            for slot in self.graph.uses(port):
                state = self._state[slot.node.id]
                state.queues[slot.index].append(value)
                if self._p_enqueue is not None:
                    self._p_enqueue(node, slot.node, slot.index, time)
                self._try_fire(slot.node, time)
                if self._done:
                    return

    # ------------------------------------------------------------------
    # Firing

    def _try_fire(self, node: N.Node, time: int) -> None:
        if node.id in self._sticky_nodes:
            # Sticky nodes never fire dynamically; drain stray deliveries.
            for queue in self._state[node.id].queues:
                queue.clear()
            return
        while self._fire_once(node, time):
            if self._done:
                return

    def _all_inputs_constant(self, node: N.Node) -> bool:
        return bool(node.inputs) and all(
            (port is None and _optional_input(node, index))
            or (port is not None and port in self._sticky)
            for index, port in enumerate(node.inputs)
        )

    def _input_ready(self, node: N.Node, index: int) -> bool:
        port = node.inputs[index]
        if port is None:
            return _optional_input(node, index)
        if port in self._sticky:
            return True
        return bool(self._state[node.id].queues[index])

    def _take(self, node: N.Node, index: int, time: int):
        port = node.inputs[index]
        if port is None:
            return TOKEN
        if port in self._sticky:
            return self._sticky[port]
        if self._p_dequeue is not None:
            self._p_dequeue(node, index, time)
        return self._state[node.id].queues[index].popleft()

    def _fire_once(self, node: N.Node, time: int) -> bool:
        if isinstance(node, N.MergeNode):
            return self._fire_merge(node, time)
        if isinstance(node, N.ControlStreamNode):
            state = self._state[node.id]
            for index, queue in enumerate(state.queues):
                if queue:
                    if self._p_dequeue is not None:
                        self._p_dequeue(node, index, time)
                    queue.popleft()  # the pulse value itself is irrelevant
                    self._record_fire(node, time)
                    decision = 1 if index in node.true_slots else 0
                    self._emit(node, {0: decision}, time + latencies.WIRE)
                    return True
            return False
        if isinstance(node, N.TokenGenNode):
            return self._fire_tokengen(node, time)
        if self._all_inputs_constant(node):
            if node.id in self._oneshot_fired:
                return False
            self._oneshot_fired.add(node.id)
        # Strict nodes: all inputs must be ready.
        if not all(self._input_ready(node, i) for i in range(len(node.inputs))):
            return False
        values = [self._take(node, i, time) for i in range(len(node.inputs))]
        self._record_fire(node, time)

        if isinstance(node, (N.BinOpNode, N.UnOpNode, N.CastNode, N.MuxNode)):
            result = self._evaluate_pure(node, values)
            self._emit(node, {0: result}, time + self._pure_latency(node))
            return True
        if isinstance(node, N.EtaNode):
            value, pred = values[0], values[1]  # values[2] is the trigger
            if ops.truthy(pred):
                self._emit(node, {0: value}, time + latencies.WIRE)
            return True
        if isinstance(node, N.CombineNode):
            self._emit(node, {0: TOKEN}, time + latencies.WIRE)
            return True
        if isinstance(node, N.LoadNode):
            return self._fire_load(node, values, time)
        if isinstance(node, N.StoreNode):
            return self._fire_store(node, values, time)
        if isinstance(node, N.ReturnNode):
            self._done = True
            self._return_value = values[0] if node.type is not None else None
            self._now = max(self._now, time)
            return True
        if isinstance(node, N.InitialTokenNode):
            return False  # emitted once at priming; nothing else to do
        raise SimulationError(f"cannot fire {node!r}")

    def _fire_merge(self, node: N.MergeNode, time: int) -> bool:
        state = self._state[node.id]
        if not node.has_control:
            # Join merge: inputs are mutually exclusive per activation and
            # activations arrive serialized; forward whatever is present.
            for index, queue in enumerate(state.queues):
                if queue:
                    if self._p_dequeue is not None:
                        self._p_dequeue(node, index, time)
                    value = queue.popleft()
                    self._record_fire(node, time)
                    self._emit(node, {0: value}, time + latencies.WIRE)
                    return True
            return False
        # Loop merge: deterministic, sequenced by the control predicate.
        if state.merge_expect is None:
            slot = node.control_slot
            assert slot is not None
            port = node.inputs[slot]
            if port is not None and port in self._sticky:
                pred = self._sticky[port]
            elif state.queues[slot]:
                if self._p_dequeue is not None:
                    self._p_dequeue(node, slot, time)
                pred = state.queues[slot].popleft()
            else:
                return False  # decision not available yet
            state.merge_expect = "back" if ops.truthy(pred) else "entry"
        slots = (sorted(node.back_inputs) if state.merge_expect == "back"
                 else node.entry_slots())
        for index in slots:
            queue = state.queues[index]
            if queue:
                state.merge_expect = None
                if self._p_dequeue is not None:
                    self._p_dequeue(node, index, time)
                value = queue.popleft()
                self._record_fire(node, time)
                self._emit(node, {0: value}, time + latencies.WIRE)
                return True
        return False

    def _record_fire(self, node: N.Node, time: int) -> None:
        """The single source of truth for "this operator fired".

        Every firing path funnels through here: the ``fired`` total,
        ``fire_counts`` (shared with forensics and the trace recorder)
        and the ``fire`` probe all observe the same stream — nothing
        re-derives firing data independently.
        """
        self._fired += 1
        self._fire_counts[node.id] += 1
        if self._p_fire is not None:
            self._p_fire(node, time)

    def _fire_tokengen(self, node: N.TokenGenNode, time: int) -> bool:
        state = self._state[node.id]
        pred_queue, token_queue = state.queues
        while pred_queue or token_queue:
            if token_queue:
                if self._p_dequeue is not None:
                    self._p_dequeue(node, 1, time)
                token_queue.popleft()
                state.tk_credits += 1
            if pred_queue:
                if self._p_dequeue is not None:
                    self._p_dequeue(node, 0, time)
                pred_queue.popleft()
                # Every predicate arrival is one loop-control instance and
                # demands one token: under full predication the final
                # (false) instance still flows through the constrained
                # group's operations, which forward their token without
                # touching memory, and the free group emits a matching
                # final token. The paper instead resets the counter to n on
                # the false predicate; with explicit credits/demands
                # bookkeeping the balance returns to n by itself (T+1
                # demands consume T+1 of the n + T+1 credits), which is
                # robust to the control loop running ahead of the data
                # loops.
                state.tk_demands += 1
            while state.tk_credits > 0 and state.tk_demands > 0:
                state.tk_credits -= 1
                state.tk_demands -= 1
                self._record_fire(node, time)
                self._emit(node, {0: TOKEN}, time + latencies.INT_ALU)
        return False

    def _fire_load(self, node: N.LoadNode, values, time: int) -> bool:
        addr, pred, _token = values
        state = self._state[node.id]
        if not ops.truthy(pred):
            self._skipped += 1
            # Even the instantaneous (skipped) result leaves the operator
            # in order — it must not overtake in-flight earlier accesses.
            done = max(time, state.last_done)
            state.last_done = done
            self._emit(node, {N.LoadNode.VALUE_OUT: 0,
                              N.LoadNode.TOKEN_OUT: TOKEN}, done)
            return True
        self._loads += 1
        value = self.memory.read(int(addr), node.type)
        _, done = self.memsys.issue(time, int(addr), node.width, is_write=False)
        done = max(done, state.last_done)
        state.last_done = done
        self._emit(node, {N.LoadNode.VALUE_OUT: value,
                          N.LoadNode.TOKEN_OUT: TOKEN}, done)
        return True

    def _fire_store(self, node: N.StoreNode, values, time: int) -> bool:
        addr, value, pred, _token = values
        state = self._state[node.id]
        if not ops.truthy(pred):
            self._skipped += 1
            done = max(time, state.last_done)
            state.last_done = done
            self._emit(node, {N.StoreNode.TOKEN_OUT: TOKEN}, done)
            return True
        self._stores += 1
        self.memory.write(int(addr), value, node.type)
        _, done = self.memsys.issue(time, int(addr), node.width, is_write=True)
        done = max(done, state.last_done)
        state.last_done = done
        self._emit(node, {N.StoreNode.TOKEN_OUT: TOKEN}, done)
        return True

    # ------------------------------------------------------------------

    def _evaluate_pure(self, node: N.Node, values: list):
        if isinstance(node, N.BinOpNode):
            try:
                return ops.eval_binop(node.op, node.type, values[0], values[1])
            except SimulationError:
                # Speculated arithmetic (a divide on a not-taken path) must
                # not trap: a hardware divider produces garbage, not an
                # exception. Any predicate guarding the real use of this
                # value is false, so the result is never observed.
                if node.op in ("div", "rem"):
                    return 0
                raise
        if isinstance(node, N.UnOpNode):
            return ops.eval_unop(node.op, node.type, values[0])
        if isinstance(node, N.CastNode):
            return ops.eval_cast(values[0], node.from_type, node.to_type)
        if isinstance(node, N.MuxNode):
            for arm in range(node.arms):
                if ops.truthy(values[2 * arm]):
                    return values[2 * arm + 1]
            return 0  # no predicate true: the value is dead downstream
        raise SimulationError(f"not a pure node: {node!r}")

    def _pure_latency(self, node: N.Node) -> int:
        if isinstance(node, N.BinOpNode):
            return latencies.binop_latency(node.op, node.type)
        if isinstance(node, N.UnOpNode):
            return latencies.unop_latency(node.op, node.type)
        if isinstance(node, N.CastNode):
            return latencies.cast_latency(node.from_type, node.to_type)
        return latencies.WIRE  # mux


def _optional_input(node: N.Node, index: int) -> bool:
    return isinstance(node, N.LoadNode) and index == N.LoadNode.TOKEN_IN
