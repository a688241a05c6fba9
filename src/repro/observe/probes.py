"""The probe bus: typed observation hooks inside the dataflow simulator.

The simulator and memory system expose a small set of *hook points*; a
:class:`ProbeBus` fans each one out to the listeners that subscribed to
it. The contract is built for zero cost when observation is off:

- each hook is a plain attribute on the bus (``fire``, ``emit``,
  ``enqueue``, ``dequeue``, ``mem_access``, ``lsq``) that is **None**
  until a listener subscribes to it;
- the simulator caches these attributes into locals at the start of
  ``run()`` and guards every hook site with a single ``is not None``
  test; the compiled and codegen engines switch to their instrumented
  (heap-scheduled) path only when a ``fire``/``emit``/``enqueue``/
  ``dequeue`` hook has a listener, and the memory system is handed the
  bus only when ``mem_access``/``lsq`` has one — so an empty bus runs
  exactly the no-bus path (``benchmarks/bench_observe_overhead.py``
  holds the line at 5%);
- listeners therefore must subscribe **before** the simulation starts;
  subscribing mid-run is not observed.

Hook points and their signatures (all times in simulated cycles):

===========  ========================================================
hook         arguments
===========  ========================================================
fire         (node, time) — one operator firing; the single source of
             truth also backing ``DataflowResult.fire_counts``
emit         (node, outputs, at) — the firing's results become visible
             at cycle ``at`` (memory ops: the access completion)
enqueue      (producer, consumer, slot, time) — a value lands on the
             consumer's input queue ``slot``
dequeue      (node, slot, time) — a queued value is consumed
mem_access   (now, start, done, addr, width, is_write, level,
             tlb_miss) — one memory operation: issued at ``now``,
             wins an LSQ port at ``start``, completes at ``done``;
             ``level`` is "perfect" | "l1" | "l2" | "mem"
lsq          (now, depth, port_wait) — LSQ occupancy at issue time and
             the cycles the access waited for a free port
===========  ========================================================

A listener is any object with ``on_<hook>`` methods for the hooks it
cares about; :meth:`ProbeBus.subscribe` wires only those.
"""

from __future__ import annotations

from collections import deque

#: Hook names a listener may implement (as ``on_<name>`` methods).
HOOKS = ("fire", "emit", "enqueue", "dequeue", "mem_access", "lsq")


class ProbeBus:
    """Fans hook invocations out to subscribed listeners.

    Each hook attribute is ``None`` (no listener — instrumentation
    sites skip the call entirely), a single bound method (one
    listener — no dispatch loop), or a multicast closure.
    """

    __slots__ = tuple(HOOKS) + ("_listeners",)

    def __init__(self):
        for hook in HOOKS:
            setattr(self, hook, None)
        self._listeners: list[object] = []

    # ------------------------------------------------------------------

    def subscribe(self, listener: object) -> object:
        """Wire ``listener``'s ``on_<hook>`` methods into the bus."""
        self._listeners.append(listener)
        for hook in HOOKS:
            handler = getattr(listener, f"on_{hook}", None)
            if handler is None:
                continue
            current = getattr(self, hook)
            if current is None:
                setattr(self, hook, handler)
            else:
                setattr(self, hook, _multicast(current, handler))
        return listener

    @property
    def listeners(self) -> tuple[object, ...]:
        return tuple(self._listeners)

    def find(self, kind: type) -> object | None:
        """The first subscribed listener of class ``kind``, if any."""
        for listener in self._listeners:
            if isinstance(listener, kind):
                return listener
        return None


def _multicast(first, second):
    def dispatch(*args):
        first(*args)
        second(*args)
    return dispatch


class HistoryRing:
    """Bounded ring of recent firings, for wedge/deadlock forensics.

    Deadlock reports answer "what is stuck *now*"; the ring answers
    "what was the circuit doing *just before* it stuck" — the last
    ``capacity`` (node id, cycle) firing events, plus the last cycle
    each node fired, so a post-mortem can separate nodes that went
    quiet early from ones active until the end.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self.events: deque[tuple[int, int]] = deque(maxlen=capacity)
        self.last_fired: dict[int, int] = {}

    def on_fire(self, node, time: int) -> None:
        self.events.append((node.id, time))
        self.last_fired[node.id] = time

    def tail(self, count: int = 16) -> list[tuple[int, int]]:
        """The most recent ``count`` (node id, cycle) firings."""
        if count >= len(self.events):
            return list(self.events)
        return list(self.events)[-count:]
