"""Machine-speed calibration for the in-process workloads.

On a shared VM the speed of a vCPU moves by ±20% or more over seconds to
minutes (a fixed pure-Python loop took 0.41-0.63 s run to run), which
would swamp any change a benchmark is meant to show. So before each op,
on the same thread, the benchmark times a fixed reference workload that
does what the measured code does — allocate small objects, fill dicts,
chase pointers through a working set larger than the L2 cache — with the
garbage collector paused, so its time does not depend on the program's
heap. Each op's time is then scaled by ``REFERENCE_S`` over the median
reference time of the ops around it: the result is the time the op
would take at the reference speed. Over 30 s runs this cut the spread
of compile throughput from 35% to 9% on the VM it was tuned on.

The service workload's ops run in the server process, so its readings,
taken in the client process before each request, follow the server's
speed only as far as both vCPUs slow down together. They do so enough
to help: over five 30 s service runs the spread of the raw request rate
was 32% of its median and that of the calibrated rate 10%.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Reference time at the nominal speed (about the median on the 2-vCPU
#: x86-64 VM the benchmark was tuned on); calibrated times are in
#: seconds at this speed.
REFERENCE_S = 0.005
#: Reference readings (ops) on each side of an op that its speed uses.
WINDOW = 5
CHASE_CELLS = 100_000
CHASE_STEPS = 10_000
ALLOCATIONS = 2_000


class _Cell:
    __slots__ = ("next", "value", "children")


class Speedometer:
    """Times the reference workload; one per measuring thread."""

    def __init__(self):
        rng = random.Random(0)
        order = list(range(CHASE_CELLS))
        rng.shuffle(order)
        cells = [_Cell() for _ in range(CHASE_CELLS)]
        for index, cell in enumerate(cells):
            cell.next = cells[order[index]]
            cell.value = index
        self._start = cells[0]
        self.readings: list[float] = []

    def _reference(self) -> int:
        cell, total = self._start, 0
        for _ in range(CHASE_STEPS):
            total += cell.value
            cell = cell.next
        made = []
        for index in range(ALLOCATIONS):
            item = _Cell()
            item.value = {"index": index, "name": str(index)}
            item.children = [made[index // 2]] if made else []
            made.append(item)
        for item in made:
            for child in item.children:
                total += len(child.value)
        return total

    def sample(self) -> float:
        """Time one reference run (GC paused); returns the seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._reference()
            elapsed = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.readings.append(elapsed)
        return elapsed


def recent_factor(speed) -> float:
    """Scale factor from the latest readings (1.0 without a speedometer);
    what a run's stopping rule uses, so that a run measures the same work
    whatever the machine's speed."""
    if speed is None or not speed.readings:
        return 1.0
    return REFERENCE_S / statistics.median(speed.readings[-2 * WINDOW - 1:])


def factors(readings: list[float]) -> list[float]:
    """Per-op scale factors from the reading taken before each op."""
    count = len(readings)
    return [REFERENCE_S / statistics.median(
                readings[max(0, index - WINDOW):index + WINDOW + 1])
            for index in range(count)]
