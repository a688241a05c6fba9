"""fig19_sweep: ``harness.fig19.figure19()`` over a seeded kernel draw.

All four memory systems, inline executor, default engine. Set-up
compiles the drawn kernels' artifacts into an empty on-disk store; each
sweep then starts from empty in-process state (compile dict, plan cache
and generated modules), as every ``repro sweep run`` does, and loads
the artifacts from the store. Sweeps repeat until ``--seconds`` and at
least :data:`~perfbench.common.MIN_OPS` simulations.

An op is one ``CompiledProgram.simulate`` call (a Figure-19 cell is
three: none, medium, full). A miss is an op whose program had not been
simulated before in its sweep, so it pays the plan build.

Checks: every return value passes ``Kernel.check`` (goldens from the
sequential oracle), and every sweep's rows equal the first sweep's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from perfbench import stats
from perfbench.common import (
    MIN_OPS, Op, Outcome, calibrate, latency_metrics, sample_counts,
    self_peak_rss_mb, timed_setups, uncalibrated,
)
from perfbench.inputs import LEVELS
from perfbench.speed import Speedometer, recent_factor


@dataclass
class _Counts:
    """Exact simulation counts of one sweep."""

    events: int = 0
    cycles: int = 0
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    tlb_misses: int = 0
    port_stall_cycles: int = 0

    def add(self, result) -> None:
        memory = result.memory_stats
        self.events += result.fired
        self.cycles += result.cycles
        self.accesses += memory.accesses
        self.l1_hits += memory.l1_hits
        self.l2_hits += memory.l2_hits
        self.tlb_misses += memory.tlb_misses
        self.port_stall_cycles += memory.port_stall_cycles


@dataclass
class _Recorder:
    """Times every simulate call and checks its return value."""

    kernels: dict
    outcome: Outcome
    ops: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)   # _Counts per sweep
    seen: set = field(default_factory=set)
    traced: bool = False
    last_end: float = 0.0
    speed: object = None     # Speedometer read before each simulate

    def new_sweep(self) -> None:
        self.seen = set()
        self.sweeps.append(_Counts())
        self.last_end = time.perf_counter()

    def _record(self, op: Op, reading: float) -> None:
        end = time.perf_counter()
        op.wall = end - self.last_end - reading
        self.last_end = end
        self.ops.append(op)

    def wrap(self, simulate):
        from repro.errors import WorkloadError
        from repro.observe.tracing import span

        def timed(program, *args, **kwargs):
            memsys = kwargs.get("memsys")
            key = (program.entry, program.opt_level,
                   getattr(getattr(memsys, "config", None), "name", None))
            miss = id(program) not in self.seen
            self.seen.add(id(program))
            self.outcome.attempted += 1
            reading = self.speed.sample() if self.speed is not None else 0.0
            started = time.perf_counter()
            try:
                if self.traced:
                    with span("bench:simulate"):
                        result = simulate(program, *args, **kwargs)
                else:
                    result = simulate(program, *args, **kwargs)
            except Exception:
                self.outcome.failed += 1
                self._record(Op(key, time.perf_counter() - started,
                                miss=miss, ok=False), reading)
                raise
            self._record(Op(key, time.perf_counter() - started, miss=miss),
                         reading)
            self.sweeps[-1].add(result)
            try:
                self.kernels[program.entry].check(result.return_value)
            except WorkloadError as error:
                self.outcome.problems.append(f"{key}: {error}")
            return result
        return timed


def _setup(kernels, scratch, speed):
    """Fresh on-disk store holding every drawn artifact; empty memory."""
    import os
    from repro.harness.cache import clear_memory, compiled

    def make(index):
        store = scratch.dir("store")
        os.environ["REPRO_CACHE_DIR"] = str(store)
        for name in kernels:
            for level in LEVELS:
                compiled(name, level)
        clear_memory()
        return store

    def discard(store):
        import shutil
        shutil.rmtree(store)
    return timed_setups(make, discard, speed=speed)


def _sweeps(kernels, seconds, recorder, *, limit=None):
    """Run at least two sweeps, ``seconds`` (at the reference speed when
    the recorder reads one) and MIN_OPS simulations; or ``limit`` sweeps.

    Returns ``(wall seconds per sweep, rows of the first sweep)``.
    """
    from repro.harness.cache import clear_memory
    from repro.harness.fig19 import MEMORY_SYSTEMS, figure19

    walls = []
    counted = 0.0
    first_rows = None
    while True:
        clear_memory()
        recorder.new_sweep()
        started = time.perf_counter()
        try:
            rows = figure19(kernels=kernels, memory_systems=MEMORY_SYSTEMS)
        except Exception as error:  # noqa: BLE001 - reported, run ends
            recorder.outcome.problems.append(
                f"sweep {len(walls)} failed: {type(error).__name__}: "
                f"{error}")
            break
        walls.append(time.perf_counter() - started)
        counted += walls[-1] * recent_factor(recorder.speed)
        table = [(row.name, row.memsys, row.baseline_cycles,
                  sorted(row.cycles.items())) for row in rows]
        if first_rows is None:
            first_rows = rows
            first_table = table
            recorder.outcome.check(
                len(rows) == len(kernels) * len(MEMORY_SYSTEMS),
                f"sweep returned {len(rows)} rows")
        else:
            recorder.outcome.check(table == first_table,
                                   f"sweep {len(walls)} rows differ "
                                   f"from the first sweep's")
        if limit is not None:
            if len(walls) >= limit:
                break
        elif (counted >= seconds and len(recorder.ops) >= MIN_OPS
                and len(walls) >= 2):
            break
    clear_memory()
    return walls, first_rows or []


def _speedups(rows) -> dict:
    return {f"speedup_{level}_geomean": stats.geomean(
                row.speedup(level) for row in rows)
            for level in ("full", "medium")}


def run(draw, seconds, trace, scratch) -> Outcome:
    from repro.api import CompiledProgram
    from repro.programs import all_kernels

    outcome = Outcome()
    kernels = draw["kernels"]
    speed = Speedometer()
    setup_s, _ = _setup(kernels, scratch, speed)
    recorder = _Recorder({kernel.entry: kernel for kernel in all_kernels()},
                         outcome)
    original = CompiledProgram.simulate
    CompiledProgram.simulate = recorder.wrap(original)
    try:
        if trace:
            _traced(kernels, seconds, recorder, scratch)
        else:
            speed.readings.clear()
            recorder.speed = speed
            walls, rows = _sweeps(kernels, seconds, recorder)
            calibrate(recorder.ops, speed.readings)
            if rows:
                outcome.metrics.update(latency_metrics(recorder.ops))
                outcome.info.update(uncalibrated(recorder.ops))
                outcome.metrics.update(_speedups(rows))
            outcome.metrics["setup_s"] = setup_s
            outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
            events = sum(c.events for c in recorder.sweeps[:len(walls)])
            outcome.info["sweeps"] = len(walls)
            outcome.info["events_simulated"] = events
            outcome.info["sim_events_per_s"] = (events / sum(walls)
                                                if walls else 0.0)
    finally:
        CompiledProgram.simulate = original
    outcome.info["samples"] = sample_counts(recorder.ops)
    return outcome


def _traced(kernels, seconds, recorder, scratch) -> None:
    import repro.api
    import repro.sim.codegen
    from repro.observe.tracing import Tracer, read_trace, span
    from repro.pipeline.cache import CompilationCache
    from perfbench import spans as sp

    # Two untraced sweeps: the first also pays the process's first-use
    # costs, so the overhead compares fastest sweep with fastest sweep.
    plain, _ = _sweeps(kernels, seconds, recorder, limit=2)
    recorder.ops.clear()
    recorder.sweeps.clear()
    recorder.traced = True
    trace_dir = scratch.dir("trace")
    targets = [(CompilationCache, "get", "bench:cache.get"),
               (repro.api, "plan_for", "bench:plan_for"),
               (repro.sim.codegen, "generated_for", "bench:generated_for")]
    with Tracer(trace_dir), sp.instrument(targets), \
            span("bench:fig19_sweep"):
        walls, _ = _sweeps(kernels, seconds, recorder)
    spans = read_trace(trace_dir)
    selfs = sp.self_times(spans)
    count = len([op for op in recorder.ops if op.ok])
    events = sum(c.events for c in recorder.sweeps)
    metrics = recorder.outcome.metrics
    metrics["sim.run_ms"] = sp.total_ms(spans, "run:") / count
    metrics["sim.ns_per_event"] = sp.total_ms(spans, "run:") * 1e6 / events
    metrics["sim.plan_ms"] = (sp.total_ms(spans, "bench:plan_for")
                              + sp.total_ms(spans, "bench:generated_for")
                              ) / count
    metrics["pipeline.cache_get_ms"] = sp.total_ms(
        spans, "bench:cache.get") / count
    metrics["orchestrate.scheduler_self_ms"] = sum(
        sp.self_ms(spans, selfs, "sweep:")) / count
    metrics["harness.cell_self_ms"] = sum(
        sp.self_ms(spans, selfs, "job:")) / count
    first = recorder.sweeps[0]
    metrics["sim.events"] = first.events
    metrics["sim.cycles"] = first.cycles
    metrics["memsys.accesses"] = first.accesses
    metrics["memsys.l1_hit_frac"] = first.l1_hits / first.accesses
    metrics["memsys.l2_hit_frac"] = (first.l2_hits
                                     / (first.accesses - first.l1_hits))
    metrics["memsys.tlb_misses"] = first.tlb_misses
    metrics["memsys.port_stall_cycles"] = first.port_stall_cycles
    metrics["observe.trace_overhead"] = min(walls) / min(plain)
    recorder.outcome.info["sweeps"] = len(walls)
