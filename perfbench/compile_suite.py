"""compile_suite: cold compiles of every kernel at none/medium/full.

Each pass over the seeded input list compiles into an empty artifact
store (harness verify policy ``final``), so every compile misses, runs
every stage and writes its artifact. Passes repeat until ``--seconds``
of compiling and at least :data:`~perfbench.common.MIN_OPS` compiles.

Checks, outside the timed compiles: every graph passes
``verify_graph``, and every input compiled twice gives the same IR
summary both times.
"""

from __future__ import annotations

import shutil
import time

from perfbench import stats
from perfbench.common import (
    MIN_OPS, Op, Outcome, calibrate, latency_metrics, sample_counts,
    self_peak_rss_mb, timed_setups, uncalibrated,
)
from perfbench.inputs import LEVELS
from perfbench.metrics import LOOPPIPE_PASSES, STAGE_METRICS
from perfbench.speed import Speedometer, recent_factor

#: Inputs timed untraced and traced for ``observe.trace_overhead``.
OVERHEAD_PREFIX = 33


def _drivers(store_root):
    from repro.harness.cache import HARNESS_VERIFY
    from repro.pipeline.cache import CompilationCache
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.driver import CompilerDriver
    cache = CompilationCache(store_root)
    return {level: CompilerDriver(
                PipelineConfig.make(opt_level=level, verify=HARNESS_VERIFY),
                cache=cache)
            for level in LEVELS}


#: Kernels compiled at every level in set-up, so the interpreter's
#: first-use costs (imports, warming code paths) are paid there and not
#: by the first measured compiles.
WARM_KERNELS = ("compress", "li", "vortex")


def _setup(scratch, speed):
    """Drivers over a fresh store, warmed by compiling WARM_KERNELS."""
    from repro.programs import get_kernel

    def make(index):
        warm = _drivers(scratch.dir("warm"))
        for name in WARM_KERNELS:
            kernel = get_kernel(name)
            for driver in warm.values():
                driver.compile(kernel.source, kernel.entry)
        shutil.rmtree(warm["none"].cache.root)
        return True
    return timed_setups(make, lambda made: None, speed=speed)


def ir_summary(program) -> tuple:
    report = program.report
    return (len(program.graph), tuple(sorted(program.graph.stats().items())),
            tuple((record.name, record.changes) for record in report.passes))


def _pass_name(label: str) -> str:
    """``redundancy[0].load-after-store`` -> ``load-after-store``."""
    return label.rsplit(".", 1)[-1]


class _Passes:
    """Per-pass wall time and the exact counts of the first pass."""

    def __init__(self):
        self.pass_ms: dict[str, float] = {}
        self.verify_ms = 0.0
        self.first: dict = {}

    def add(self, item, program, first_pass: bool) -> None:
        report = program.report
        for record in report.passes:
            name = _pass_name(record.name)
            self.pass_ms[name] = (self.pass_ms.get(name, 0.0)
                                  + record.wall_time * 1e3)
        self.verify_ms += report.verify_time * 1e3
        if first_pass:
            final = report.final_snapshot
            self.first[(item["kernel"], item["level"])] = {
                "built": report.stage("build").after.nodes,
                "after": len(program.graph),
                "memops": final.loads + final.stores,
                "run": len(report.passes),
                "changed": sum(record.changes > 0
                               for record in report.passes),
            }


def _measure(items, seconds, scratch, outcome, *, limit=None,
             on_program=None, speed=None):
    """Compile passes until ``seconds`` of compiling and MIN_OPS ops (or
    ``limit`` ops); failed compiles count too. Returns the ops, in
    order. With a speedometer, a speed reading precedes every compile,
    the ops are calibrated and so are the ``seconds`` counted."""
    from repro.pegasus.verify import verify_graph
    from repro.errors import ReproError

    ops: list[Op] = []
    summaries: dict = {}
    busy = 0.0
    pass_index = 0

    def enough() -> bool:
        if limit is not None:
            return len(ops) >= limit
        return busy >= seconds and len(ops) >= MIN_OPS

    while True:
        drivers = _drivers(scratch.dir(f"pass{pass_index}"))
        for item in items:
            key = (item["kernel"], item["level"])
            outcome.attempted += 1
            if speed is not None:
                speed.sample()
            started = time.perf_counter()
            try:
                program = drivers[item["level"]].compile(item["source"],
                                                         item["entry"])
            except ReproError as error:
                elapsed = time.perf_counter() - started
                busy += elapsed * recent_factor(speed)
                outcome.failed += 1
                outcome.problems.append(f"compile {key} failed: {error}")
                ops.append(Op(key, elapsed, ok=False, wall=elapsed))
                continue
            elapsed = time.perf_counter() - started
            busy += elapsed * recent_factor(speed)
            ops.append(Op(key, elapsed, wall=elapsed,
                          miss=program.report.cache_status == "miss"))
            try:
                verify_graph(program.graph)
            except ReproError as error:
                outcome.problems.append(f"{key}: verify_graph: {error}")
            summary = ir_summary(program)
            previous = summaries.setdefault(key, summary)
            outcome.check(previous == summary,
                          f"{key}: IR summary differs between compiles")
            if on_program is not None:
                on_program(item, program, pass_index == 0)
            del program
            if enough():
                break
        shutil.rmtree(drivers["none"].cache.root)
        pass_index += 1
        if enough():
            break
    if speed is not None:
        calibrate(ops, speed.readings)
    outcome.info["passes"] = pass_index
    outcome.info["repeated_inputs"] = len(ops) - len(summaries)
    return ops


def _static_speedups(first: dict) -> dict:
    """Geomean over kernels of static memory operations (loads plus
    stores in the final graph, the paper's Figure 18 count) at ``none``
    over those at the level."""
    kernels = sorted({kernel for kernel, _ in first})
    return {f"speedup_{level}_geomean": stats.geomean(
                first[(kernel, "none")]["memops"]
                / first[(kernel, level)]["memops"]
                for kernel in kernels)
            for level in ("full", "medium")}


def run(items, seconds, trace, scratch) -> Outcome:
    outcome = Outcome()
    outcome.info["inputs"] = len(items)
    speed = Speedometer()
    setup_s, _ = _setup(scratch, speed)
    passes = _Passes()
    if not trace:
        speed.readings.clear()
        ops = _measure(items, seconds, scratch, outcome,
                       on_program=passes.add, speed=speed)
        outcome.metrics["setup_s"] = setup_s
        outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
        outcome.info["samples"] = sample_counts(ops)
        if not outcome.failed:
            outcome.metrics.update(latency_metrics(ops))
            outcome.info.update(uncalibrated(ops))
            outcome.metrics.update(_static_speedups(passes.first))
        return outcome
    return _traced(items, seconds, scratch, outcome, passes)


def _traced(items, seconds, scratch, outcome, passes) -> Outcome:
    from repro.observe.tracing import Tracer, read_trace, span
    from repro.pipeline.cache import CompilationCache
    from perfbench import spans as sp

    plain = _measure(items, seconds, scratch, outcome,
                     limit=OVERHEAD_PREFIX)
    trace_dir = scratch.dir("trace")
    targets = [(CompilationCache, "get", "bench:cache.get"),
               (CompilationCache, "put", "bench:cache.put")]
    with Tracer(trace_dir), sp.instrument(targets), \
            span("bench:compile_suite"):
        ops = _measure(items, seconds, scratch, outcome,
                       on_program=passes.add)
    outcome.info["samples"] = sample_counts(ops)
    if outcome.failed:
        return outcome
    spans = read_trace(trace_dir)
    count = len([op for op in ops if op.ok])
    metrics = outcome.metrics
    for prefix, name in STAGE_METRICS.items():
        metrics[name] = sp.total_ms(spans, prefix) / count
    metrics["frontend.parse_ms"] += sp.total_ms(spans, "stage:unroll") / count
    metrics["pegasus.verify_ms"] = passes.verify_ms / count
    for name, total in passes.pass_ms.items():
        metrics[f"opt.pass.{name}_ms"] = total / count
    metrics["looppipe.ms"] = sum(passes.pass_ms.get(name, 0.0)
                                 for name in LOOPPIPE_PASSES) / count
    metrics["pipeline.cache_put_ms"] = sp.total_ms(
        spans, "bench:cache.put") / count
    metrics["pipeline.cache_get_ms"] = sp.total_ms(
        spans, "bench:cache.get") / count
    first = passes.first.values()
    metrics["pegasus.nodes_built"] = sum(row["built"] for row in first)
    metrics["opt.nodes_after"] = sum(row["after"] for row in first)
    metrics["opt.passes_run"] = sum(row["run"] for row in first)
    metrics["opt.passes_changed_frac"] = (
        sum(row["changed"] for row in first) / metrics["opt.passes_run"])
    prefix = min(len(plain), len(ops))
    metrics["observe.trace_overhead"] = (
        sum(op.seconds for op in ops[:prefix])
        / sum(op.seconds for op in plain[:prefix]))
    return outcome
