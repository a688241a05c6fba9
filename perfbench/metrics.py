"""Metric names and units (mirrored by ``BENCHMARK.json``).

End-to-end metrics are printed by every untraced run, per-layer metrics
by every traced run. Per-layer times are milliseconds of that layer per
op (a compile, a simulation, a request), so they add up towards
``op_ms`` and a saving in one shows as the same saving per op.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "miss_ms_p50": "ms",
    "latency_drift": "ratio",
    "speedup_full_geomean": "ratio",
    "speedup_medium_geomean": "ratio",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: The optimization passes, by the name each reports.
PASSES = (
    "constant-fold", "cleanup", "immutable-loads", "token-removal",
    "load-after-store", "store-before-store", "dead-memops",
    "merge-equivalent", "licm-loads", "readonly-split",
    "loop-decoupling", "monotone-pipelining",
)
LOOPPIPE_PASSES = ("readonly-split", "loop-decoupling",
                   "monotone-pipelining")

#: Driver stage span -> per-layer metric.
STAGE_METRICS = {
    "stage:parse": "frontend.parse_ms",
    "stage:lower": "cfg.lower_ms",
    "stage:inline": "cfg.inline_ms",
    "stage:hyperblocks": "cfg.hyperblocks_ms",
    "stage:build": "pegasus.build_ms",
    "stage:optimize": "opt.optimize_ms",
}

PER_LAYER = {
    **{name: "ms" for name in STAGE_METRICS.values()},
    "pegasus.verify_ms": "ms",
    **{f"opt.pass.{name}_ms": "ms" for name in PASSES},
    "looppipe.ms": "ms",
    "pipeline.cache_put_ms": "ms",
    "pegasus.nodes_built": "count",
    "opt.nodes_after": "count",
    "opt.passes_run": "count",
    "opt.passes_changed_frac": "ratio",
    "sim.run_ms": "ms",
    "sim.ns_per_event": "ns",
    "sim.plan_ms": "ms",
    "pipeline.cache_get_ms": "ms",
    "orchestrate.scheduler_self_ms": "ms",
    "harness.cell_self_ms": "ms",
    "sim.events": "count",
    "sim.cycles": "count",
    "memsys.accesses": "count",
    "memsys.l1_hit_frac": "ratio",
    "memsys.l2_hit_frac": "ratio",
    "memsys.tlb_misses": "count",
    "memsys.port_stall_cycles": "count",
    "service.request_self_ms_p50": "ms",
    "orchestrate.sweep_self_ms_p50": "ms",
    "orchestrate.job_self_ms_p50": "ms",
    "sim.run_ms_p50": "ms",
    "pipeline.compile_ms_p50": "ms",
    "observe.append_ms": "ms",
    "observe.index_lines": "count",
    "service.sims_per_sim_request": "ratio",
    "service.compiles_executed": "count",
    "service.leaked_procs": "count",
    "observe.trace_overhead": "ratio",
}

_COMPILER = (
    *STAGE_METRICS.values(), "pegasus.verify_ms",
)
#: Per-layer metrics a traced run of each workload must measure as
#: nonzero: its busy layers. The other layers are idle there by design
#: and read 0.
BUSY = {
    "compile_suite": (
        *_COMPILER, *(f"opt.pass.{name}_ms" for name in PASSES),
        "looppipe.ms", "pipeline.cache_put_ms", "pipeline.cache_get_ms",
        "pegasus.nodes_built", "opt.nodes_after", "opt.passes_run",
        "opt.passes_changed_frac", "observe.trace_overhead",
    ),
    "fig19_sweep": (
        "sim.run_ms", "sim.ns_per_event", "sim.plan_ms",
        "pipeline.cache_get_ms", "orchestrate.scheduler_self_ms",
        "harness.cell_self_ms", "sim.events", "sim.cycles",
        "memsys.accesses", "memsys.l1_hit_frac", "memsys.l2_hit_frac",
        "memsys.tlb_misses", "memsys.port_stall_cycles",
        "observe.trace_overhead",
    ),
    "service_mix": (
        *_COMPILER, "sim.run_ms", "sim.ns_per_event", "sim.events",
        "sim.cycles", "orchestrate.scheduler_self_ms",
        "service.request_self_ms_p50", "orchestrate.sweep_self_ms_p50",
        "orchestrate.job_self_ms_p50", "sim.run_ms_p50",
        "pipeline.compile_ms_p50", "observe.append_ms",
        "observe.index_lines", "service.sims_per_sim_request",
        "service.compiles_executed", "observe.trace_overhead",
    ),
}
