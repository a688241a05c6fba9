"""Figure 19 — performance under optimization sets and memory systems.

The paper reports per-benchmark speedup for the "Medium" optimization set
(pointer analysis + token removal + induction-variable pipelining) and the
full set, across memory systems from perfect to a realistic two-level
hierarchy with 1/2/4 LSQ ports. Speedups are relative to the unoptimized
spatial implementation, which executes memory operations in the original
serialized token order.

The paper's headline shapes this regenerates:

- the Medium set captures most of the benefit (pipelining dominates pure
  redundancy removal);
- performance improves with memory ports, but even small bandwidth is
  used effectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.cache import compiled, select_kernels
from repro.harness.sweep import (
    compile_warm,
    gather_row_lists,
    gather_rows,
    run_sweep,
)
from repro.observe.telemetry import telemetry_tags
from repro.orchestrate.dag import JobDAG
from repro.sim.memsys import (
    MemoryConfig,
    MemorySystem,
    PERFECT_MEMORY,
    REALISTIC_1PORT,
    REALISTIC_2PORT,
    REALISTIC_4PORT,
)
from repro.utils.tables import TextTable

MEMORY_SYSTEMS: tuple[MemoryConfig, ...] = (
    PERFECT_MEMORY, REALISTIC_1PORT, REALISTIC_2PORT, REALISTIC_4PORT,
)
LEVELS = ("medium", "full")


@dataclass
class Fig19Row:
    name: str
    memsys: str
    baseline_cycles: int
    cycles: dict[str, int] = field(default_factory=dict)
    # Per-level critical-path attribution (category -> cycles), filled
    # when the driver runs with attribution=True. The per-category sum
    # equals the level's cycle count (see repro.observe.critpath).
    attribution: dict[str, dict[str, int]] = field(default_factory=dict)

    def speedup(self, level: str) -> float:
        if self.cycles.get(level, 0) == 0:
            return 0.0
        return self.baseline_cycles / self.cycles[level]

    def category_share(self, level: str, category: str) -> float:
        categories = self.attribution.get(level)
        if not categories or self.cycles.get(level, 0) == 0:
            return 0.0
        return categories.get(category, 0) / self.cycles[level]


def _cell_row(kernel, config: MemoryConfig, levels,
              wall_limit: float | None = None,
              attribution: bool = False) -> Fig19Row:
    # Under an active TelemetrySession every simulate below persists a
    # tagged RunRecord, so a whole figure sweep becomes one queryable,
    # diffable run-set (repro-telemetry compare <old> <new>).
    with telemetry_tags(figure="fig19", kernel=kernel.name,
                        memsys=config.name):
        base = compiled(kernel.name, "none")
        baseline = base.program.simulate(list(kernel.args),
                                         memsys=MemorySystem(config),
                                         wall_limit=wall_limit)
        kernel.check(baseline.return_value)
        row = Fig19Row(name=kernel.name, memsys=config.name,
                       baseline_cycles=baseline.cycles)
        for level in levels:
            opt = compiled(kernel.name, level)
            run = opt.program.simulate(list(kernel.args),
                                       memsys=MemorySystem(config),
                                       wall_limit=wall_limit,
                                       profile=attribution)
            kernel.check(run.return_value)
            row.cycles[level] = run.cycles
            if attribution and run.profile is not None:
                row.attribution[level] = \
                    dict(run.profile.critical_path.by_category)
    return row


def _kernel_rows_batched(kernel, memory_systems, levels,
                         wall_limit: float | None = None) -> list[Fig19Row]:
    """All of one kernel's rows via batched codegen execution.

    One batch per optimization level runs every memory system's context
    through a single generated module — the module, its runner, and the
    laid-out memory image are built once per level instead of once per
    (level × memsys) cell.
    """
    systems = list(memory_systems)
    arg_sets = [list(kernel.args) for _ in systems]

    def level_runs(level):
        program = compiled(kernel.name, level).program
        runs = program.simulate_batch(
            arg_sets, memsys=[MemorySystem(config) for config in systems],
            wall_limit=wall_limit, engine="codegen")
        for run in runs:
            kernel.check(run.return_value)
        return runs

    with telemetry_tags(figure="fig19", kernel=kernel.name):
        baselines = level_runs("none")
        rows = [Fig19Row(name=kernel.name, memsys=config.name,
                         baseline_cycles=baseline.cycles)
                for config, baseline in zip(systems, baselines)]
        for level in levels:
            for row, run in zip(rows, level_runs(level)):
                row.cycles[level] = run.cycles
    return rows


AGGREGATE = "fig19/aggregate"


def build_dag(kernels=None, memory_systems=MEMORY_SYSTEMS, levels=LEVELS,
              attribution=False, batch=False) -> JobDAG:
    """The Figure 19 sweep as an explicit compile → cell → aggregate DAG.

    Cells keep the historical job names ``fig19/<kernel>/<memsys>`` so
    existing checkpoints remain valid resume identities; each depends on
    its kernel's ``fig19/compile/<kernel>`` warm-up job, and the
    transient aggregate collects rows in (kernel × memsys) order.

    ``batch=True`` replaces each kernel's per-memsys cells with one
    ``fig19/batch/<kernel>`` job running all memory systems through one
    generated codegen module per level (same rows, fewer jobs, less
    per-cell setup). Attribution requires per-run probes, which the
    batch path deliberately avoids — combining the two is an error.
    """
    if batch and attribution:
        raise ValueError("attribution requires per-cell probe runs; "
                         "run without batch=True")
    dag = JobDAG("fig19")
    selected = select_kernels(kernels)
    for kernel in selected:
        dag.job(f"fig19/compile/{kernel.name}", compile_warm,
                kernel.name, ("none", *levels), category="compile")
    cells = []
    if batch:
        for kernel in selected:
            name = f"fig19/batch/{kernel.name}"
            dag.job(name, _kernel_rows_batched, kernel,
                    tuple(memory_systems), levels,
                    deps=(f"fig19/compile/{kernel.name}",),
                    category="cell")
            cells.append(name)
        dag.job(AGGREGATE, gather_row_lists, deps=tuple(cells),
                category="aggregate", tolerant=True, pass_deps=True,
                transient=True)
        return dag
    for kernel in selected:
        for config in memory_systems:
            name = f"fig19/{kernel.name}/{config.name}"
            dag.job(name, _cell_row, kernel, config, levels,
                    deps=(f"fig19/compile/{kernel.name}",),
                    category="cell", attribution=attribution)
            cells.append(name)
    dag.job(AGGREGATE, gather_rows, deps=tuple(cells),
            category="aggregate", tolerant=True, pass_deps=True,
            transient=True)
    return dag


def figure19(kernels=None, memory_systems=MEMORY_SYSTEMS,
             levels=LEVELS, attribution=False,
             parallel=False, max_workers=None,
             batch=False) -> list[Fig19Row]:
    """Rows for Figure 19; one per (kernel, memory system).

    Declares the :func:`build_dag` job graph and runs it through the
    sweep scheduler; a failing cell raises (``repro sweep run fig19``
    journals the cells, keyed ``fig19/<kernel>/<memsys>``, degrades a
    wedged cell's row only, and replays finished cells on resume).
    ``attribution=True`` profiles each optimized run and fills
    ``row.attribution[level]`` with the critical-path category split.
    ``parallel=True`` fans the cells out over the process-pool executor;
    workers share compilations through the on-disk cache, and row order
    is unchanged. ``batch=True`` runs each kernel's memory systems as
    one batched codegen job (see :func:`build_dag`); rows and their
    order are identical.
    """
    dag = build_dag(kernels, memory_systems, levels, attribution,
                    batch=batch)
    sweep = run_sweep(dag, parallel=parallel, max_workers=max_workers)
    return sweep.value(AGGREGATE) or []


def render_rows(rows, attribution=False, degraded=()) -> str:
    """The Figure 19 table for already-computed ``rows``.

    ``degraded`` holds the failed cells' scheduler results
    (:class:`~repro.orchestrate.scheduler.JobResult`), rendered as
    DEGRADED placeholders.
    """
    columns = (["Benchmark", "memory", "cycles none"]
               + [f"speedup {level}" for level in LEVELS])
    if attribution:
        columns += ["crit mem%", "crit compute%", "crit token%"]
    table = TextTable(
        columns,
        title="Figure 19: speedup over unoptimized spatial execution",
    )
    last = LEVELS[-1]
    for row in rows:
        cells = [row.name, row.memsys, row.baseline_cycles,
                 *(f"{row.speedup(level):.2f}" for level in LEVELS)]
        if attribution:
            cells += [f"{100.0 * row.category_share(last, cat):.1f}"
                      for cat in ("memory", "compute", "token")]
        table.add_row(*cells)
    degraded = list(degraded)
    for result in degraded:
        parts = result.name.split("/")
        table.add_row(parts[1] if len(parts) > 1 else result.name,
                      parts[2] if len(parts) > 2 else "-",
                      "DEGRADED", *("-" for _ in columns[3:]))
    text = table.render()
    if degraded:
        text += "\n" + "\n".join(
            f"degraded {result.name}: {result.describe()}"
            for result in degraded)
    return text


def render(kernels=None, memory_systems=MEMORY_SYSTEMS,
           attribution=False, parallel=False) -> str:
    rows = figure19(kernels, memory_systems, attribution=attribution,
                    parallel=parallel)
    return render_rows(rows, attribution=attribution)
