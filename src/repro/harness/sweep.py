"""Shared sweep plumbing for the figure harnesses.

Every harness in this package declares its work as a
:class:`~repro.orchestrate.dag.JobDAG` — per-kernel ``compile`` jobs
warm the on-disk cache, ``cell`` jobs measure, and one ``aggregate``
collects the rows in declaration order. :func:`run_sweep` is the single
execution entry point: it picks the executor (inline by default, the
process pool under ``parallel=True``) and re-raises job failures so
``figure19()`` et al. keep their historical raise-through behavior.
Journaled, retried and degraded runs go through the same scheduler from
:mod:`repro.orchestrate.sweeps` (``repro sweep run``).
"""

from __future__ import annotations

from repro.orchestrate.dag import JobDAG
from repro.orchestrate.executors import make_executor
from repro.orchestrate.scheduler import Scheduler, SweepResult


def compile_warm(kernel_name: str, levels) -> None:
    """Compile job: ensure ``kernel_name``'s artifacts exist at ``levels``.

    Cells call :func:`~repro.harness.cache.compiled` themselves; this job
    only front-loads the compilations so parallel cells start from a warm
    on-disk cache instead of each compiling the same kernel.
    """
    from repro.harness.cache import compiled
    for level in levels:
        compiled(kernel_name, level)


def gather_rows(*, deps) -> list:
    """Aggregate job: dependency values in declaration order, sans holes.

    Runs ``tolerant`` + ``pass_deps`` + ``transient``: degraded cells
    appear as ``None`` and are dropped, so a partially-degraded sweep
    still aggregates — the scheduler reports the holes.
    """
    return [row for row in deps if row is not None]


def gather_row_lists(*, deps) -> list:
    """Aggregate for batched cells: each dependency yields a row *list*
    (one batched job covers several sweep cells); flattened in
    declaration order, degraded jobs dropped."""
    rows = []
    for chunk in deps:
        if chunk is not None:
            rows.extend(chunk)
    return rows


def run_sweep(dag: JobDAG, *, parallel: bool = False,
              max_workers: int | None = None) -> SweepResult:
    """Execute one harness DAG under the scheduler, raising on failure.

    ``parallel=True`` runs the jobs on a process-pool executor
    (``max_workers`` caps it) that is shut down before returning;
    otherwise they run inline. The whole DAG drains first; then the
    first failed job's exception is re-raised, so ``figure19()`` et al.
    raise like plain functions. Journaled runs that should degrade
    instead of raising are ``repro sweep run``.
    """
    executor = (make_executor("process", max_workers=max_workers)
                if parallel else None)
    try:
        sweep = Scheduler(dag, executor=executor).run()
    finally:
        if executor is not None:
            executor.shutdown()
    for name in sweep.order:
        result = sweep.results[name]
        if result.exception is not None:
            raise result.exception
    return sweep
