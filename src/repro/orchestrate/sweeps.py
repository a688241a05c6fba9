"""Named sweeps and the ``repro sweep`` command-line surface.

Every figure/table harness registers here as a :class:`SweepDef` — a DAG
builder plus a renderer for the aggregated rows — and the CLI drives
them end to end::

    python -m repro sweep list
    python -m repro sweep describe fig19 --kernels li
    python -m repro sweep run fig19 --kernels li --executor process \
        --retries 2 --record
    python -m repro sweep resume fig19 --kernels li
    python -m repro sweep status fig19

``run`` journals every completed job under
``.repro/sweeps/<name>.journal`` (override with ``--journal``), so a
killed run — machine crash, ^C, OOM — picks up where it left off:
``resume`` (or simply re-running) replays finished cells from the
journal and executes only the remainder. ``--fresh`` clears the journal
first; ``status`` reports it without executing anything.

``--executor remote --workers N`` fans the cells out over a
fault-tolerant socket worker pool (leases, heartbeats, per-worker
journal shards — see :mod:`repro.orchestrate.remote`); add
``--listen HOST:PORT`` to accept additional workers from other hosts.
Resuming merges any journal shards left by a previous distributed run,
so a sweep interrupted on either side of the socket still resumes
bit-identical.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ReproError
from repro.orchestrate.dag import JobDAG, JobSpec
from repro.orchestrate.executors import make_executor
from repro.orchestrate.journal import Journal, read_shards
from repro.orchestrate.scheduler import Scheduler, SweepResult

#: Default journal directory for named sweeps.
SWEEP_DIR = Path(".repro/sweeps")


@dataclass(frozen=True)
class SweepDef:
    """One named, CLI-drivable sweep."""

    name: str
    description: str
    build: object            # (kernels, attribution) -> JobDAG
    aggregate: str           # job whose value is the row list
    render: object           # (rows, attribution, degraded) -> str


def _build_fig18(kernels, attribution) -> JobDAG:
    from repro.harness import fig18
    return fig18.build_dag(kernels, attribution)


def _render_fig18(rows, attribution, degraded) -> str:
    from repro.harness import fig18
    return fig18.render_rows(rows, attribution=attribution,
                             degraded=degraded)


def _build_fig19(kernels, attribution) -> JobDAG:
    from repro.harness import fig19
    return fig19.build_dag(kernels, attribution=attribution)


def _render_fig19(rows, attribution, degraded) -> str:
    from repro.harness import fig19
    return fig19.render_rows(rows, attribution=attribution,
                             degraded=degraded)


def _build_ablation(kernels, attribution) -> JobDAG:
    from repro.harness import ablation
    return ablation.build_dag(kernels)


def _render_ablation(rows, attribution, degraded) -> str:
    from repro.harness import ablation
    return ablation.render_rows(rows)


def _build_section2(kernels, attribution) -> JobDAG:
    from repro.harness import section2
    return section2.build_dag()


def _render_section2(result, attribution, degraded) -> str:
    # The aggregate IS the single cell here: its value is one
    # Section2Result, not a row list.
    from repro.harness import section2
    if not result:
        return "Section 2 example: DEGRADED"
    return section2.render_result(result)


def _build_table2(kernels, attribution) -> JobDAG:
    from repro.harness import table2
    return table2.build_dag(kernels)


def _render_table2(rows, attribution, degraded) -> str:
    from repro.harness import table2
    return table2.render_rows(rows)


SWEEPS: dict[str, SweepDef] = {
    "fig18": SweepDef(
        "fig18", "static/dynamic memory operations removed (Figure 18)",
        _build_fig18, "fig18/aggregate", _render_fig18),
    "fig19": SweepDef(
        "fig19", "speedup across optimization sets and memory systems "
                 "(Figure 19)",
        _build_fig19, "fig19/aggregate", _render_fig19),
    "ablation": SweepDef(
        "ablation", "per-optimization contribution and composition (§7.3)",
        _build_ablation, "ablation/aggregate", _render_ablation),
    "section2": SweepDef(
        "section2", "the §2 motivating example (useless access removal)",
        _build_section2, "section2", _render_section2),
    "table2": SweepDef(
        "table2", "program statistics (Table 2)",
        _build_table2, "table2/aggregate", _render_table2),
}


# ----------------------------------------------------------------------
# CLI


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Declare, run, resume, and inspect figure sweeps as "
                    "explicit job DAGs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="the named sweeps")

    def common(cmd, execution=True):
        cmd.add_argument("sweep", choices=sorted(SWEEPS),
                         help="which sweep")
        cmd.add_argument("--kernels", default=None, metavar="NAMES",
                         help="comma-separated kernel names, or 'all' "
                              "(default: the paper subset)")
        cmd.add_argument("--attribution", action="store_true",
                         help="profile runs and add critical-path columns "
                              "(fig18/fig19)")
        cmd.add_argument("--journal", default=None, metavar="FILE",
                         help="journal path (default: "
                              ".repro/sweeps/<sweep>.journal)")
        if not execution:
            return
        cmd.add_argument("--executor", default="inline",
                         choices=["inline", "process", "remote"],
                         help="job execution backend (default: inline)")
        cmd.add_argument("--workers", type=int, default=None, metavar="N",
                         help="pool size: process-pool workers, or local "
                              "worker processes spawned by the remote "
                              "coordinator (default: 2 for remote)")
        cmd.add_argument("--listen", default=None, metavar="HOST:PORT",
                         help="with --executor remote: accept workers "
                              "from other hosts on this address "
                              "(they join with `python -m "
                              "repro.orchestrate.worker --connect ...`)")
        cmd.add_argument("--retries", type=int, default=1, metavar="N",
                         help="extra attempts per transiently-failing job "
                              "(default: 1)")
        cmd.add_argument("--backoff", type=float, default=0.0,
                         metavar="SECONDS",
                         help="linear retry backoff (default: 0)")
        cmd.add_argument("--wall-limit", type=float, default=None,
                         metavar="SECONDS",
                         help="cooperative per-job wall-clock budget")
        cmd.add_argument("--record", action="store_true",
                         help="record every job into the telemetry store "
                              "(tags: dag, job, attempt, executor)")
        cmd.add_argument("--trace", action="store_true",
                         help="record a distributed trace (sweep root + "
                              "one span per job attempt, across all "
                              "workers) and export merged Perfetto JSON "
                              "on completion")
        cmd.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="trace shard directory (default: "
                              "$REPRO_TRACE_DIR or .repro/traces)")
        cmd.add_argument("--no-render", action="store_true",
                         help="print only the job report, not the table")

    describe_cmd = commands.add_parser(
        "describe", help="print the DAG without running it")
    common(describe_cmd, execution=False)

    run_cmd = commands.add_parser(
        "run", help="execute the sweep (resumes an existing journal)")
    common(run_cmd)
    run_cmd.add_argument("--fresh", action="store_true",
                         help="clear the journal first")

    resume_cmd = commands.add_parser(
        "resume", help="like run, but requires an existing journal")
    common(resume_cmd)

    status_cmd = commands.add_parser(
        "status", help="journal contents: what completed, what remains")
    common(status_cmd, execution=False)
    status_cmd.add_argument("--json", action="store_true",
                            help="machine-readable status (one JSON "
                                 "object; dashboards and CI poll this)")
    status_cmd.add_argument("--watch", action="store_true",
                            help="redraw periodically until the sweep "
                                 "completes, overlaying live metrics "
                                 "merged from the worker snapshots")
    status_cmd.add_argument("--interval", type=float, default=2.0,
                            metavar="SECONDS",
                            help="watch redraw period (default: 2)")
    return parser


def _journal_path(options) -> Path:
    if options.journal is not None:
        return Path(options.journal)
    return SWEEP_DIR / f"{options.sweep}.journal"


def _kernels(options):
    if options.kernels is None:
        return None
    if options.kernels == "all":
        return "all"
    return tuple(name for name in options.kernels.split(",") if name)


def _build(options) -> tuple[SweepDef, JobDAG]:
    sweep_def = SWEEPS[options.sweep]
    dag = sweep_def.build(_kernels(options), options.attribution)
    return sweep_def, dag


def sweep_main(argv: list[str] | None = None) -> int:
    options = build_sweep_parser().parse_args(argv)
    try:
        return _sweep_command(options)
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _sweep_command(options) -> int:
    if options.command == "list":
        for name in sorted(SWEEPS):
            print(f"{name:10s} {SWEEPS[name].description}")
        return 0
    if options.command == "describe":
        return _sweep_describe(options)
    if options.command == "status":
        return _sweep_status(options)
    return _sweep_run(options)


def _sweep_describe(options) -> int:
    _, dag = _build(options)
    dag.validate()
    print(f"sweep {dag.name}: {len(dag)} jobs, dag {dag.dag_id[:12]}")
    counts = dag.counts()
    print("  " + ", ".join(f"{count} {category}"
                           for category, count in sorted(counts.items())))
    for spec in dag.topo_order():
        deps = f"  <- {', '.join(spec.deps)}" if spec.deps else ""
        print(f"  [{spec.category:9s}] {spec.name}{deps}")
    print(f"journal: {_journal_path(options)}")
    return 0


def _status_report(options) -> dict:
    """Structured sweep status: the DAG's (content-addressed) job keys
    mapped against the journal, overlaid with any per-worker shards (a
    distributed sweep in flight, or one whose coordinator died)."""
    _, dag = _build(options)
    path = _journal_path(options)
    shard_dir = path.parent / dag.name
    report = {
        "sweep": dag.name,
        "dag": dag.dag_id,
        "journal": str(path),
        "shard_dir": str(shard_dir),
        "journal_exists": path.exists() or shard_dir.is_dir(),
        "torn_tail": False,
        "unmerged_shards": 0,
        "jobs": [],
    }
    entry_for = None
    if report["journal_exists"]:
        journal = Journal(path)
        shards = read_shards(shard_dir)
        report["torn_tail"] = bool(journal.tail_dropped)
        report["unmerged_shards"] = len(shards)

        def entry_for(spec: JobSpec) -> dict | None:
            mine = journal.get(spec.key)
            shard = shards.get(spec.key)
            if mine is None or shard is None:
                return mine or shard
            return shard if shard.get("ts", 0) >= mine.get("ts", 0) \
                else mine

    counts: dict[str, int] = {}
    for spec in dag.topo_order():
        if spec.transient:
            continue
        entry = entry_for(spec) if entry_for is not None else None
        status = entry["status"] if entry is not None else "pending"
        counts[status] = counts.get(status, 0) + 1
        job = {"name": spec.name, "category": spec.category,
               "status": status}
        if entry is not None:
            for field in ("attempts", "worker", "host", "lease", "error"):
                if entry.get(field):
                    job[field] = entry[field]
        report["jobs"].append(job)
    report["counts"] = counts
    report["total"] = len(report["jobs"])
    report["complete"] = counts.get("ok", 0)
    return report


def _sweep_status(options) -> int:
    if getattr(options, "watch", False) and not options.json:
        return _sweep_watch(options)
    report = _status_report(options)
    if options.json:
        import json
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    _print_status(report)
    return 0


def _print_status(report: dict) -> None:
    if not report["journal_exists"]:
        print(f"no journal at {report['journal']}: nothing completed")
        return
    print(f"sweep {report['sweep']}: {report['complete']}/"
          f"{report['total']} journaled jobs complete "
          f"({report['journal']})")
    if report["torn_tail"]:
        print("  note: a torn tail from an interrupted write will be "
              "discarded on the next run")
    if report["unmerged_shards"]:
        count = report["unmerged_shards"]
        print(f"  note: {count} worker-shard entr"
              f"{'y' if count == 1 else 'ies'} not yet merged "
              f"(folded into the journal on the next run)")
    print("  " + ", ".join(f"{count} {status}" for status, count
                           in sorted(report["counts"].items())))
    for job in report["jobs"]:
        line = f"  [{job['status']:8s}] {job['name']}"
        if job.get("attempts", 0) > 1:
            line += f"  x{job['attempts']}"
        worker = job.get("worker")
        if job["status"] == "leased" and worker:
            line += f"  held by {worker} (lease {job.get('lease', '?')})"
        elif worker:
            line += f"  ({worker})"
        if job.get("error"):
            line += f"  last: {job['error']}"
        print(line)


def _metrics_overlay(shard_dir) -> list[str]:
    """Worker metrics snapshots under ``shard_dir``, merged to one line
    per series (the live half of ``status --watch``)."""
    from repro.observe.metrics import read_snapshots
    merged = read_snapshots(shard_dir)
    lines = []
    for row in merged.get("metrics", []):
        labels = ",".join(f"{key}={value}" for key, value
                          in sorted(row["labels"].items()))
        series = row["name"] + (f"{{{labels}}}" if labels else "")
        if row["type"] == "histogram":
            mean = row["sum"] / row["count"] if row["count"] else 0.0
            lines.append(f"  {series}: n={row['count']} mean={mean:.3f}s")
        else:
            lines.append(f"  {series}: {row['value']:g}")
    return lines


def _sweep_watch(options) -> int:
    import time
    while True:
        report = _status_report(options)
        print("\x1b[2J\x1b[H", end="")
        _print_status(report)
        overlay = _metrics_overlay(report["shard_dir"])
        if overlay:
            print("live metrics (merged worker snapshots):")
            for line in overlay:
                print(line)
        if report["journal_exists"] and report["total"] \
                and report["complete"] >= report["total"]:
            return 0
        try:
            time.sleep(options.interval)
        except KeyboardInterrupt:
            return 0


def _sweep_run(options) -> int:
    sweep_def, dag = _build(options)
    path = _journal_path(options)
    if options.command == "resume" and not path.exists():
        print(f"error: nothing to resume: no journal at {path}",
              file=sys.stderr)
        return 2
    path.parent.mkdir(parents=True, exist_ok=True)
    journal = Journal(path)
    if getattr(options, "fresh", False):
        journal.clear()
    executor = make_executor(options.executor, max_workers=options.workers,
                             listen=options.listen)
    session = nullcontext(None)
    if options.record:
        from repro.observe.telemetry import TelemetrySession
        session = TelemetrySession(label=f"sweep-{options.sweep}")
    tracing = nullcontext(None)
    if options.trace:
        from repro.observe.tracing import Tracer
        tracing = Tracer(options.trace_dir)
    scheduler = Scheduler(dag, executor=executor, journal=journal,
                          retries=options.retries, backoff=options.backoff,
                          wall_limit=options.wall_limit)
    try:
        with session as active, tracing as tracer:
            sweep = scheduler.run()
    finally:
        executor.shutdown()
    print(sweep.report())
    if options.record and active is not None:
        print(f"telemetry: {len(active.run_ids)} record(s) in session "
              f"{active.session_id} -> {active.store.root}")
    if tracer is not None and tracer.traces:
        # Merge every process's shard and write one Perfetto JSON file
        # for the sweep's trace.
        from repro.observe.tracing import export_trace
        out = tracer.root / f"{dag.name}-{tracer.traces[-1][:12]}.json"
        _, payload = export_trace(tracer.root, tracer.traces[-1], out)
        print(f"trace: {payload['otherData']['spans']} spans from "
              f"{payload['otherData']['processes']} process(es) -> {out}")
    if not options.no_render:
        print()
        print(_render(sweep_def, sweep, options))
    return 0 if sweep.ok else 1


def _render(sweep_def: SweepDef, sweep: SweepResult, options) -> str:
    rows = sweep.value(sweep_def.aggregate) or []
    # The table footnotes a cell skipped behind a failed compile job as
    # an error after 0 attempts (the job report above it says SKIPPED),
    # keeping the rendered tables byte-stable across releases.
    degraded = [replace(result, status="error")
                if result.status == "skipped" else result
                for result in sweep.degraded if result.category == "cell"]
    return sweep_def.render(rows, options.attribution, degraded)
