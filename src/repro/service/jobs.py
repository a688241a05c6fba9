"""Job bodies the service executes — module-level, hence picklable.

The server never compiles or simulates on its event loop: compile jobs
go to the shared :class:`~repro.orchestrate.executors.PoolExecutor`
(process-pool with inline degradation) and simulation jobs run through
the orchestrate :class:`~repro.orchestrate.scheduler.Scheduler`, whose
``_run_job`` wrapper already handles telemetry re-establishment and
wall-limit injection in workers. The compile path has its own small
ambient-session shim here (:func:`_worker_session`) because it bypasses
the scheduler to reach the pool directly for batching.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager, nullcontext

from repro.service.protocol import JobRequest, ServiceError

#: Most compiled programs a process keeps unpickled for
#: :func:`simulate_row`. Below ``repro.sim.plan.PLAN_CACHE_LIMIT``, so the
#: plan of every program held here can stay cached too. Warm requests get
#: the same program (and graph) back, so ``plan_for`` hits instead of
#: re-planning a freshly unpickled graph. Read dynamically (tests shrink
#: it via monkeypatch).
ARTIFACT_CACHE_LIMIT = 16

# (cache root, compile key) -> CompiledProgram, least recently used first.
# Artifacts are content-addressed, so an entry is exactly what
# CompilationCache.get would return; simulation only reads the program,
# its graph and its plan, so sim threads may share one entry.
_ARTIFACTS: "OrderedDict[tuple[str, str], object]" = OrderedDict()
_ARTIFACTS_LOCK = threading.Lock()


@contextmanager
def _worker_session(session_spec: dict | None):
    """Rebuild the coordinator's telemetry session in a pool worker.

    Mirrors the scheduler's worker-side behavior: same session id, but
    a per-pid segment file so concurrent worker appends never share a
    file. A no-op when no session was active or when we are still in
    the coordinator process (inline-degraded pool), where the ambient
    session is already in scope.
    """
    if session_spec is None or os.getpid() == session_spec["pid"]:
        with nullcontext():
            yield
        return
    from repro.observe.store import TelemetryStore
    from repro.observe.telemetry import TelemetrySession
    session = TelemetrySession(
        store=TelemetryStore(session_spec["root"]),
        label=session_spec["label"],
        record_compiles=session_spec.get("record_compiles", True))
    session.session_id = session_spec["session_id"]
    session.segment = f"{session_spec['session_id']}.w{os.getpid()}"
    with session:
        yield


def compile_artifact(payload: dict, cache_root: str,
                     session_spec: dict | None, tags: dict,
                     trace_ctx: dict | None = None) -> dict:
    """Ensure the artifact for ``payload`` exists in the shared cache.

    Runs in a pool worker (or inline when the pool degraded). Returns a
    compile summary the server streams to every client waiting on this
    key. The compile is recorded as a RunRecord (kind="compile") under
    the service session, tagged with the leader request's identity —
    the provenance trail that proves N identical submissions cost one
    compile execution. ``trace_ctx`` is the leader request's trace
    position: adopted here, the driver's compile/stage spans parent
    under the request span even from a pool worker.
    """
    from repro.observe.telemetry import telemetry_tags
    from repro.observe.tracing import adopt_context
    from repro.pipeline.cache import CompilationCache
    from repro.pipeline.driver import CompilerDriver

    request = JobRequest.from_payload(payload, kind="compile")
    config = request.pipeline_config()
    cache = CompilationCache(cache_root)
    with _worker_session(session_spec):
        with adopt_context(trace_ctx), telemetry_tags(**tags):
            program = CompilerDriver(config, cache=cache).compile(
                request.source, request.entry)
    report = program.report
    summary = {
        "key": cache.key(request.source, request.entry, config),
        "cache": getattr(report, "cache_status", None) or "miss",
        "entry": request.entry,
        "opt_level": request.opt_level,
        "nodes": len(program.graph),
    }
    if report is not None:
        summary["wall_time"] = round(report.total_wall_time, 6)
        summary["passes"] = len(report.passes)
    return summary


def simulate_row(cache_root: str, key: str, args: list, memsys_name: str,
                 engine: str | None, event_limit: int | None,
                 wall_limit: float | None = None) -> dict:
    """Execute one simulation against a cached artifact; returns a row.

    Scheduled through the orchestrate Scheduler, so retry/timeout
    classification, wall-limit injection, and worker-side telemetry all
    come for free. A missing artifact is a deterministic failure (the
    compile phase completed before this job was submitted, so the only
    way here is external cache eviction) — raising ServiceError makes
    the scheduler report it terminally instead of retrying.
    """
    from repro.api import resolve_engine
    from repro.sim.memsys import MemorySystem, named_system

    program = _artifact(cache_root, key)
    result = program.simulate(
        list(args),
        memsys=MemorySystem(named_system(memsys_name)),
        engine=engine,
        event_limit=event_limit,
        wall_limit=wall_limit,
    )
    return {
        "return_value": result.return_value,
        "cycles": result.cycles,
        "fired": result.fired,
        "loads": result.loads,
        "stores": result.stores,
        "skipped_memops": result.skipped_memops,
        "memsys": memsys_name,
        "engine": resolve_engine(engine),
    }


def _artifact(cache_root: str, key: str):
    """The compiled program for ``key``, from the in-process LRU or the
    artifact cache on disk."""
    from repro.pipeline.cache import CompilationCache

    slot = (cache_root, key)
    with _ARTIFACTS_LOCK:
        program = _ARTIFACTS.get(slot)
        if program is None:
            program = CompilationCache(cache_root).get(key)
            if program is None:
                raise ServiceError(
                    f"artifact {key[:12]} vanished from the cache at "
                    f"{cache_root} (evicted between compile and "
                    f"simulate?)")
            _ARTIFACTS[slot] = program
            while len(_ARTIFACTS) > ARTIFACT_CACHE_LIMIT:
                _ARTIFACTS.popitem(last=False)
        else:
            _ARTIFACTS.move_to_end(slot)
    return program
