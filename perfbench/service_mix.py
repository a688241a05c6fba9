"""service_mix: ``python -m repro serve`` under a closed-loop client.

The server runs as a subprocess with default options (recording on)
and a private artifact store, telemetry store and trace directory. This
process is the only client: two threads, each holding one connection at
a time and sending its next request when the previous reply ends. One
server serves the whole measurement, so the telemetry store grows as it
does in production. A run sends a fixed number of requests, set by
``--seconds`` alone (:func:`lane_requests`), so every run sends the
same requests and grows the store by the same amount whatever the
machine's speed.

Checks: every returned value equals ``CompiledProgram.run_sequential``
of the same source and args, compiled here; every never-seen variant
was compiled by the server (cache ``miss``).
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

from perfbench import stats
from perfbench.common import (
    MIN_OPS, Op, Outcome, latency_metrics, sample_counts, timed_setups,
    uncalibrated,
)
from perfbench.inputs import (
    LEVELS, SERVICE_ENTRY, SERVICE_LEVEL, SERVICE_TEMPLATES, request_shares,
    request_source,
)
from perfbench.metrics import STAGE_METRICS
from perfbench.procs import Server
from perfbench.speed import Speedometer, factors

LANES = 2
#: Requests a run sends per second of ``--seconds`` (600 at 30 s). The
#: slowest rate seen on the 2-vCPU x86-64 VM the benchmark was tuned on
#: was 22 requests/s over 30 s, so a run fits in its ``--seconds`` there.
REQUESTS_PER_SECOND = 20
#: Requests timed on an untraced and a traced server for
#: ``observe.trace_overhead``.
OVERHEAD_REQUESTS = 150
#: Timed appends against the store the run left, for observe.append_ms.
APPENDS = 5


def lane_requests(seconds: float) -> int:
    """Requests each connection sends in a run of ``seconds``: at least
    MIN_OPS in all, so ``op_ms_p90`` has ten samples beyond it."""
    total = max(MIN_OPS, round(seconds * REQUESTS_PER_SECOND))
    return -(-total // LANES)


@dataclass
class _Reply:
    lane: int
    request: dict
    started: float
    seconds: float
    value: object = None
    cycles: int | None = None
    fired: int = 0
    cache: str | None = None
    error: str | None = None
    factor: float = 1.0


def _start(root, scratch, trace: bool) -> Server:
    """A listening server whose warm programs are compiled and run."""
    from repro.service.client import ServiceClient
    server = Server(root, scratch.dir("server"), trace=trace)
    client = ServiceClient(port=server.port, client_id="perfbench-setup")
    try:
        for source in SERVICE_TEMPLATES.values():
            client.compile(source, SERVICE_ENTRY, opt_level=SERVICE_LEVEL)
            client.simulate(source, SERVICE_ENTRY, [8, 1],
                            opt_level=SERVICE_LEVEL)
    except BaseException:
        server.close()
        raise
    return server


def _drive(port, streams, calibrated=False) -> list[_Reply]:
    """Closed loop, one thread per stream, each sending its whole
    stream. Returns the replies in completion order. ``calibrated``
    takes a speed reading on each connection's thread before each of
    its requests and sets each reply's factor from them."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    replies: list[_Reply] = []
    lock = threading.Lock()
    speeds = [Speedometer() if calibrated else None for _ in streams]

    def lane(index: int) -> None:
        client = ServiceClient(port=port, client_id=f"perfbench-{index}")
        for request in streams[index]:
            if speeds[index] is not None:
                speeds[index].sample()
            started = time.perf_counter()
            reply = _Reply(index, request, started, 0.0)
            try:
                outcome = client.simulate(
                    request_source(request), SERVICE_ENTRY,
                    request["args"], opt_level=request["level"])
                reply.value = outcome.value
                reply.cycles = outcome.result.get("cycles")
                reply.fired = outcome.result.get("fired", 0)
                reply.cache = outcome.cache
            except ServiceError as error:
                reply.error = str(error)
            reply.seconds = time.perf_counter() - started
            with lock:
                replies.append(reply)

    threads = [threading.Thread(target=lane, args=(index,))
               for index in range(LANES)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, speed in enumerate(speeds):
        if speed is not None:
            mine = sorted((r for r in replies if r.lane == index),
                          key=lambda reply: reply.started)
            for reply, factor in zip(mine, factors(speed.readings)):
                reply.factor = factor
    replies.sort(key=lambda reply: reply.started + reply.seconds)
    return replies


def _ops(replies) -> list[Op]:
    """Replies (in completion order) as ops. A closed loop of LANES
    connections completes LANES requests per mean latency (Little's
    law), so each op accounts for its latency / LANES of wall; the speed
    readings between requests are left out of the rate that way."""
    return [Op((r.request["template"], r.request["mix"] == "variant",
                r.request["level"]), r.seconds, miss=r.cache == "miss",
               ok=r.error is None, wall=r.seconds / LANES, factor=r.factor)
            for r in replies]


def _wall(replies) -> float:
    return (max(r.started + r.seconds for r in replies)
            - min(r.started for r in replies))


def _check(replies, outcome) -> None:
    """Every value against the sequential oracle of the same program."""
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.driver import CompilerDriver
    driver = CompilerDriver(PipelineConfig.make(opt_level="none",
                                                verify="final"))
    programs: dict = {}
    expected: dict = {}
    for reply in replies:
        outcome.attempted += 1
        request = reply.request
        if reply.error is not None:
            outcome.failed += 1
            outcome.problems.append(f"request failed: {reply.error}")
            continue
        source = request_source(request)
        key = (source, tuple(request["args"]))
        if key not in expected:
            if source not in programs:
                programs[source] = driver.compile(source, SERVICE_ENTRY)
            expected[key] = programs[source].run_sequential(
                list(request["args"])).return_value
        outcome.check(reply.value == expected[key],
                      f"{request}: service returned {reply.value}, "
                      f"sequential oracle {expected[key]}")
        if request["mix"] == "variant":
            outcome.check(reply.cache == "miss",
                          f"{request}: never-seen variant answered "
                          f"from cache {reply.cache!r}")


def _speedups(replies) -> dict:
    """Simulated cycles at none / at level: geomean over each template's
    variants, then over templates, so how many variants of which
    template a run completed does not move it."""
    cycles: dict = {}
    for reply in replies:
        if reply.request["mix"] == "variant" and reply.error is None:
            key = (reply.request["template"], reply.lane,
                   reply.request["salt"])
            cycles.setdefault(key, {})[reply.request["level"]] = reply.cycles
    by_template: dict = {}
    for (template, *_), levels in cycles.items():
        if len(levels) == len(LEVELS):
            by_template.setdefault(template, []).append(levels)
    return {f"speedup_{level}_geomean": stats.geomean(
                stats.geomean(levels["none"] / levels[level]
                              for levels in variants)
                for variants in by_template.values())
            for level in ("full", "medium")}


def _shares(replies) -> dict:
    """Measured request shares, next to those the assumed mix gives."""
    count = len(replies)
    measured = {kind: sum(r.request["mix"] == kind for r in replies) / count
                for kind in request_shares()}
    return {"mix_assumed": {kind: round(share, 3)
                            for kind, share in request_shares().items()},
            "mix_measured": {kind: round(share, 3)
                             for kind, share in measured.items()},
            "miss_share": sum(r.cache == "miss" for r in replies) / count,
            "events_simulated": sum(r.fired for r in replies)}


def run(streams, trace, scratch, root) -> Outcome:
    outcome = Outcome()
    servers: list[Server] = []
    try:
        if trace:
            _traced(streams, scratch, root, outcome, servers)
            return outcome

        def make(index):
            server = _start(root, scratch, trace=False)
            servers.append(server)
            return server
        setup_s, server = timed_setups(make, lambda made: made.close(),
                                       speed=Speedometer())
        replies = _drive(server.port, streams, calibrated=True)
        outcome.metrics["peak_rss_mb"] = server.peak_rss_mb()
        server.close()
        _check(replies, outcome)
        outcome.metrics["setup_s"] = setup_s
        outcome.info["samples"] = sample_counts(_ops(replies))
        outcome.info.update(_shares(replies))
        if not outcome.failed:
            outcome.metrics.update(latency_metrics(_ops(replies)))
            outcome.info.update(uncalibrated(_ops(replies)))
            outcome.metrics.update(_speedups(replies))
    finally:
        for server in servers:
            server.close()
    outcome.info["leaked_procs"] = sum(server.leaked for server in servers)
    return outcome


def _traced(streams, scratch, root, outcome, servers) -> None:
    from repro.observe.store import TelemetryStore
    from repro.observe.tracing import read_trace
    from repro.service.client import ServiceClient
    from perfbench import spans as sp

    plain_server = _start(root, scratch, trace=False)
    servers.append(plain_server)
    plain = _drive(plain_server.port,
                   [stream[:OVERHEAD_REQUESTS // LANES]
                    for stream in streams])
    plain_server.close()

    server = _start(root, scratch, trace=True)
    servers.append(server)
    before = ServiceClient(port=server.port).health()["stats"]
    replies = _drive(server.port, streams)
    after = ServiceClient(port=server.port).health()["stats"]
    server.close()
    _check(plain + replies, outcome)
    outcome.info["samples"] = sample_counts(_ops(replies))
    outcome.info.update(_shares(replies))
    if outcome.failed:
        return

    lanes = {f"perfbench-{index}" for index in range(LANES)}
    spans = read_trace(server.trace_dir)
    traces = {item.trace for item in spans
              if item.name.startswith("request:")
              and item.tags.get("client") in lanes}
    spans = [item for item in spans if item.trace in traces]
    selfs = sp.self_times(spans)
    count = len(replies)
    metrics = outcome.metrics
    for prefix, name in STAGE_METRICS.items():
        metrics[name] = sp.total_ms(spans, prefix) / count
    metrics["frontend.parse_ms"] += sp.total_ms(spans, "stage:unroll") / count
    metrics["pegasus.verify_ms"] = sp.total_ms(spans, "stage:verify") / count
    run_ms = sp.total_ms(spans, "run:")
    events = sum(reply.fired for reply in replies)
    metrics["sim.run_ms"] = run_ms / count
    metrics["sim.ns_per_event"] = run_ms * 1e6 / events
    metrics["sim.events"] = events
    metrics["sim.cycles"] = sum(reply.cycles or 0 for reply in replies)
    metrics["orchestrate.scheduler_self_ms"] = sum(
        sp.self_ms(spans, selfs, "sweep:")) / count

    def p50(values):
        return statistics.median(values) if values else 0.0
    metrics["service.request_self_ms_p50"] = p50(
        sp.self_ms(spans, selfs, "request:"))
    metrics["orchestrate.sweep_self_ms_p50"] = p50(
        sp.self_ms(spans, selfs, "sweep:"))
    metrics["orchestrate.job_self_ms_p50"] = p50(
        sp.self_ms(spans, selfs, "job:"))
    metrics["sim.run_ms_p50"] = p50(
        [item.duration_ns / 1e6 for item in sp.by_prefix(spans, "run:")])
    metrics["pipeline.compile_ms_p50"] = p50(
        [item.duration_ns / 1e6
         for item in sp.by_prefix(spans, "compile:")])

    store = TelemetryStore(server.telemetry_dir)
    metrics["observe.index_lines"] = len(store.index())
    timings = []
    for index in range(APPENDS):
        record = {"kind": "run", "entry": SERVICE_ENTRY,
                  "created_at": time.time(), "tags": {"probe": index}}
        started = time.perf_counter()
        store.append(record, segment="perfbench")
        timings.append((time.perf_counter() - started) * 1e3)
    metrics["observe.append_ms"] = statistics.median(timings)

    sims = after["sims_executed"] - before["sims_executed"]
    metrics["service.sims_per_sim_request"] = sims / count
    metrics["service.compiles_executed"] = (after["compiles_executed"]
                                            - before["compiles_executed"])
    prefix = min(len(plain), len(replies))
    metrics["observe.trace_overhead"] = (_wall(replies[:prefix])
                                         / _wall(plain[:prefix]))
    metrics["service.leaked_procs"] = sum(s.leaked for s in servers)
