"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import time

import pytest

from repro import compile_minic
from repro.api import OPT_LEVELS

#: Environment marker every process started during the session inherits,
#: so the session-end check can find descendants that were reparented
#: away from pytest (an orphaned forkserver no longer names us as its
#: parent).
SESSION_ENV = "REPRO_TEST_SESSION"
#: How long the check waits for exiting processes to go away.
LEAK_GRACE_SECONDS = 10.0


def pytest_sessionstart(session):
    os.environ[SESSION_ENV] = str(os.getpid())


def pytest_sessionfinish(session, exitstatus):
    """Fail the run when a process started during it outlives it."""
    if not os.path.isdir("/proc"):
        return  # no process table to inspect on this platform
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    leaked = _session_processes()
    while leaked and time.monotonic() < deadline:
        time.sleep(0.2)
        leaked = _session_processes()
    if not leaked:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    lines = [f"{len(leaked)} process(es) started by the test session "
             "outlived it:"] + [f"  pid {pid}: {cmd}" for pid, cmd in leaked]
    if reporter is not None:
        reporter.write_line("\n".join(lines), red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


def _session_processes() -> list[tuple[int, str]]:
    """Live processes started by this session: descendants of this
    process plus anything carrying the session marker, minus this
    process's own multiprocessing helpers (they end with it)."""
    me = os.getpid()
    marker = f"{SESSION_ENV}={me}".encode()
    parents: dict[int, int] = {}
    carriers: set[int] = set()
    commands: dict[int, str] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        pid = int(entry.name)
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
            if fields[0] == b"Z":
                continue  # exited; only waiting to be reaped
            parents[pid] = int(fields[1])
            with open(f"/proc/{pid}/environ", "rb") as handle:
                if marker in handle.read().split(b"\0"):
                    carriers.add(pid)
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                commands[pid] = handle.read().replace(b"\0", b" ") \
                    .decode(errors="replace").strip()
        except (OSError, IndexError, ValueError):
            continue  # gone meanwhile, or not ours to read
    found = set(carriers)
    frontier = [me]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.update(children)
        frontier.extend(children)
    found -= {me, *_own_helpers()}
    return sorted((pid, commands.get(pid, "?")) for pid in found
                  if pid in parents)


def _own_helpers() -> set[int]:
    """Pids of this process's forkserver and resource tracker."""
    from multiprocessing import forkserver, resource_tracker
    helpers = {getattr(forkserver._forkserver, "_forkserver_pid", None),
               getattr(resource_tracker._resource_tracker, "_pid", None)}
    return {pid for pid in helpers if pid is not None}


def compile_and_compare(source: str, entry: str, args: list,
                        levels: tuple[str, ...] = OPT_LEVELS,
                        entry_points_to: dict | None = None,
                        check_memory: bool = True):
    """Differential harness: every opt level must match the oracle.

    Compiles ``source`` at each level, runs both interpreters, and asserts
    that return values (and final memory images, unless the program is
    nondeterministic in padding) all agree. Returns the per-level dataflow
    results keyed by level for further assertions.
    """
    results = {}
    reference = None
    ref_memory = None
    for level in levels:
        program = compile_minic(source, entry, opt_level=level,
                                entry_points_to=entry_points_to)
        oracle = program.run_sequential(list(args))
        spatial = program.simulate(list(args))
        assert spatial.return_value == oracle.return_value, (
            f"level {level}: dataflow returned {spatial.return_value}, "
            f"oracle {oracle.return_value}"
        )
        if check_memory:
            assert spatial.memory.snapshot() == oracle.memory.snapshot(), (
                f"level {level}: final memory differs from the oracle"
            )
        if reference is None:
            reference = oracle.return_value
            ref_memory = oracle.memory.snapshot()
        else:
            assert oracle.return_value == reference
            if check_memory:
                assert oracle.memory.snapshot() == ref_memory
        results[level] = spatial
    return results


@pytest.fixture
def differential():
    return compile_and_compare


# The paper's §2 motivating example, verbatim (modulo the array parameter
# name, which C allows either way).
SECTION2_SOURCE = """
void f(unsigned *p, unsigned a[], int i)
{
    if (p) a[i] += *p;
    else a[i] = 1;
    a[i] <<= a[i+1];
}
"""


@pytest.fixture
def section2_source() -> str:
    return SECTION2_SOURCE
