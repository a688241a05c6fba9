"""The ``repro serve`` subprocess and the reaping of everything it starts.

The server starts a forkserver, compile pool workers and a
resource_tracker. Before shutting it down the benchmark snapshots its
descendants from ``/proc``; whatever is still alive a grace period
after the server exited counts as leaked, and is then killed.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

#: How long descendants get to exit after the server did.
GRACE_S = 5.0


def _stat(pid: int) -> tuple[int, str, int] | None:
    """``(ppid, state, start time)`` of ``pid``, or None if gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    return int(fields[1]), fields[0], int(fields[19])


def descendants(pid: int) -> dict[int, int]:
    """pid -> start time of every live descendant of ``pid``."""
    children: dict[int, list[int]] = {}
    starts: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _stat(int(entry))
        if stat is not None:
            children.setdefault(stat[0], []).append(int(entry))
            starts[int(entry)] = stat[2]
    found: dict[int, int] = {}
    pending = list(children.get(pid, ()))
    while pending:
        child = pending.pop()
        found[child] = starts[child]
        pending.extend(children.get(child, ()))
    return found


def _alive(pid: int, start: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[2] == start and stat[1] != "Z"


class Server:
    """One ``python -m repro serve --port 0`` subprocess."""

    def __init__(self, root: Path, workdir: Path, *, trace: bool = False,
                 timeout: float = 60.0):
        src = str(root / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        for name, sub in (("REPRO_CACHE_DIR", "cache"),
                          ("REPRO_TELEMETRY_DIR", "telemetry"),
                          ("REPRO_TRACE_DIR", "traces")):
            env[name] = str(workdir / sub)
        self.workdir = workdir
        self.telemetry_dir = workdir / "telemetry"
        self.trace_dir = workdir / "traces"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if trace:
            command.append("--trace")
        self._stderr = open(workdir / "stderr.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=workdir, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, stdin=subprocess.DEVNULL)
        self.leaked = 0
        self._closed = False
        self.port = self._await_port(timeout)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if " listening on " in line:
                    address = line.split(" listening on ")[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.close()
        raise RuntimeError(f"repro serve did not start: "
                           f"{(self.workdir / 'stderr.log').read_text()}")

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server process."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def close(self) -> int:
        """Stop the server, reap its tree; returns the leaked count."""
        if self._closed:
            return self.leaked
        self._closed = True
        if self.proc.poll() is None:
            family = descendants(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            family = {}
            self.proc.communicate()
        self._stderr.close()
        deadline = time.monotonic() + GRACE_S
        while time.monotonic() < deadline and any(
                _alive(pid, start) for pid, start in family.items()):
            time.sleep(0.05)
        survivors = {pid: start for pid, start in family.items()
                     if _alive(pid, start)}
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + GRACE_S
        while time.monotonic() < deadline and any(
                _alive(pid, start) for pid, start in survivors.items()):
            time.sleep(0.05)
        self.leaked = len(survivors)
        return self.leaked
