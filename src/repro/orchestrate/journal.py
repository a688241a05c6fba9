"""Incremental journal of job completions: append-only, crash-tolerant.

Rewriting a whole checkpoint file on every record costs O(n²) bytes
over a long sweep. The journal appends instead: one JSON line per
event, values carried as base64-encoded pickles, so recording the
1000th cell costs the same as recording the first. Two crash scenarios are first-class:

- a process killed *between* records leaves a well-formed file; resume
  replays every completed job;
- a process killed *mid-write* leaves a truncated tail; loading stops at
  the last complete, parseable line and the next append truncates the
  garbage away, so a torn record can never poison later ones.

Superseded lines (a retried job, a recorded failure) accumulate as dead
weight; when they outnumber the live entries the journal compacts itself
into a fresh file atomically (temp file + rename).

Distributed sweeps add a third failure domain: each remote worker
appends completions to its own **shard** (``shard-<worker>.jsonl`` next
to the coordinator's journal), so a result that never made it back over
the wire — the coordinator died, the connection reset mid-frame — still
survives on disk. :func:`merge_shards` folds those shards into the main
journal on resume, last-write-wins per content-addressed job key, so a
sweep interrupted on *either* side of the socket resumes bit-identical.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path

#: Journal entries with these statuses carry a resumable value.
VALUE_STATUSES = ("ok",)

#: Worker shard filename pattern (``<worker id>`` is host-pid unique).
SHARD_GLOB = "shard-*.jsonl"

#: Dead lines tolerated before :meth:`Journal.record` auto-compacts.
COMPACT_FLOOR = 64


class Journal:
    """Append-only {job key -> latest event} log backing sweep resume.

    Keys are caller-chosen strings — the scheduler uses content-addressed
    job keys so a changed job silently invalidates its old entry. Only
    ``status="ok"`` entries carry a value and satisfy :meth:`has_value`;
    failure statuses are recorded for post-mortems (``repro sweep
    status``) but never resumed.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        self._lines = 0           # parseable lines currently in the file
        self._good_offset = 0     # bytes of trustworthy prefix
        self._tail_dropped = 0    # bytes of torn tail discarded on load
        self._load()

    # ------------------------------------------------------------------
    # Loading

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        offset = 0
        while True:
            newline = data.find(b"\n", offset)
            if newline < 0:
                break  # incomplete tail (torn write): stop trusting here
            line = data[offset:newline]
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict) or "key" not in entry \
                        or "status" not in entry:
                    raise ValueError("not a journal entry")
            except (ValueError, UnicodeDecodeError):
                # A complete-but-corrupt line: everything after it is
                # suspect (interleaved writes, version skew) — discard.
                break
            self._entries[entry["key"]] = entry
            self._lines += 1
            offset = newline + 1
        self._good_offset = offset
        self._tail_dropped = len(data) - offset

    # ------------------------------------------------------------------
    # Recording

    def record(self, key: str, *, name: str | None = None,
               status: str = "ok", value=None, attempts: int = 0,
               elapsed: float = 0.0, error: str | None = None,
               worker: str | None = None, host: str | None = None,
               lease: str | None = None, ts: float | None = None) -> None:
        """Append one event; ``value`` is kept only for OK statuses.

        ``error`` preserves the last failure message for post-mortems
        (``repro sweep status``); ``worker``/``host``/``lease`` record
        which lease holder produced the event in a distributed sweep;
        ``ts`` is the event wall-clock time (defaults to now) and is the
        tiebreaker :func:`merge_shards` uses for last-write-wins.
        """
        entry = {
            "key": key,
            "name": name or key,
            "status": status,
            "attempts": attempts,
            "elapsed": round(elapsed, 6),
            "ts": round(time.time() if ts is None else ts, 6),
        }
        for field, content in (("error", error), ("worker", worker),
                               ("host", host), ("lease", lease)):
            if content is not None:
                entry[field] = content
        if status in VALUE_STATUSES:
            entry["value"] = _encode(value)
        self.absorb(entry)

    def absorb(self, entry: dict) -> None:
        """Append a pre-built entry (a :meth:`record` payload or a line
        lifted verbatim from another journal's shard)."""
        if "key" not in entry or "status" not in entry:
            raise ValueError(f"not a journal entry: {entry!r}")
        self._append(entry)
        self._entries[entry["key"]] = entry
        self._lines += 1
        if self._dead_lines() > max(COMPACT_FLOOR, len(self._entries)):
            self.compact()

    def _append(self, entry: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True) + "\n"
        if self._tail_dropped and self.path.exists():
            # First write after loading a torn file: drop the garbage
            # tail so the new line starts on a clean boundary.
            with open(self.path, "r+b") as handle:
                handle.truncate(self._good_offset)
        with open(self.path, "a") as handle:
            handle.write(line)
        self._good_offset += len(line.encode())
        self._tail_dropped = 0

    def _dead_lines(self) -> int:
        return self._lines - len(self._entries)

    # ------------------------------------------------------------------
    # Reading

    def get(self, key: str) -> dict | None:
        """The latest event for ``key`` (any status), or ``None``."""
        return self._entries.get(key)

    def has_value(self, key: str) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.get("status") in VALUE_STATUSES

    def value(self, key: str):
        """The recorded value for an OK entry (``None`` otherwise)."""
        entry = self._entries.get(key)
        if entry is None or entry.get("status") not in VALUE_STATUSES:
            return None
        try:
            return _decode(entry["value"])
        except Exception:
            # Undecodable value (version skew): treat as not recorded.
            return None

    def __contains__(self, key: str) -> bool:
        return self.has_value(key)

    def __len__(self) -> int:
        return sum(1 for entry in self._entries.values()
                   if entry.get("status") in VALUE_STATUSES)

    def statuses(self) -> dict[str, dict]:
        """key -> latest event, insertion order preserved."""
        return dict(self._entries)

    @property
    def tail_dropped(self) -> int:
        """Bytes of torn tail found on load (0 for a clean journal)."""
        return self._tail_dropped

    # ------------------------------------------------------------------
    # Maintenance

    def compact(self) -> None:
        """Rewrite the file with only the latest event per key, atomically."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.path.parent,
                                        suffix=".compact.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                for entry in self._entries.values():
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        self._lines = len(self._entries)
        self._good_offset = self.path.stat().st_size
        self._tail_dropped = 0

    def clear(self) -> None:
        self._entries = {}
        self._lines = 0
        self._good_offset = 0
        self._tail_dropped = 0
        with contextlib.suppress(OSError):
            self.path.unlink()


def shard_path(shard_dir: str | os.PathLike, worker_id: str) -> Path:
    """Where worker ``worker_id`` journals its completions."""
    safe = "".join(ch if ch.isalnum() or ch in "-._" else "-"
                   for ch in worker_id)
    return Path(shard_dir) / f"shard-{safe}.jsonl"


def merge_shards(journal: Journal, shard_dir: str | os.PathLike, *,
                 cleanup: bool = True) -> int:
    """Fold per-worker journal shards into ``journal``; returns the
    number of values merged.

    Shards are the worker-side half of the distributed journal: a worker
    records each completion locally *before* shipping the result frame,
    so a coordinator crash or a torn connection cannot lose finished
    work. On resume the coordinator calls this: every OK value found in
    a shard wins over an absent or older main-journal entry —
    last-write-wins per content-addressed job key, by event timestamp
    (shards are loaded through :class:`Journal`, so a shard with a torn
    tail heals exactly like the main journal). With ``cleanup`` the
    consumed shard files are deleted once their values are durably
    appended to the main journal.
    """
    shard_dir = Path(shard_dir)
    shard_files = sorted(shard_dir.glob(SHARD_GLOB)) \
        if shard_dir.is_dir() else []
    winners: dict[str, dict] = {}
    for path in shard_files:
        for key, entry in Journal(path).statuses().items():
            if entry.get("status") not in VALUE_STATUSES:
                continue
            current = winners.get(key)
            if current is None or entry.get("ts", 0) >= current.get("ts", 0):
                winners[key] = entry
    merged = 0
    for key, entry in winners.items():
        mine = journal.get(key)
        if mine is not None and mine.get("status") in VALUE_STATUSES \
                and mine.get("ts", 0) >= entry.get("ts", 0):
            continue
        journal.absorb(entry)
        merged += 1
    if cleanup:
        for path in shard_files:
            with contextlib.suppress(OSError):
                path.unlink()
    return merged


def read_shards(shard_dir: str | os.PathLike) -> dict[str, dict]:
    """Read-only merged view of the shards (any status, latest wins) —
    what ``repro sweep status`` overlays for lease/attempt display."""
    shard_dir = Path(shard_dir)
    if not shard_dir.is_dir():
        return {}
    view: dict[str, dict] = {}
    for path in sorted(shard_dir.glob(SHARD_GLOB)):
        for key, entry in Journal(path).statuses().items():
            current = view.get(key)
            if current is None or entry.get("ts", 0) >= current.get("ts", 0):
                view[key] = entry
    return view


def _encode(value) -> str:
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode()


def _decode(blob: str):
    return pickle.loads(base64.b64decode(blob))
