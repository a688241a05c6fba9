"""Persistent telemetry store: append-only JSONL segments plus an index.

Every :class:`~repro.observe.telemetry.RunRecord` a
:class:`~repro.observe.telemetry.TelemetrySession` produces lands here,
content-addressed and durable, so any two runs — today's and last
month's, one kernel and a whole figure sweep — can be diffed with
:mod:`repro.observe.diff` long after the processes that made them exited.

Layout (``$REPRO_TELEMETRY_DIR`` or ``.repro/telemetry/`` under the
current directory; no dependencies beyond the standard library)::

    .repro/telemetry/
        index.jsonl              # one summary line per record
        segments/<session>.jsonl # full records, one JSON object per line

Records are grouped into one segment file per recording session and
identified by ``run_id`` — the SHA-256 of the record's canonical JSON —
so identical payloads deduplicate and an id can be checked against its
content. The store is append-only in normal operation; :meth:`gc` is the
one compaction path (drop whole segments by age or recency, then rewrite
the index atomically).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.errors import ReproError

#: Environment override for the store root.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"
DEFAULT_ROOT = Path(".repro") / "telemetry"


class TelemetryStoreError(ReproError):
    """A malformed store, unknown run id, or ambiguous prefix."""


def content_address(payload: dict) -> str:
    """The run id of a record payload: SHA-256 of its canonical JSON.

    The ``run_id`` key itself is excluded so the address is stable
    whether or not the payload already carries one.
    """
    scrubbed = {k: v for k, v in payload.items() if k != "run_id"}
    canonical = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _index_line(payload: dict, segment: str) -> dict:
    """The denormalized summary of one record kept in ``index.jsonl``."""
    result = payload.get("result") or {}
    config = payload.get("config") or {}
    return {
        "run_id": payload["run_id"],
        "segment": segment,
        "kind": payload.get("kind", "run"),
        "session": payload.get("session"),
        "entry": payload.get("entry"),
        "kernel": (payload.get("tags") or {}).get("kernel"),
        "opt_level": config.get("opt_level"),
        "engine": payload.get("engine"),
        "memsys": payload.get("memsys"),
        "cycles": result.get("cycles"),
        "created_at": payload.get("created_at"),
    }


class TelemetryStore:
    """The on-disk run-record store (see the module docstring)."""

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get(TELEMETRY_DIR_ENV) or DEFAULT_ROOT
        self.root = Path(root)
        self.index_path = self.root / "index.jsonl"
        self.segments_dir = self.root / "segments"
        # Serializes appends from concurrent threads/asyncio tasks of
        # one process: the duplicate check and the two file appends are
        # one atomic step, so segment lines never interleave and an
        # identical record racing itself is still written exactly once.
        # (Separate *processes* write separate segment files instead —
        # see TelemetrySession.segment.)
        self._append_lock = threading.Lock()
        # append's duplicate check reads index.jsonl incrementally: the
        # run ids seen so far, plus the inode and byte offset of the
        # index they were read up to. Only ids are kept, so the memory
        # cost stays one short string per record.
        self._seen_ids: set[str] = set()
        self._seen_inode: int | None = None
        self._seen_offset = 0

    # ------------------------------------------------------------------
    # Writing

    def append(self, record, segment: str = "adhoc") -> str:
        """Persist one record; returns its (content-addressed) run id.

        ``record`` is a :class:`~repro.observe.telemetry.RunRecord` or an
        equivalent payload dict. An exact duplicate of an already-stored
        record is not re-appended (same content, same id).
        """
        payload = record if isinstance(record, dict) else record.to_dict()
        run_id = content_address(payload)
        payload = dict(payload, run_id=run_id)
        if not isinstance(record, dict):
            record.run_id = run_id
        with self._append_lock:
            self._catch_up()
            if run_id in self._seen_ids:
                return run_id
            self.segments_dir.mkdir(parents=True, exist_ok=True)
            segment_name = f"{_safe_segment(segment)}.jsonl"
            _append_line(self.segments_dir / segment_name,
                         json.dumps(payload, sort_keys=True))
            _append_line(self.index_path,
                         json.dumps(_index_line(payload, segment_name),
                                    sort_keys=True))
        return run_id

    def _catch_up(self) -> None:
        """Fold index lines appended since the last call (by any
        process) into ``_seen_ids``.

        Reads only complete lines: a torn tail is left for a later call,
        by which time the next writer has ended it. A new inode or a
        shorter file means :meth:`gc` rewrote the index, so it is read
        again from the start.
        """
        try:
            handle = open(self.index_path, "rb")
        except FileNotFoundError:
            self._seen_ids.clear()
            self._seen_inode, self._seen_offset = None, 0
            return
        with handle:
            stat = os.fstat(handle.fileno())
            if stat.st_ino != self._seen_inode \
                    or stat.st_size < self._seen_offset:
                self._seen_ids.clear()
                self._seen_inode, self._seen_offset = stat.st_ino, 0
            if stat.st_size == self._seen_offset:
                return
            handle.seek(self._seen_offset)
            chunk = handle.read()
        complete = chunk.rfind(b"\n") + 1
        for entry in _parse_lines(chunk[:complete].splitlines()):
            self._seen_ids.add(entry.get("run_id"))
        self._seen_offset += complete

    # ------------------------------------------------------------------
    # Reading

    def index(self) -> list[dict]:
        """Every index line, oldest first ([] for a fresh store)."""
        if not self.index_path.exists():
            return []
        with open(self.index_path, "rb") as handle:
            return list(_parse_lines(handle))

    def get(self, run_id: str):
        """The full record for a run id (unique prefixes accepted)."""
        entry = self._find(run_id)
        if entry is None:
            raise TelemetryStoreError(f"no run {run_id!r} in {self.root}")
        for payload in self._segment_payloads(entry["segment"]):
            if payload.get("run_id") == entry["run_id"]:
                from repro.observe.telemetry import RunRecord
                return RunRecord.from_dict(payload)
        raise TelemetryStoreError(
            f"index names run {entry['run_id']} in segment "
            f"{entry['segment']}, but the segment does not contain it")

    def records(self, *, session: str | None = None,
                kind: str | None = None,
                kernel: str | None = None) -> list:
        """Full records matching the filters, oldest first."""
        from repro.observe.telemetry import RunRecord
        selected = []
        wanted_segments = {}
        for entry in self.index():
            if session is not None and entry.get("session") != session:
                continue
            if kind is not None and entry.get("kind") != kind:
                continue
            if kernel is not None and entry.get("kernel") != kernel:
                continue
            wanted_segments.setdefault(entry["segment"], set()).add(
                entry["run_id"])
        for segment, ids in wanted_segments.items():
            for payload in self._segment_payloads(segment):
                if payload.get("run_id") in ids:
                    selected.append(RunRecord.from_dict(payload))
        selected.sort(key=lambda record: record.created_at)
        return selected

    def sessions(self) -> dict[str, int]:
        """session id -> record count, insertion order preserved."""
        counts: dict[str, int] = {}
        for entry in self.index():
            session = entry.get("session") or "-"
            counts[session] = counts.get(session, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Compaction

    def gc(self, *, keep_sessions: int | None = None,
           max_age_days: float | None = None,
           now: float | None = None,
           dry_run: bool = False) -> list[str]:
        """Drop whole segments, then rewrite the index atomically.

        A segment survives if any of its records is newer than the age
        cutoff or belongs to one of the ``keep_sessions`` most recent
        sessions. Returns the names of the segments removed (or, with
        ``dry_run``, the ones that would be).
        """
        if keep_sessions is None and max_age_days is None:
            return []
        import time
        now = time.time() if now is None else now
        entries = self.index()
        recent_sessions: set[str] = set()
        if keep_sessions is not None:
            seen: list[str] = []
            for entry in reversed(entries):
                session = entry.get("session") or "-"
                if session not in seen:
                    seen.append(session)
                if len(seen) >= keep_sessions:
                    break
            recent_sessions = set(seen)
        doomed: set[str] = set()
        survivors: set[str] = set()
        for entry in entries:
            keep = False
            if keep_sessions is not None and \
                    (entry.get("session") or "-") in recent_sessions:
                keep = True
            if max_age_days is not None:
                age_days = (now - (entry.get("created_at") or 0)) / 86400.0
                if age_days <= max_age_days:
                    keep = True
            (survivors if keep else doomed).add(entry["segment"])
        doomed -= survivors
        if not dry_run:
            for segment in doomed:
                path = self.segments_dir / segment
                if path.exists():
                    path.unlink()
            kept = [entry for entry in entries
                    if entry["segment"] not in doomed]
            tmp = self.index_path.with_suffix(".jsonl.tmp")
            with open(tmp, "w") as handle:
                for entry in kept:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
            tmp.replace(self.index_path)
        return sorted(doomed)

    # ------------------------------------------------------------------

    def _find(self, run_id: str) -> dict | None:
        """The index entry for a run id or a unique prefix of one."""
        matches = []
        for entry in self.index():
            stored = entry.get("run_id", "")
            if stored.startswith(run_id):
                matches.append(entry)
                if stored == run_id:
                    return entry
        if not matches:
            return None
        ids = {entry["run_id"] for entry in matches}
        if len(ids) > 1:
            raise TelemetryStoreError(
                f"run id prefix {run_id!r} is ambiguous "
                f"({len(ids)} matches)")
        return matches[0]

    def _segment_payloads(self, segment: str):
        path = self.segments_dir / segment
        if not path.exists():
            return
        with open(path, "rb") as handle:
            yield from _parse_lines(handle)


def _parse_lines(lines):
    """The JSON objects among ``lines``; blank and unparseable lines
    (a writer killed mid-line leaves one) are skipped."""
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            entry = json.loads(raw)
        except ValueError:
            continue
        if isinstance(entry, dict):
            yield entry


def _append_line(path: Path, text: str) -> None:
    """Append one line to ``path``. When the file does not end in a
    newline (a writer was killed mid-line), the torn tail is ended
    first so this line stays whole."""
    with open(path, "a+b") as handle:
        size = handle.seek(0, os.SEEK_END)
        torn = False
        if size:
            handle.seek(size - 1)
            torn = handle.read(1) != b"\n"
        handle.write((b"\n" if torn else b"") + text.encode() + b"\n")


def _safe_segment(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)
    return safe or "adhoc"
