"""Persistent, content-addressed compilation cache.

Compiling a kernel is deterministic, so a compiled program is a pure
function of (source text, entry, output-relevant config).  Artifacts are
stored on disk under the SHA-256 of exactly that
(:meth:`~repro.pipeline.config.PipelineConfig.fingerprint`), which makes
the old in-process ``(name, level)`` cache's failure mode — two configs of
the same kernel silently sharing one artifact — structurally impossible,
and makes warm figure regeneration a matter of unpickling.

Layout: ``<root>/ab/abcdef....pkl`` (two-hex-digit fan-out).  Writes are
atomic (temp file + rename) so concurrent compilations — e.g. sweep
compile jobs on the process-pool executor — can share one cache
directory without locking: last writer wins with an identical artifact.

The root is, in order: the explicit ``root`` argument, ``$REPRO_CACHE_DIR``,
or ``~/.cache/repro-pegasus``.  Corrupt or unreadable entries are treated
as misses and deleted.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import tempfile
from pathlib import Path

from repro.pipeline.config import PipelineConfig

ENV_VAR = "REPRO_CACHE_DIR"

# Pegasus graphs pickle as deep object chains; the default interpreter
# recursion limit is not enough for the larger kernels.
_PICKLE_RECURSION_LIMIT = 200_000


@contextlib.contextmanager
def _deep_recursion():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, _PICKLE_RECURSION_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def default_root() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-pegasus"


class CompilationCache:
    """Content-addressed on-disk store of pickled compiled programs."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_root()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Keys and paths

    @staticmethod
    def key(source: str, entry: str, config: PipelineConfig) -> str:
        return config.fingerprint(source, entry)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Store operations

    def get(self, key: str):
        """The cached program for ``key``, or ``None`` on a miss."""
        path = self.path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            with _deep_recursion():
                program = pickle.loads(data)
        except Exception:
            # Corrupt entry (interrupted write from an older layout, a
            # different interpreter, ...): drop it and recompile.
            with contextlib.suppress(OSError):
                path.unlink()
            self.misses += 1
            return None
        self.hits += 1
        return program

    def put(self, key: str, program) -> Path:
        """Atomically publish ``program`` under ``key``.

        Safe under concurrent warmers of the same key: the artifact is
        written to a same-directory temp file and ``os.replace``d into
        place (readers see the old complete file or the new complete
        file, never a torn write), and the temp file is fsynced first so
        a crash cannot leave a truncated artifact behind the rename.
        When an artifact for ``key`` already exists it is left alone —
        the key is content-addressed, so any existing entry is already
        the identical artifact and N racing warmers cost one write, not
        N (``tests/pipeline/test_cache_stress.py`` hammers this).
        """
        path = self.path(key)
        if path.exists():
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        with _deep_recursion():
            data = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        return path

    def contains(self, key: str) -> bool:
        return self.path(key).exists()

    # ------------------------------------------------------------------
    # Maintenance

    def entries(self) -> list[Path]:
        if not self.root.exists():
            return []
        return sorted(self.root.glob("??/*.pkl"))

    def clear(self) -> int:
        """Delete every cached artifact; returns how many were removed.

        Also sweeps any ``*.tmp`` droppings a crashed writer left behind
        (a process killed between ``mkstemp`` and ``os.replace``).
        """
        removed = 0
        for path in self.entries():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        for tmp in self.stale_tmp():
            with contextlib.suppress(OSError):
                tmp.unlink()
        return removed

    def stale_tmp(self) -> list[Path]:
        """Temp files from interrupted writes (crash mid-``put``)."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("??/*.tmp"))

    def stats(self) -> dict[str, int]:
        entries = self.entries()
        return {
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "hits": self.hits,
            "misses": self.misses,
        }
