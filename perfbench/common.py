"""Pieces every workload shares: the outcome record, set-up timing,
the end-to-end latency metrics and the private scratch directories."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Ops a run measures at least, so ``op_ms_p90`` has ten samples beyond.
MIN_OPS = 100
#: Reference readings taken before each set-up.
SPEED_READINGS = 9


@dataclass
class Op:
    """One measured operation."""

    key: object              # input class, for drift normalization
    seconds: float
    miss: bool = False
    ok: bool = True
    #: Measured wall this op accounts for: from the previous op's end
    #: (or the start of measuring) to this op's end.
    wall: float = 0.0
    #: Machine-speed scale factor (see :mod:`perfbench.speed`).
    factor: float = 1.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def timed_setups(make, discard, count: int = SETUPS, speed=None):
    """Run ``make()`` ``count`` times; keep the last, ``discard`` the rest.

    Returns ``(median seconds, last made value)``. With a
    :class:`~perfbench.speed.Speedometer`, each set-up's time is scaled
    to the reference speed read just before it.
    """
    from perfbench.speed import REFERENCE_S
    times = []
    made = None
    for index in range(count):
        if made is not None:
            discard(made)
        factor = 1.0
        if speed is not None:
            factor = REFERENCE_S / statistics.median(
                speed.sample() for _ in range(SPEED_READINGS))
        started = time.perf_counter()
        made = make(index)
        times.append((time.perf_counter() - started) * factor)
    return statistics.median(times), made


def calibrate(ops: list[Op], readings: list[float]) -> None:
    """Set each op's factor from the speed reading taken before it."""
    from perfbench.speed import factors
    for op, factor in zip(ops, factors(readings)):
        op.factor = factor


def latency_metrics(ops: list[Op]) -> dict:
    """ops_per_s, op/miss percentiles, drift and ok_frac over ``ops``,
    each op's times scaled by its factor."""
    done = [op for op in ops if op.ok]
    millis = [op.seconds * op.factor * 1e3 for op in done]
    misses = [op.seconds * op.factor * 1e3 for op in done if op.miss]
    return {
        "ops_per_s": len(done) / sum(op.wall * op.factor for op in ops),
        "op_ms_p50": stats.percentile(millis, 50),
        "op_ms_p90": stats.percentile(millis, 90),
        "miss_ms_p50": stats.percentile(misses, 50),
        "latency_drift": stats.drift([(op.key, op.seconds * op.factor)
                                      for op in done]),
        "ok_frac": len(done) / len(ops),
    }


def sample_counts(ops: list[Op]) -> dict:
    done = [op for op in ops if op.ok]
    return {"op_ms": len(done), "miss_ms": sum(op.miss for op in done)}


def uncalibrated(ops: list[Op]) -> dict:
    """The raw (unscaled) rate and median, for the info lines."""
    done = [op for op in ops if op.ok]
    return {"raw_ops_per_s": len(done) / sum(op.wall for op in ops),
            "raw_op_ms_p50": stats.percentile(
                [op.seconds * 1e3 for op in done], 50),
            "speed_factor_p50": statistics.median(op.factor for op in ops)}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Scratch:
    """Private directories under ``<root>/.bench_tmp``, deleted on close.

    Everything the benchmark and the processes it starts write goes
    here: artifact stores, telemetry, traces and temp files.
    """

    def __init__(self, root: Path):
        base = root / ".bench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-",
                                          dir=base))

    def dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        base = self.path.parent
        if base.exists() and not any(base.iterdir()):
            base.rmdir()
