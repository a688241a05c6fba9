"""Benchmark-side spans and per-layer self time.

:func:`instrument` wraps public functions of the program in spans
opened through :func:`repro.observe.tracing.span`, so they land in the
same trace as the spans the program already emits (``request:``,
``sweep:``, ``job:``, ``run:``, ``compile:``, ``stage:``) and nest with
them. :func:`self_times` then gives each span's duration minus the part
of it its child spans cover.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager


def _wrapped(function, name: str):
    from repro.observe.tracing import span

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with span(name):
            return function(*args, **kwargs)
    return wrapper


@contextmanager
def instrument(targets):
    """Wrap each ``(owner, attribute, span_name)`` for the block.

    The originals are restored on exit. Only traced runs instrument;
    untraced runs call the program unmodified.
    """
    saved = []
    try:
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrapped(original, name))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times(spans) -> dict[str, int]:
    """span id -> self time in ns, for every finished span."""
    children: dict[str, list] = {}
    for item in spans:
        if item.parent is not None and item.end_ns is not None:
            children.setdefault(item.parent, []).append(
                (item.start_ns, item.end_ns))
    return {item.span: item.duration_ns - _covered_ns(
                item.start_ns, item.end_ns, children.get(item.span, ()))
            for item in spans if item.end_ns is not None}


def by_prefix(spans, prefix: str) -> list:
    return [item for item in spans
            if item.name.startswith(prefix) and item.end_ns is not None]


def total_ms(spans, prefix: str) -> float:
    return sum(item.duration_ns for item in by_prefix(spans, prefix)) / 1e6


def self_ms(spans, selfs: dict, prefix: str) -> list[float]:
    """Self times (ms) of the spans whose name starts with ``prefix``."""
    return [selfs[item.span] / 1e6 for item in by_prefix(spans, prefix)]
