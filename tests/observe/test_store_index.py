"""The telemetry store's incremental index read.

``TelemetryStore.append`` checks for duplicates against the run ids it
has read from ``index.jsonl`` so far, reading only the bytes other
writers added since. These tests pin what that must keep: dedup stays
exact across store instances (pool workers append to one index from
their own processes), a ``gc`` rewrite by another instance is noticed,
a torn tail left by a killed writer breaks nothing, and append cost
does not grow with the index.
"""

import json
import statistics
import time

from repro.observe.store import TelemetryStore


def _payload(index: int, **extra) -> dict:
    return {"kind": "run", "entry": f"kernel{index}",
            "created_at": 1_000_000.0 + index, **extra}


def _index_ids(store: TelemetryStore) -> list[str]:
    return [entry["run_id"] for entry in store.index()]


def test_two_instances_append_one_payload_once(tmp_path):
    first, second = TelemetryStore(tmp_path), TelemetryStore(tmp_path)
    first.append(_payload(0))           # both instances have read the
    second.append(_payload(1))          # index before the race below
    run_id = first.append(_payload(2), segment="a")
    assert second.append(_payload(2), segment="b") == run_id
    assert first.append(_payload(2), segment="a") == run_id
    assert _index_ids(first).count(run_id) == 1
    assert len(first.index()) == 3


def test_dedup_holds_after_other_instance_gc(tmp_path):
    writer, collector = TelemetryStore(tmp_path), TelemetryStore(tmp_path)
    old = writer.append(_payload(0, session="old"), segment="old")
    kept = writer.append(_payload(1, session="new", created_at=2e9),
                         segment="new")
    assert collector.gc(max_age_days=1, now=2e9) == ["old.jsonl"]
    assert _index_ids(writer) == [kept]
    # The writer must notice the rewrite: the surviving record is still
    # a duplicate, the collected one is new again.
    writer.append(_payload(1, session="new", created_at=2e9),
                  segment="new")
    assert _index_ids(writer) == [kept]
    assert writer.append(_payload(0, session="old"), segment="old") == old
    assert _index_ids(writer) == [kept, old]
    assert writer.get(old).entry == "kernel0"


def test_torn_index_tail_does_not_break_appends(tmp_path):
    store = TelemetryStore(tmp_path)
    first = store.append(_payload(0))
    with open(store.index_path, "a") as handle:
        handle.write('{"run_id": "dead')   # a writer killed mid-line
    second = store.append(_payload(1))
    assert _index_ids(store) == [first, second]
    assert store.get(second).entry == "kernel1"
    # Dedup still sees the record written after the torn line, from
    # this instance and from a fresh one.
    store.append(_payload(1))
    TelemetryStore(tmp_path).append(_payload(1))
    assert _index_ids(store) == [first, second]


def test_torn_segment_tail_does_not_lose_the_next_record(tmp_path):
    store = TelemetryStore(tmp_path)
    store.append(_payload(0), segment="s")
    with open(store.segments_dir / "s.jsonl", "a") as handle:
        handle.write('{"kind": "ru')
    run_id = store.append(_payload(1), segment="s")
    assert store.get(run_id).entry == "kernel1"
    assert [record.entry for record in store.records()] == \
        ["kernel0", "kernel1"]


def _append_ms(store: TelemetryStore, start: int, count: int = 25) -> float:
    timings = []
    for index in range(start, start + count):
        began = time.perf_counter()
        store.append(_payload(index))
        timings.append(time.perf_counter() - began)
    return statistics.median(timings) * 1e3


def _seeded_store(root, lines: int) -> TelemetryStore:
    store = TelemetryStore(root)
    store.append(_payload(0))
    with open(store.index_path, "a") as handle:
        for index in range(1, lines):
            handle.write(json.dumps({
                "run_id": f"{index:064x}", "segment": "adhoc.jsonl",
                "kind": "run", "entry": f"kernel{index}"}) + "\n")
    store.append(_payload(-1))      # reads the seeded lines once
    return store


def test_append_cost_is_flat_in_index_size(tmp_path):
    small = _seeded_store(tmp_path / "small", 10)
    large = _seeded_store(tmp_path / "large", 2000)
    small_ms = _append_ms(small, 100_000)
    large_ms = _append_ms(large, 100_000)
    assert large_ms < 2 * small_ms, (small_ms, large_ms)
