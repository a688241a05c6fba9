"""A doctored result must fail the output check and the exit status."""

import json
from pathlib import Path
from types import SimpleNamespace

from perfbench import compile_suite, fig19_sweep, inputs, run, service_mix
from perfbench.common import Outcome, Scratch
from perfbench.metrics import BUSY, END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def _reply(request, value):
    return service_mix._Reply(0, request, 0.0, 0.01, value=value,
                              cycles=10, cache="warm")


def test_service_check_accepts_oracle_value_and_rejects_doctored():
    request = {"template": "fill_sum", "salt": 0, "level": "full",
               "args": [10, 3], "mix": "fresh"}
    good = Outcome()
    service_mix._check([_reply(request, 135)], good)
    assert good.correct, good.problems
    bad = Outcome()
    service_mix._check([_reply(request, 136)], bad)
    assert not bad.correct


def test_fig19_recorder_rejects_doctored_return_value():
    from repro.programs import Kernel
    kernel = Kernel(name="k", family="test", source="", entry="k_run",
                    golden=42)
    outcome = Outcome()
    recorder = fig19_sweep._Recorder({"k_run": kernel}, outcome)
    recorder.new_sweep()
    stats = SimpleNamespace(accesses=0, l1_hits=0, l2_hits=0,
                            tlb_misses=0, port_stall_cycles=0)

    def simulate(program, *args, **kwargs):
        return SimpleNamespace(return_value=program.value, fired=1,
                               cycles=1, memory_stats=stats)
    timed = recorder.wrap(simulate)
    timed(SimpleNamespace(entry="k_run", opt_level="full", value=42))
    assert outcome.correct
    timed(SimpleNamespace(entry="k_run", opt_level="full", value=41))
    assert not outcome.correct


def test_compile_suite_flags_nondeterministic_ir(monkeypatch, tmp_path):
    item = next(i for i in inputs.compile_suite(0)
                if i["kernel"] == "li" and i["level"] == "none")
    summaries = iter([("a",), ("b",)])
    monkeypatch.setattr(compile_suite, "ir_summary",
                        lambda program: next(summaries))
    scratch = Scratch(tmp_path)
    outcome = Outcome()
    try:
        compile_suite._measure([item, item], 0, scratch, outcome, limit=2)
    finally:
        scratch.close()
    assert any("IR summary differs" in p for p in outcome.problems)


def test_compile_suite_ends_when_every_compile_fails(monkeypatch,
                                                     tmp_path):
    import time
    from repro.errors import ReproError
    from repro.pipeline.driver import CompilerDriver

    def failing(self, source, entry):
        time.sleep(0.001)
        raise ReproError("doctored failure")
    monkeypatch.setattr(compile_suite, "_setup",
                        lambda scratch, speed: (0.1, None))
    monkeypatch.setattr(CompilerDriver, "compile", failing)
    items = inputs.compile_suite(0)[:5]
    scratch = Scratch(tmp_path)
    try:
        outcome = compile_suite.run(items, 0.05, 0, scratch)
    finally:
        scratch.close()
    assert not outcome.correct
    assert outcome.failed == outcome.attempted >= 100


def test_mismatch_exits_nonzero_and_reports_incorrect(monkeypatch, capsys):
    doctored = Outcome(attempted=1)
    doctored.metrics = {name: 1.0 for name in END_TO_END}
    doctored.problems.append("doctored value")
    monkeypatch.setattr(run, "_run", lambda options, scratch: doctored)
    status = run.main(["--workload", "compile_suite", "--seed", "1",
                       "--seconds", "1"])
    assert status == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert result["correct"] is False
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_traced_run_fails_when_a_busy_layer_reads_zero(monkeypatch,
                                                       capsys):
    traced = Outcome(attempted=1)
    traced.metrics = {name: 1.0 for name in BUSY["fig19_sweep"]}
    traced.metrics["sim.plan_ms"] = 0.0        # a renamed span reads 0
    monkeypatch.setattr(run, "_run", lambda options, scratch: traced)
    status = run.main(["--workload", "fig19_sweep", "--seed", "1",
                       "--seconds", "1", "--trace", "1"])
    assert status == 1
    out = capsys.readouterr().out
    assert "sim.plan_ms" in out and "metrics not measured" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_busy_layers_are_per_layer_metrics():
    assert set(BUSY) == set(run.WORKLOADS)
    for names in BUSY.values():
        assert set(names) <= set(PER_LAYER)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
