"""Hardened sweeps: the journal as checkpoint, retry classification,
wall-limit injection and resume, as the harness Scheduler applies them."""

import pickle

from repro.errors import ReproError, SimulationTimeout, WorkloadError
from repro.orchestrate.dag import JobDAG
from repro.orchestrate.journal import Journal
from repro.orchestrate.scheduler import JobResult, Scheduler


def _one_job(fn, *args, name="job"):
    dag = JobDAG("d")
    dag.job(name, fn, *args)
    return dag


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "runs" / "fig.journal"
        journal = Journal(path)
        journal.record("fig18/mesa", value={"cycles": 100})
        reloaded = Journal(path)
        assert "fig18/mesa" in reloaded
        assert reloaded.value("fig18/mesa") == {"cycles": 100}
        assert len(reloaded) == 1

    def test_records_accumulate(self, tmp_path):
        journal = Journal(tmp_path / "a.journal")
        journal.record("one", value=1)
        journal.record("two", value=2)
        assert len(Journal(tmp_path / "a.journal")) == 2

    def test_corrupt_journal_starts_fresh(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_bytes(b"\x80\x04 definitely not a journal\n")
        journal = Journal(path)
        assert len(journal) == 0
        journal.record("key", value="value")  # and it heals on next write
        assert Journal(path).value("key") == "value"

    def test_non_dict_payload_ignored(self, tmp_path):
        # Whole-file pickles (the layout of older checkpoints) hold no
        # journal lines: nothing resumes from them.
        for index, payload in enumerate([[1, 2, 3], {"key": 1}]):
            path = tmp_path / f"odd{index}.journal"
            path.write_bytes(pickle.dumps(payload))
            assert len(Journal(path)) == 0

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "gone.journal"
        journal = Journal(path)
        journal.record("key", value=1)
        journal.clear()
        assert not path.exists()
        assert "key" not in Journal(path)

    def test_no_stray_temp_files(self, tmp_path):
        journal = Journal(tmp_path / "neat.journal")
        for index in range(5):
            journal.record(f"k{index}", value=index)
        journal.compact()
        assert [p.name for p in tmp_path.iterdir()] == ["neat.journal"]
        assert len(Journal(tmp_path / "neat.journal")) == 5


def _answer():
    return 41 + 1


def _workload_error(calls):
    calls.append(1)
    raise WorkloadError("golden mismatch")


def _flaky(calls, failures):
    calls.append(1)
    if len(calls) <= failures:
        raise OSError("spurious")
    return "recovered"


def _timeout(calls):
    calls.append(1)
    raise SimulationTimeout("wedged", 1.0, 2.0)


class TestRunnerStatuses:
    def test_ok_job(self):
        sweep = Scheduler(_one_job(_answer)).run()
        result = sweep["job"]
        assert result.ok and result.value == 42
        assert result.status == "ok" and result.attempts == 1
        assert not sweep.degraded

    def test_repro_error_is_not_retried(self):
        calls = []
        result = Scheduler(_one_job(_workload_error, calls),
                           retries=3).run()["job"]
        assert result.status == "error"
        assert "golden mismatch" in result.error
        assert isinstance(result.exception, WorkloadError)
        assert len(calls) == 1, "deterministic failures must not retry"

    def test_environmental_flake_is_retried(self):
        calls = []
        result = Scheduler(_one_job(_flaky, calls, 2), retries=2).run()["job"]
        assert result.ok and result.value == "recovered"
        assert result.attempts == 3

    def test_retries_are_bounded(self):
        calls = []
        result = Scheduler(_one_job(_flaky, calls, 99), retries=2).run()["job"]
        assert result.status == "error"
        assert len(calls) == 3

    def test_timeout_short_circuits_retries(self):
        calls = []
        result = Scheduler(_one_job(_timeout, calls), retries=5).run()["job"]
        assert result.status == "timeout"
        assert len(calls) == 1, "a cooperative timeout will time out again"
        assert "TIMEOUT" in result.describe()


def _record_wall_limit(seen, wall_limit=None):
    seen["wall_limit"] = wall_limit
    return 1


def _record_kwargs(seen, **kwargs):
    seen.update(kwargs)
    return 1


class TestWallLimitInjection:
    def test_jobs_that_accept_wall_limit_receive_it(self):
        seen = {}
        Scheduler(_one_job(_record_wall_limit, seen), wall_limit=2.5).run()
        assert seen["wall_limit"] == 2.5

    def test_var_keyword_jobs_receive_it(self):
        seen = {}
        Scheduler(_one_job(_record_kwargs, seen), wall_limit=1.0).run()
        assert seen["wall_limit"] == 1.0

    def test_plain_jobs_are_left_alone(self):
        sweep = Scheduler(_one_job(_answer), wall_limit=1.0).run()
        assert sweep.value("job") == 42


def _computed(marker):
    """Counts its executions in ``marker`` (one byte each)."""
    with open(marker, "a") as handle:
        handle.write("x")
    return "computed"


def _boom():
    raise ReproError("boom")


class TestResume:
    def test_completed_jobs_resume_from_checkpoint(self, tmp_path):
        path = tmp_path / "fig.journal"
        marker = tmp_path / "runs"
        dag = _one_job(_computed, str(marker), name="fig/k")
        assert Scheduler(dag, journal=path).run()["fig/k"].status == "ok"
        result = Scheduler(dag, journal=path).run()["fig/k"]
        assert result.status == "resumed"
        assert result.value == "computed"
        assert result.ok
        assert marker.read_text() == "x", "resumed jobs must not re-run"
        assert "resumed" in result.describe()

    def test_failed_jobs_are_not_checkpointed(self, tmp_path):
        path = tmp_path / "fig.journal"
        dag = _one_job(_boom, name="fig/bad")
        Scheduler(dag, journal=path).run()
        key = dag.jobs["fig/bad"].key
        assert not Journal(path).has_value(key)
        assert Scheduler(dag, journal=path).run()["fig/bad"].status == "error"

    def test_checkpoint_accepts_instance(self, tmp_path):
        journal = Journal(tmp_path / "x.journal")
        assert Scheduler(_one_job(_answer), journal=journal).journal \
            is journal
        # A path works too, and opens the same journal.
        Scheduler(_one_job(_answer), journal=tmp_path / "x.journal").run()
        sweep = Scheduler(_one_job(_answer),
                          journal=str(tmp_path / "x.journal")).run()
        assert sweep["job"].status == "resumed"


class TestReporting:
    def test_degraded_and_report(self):
        dag = JobDAG("d")
        dag.job("good", _answer)
        dag.job("bad", _boom)
        sweep = Scheduler(dag).run()
        assert [result.name for result in sweep.degraded] == ["bad"]
        report = sweep.report()
        assert "good: ok in" in report
        assert "bad: ERROR after 1 attempt: ReproError" in report
        assert "1 error, 1 ok" in report

    def test_outcome_describe_variants(self):
        assert JobResult("k", "ok", elapsed=0.5).describe() == "ok in 0.50s"
        assert "resumed" in JobResult("k", "resumed").describe()
        assert JobResult("k", "error", error="x", attempts=2).describe() \
            == "ERROR after 2 attempts: x"
        assert JobResult("k", "timeout", error="slow",
                         attempts=1).describe() \
            == "TIMEOUT after 1 attempt: slow"
        assert JobResult("k", "skipped",
                         error="upstream degraded: c").describe() \
            == "SKIPPED: upstream degraded: c"
