"""Scheduler: dispatch, retry, DEGRADED propagation, resume, executors."""

import os
import time

import pytest

from repro.errors import ReproError, SimulationTimeout
from repro.orchestrate.dag import JobDAG
from repro.orchestrate.executors import (
    InlineExecutor,
    PoolExecutor,
    make_executor,
)
from repro.orchestrate.journal import Journal
from repro.orchestrate.scheduler import Scheduler


def _value(x):
    return x


def _double(x):
    return 2 * x


def _add(*, deps):
    return sum(d for d in deps if d is not None)


def _boom_repro():
    raise ReproError("deterministic failure")


def _boom_timeout():
    raise SimulationTimeout("over budget", 1.0, 2.0)


def _flaky(marker, payload):
    """Fails with OSError until the marker file exists."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise OSError("transient flake")
    return payload


def _record_wall_limit(wall_limit=None):
    return wall_limit


def _die_in_worker(parent_pid, value):
    """Kills any pool worker that runs it; returns ``value`` in-process."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return value


def _write_pid_and_hang(path):
    """Pool-worker job that records its pid then wedges forever."""
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(600)


def _session_probe():
    from repro.observe.telemetry import current_session
    session = current_session()
    if session is None:
        return None
    return (session.session_id, dict(session._tags), session.segment)


class TestBasicExecution:
    def test_values_flow_and_order_is_topological(self):
        dag = JobDAG("d")
        dag.job("a", _value, 1)
        dag.job("b", _value, 2)
        dag.job("sum", _add, deps=("a", "b"), pass_deps=True)
        sweep = Scheduler(dag).run()
        assert sweep.ok
        assert sweep.value("sum") == 3
        assert sweep["sum"].category == "job"
        assert sweep.counts() == {"ok": 3}

    def test_pass_deps_preserves_declaration_order(self):
        dag = JobDAG("d")
        dag.job("b", _value, "B")
        dag.job("a", _value, "A")

        def collect(*, deps):
            return list(deps)

        dag.job("agg", collect, deps=("a", "b"), pass_deps=True)
        sweep = Scheduler(dag).run()
        assert sweep.value("agg") == ["A", "B"]

    def test_report_names_executor_and_dag(self):
        dag = JobDAG("d")
        dag.job("a", _value, 1)
        sweep = Scheduler(dag).run()
        report = sweep.report()
        assert "executor inline" in report
        assert dag.dag_id[:12] in report
        assert "1 ok" in report


class TestFailureClassification:
    def test_repro_error_is_terminal_no_retry(self, tmp_path):
        dag = JobDAG("d")
        dag.job("bad", _boom_repro)
        sweep = Scheduler(dag, retries=5).run()
        result = sweep["bad"]
        assert result.status == "error"
        assert result.attempts == 1
        assert "deterministic failure" in result.error
        assert isinstance(result.exception, ReproError)

    def test_timeout_is_terminal(self):
        dag = JobDAG("d")
        dag.job("slow", _boom_timeout)
        sweep = Scheduler(dag, retries=5).run()
        assert sweep["slow"].status == "timeout"
        assert sweep["slow"].attempts == 1

    def test_transient_failure_retried_within_budget(self, tmp_path):
        dag = JobDAG("d")
        dag.job("flaky", _flaky, str(tmp_path / "marker"), 42)
        sweep = Scheduler(dag, retries=2).run()
        assert sweep["flaky"].status == "ok"
        assert sweep["flaky"].value == 42
        assert sweep["flaky"].attempts == 2
        assert sweep.retries == 1

    def test_transient_failure_exhausts_budget(self, tmp_path):
        dag = JobDAG("d")
        dag.job("flaky", _flaky, str(tmp_path / "never" / "nope"), 42)
        sweep = Scheduler(dag, retries=1).run()
        assert sweep["flaky"].status == "error"
        assert sweep["flaky"].attempts == 2

    def test_per_spec_retries_override_scheduler_budget(self, tmp_path):
        dag = JobDAG("d")
        dag.job("flaky", _flaky, str(tmp_path / "marker"), 7, retries=2)
        sweep = Scheduler(dag, retries=0).run()
        assert sweep["flaky"].status == "ok"


class TestDegradedPropagation:
    def _dag(self):
        dag = JobDAG("d")
        dag.job("bad", _boom_repro)
        dag.job("child", _double, 5, deps=("bad",))
        dag.job("grandchild", _double, 5, deps=("child",))
        dag.job("ok", _value, 10)
        dag.job("agg", _add, deps=("grandchild", "ok"),
                pass_deps=True, tolerant=True)
        return dag

    def test_failures_skip_dependents_transitively(self):
        sweep = Scheduler(self._dag()).run()
        assert sweep["bad"].status == "error"
        assert sweep["child"].status == "skipped"
        assert sweep["grandchild"].status == "skipped"
        assert "upstream degraded" in sweep["grandchild"].error
        assert sweep["ok"].status == "ok"

    def test_tolerant_aggregate_runs_with_holes(self):
        sweep = Scheduler(self._dag()).run()
        assert sweep["agg"].status == "ok"
        assert sweep["agg"].value == 10  # degraded dep contributed None
        assert not sweep.ok
        assert {r.name for r in sweep.degraded} == \
            {"bad", "child", "grandchild"}


class TestResume:
    def test_completed_jobs_resume_without_rerunning(self, tmp_path):
        marker = tmp_path / "ran-twice"
        dag = JobDAG("d")
        dag.job("a", _flaky, str(marker), 11)
        journal = Journal(tmp_path / "j")
        first = Scheduler(dag, journal=journal, retries=1).run()
        assert first["a"].status == "ok"
        # A second scheduler over the same journal replays the value;
        # _flaky would raise again if it were re-executed after the
        # marker is removed.
        marker.unlink()
        again = Scheduler(dag, journal=Journal(tmp_path / "j")).run()
        assert again["a"].status == "resumed"
        assert again["a"].value == 11
        assert not marker.exists()

    def test_resume_false_reruns_everything(self, tmp_path):
        dag = JobDAG("d")
        dag.job("a", _value, 1)
        journal = Journal(tmp_path / "j")
        Scheduler(dag, journal=journal).run()
        sweep = Scheduler(dag, journal=Journal(tmp_path / "j")) \
            .run(resume=False)
        assert sweep["a"].status == "ok"

    def test_transient_jobs_never_resume(self, tmp_path):
        dag = JobDAG("d")
        dag.job("cell", _value, 1)
        dag.job("agg", _add, deps=("cell",), pass_deps=True,
                tolerant=True, transient=True)
        journal = Journal(tmp_path / "j")
        Scheduler(dag, journal=journal).run()
        sweep = Scheduler(dag, journal=Journal(tmp_path / "j")).run()
        assert sweep["cell"].status == "resumed"
        assert sweep["agg"].status == "ok"  # re-aggregated, not resumed

    def test_content_key_invalidates_on_changed_args(self, tmp_path):
        dag1 = JobDAG("d")
        dag1.job("a", _value, 1)
        journal_path = tmp_path / "j"
        Scheduler(dag1, journal=Journal(journal_path)).run()
        # Same job name, different argument: the journal entry must not
        # be replayed for different work.
        dag2 = JobDAG("d")
        dag2.job("a", _value, 2)
        sweep = Scheduler(dag2, journal=Journal(journal_path)).run()
        assert sweep["a"].status == "ok"
        assert sweep["a"].value == 2

    def test_failed_jobs_are_recorded_but_not_resumed(self, tmp_path):
        dag = JobDAG("d")
        dag.job("bad", _boom_repro)
        journal_path = tmp_path / "j"
        Scheduler(dag, journal=Journal(journal_path)).run()
        journal = Journal(journal_path)
        assert not journal.has_value(dag.jobs["bad"].key)
        assert journal.get(dag.jobs["bad"].key)["status"] == "error"
        sweep = Scheduler(dag, journal=journal).run()
        assert sweep["bad"].status == "error"  # re-attempted, failed again


class TestWallLimit:
    def test_wall_limit_injected_into_accepting_jobs(self):
        dag = JobDAG("d")
        dag.job("a", _record_wall_limit)
        sweep = Scheduler(dag, wall_limit=1.5).run()
        assert sweep.value("a") == 1.5

    def test_spec_wall_limit_overrides_scheduler(self):
        dag = JobDAG("d")
        dag.job("a", _record_wall_limit, wall_limit=0.25)
        sweep = Scheduler(dag, wall_limit=1.5).run()
        assert sweep.value("a") == 0.25

    def test_explicit_kwarg_wins_over_injection(self):
        dag = JobDAG("d")
        dag.job("a", _record_wall_limit, wall_limit=None)
        spec = dag.jobs["a"]
        assert spec.wall_limit is None
        dag.jobs.clear()
        dag.job("a", _record_wall_limit)
        dag.jobs["a"].kwargs["wall_limit"] = 9.0
        sweep = Scheduler(dag, wall_limit=1.5).run()
        assert sweep.value("a") == 9.0


class TestExecutors:
    def test_pool_executor_runs_jobs_in_workers(self):
        dag = JobDAG("d")
        for i in range(4):
            dag.job(f"j{i}", _double, i)
        executor = make_executor("process", max_workers=2)
        sweep = Scheduler(dag, executor=executor).run()
        executor.shutdown()
        assert sweep.ok
        assert [sweep.value(f"j{i}") for i in range(4)] == [0, 2, 4, 6]
        assert sweep.executor.startswith("process-pool")

    def test_make_executor_resolves_kinds(self):
        assert isinstance(make_executor(None), InlineExecutor)
        assert isinstance(make_executor("inline"), InlineExecutor)
        pool = make_executor("process", max_workers=1)
        assert isinstance(pool, PoolExecutor)
        pool.shutdown()
        inline = InlineExecutor()
        assert make_executor(inline) is inline
        with pytest.raises(ValueError):
            make_executor("carrier-pigeon")

    def test_inline_results_report_inline_executor(self):
        dag = JobDAG("d")
        dag.job("a", _value, 1)
        sweep = Scheduler(dag).run()
        assert sweep["a"].executor == "inline"


class TestTelemetryIntegration:
    def test_jobs_run_under_dag_tags(self, tmp_path):
        from repro.observe.store import TelemetryStore
        from repro.observe.telemetry import TelemetrySession
        dag = JobDAG("d")
        dag.job("probe", _session_probe)
        session = TelemetrySession(store=TelemetryStore(tmp_path / "t"))
        with session:
            sweep = Scheduler(dag).run()
        session_id, tags, _segment = sweep.value("probe")
        assert session_id == session.session_id
        assert tags["dag"] == dag.dag_id
        assert tags["job"] == "probe"
        assert tags["attempt"] == 1
        assert tags["executor"] == "inline"

    def test_pool_workers_rebuild_the_session(self, tmp_path):
        from repro.observe.store import TelemetryStore
        from repro.observe.telemetry import TelemetrySession
        dag = JobDAG("d")
        dag.job("probe", _session_probe)
        executor = make_executor("process", max_workers=1)
        session = TelemetrySession(store=TelemetryStore(tmp_path / "t"))
        with session:
            sweep = Scheduler(dag, executor=executor).run()
        executor.shutdown()
        if not sweep.ok:  # pool degraded to inline in this sandbox
            pytest.skip("no process pool available")
        probe = sweep.value("probe")
        assert probe is not None
        session_id, tags, segment = probe
        assert session_id == session.session_id
        assert tags["executor"].startswith("process-pool")
        # Worker wrote its own segment file, suffixed with its pid.
        assert segment is not None and segment.startswith(session_id)
        assert segment != session_id


class TestRetryJitter:
    """Full jitter on the linear backoff ceiling: deterministic under a
    seed, bounded, decorrelated across jobs."""

    def _scheduler(self, n=12, **kwargs):
        dag = JobDAG("d")
        for i in range(n):
            dag.job(f"j{i}", _value, i)
        kwargs.setdefault("backoff", 0.5)
        return Scheduler(dag, **kwargs)

    def test_first_attempt_never_sleeps(self):
        scheduler = self._scheduler()
        spec = scheduler.dag.jobs["j0"]
        assert scheduler._backoff_delay(spec, 1) == 0.0

    def test_zero_backoff_disables_jitter(self):
        scheduler = self._scheduler(backoff=0.0)
        spec = scheduler.dag.jobs["j0"]
        assert scheduler._backoff_delay(spec, 3) == 0.0

    def test_delay_bounded_by_linear_ceiling(self):
        scheduler = self._scheduler()
        for spec in scheduler.dag:
            for attempt in range(2, 6):
                delay = scheduler._backoff_delay(spec, attempt)
                assert 0.0 <= delay <= 0.5 * (attempt - 1)

    def test_deterministic_for_a_given_seed(self):
        first = self._scheduler(jitter_seed=7)
        second = self._scheduler(jitter_seed=7)
        for name in first.dag.jobs:
            spec1, spec2 = first.dag.jobs[name], second.dag.jobs[name]
            assert first._backoff_delay(spec1, 2) == \
                second._backoff_delay(spec2, 2)

    def test_different_seeds_draw_different_delays(self):
        base = self._scheduler(jitter_seed=0)
        other = self._scheduler(jitter_seed=1)
        spec_b = base.dag.jobs["j0"]
        spec_o = other.dag.jobs["j0"]
        assert base._backoff_delay(spec_b, 2) != \
            other._backoff_delay(spec_o, 2)

    def test_decorrelated_across_jobs_no_stampede(self):
        # Twelve jobs retrying the same attempt must spread across the
        # window, not sleep in lockstep: that is the point of jitter.
        scheduler = self._scheduler()
        delays = [scheduler._backoff_delay(spec, 2)
                  for spec in scheduler.dag]
        assert len(set(delays)) == len(delays)
        spread = max(delays) - min(delays)
        assert spread > 0.1  # spans a real fraction of the 0.5s window

    def test_decorrelated_across_attempts(self):
        scheduler = self._scheduler()
        spec = scheduler.dag.jobs["j0"]
        ratios = {round(scheduler._backoff_delay(spec, n) / (n - 1), 9)
                  for n in range(2, 6)}
        assert len(ratios) > 1  # not the same fraction of each ceiling


class TestHardWallLimitReaping:
    def test_timed_out_pool_job_leaves_no_orphan_process(self, tmp_path):
        # A wedged pool worker ignores its cooperative wall-limit; the
        # scheduler must reap it (status "timeout") and the worker
        # process must not outlive the sweep.
        executor = PoolExecutor(max_workers=1)
        probe_dag = JobDAG("probe")
        probe_dag.job("ping", _value, 1)
        probe = Scheduler(probe_dag, executor=executor).run()
        if executor.degraded_reason is not None or not probe.ok:
            executor.shutdown()
            pytest.skip("no process pool available")

        pid_file = tmp_path / "pid"
        dag = JobDAG("d")
        dag.job("hang", _write_pid_and_hang, str(pid_file))
        sweep = Scheduler(dag, executor=executor, wall_limit=1.0,
                          hard_grace=1.0).run()
        executor.shutdown()

        result = sweep["hang"]
        assert result.status == "timeout"
        assert "worker reaped" in result.error
        pid = int(pid_file.read_text())
        # The reaped worker dies promptly — poll a little for the kernel.
        for _ in range(50):
            try:
                os.kill(pid, 0)
            except OSError:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, 9)
            pytest.fail(f"worker {pid} outlived its timed-out job")


class TestPoolDegradation:
    def test_degrades_inline_with_degraded_provenance_tag(
            self, tmp_path, monkeypatch):
        from repro.observe.store import TelemetryStore
        from repro.observe.telemetry import TelemetrySession
        from repro.orchestrate import executors as executors_module

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise NotImplementedError("no process primitives here")

        monkeypatch.setattr(executors_module, "ProcessPoolExecutor",
                            _NoPool)
        executor = PoolExecutor(max_workers=2)
        dag = JobDAG("d")
        dag.job("a", _value, 1)
        # The probe runs after "a", by which point the first submit has
        # already tripped the degradation — its tags must say so.
        dag.job("probe", _session_probe, deps=("a",))
        session = TelemetrySession(store=TelemetryStore(tmp_path / "t"))
        with session:
            sweep = Scheduler(dag, executor=executor).run()
        executor.shutdown()

        assert sweep.ok
        assert sweep.value("a") == 1
        assert executor.degraded_reason == "no process primitives"
        assert "->inline" in executor.name
        _session_id, tags, _segment = sweep.value("probe")
        assert tags["degraded"] == "no process primitives"
        assert "->inline" in tags["executor"]

    def test_broken_pool_degrades_to_inline(self):
        from repro.orchestrate.executors import MAX_POOL_DEATHS
        dag = JobDAG("d")
        dag.job("a", _die_in_worker, os.getpid(), 5)
        executor = PoolExecutor(max_workers=1)
        try:
            sweep = Scheduler(dag, executor=executor,
                              retries=MAX_POOL_DEATHS).run()
        finally:
            executor.shutdown()
        # Each pool death is retried on a rebuilt pool; after the last
        # one the executor finishes the job in-process.
        assert sweep.value("a") == 5
        assert executor.degraded_reason in (
            f"{MAX_POOL_DEATHS} pool deaths", "no process primitives")
        assert "->inline" in sweep["a"].executor
