"""Parallel harness jobs: per-job isolation and failure reporting.

Kernel compilation and sweep cells run as scheduler jobs, inline or on
the process pool; these tests pin what a batch guarantees either way.
"""

import os

import pytest

from repro.errors import ReproError
from repro.harness import cache as harness_cache
from repro.harness import table2
from repro.harness.sweep import compile_warm, gather_rows, run_sweep
from repro.orchestrate.dag import JobDAG
from repro.orchestrate.executors import PoolExecutor
from repro.orchestrate.scheduler import Scheduler
from repro.pipeline.cache import CompilationCache
from repro.programs import Kernel

GOOD_SOURCE = """
int f(int n) { return n * 3 + 1; }
"""

# Parses, but `return` disagrees with the declared void type: the
# compiler rejects it deterministically (a ReproError, not a crash).
BAD_SOURCE = """
void f(int n) { return n; }
"""


@pytest.fixture
def fake_registry(monkeypatch, tmp_path):
    """``goodk``/``badk`` in the harness registry, compiled into a
    private disk cache with an empty in-process layer."""
    kernels = {
        "goodk": Kernel(name="goodk", family="synthetic",
                        source=GOOD_SOURCE, entry="f"),
        "badk": Kernel(name="badk", family="synthetic",
                       source=BAD_SOURCE, entry="f"),
    }
    monkeypatch.setattr(harness_cache, "get_kernel", kernels.__getitem__)
    monkeypatch.setattr(harness_cache, "_MEMORY", {})
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
    return CompilationCache(tmp_path / "cc")


def compile_dag(kernels, levels=("none",)) -> JobDAG:
    dag = JobDAG("compile")
    for name in kernels:
        dag.job(f"compile/{name}", compile_warm, name, levels,
                category="compile")
    return dag


class TestBatchCompletion:
    def test_all_good_kernels_compile(self, fake_registry):
        sweep = run_sweep(compile_dag(["goodk"], levels=("none", "full")))
        assert sweep.ok
        for level in ("none", "full"):
            assert harness_cache.compiled("goodk", level).program.graph \
                is not None
        assert fake_registry.stats()["entries"] == 2

    def test_one_bad_kernel_does_not_abort_the_batch(self, fake_registry,
                                                     monkeypatch):
        sweep = Scheduler(compile_dag(["badk", "goodk"])).run()
        # Only the bad kernel failed, and it is named.
        assert [result.name for result in sweep.degraded] == ["compile/badk"]
        assert sweep["compile/goodk"].status == "ok"
        # The batch drained: the good kernel's artifact landed in the
        # disk cache, so a retry without the bad kernel is warm.
        assert fake_registry.stats()["entries"] == 1
        monkeypatch.setattr(harness_cache, "_MEMORY", {})
        run_sweep(compile_dag(["goodk"]))
        again = harness_cache.compiled("goodk", "none")
        assert again.program.report.cache_status == "hit"

    def test_failures_carry_the_original_exception(self, fake_registry):
        result = Scheduler(compile_dag(["badk"])).run()["compile/badk"]
        assert result.status == "error" and result.attempts == 1
        assert isinstance(result.exception, ReproError)
        assert str(result.exception) in result.error
        # The raising entry point re-raises the exception itself, not a
        # wrapper around its message.
        with pytest.raises(type(result.exception)) as info:
            run_sweep(compile_dag(["badk"]))
        assert str(info.value) == str(result.exception)

    def test_warm_cache_short_circuits(self, fake_registry, monkeypatch):
        run_sweep(compile_dag(["goodk"]))
        monkeypatch.setattr(harness_cache, "_MEMORY", {})
        run_sweep(compile_dag(["goodk"]))
        assert harness_cache.compiled("goodk", "none").program.report \
            .cache_status == "hit"
        assert fake_registry.stats()["entries"] == 1


class TestRealRegistryParallel:
    def test_parallel_matches_serial(self):
        # Through the process-pool executor (or its in-process fallback
        # where the sandbox has no process primitives): same rows, same
        # order.
        kernels = ("mpeg2_d", "li")
        assert table2.table2(kernels=kernels, parallel=True,
                             max_workers=2) == table2.table2(kernels=kernels)


def _square(x):
    return x * x


def _touch_and_maybe_fail(workdir, index, bad):
    """Records its execution, then fails when ``index == bad``."""
    with open(os.path.join(workdir, f"ran-{index}"), "a") as handle:
        handle.write("x")
    if index == bad:
        raise ValueError(f"job {index} is bad")
    return index


def _compile_counted(workdir, name, source):
    """Compile job that records each execution in ``ran-<name>``."""
    with open(os.path.join(workdir, f"ran-{name}"), "a") as handle:
        handle.write("x")
    harness_cache.compile_source_cached(source, "f", level="none",
                                        use_disk=False)
    return name


def _square_rows(values) -> JobDAG:
    dag = JobDAG("rows")
    cells = []
    for index, value in enumerate(values):
        cells.append(f"cell{index}")
        dag.job(cells[-1], _square, value, category="cell")
    dag.job("rows", gather_rows, deps=tuple(cells), category="aggregate",
            tolerant=True, pass_deps=True, transient=True)
    return dag


def _marker_dag(workdir, count, bad) -> JobDAG:
    dag = JobDAG("d")
    for index in range(count):
        dag.job(f"j{index}", _touch_and_maybe_fail, str(workdir), index, bad)
    return dag


class TestRunJobs:
    def test_results_in_input_order(self):
        sweep = run_sweep(_square_rows([3, 1, 2]), parallel=True,
                          max_workers=2)
        assert sweep.value("rows") == [9, 1, 4]

    def test_serial_fallback_matches(self):
        values = list(range(5))
        serial = run_sweep(_square_rows(values)).value("rows")
        assert serial == run_sweep(_square_rows(values), parallel=True,
                                   max_workers=2).value("rows")

    def test_failed_jobs_execute_exactly_once(self, tmp_path):
        """A worker-raised job is reported, never re-run in-process.

        The marker files count actual executions.
        """
        executor = PoolExecutor(max_workers=2)
        try:
            sweep = Scheduler(_marker_dag(tmp_path, 4, 2),
                              executor=executor).run()
        finally:
            executor.shutdown()
        failed = sweep["j2"]
        assert failed.status == "error" and failed.attempts == 1
        assert "job 2 is bad" in failed.error
        assert isinstance(failed.exception, ValueError)
        assert [sweep.value(f"j{i}") for i in (0, 1, 3)] == [0, 1, 3]
        for index in range(4):
            marker = tmp_path / f"ran-{index}"
            assert marker.read_text() == "x", \
                f"job {index} executed {len(marker.read_text())} times"

    def test_failure_raises_but_batch_drains_first(self, tmp_path):
        with pytest.raises(ValueError, match="job 0 is bad"):
            run_sweep(_marker_dag(tmp_path, 4, 0), parallel=True,
                      max_workers=2)
        # Every job after the failing one still ran (no aborted tail).
        for index in range(4):
            assert (tmp_path / f"ran-{index}").read_text() == "x"

    def test_serial_path_raises_too(self, tmp_path):
        with pytest.raises(ValueError, match="job 1 is bad"):
            run_sweep(_marker_dag(tmp_path, 2, 1))
        for index in range(2):
            assert (tmp_path / f"ran-{index}").read_text() == "x"


class TestCompileFailuresNotRerun:
    def test_worker_compile_failure_not_recompiled_in_process(
            self, tmp_path):
        """A kernel that failed to compile in a worker is reported with
        the worker's exception and never compiled again in-process."""
        dag = JobDAG("compile")
        dag.job("compile/goodk", _compile_counted, str(tmp_path), "goodk",
                GOOD_SOURCE, category="compile")
        dag.job("compile/badk", _compile_counted, str(tmp_path), "badk",
                BAD_SOURCE, category="compile")
        executor = PoolExecutor(max_workers=2)
        try:
            sweep = Scheduler(dag, executor=executor, retries=2).run()
        finally:
            executor.shutdown()
        assert sweep.value("compile/goodk") == "goodk"
        failed = sweep["compile/badk"]
        assert failed.status == "error" and failed.attempts == 1
        assert isinstance(failed.exception, ReproError)
        for name in ("goodk", "badk"):
            assert (tmp_path / f"ran-{name}").read_text() == "x"
