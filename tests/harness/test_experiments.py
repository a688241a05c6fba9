"""Experiment drivers: smoke coverage of every table/figure harness."""

import pytest

from repro.harness import loc, section2, table2, fig18, fig19
from repro.harness.cache import DEFAULT_SUBSET, compiled, select_kernels
from repro.orchestrate.scheduler import FLAKE_ENV, Scheduler
from repro.programs import all_kernels


class TestCache:
    def test_compilations_are_cached(self):
        first = compiled("li", "none")
        second = compiled("li", "none")
        assert first.program is second.program

    def test_select_kernels_modes(self):
        assert [k.name for k in select_kernels(None)] == list(DEFAULT_SUBSET)
        assert len(select_kernels("all")) == len(all_kernels())
        assert [k.name for k in select_kernels(["mesa"])] == ["mesa"]


class TestLoc:
    def test_rows_cover_paper_table(self):
        rows = loc.table1()
        assert len(rows) == 8
        names = [row.optimization for row in rows]
        assert "Loop decoupling+monotone loops" in names

    def test_render_mentions_both_columns(self):
        text = loc.render()
        assert "paper LOC" in text and "ours LOC" in text


class TestSection2:
    def test_result_shape(self):
        result = section2.section2()
        assert result.loads_removed == 1
        assert result.stores_removed == 2


class TestTable2:
    def test_rows_for_subset(self):
        rows = table2.table2(kernels=("li", "mesa"))
        assert [row.name for row in rows] == ["li", "mesa"]
        assert all(row.coverage_percent == 100.0 for row in rows)

    def test_render_has_total_row(self):
        text = table2.render(kernels=("li",))
        assert "Total" in text


class TestFig18:
    def test_single_kernel_row(self):
        (row,) = fig18.figure18(kernels=("li",))
        assert row.dynamic_before >= row.dynamic_after
        assert 0 <= row.static_loads_removed_pct <= 100


class TestFig19:
    def test_single_cell(self):
        rows = fig19.figure19(kernels=("li",),
                              memory_systems=(fig19.MEMORY_SYSTEMS[0],))
        (row,) = rows
        assert row.baseline_cycles > 0
        assert set(row.cycles) == set(fig19.LEVELS)
        assert row.speedup("full") > 0

    def test_attribution_columns(self):
        rows = fig19.figure19(kernels=("li",),
                              memory_systems=(fig19.MEMORY_SYSTEMS[0],),
                              attribution=True)
        (row,) = rows
        for level in fig19.LEVELS:
            # The critical-path invariant carries into the harness rows:
            # the per-category cycles sum to the level's cycle count.
            assert sum(row.attribution[level].values()) == row.cycles[level]
        shares = [row.category_share("full", category)
                  for category in ("memory", "compute", "token", "control")]
        assert abs(sum(shares) - 1.0) < 1e-9


class TestHardenedHarness:
    """Figure sweeps journal, resume, and render failing cells DEGRADED."""

    def test_fig18_with_runner(self, tmp_path):
        journal = tmp_path / "fig18.journal"
        first = Scheduler(fig18.build_dag(kernels=("li",)),
                          journal=journal).run()
        (row,) = first.value(fig18.AGGREGATE)
        assert row.name == "li"
        # Same journal: the row replays without resimulating.
        again = Scheduler(fig18.build_dag(kernels=("li",)),
                          journal=journal).run()
        assert again["fig18/li"].status == "resumed"
        assert again.value(fig18.AGGREGATE) == [row]

    def test_fig19_job_keys_name_kernel_and_memsys(self):
        dag = fig19.build_dag(kernels=("li",),
                              memory_systems=(fig19.MEMORY_SYSTEMS[0],))
        cells = [spec.name for spec in dag if spec.category == "cell"]
        assert cells == ["fig19/li/perfect"]

    def test_section2_with_runner(self):
        sweep = Scheduler(section2.build_dag()).run()
        assert sweep.order == ["section2"]
        assert sweep.value("section2").loads_removed == 1

    @staticmethod
    def _sweep_run(sweep, flake, tmp_path, monkeypatch, capsys):
        """``repro sweep run`` with the first attempt of every job
        matching ``flake`` failing and no retries left to absorb it."""
        from repro.orchestrate.sweeps import sweep_main
        monkeypatch.setenv(FLAKE_ENV, flake)
        argv = ["run", sweep, "--retries", "0",
                "--journal", str(tmp_path / f"{sweep}.journal")]
        if sweep != "section2":
            argv += ["--kernels", "li"]
        code = sweep_main(argv)
        return code, capsys.readouterr().out

    def test_degraded_rows_render_instead_of_aborting(
            self, tmp_path, monkeypatch, capsys):
        code, out = self._sweep_run("fig18", "fig18/li", tmp_path,
                                    monkeypatch, capsys)
        assert code == 1
        (row,) = [line for line in out.splitlines()
                  if line.startswith("li ")]
        assert row.split()[1:] == ["DEGRADED"] + ["-"] * 6
        assert ("degraded fig18/li: ERROR after 1 attempt: OSError: "
                "injected transient flake for fig18/li") in out

    def test_fig19_degraded_render(self, tmp_path, monkeypatch, capsys):
        # A failed compile skips every cell of the kernel; each renders
        # as a DEGRADED row footnoted as an error with no attempts.
        code, out = self._sweep_run("fig19", "fig19/compile/li", tmp_path,
                                    monkeypatch, capsys)
        assert code == 1
        assert out.count("DEGRADED") == len(fig19.MEMORY_SYSTEMS)
        assert ("degraded fig19/li/perfect: ERROR after 0 attempts: "
                "upstream degraded: fig19/compile/li") in out

    def test_section2_degraded_render(self, tmp_path, monkeypatch, capsys):
        code, out = self._sweep_run("section2", "section2", tmp_path,
                                    monkeypatch, capsys)
        assert code == 1
        assert "section2: ERROR after 1 attempt: OSError" in out
        assert out.rstrip().endswith("Section 2 example: DEGRADED")
