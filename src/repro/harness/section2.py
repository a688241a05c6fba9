"""The §2 motivating example: seven compilers, one function.

The paper compiles ``f`` with gcc, Sun WorkShop, DEC CC, MIPSpro, SGI ORC,
IBM AIX cc, and CASH; only CASH and the AIX compiler remove all three
useless accesses to the temporary ``a[i]`` (two stores and one load). We
can't rerun 2003-era commercial compilers, so the comparison is restated
as: the unoptimized graph carries the accesses a conventional compiler
retains; the full pipeline removes exactly the paper's two stores and one
load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.cache import compile_source_cached
from repro.harness.sweep import run_sweep
from repro.observe.telemetry import telemetry_tags
from repro.orchestrate.dag import JobDAG
from repro.utils.tables import TextTable

SECTION2_SOURCE = """
void f(unsigned *p, unsigned a[], int i)
{
    if (p) a[i] += *p;
    else a[i] = 1;
    a[i] <<= a[i+1];
}
"""


@dataclass
class Section2Result:
    loads_before: int
    loads_after: int
    stores_before: int
    stores_after: int

    @property
    def loads_removed(self) -> int:
        return self.loads_before - self.loads_after

    @property
    def stores_removed(self) -> int:
        return self.stores_before - self.stores_after


def _section2_job() -> Section2Result:
    """The whole §2 measurement as one cell job (module-level so it can
    run on any executor; ``compile_source_cached`` is resolved through
    the module at call time)."""
    # Tag so compile records land under "section2" in the telemetry
    # store when a session is active (cache hits record too).
    with telemetry_tags(figure="section2", kernel="f"):
        base = compile_source_cached(SECTION2_SOURCE, "f", level="none")
        full = compile_source_cached(SECTION2_SOURCE, "f", level="full")
    before = base.static_counts()
    after = full.static_counts()
    return Section2Result(
        loads_before=before["loads"],
        loads_after=after["loads"],
        stores_before=before["stores"],
        stores_after=after["stores"],
    )


def build_dag() -> JobDAG:
    """A one-job DAG: the measurement is the cell ``section2``."""
    dag = JobDAG("section2")
    dag.job("section2", _section2_job, category="cell")
    return dag


def section2() -> Section2Result:
    """The §2 measurement, run as its one-job DAG."""
    return run_sweep(build_dag()).value("section2")


def render_result(result: Section2Result) -> str:
    """The §2 table for an already-computed result."""
    table = TextTable(["Configuration", "loads", "stores"],
                      title="Section 2 example: accesses to the temporary "
                            "a[i] (paper: CASH removes 2 stores + 1 load)")
    table.add_row("unoptimized (what most 2003 compilers retain)",
                  result.loads_before, result.stores_before)
    table.add_row("CASH-equivalent full pipeline",
                  result.loads_after, result.stores_after)
    table.add_row("removed", result.loads_removed, result.stores_removed)
    return table.render()


def render() -> str:
    return render_result(section2())
