"""Compiled engines vs reference interpreter: the equivalence matrix.

The interpreter (:class:`~repro.sim.dataflow.DataflowSimulator`) is the
executable specification of dataflow semantics; the compiled engine
(:class:`~repro.sim.engine.CompiledEngine`) and the code generator
(:class:`~repro.sim.codegen.CodegenEngine`) must reproduce it
bit-for-bit — same cycles, same per-node fire counts, same memory
hierarchy statistics, same final memory image, same errors — across
optimization levels, memory systems, probes, fault plans, deadlocks and
event-limit overruns. Determinism is asserted separately: the same
(plan, seed, config) twice must give the same answer on every executor.
"""

from __future__ import annotations

import pytest

from repro import compile_minic
from repro.api import SIM_ENGINES, resolve_engine
from repro.errors import DeadlockError, EventLimitError
from repro.harness.cache import compiled
from repro.harness.section2 import SECTION2_SOURCE
from repro.programs import get_kernel
from repro.resilience.faults import SHAKE_EVERYTHING
from repro.sim import codegen as codegen_mod
from repro.sim import plan as plan_mod
from repro.sim.codegen import CodegenEngine
from repro.sim.dataflow import DataflowSimulator
from repro.sim.engine import CompiledEngine
from repro.sim.memsys import PERFECT_MEMORY, REALISTIC_2PORT
from repro.sim.plan import plan_for

from tests.resilience.fixtures import cyclic_wait_graph, starved_chain_graph

SECTION2_DRIVER = SECTION2_SOURCE + """
unsigned buffer[8];
unsigned value = 5;
unsigned drive(int i, int use_p)
{
    int k;
    for (k = 0; k < 8; k++) buffer[k] = k + 1;
    f(use_p ? &value : (unsigned*)0, buffer, i);
    return buffer[i];
}
"""

KERNELS = ("adpcm_e", "li", "mesa", "vortex")
SYSTEMS = (PERFECT_MEMORY, REALISTIC_2PORT)

#: The engines under test, each held to the interpreter bit-for-bit.
ENGINES = ("compiled", "codegen")

#: The observable DataflowResult surface (memory images compared on top).
FIELDS = ("return_value", "cycles", "fired", "loads", "stores",
          "skipped_memops", "fire_counts", "memory_stats")


def observe(result) -> dict:
    seen = {field: getattr(result, field) for field in FIELDS}
    seen["memory"] = result.memory.snapshot()
    return seen


def run_both(program, args, engine="compiled", **kwargs) -> tuple:
    interp = program.simulate(list(args), engine="interp", **kwargs)
    run = program.simulate(list(args), engine=engine, **kwargs)
    return interp, run


def assert_equivalent(program, args, **kwargs) -> tuple:
    """Every compiled engine against one interpreter reference run."""
    interp = program.simulate(list(args), engine="interp", **kwargs)
    want = observe(interp)
    last = interp
    for engine in ENGINES:
        last = program.simulate(list(args), engine=engine, **kwargs)
        assert observe(last) == want, f"{engine} diverged from interp"
    return interp, last


class TestEngineSelection:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert resolve_engine(None) == "compiled"

    def test_env_var_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interp")
        assert resolve_engine(None) == "interp"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interp")
        assert resolve_engine("compiled") == "compiled"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            resolve_engine("jit")
        assert set(SIM_ENGINES) == {"compiled", "codegen", "interp"}

    def test_simulate_rejects_invalid_engine(self):
        program = compile_minic("int f(int a) { return a; }", "f",
                                opt_level="none")
        with pytest.raises(ValueError, match="engine"):
            program.simulate([1], engine="jit")


class TestSection2Equivalence:
    @pytest.mark.parametrize("level", ["none", "medium", "full"])
    @pytest.mark.parametrize("use_p", [1, 0])
    def test_driver_matches_interpreter(self, level, use_p):
        program = compile_minic(SECTION2_DRIVER, "drive", opt_level=level)
        assert_equivalent(program, [3, use_p])

    def test_realistic_memory_matches(self):
        program = compile_minic(SECTION2_DRIVER, "drive", opt_level="full")
        assert_equivalent(program, [3, 1],
                          memsys=REALISTIC_2PORT)


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("level", ["none", "full"])
    def test_kernel_matches_interpreter(self, name, level):
        kernel = get_kernel(name)
        program = compiled(name, level).program
        for config in SYSTEMS:
            interp, _ = assert_equivalent(program, kernel.args,
                                          memsys=config)
            kernel.check(interp.return_value)

    def test_with_probes_attached(self):
        # Probes force the engine off its fast path; the profile built
        # over the probe stream must match too (same event order).
        kernel = get_kernel("li")
        program = compiled("li", "full").program
        interp, engine = assert_equivalent(
            program, kernel.args, memsys=REALISTIC_2PORT,
            profile=True)
        assert dict(engine.profile.critical_path.by_category) \
            == dict(interp.profile.critical_path.by_category)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_under_fault_injection(self, seed):
        # Same plan seed => same perturbation draws => same trajectory,
        # on every engine (codegen delegates to the instrumented path).
        kernel = get_kernel("li")
        program = compiled("li", "full").program
        interp, engine = assert_equivalent(
            program, kernel.args, memsys=REALISTIC_2PORT,
            faults=SHAKE_EVERYTHING.with_seed(seed))
        assert engine.cycles == interp.cycles

    @pytest.mark.parametrize("name", KERNELS)
    def test_fault_trajectories_all_kernels(self, name):
        # One seed across the whole kernel set: seeded fault draws are a
        # function of the plan, so every executor walks one trajectory.
        kernel = get_kernel(name)
        program = compiled(name, "full").program
        assert_equivalent(program, kernel.args, memsys=REALISTIC_2PORT,
                          faults=SHAKE_EVERYTHING.with_seed(7))


class TestErrorParity:
    @pytest.mark.parametrize("executor", [CompiledEngine, CodegenEngine])
    @pytest.mark.parametrize("fixture", [starved_chain_graph,
                                         cyclic_wait_graph])
    def test_deadlock_reports_match(self, fixture, executor):
        graph, _ = fixture()
        with pytest.raises(DeadlockError) as interp_info:
            DataflowSimulator(graph).run([])
        with pytest.raises(DeadlockError) as engine_info:
            executor(graph).run([])
        interp_report = interp_info.value.report
        engine_report = engine_info.value.report
        assert engine_info.value.cycle == interp_info.value.cycle
        assert engine_report.graph_name == interp_report.graph_name
        assert [(entry.node_id, [m.slot for m in entry.missing])
                for entry in engine_report.blocked] \
            == [(entry.node_id, [m.slot for m in entry.missing])
                for entry in interp_report.blocked]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_event_limit_overrun_matches(self, engine):
        kernel = get_kernel("li")
        program = compiled("li", "full").program

        def overrun(engine):
            with pytest.raises(EventLimitError) as info:
                program.simulate(list(kernel.args), event_limit=500,
                                 engine=engine)
            return info.value

        interp, got = overrun("interp"), overrun(engine)
        assert got.cycle == interp.cycle
        assert got.event_limit == interp.event_limit
        assert got.hot_nodes == interp.hot_nodes

    def test_engine_accepts_prebuilt_plan(self):
        graph, _ = starved_chain_graph()
        plan = plan_for(graph)
        assert plan_for(graph) is plan  # cached per graph version
        with pytest.raises(DeadlockError):
            CompiledEngine(plan).run([])


class TestDeterminism:
    """Same program, same seed/config, run twice: bit-identical."""

    DETERMINISM_FIELDS = ("return_value", "cycles", "fire_counts",
                          "memory_stats")

    def _twice(self, program, args, engine, **kwargs):
        runs = [program.simulate(list(args), engine=engine, **kwargs)
                for _ in range(2)]
        first, second = ({field: getattr(run, field)
                          for field in self.DETERMINISM_FIELDS}
                         for run in runs)
        assert second == first, f"{engine} run is not deterministic"
        return runs[0]

    @pytest.mark.parametrize("engine", SIM_ENGINES)
    def test_section2_driver(self, engine):
        program = compile_minic(SECTION2_DRIVER, "drive", opt_level="full")
        self._twice(program, [3, 1], engine)

    @pytest.mark.parametrize("engine", SIM_ENGINES)
    @pytest.mark.parametrize("name", KERNELS)
    def test_fig19_kernels(self, engine, name):
        kernel = get_kernel(name)
        program = compiled(name, "full").program
        run = self._twice(program, kernel.args, engine,
                          memsys=REALISTIC_2PORT)
        kernel.check(run.return_value)

    @pytest.mark.parametrize("engine", SIM_ENGINES)
    def test_seeded_faults_are_reproducible(self, engine):
        kernel = get_kernel("li")
        program = compiled("li", "full").program
        self._twice(program, kernel.args, engine,
                    faults=SHAKE_EVERYTHING.with_seed(7))


SMALL_SOURCE = """
int acc[16];
int small(int n)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { acc[i] = i + 3; s = s + acc[i]; }
    return s;
}
"""


class TestCodegenLifecycle:
    """Generated-module caching, invalidation, and the fallback rule."""

    def test_module_cached_per_plan(self):
        program = compile_minic(SMALL_SOURCE, "small", opt_level="none")
        plan = program.sim_plan()
        before = codegen_mod.GENERATION_COUNT
        first = program.simulate([4], engine="codegen")
        assert codegen_mod.GENERATION_COUNT == before + 1
        second = program.simulate([4], engine="codegen")
        # Same plan, same module: no re-generation.
        assert codegen_mod.GENERATION_COUNT == before + 1
        assert program.sim_plan() is plan
        assert observe(second) == observe(first)

    def test_version_bump_regenerates(self):
        program = compile_minic(SMALL_SOURCE, "small", opt_level="none")
        graph = program.graph
        reference = program.simulate([4], engine="codegen")
        stale = program.sim_plan()
        count = codegen_mod.GENERATION_COUNT
        # A pass mutating the graph behind the cache's back bumps the
        # structural version; the stale plan (and the generated module
        # hanging off it) must be invalidated and rebuilt.
        graph.version += 1
        fresh_plan = program.sim_plan()
        assert fresh_plan is not stale
        rerun = program.simulate([4], engine="codegen")
        assert codegen_mod.GENERATION_COUNT == count + 1
        assert observe(rerun) == observe(reference)

    def test_generated_source_is_inspectable(self):
        program = compile_minic(SMALL_SOURCE, "small", opt_level="none")
        source = codegen_mod.source_for(program.graph)
        assert "def make_runner" in source
        assert "def run_one" in source

    def test_probe_and_fault_construction_fall_back(self):
        # With instrumentation attached, constructing a CodegenEngine
        # yields the CompiledEngine heap path — transparent delegation,
        # not a reimplementation of the probe/injector contract.
        program = compile_minic(SMALL_SOURCE, "small", opt_level="none")
        assert type(CodegenEngine(program.graph)) is CodegenEngine
        faulted = CodegenEngine(program.graph,
                                faults=SHAKE_EVERYTHING.with_seed(3))
        assert type(faulted) is CompiledEngine
        from repro.observe import ProbeBus
        probed = CodegenEngine(program.graph, probes=ProbeBus())
        assert type(probed) is CompiledEngine

    def test_probe_fallback_profile_parity(self):
        kernel = get_kernel("li")
        program = compiled("li", "full").program
        interp, engine = run_both(program, kernel.args, engine="codegen",
                                  memsys=REALISTIC_2PORT, profile=True)
        assert observe(engine) == observe(interp)
        assert dict(engine.profile.critical_path.by_category) \
            == dict(interp.profile.critical_path.by_category)


class TestPlanCacheLifecycle:
    """The bounded plan cache: hits, eviction, and codegen coupling."""

    def _programs(self, count):
        return [compile_minic(
            SMALL_SOURCE.replace("i + 3", f"i + {10 + index}"), "small",
            opt_level="none") for index in range(count)]

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "PLAN_CACHE_LIMIT", 2)
        plan_mod.clear_plan_cache()
        programs = self._programs(3)
        plans = [plan_for(program.graph) for program in programs]
        entries, limit = plan_mod.plan_cache_info()
        assert (entries, limit) == (2, 2)
        # Oldest evicted: a fresh plan (and generated module) next time.
        assert plan_for(programs[0].graph) is not plans[0]
        # Newest survived.
        assert plan_for(programs[2].graph) is plans[2]

    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "PLAN_CACHE_LIMIT", 2)
        plan_mod.clear_plan_cache()
        programs = self._programs(3)
        plans = [plan_for(program.graph) for program in programs[:2]]
        assert plan_for(programs[0].graph) is plans[0]  # refresh #0
        plan_for(programs[2].graph)                     # evicts #1, not #0
        assert plan_for(programs[0].graph) is plans[0]
        assert plan_for(programs[1].graph) is not plans[1]

    def test_eviction_releases_generated_module(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "PLAN_CACHE_LIMIT", 1)
        plan_mod.clear_plan_cache()
        import weakref
        programs = self._programs(2)
        programs[0].simulate([4], engine="codegen")
        module = weakref.ref(
            codegen_mod.generated_for(plan_for(programs[0].graph)))
        assert module() is not None
        programs[1].simulate([4], engine="codegen")  # evicts program 0
        import gc
        gc.collect()
        assert module() is None, \
            "evicted plan kept its generated module alive"

    def test_concurrent_eviction_is_safe(self, monkeypatch):
        """Sim threads of one process share the cache. With room for a
        single plan, threads on two graphs keep evicting each other's
        plan; a lookup, its LRU bump and an eviction must not interleave
        (a hit evicted before its bump used to raise KeyError)."""
        import sys
        from concurrent.futures import ThreadPoolExecutor
        monkeypatch.setattr(plan_mod, "PLAN_CACHE_LIMIT", 1)
        plan_mod.clear_plan_cache()
        programs = self._programs(2)
        expected = [program.run_sequential([5]).return_value
                    for program in programs]

        def worker(index):
            program = programs[index % 2]
            values = []
            for step in range(20000):
                plan_for(program.graph)
                if step % 4000 == 0:
                    values.append(program.simulate([5]).return_value)
            return values

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(worker, range(8)))
        finally:
            sys.setswitchinterval(previous)
        for index, values in enumerate(outcomes):
            assert values == [expected[index % 2]] * 5


class TestBatchedExecution:
    """simulate_batch vs a serial loop: same results, any engine."""

    @pytest.mark.parametrize("engine", SIM_ENGINES)
    def test_batch_matches_serial(self, engine):
        program = compile_minic(SMALL_SOURCE, "small", opt_level="none")
        arg_sets = [[n] for n in (0, 3, 7, 11)]
        batch = program.simulate_batch(
            arg_sets, memsys=REALISTIC_2PORT, engine=engine)
        for args, got in zip(arg_sets, batch):
            want = program.simulate(list(args), memsys=REALISTIC_2PORT,
                                    engine=engine)
            assert observe(got) == observe(want)

    def test_batch_mixed_fault_contexts(self):
        program = compiled("li", "full").program
        kernel = get_kernel("li")
        plans = [None, SHAKE_EVERYTHING.with_seed(7), None]
        batch = program.simulate_batch(
            [list(kernel.args)] * 3, memsys=REALISTIC_2PORT, faults=plans)
        for plan, got in zip(plans, batch):
            want = program.simulate(list(kernel.args),
                                    memsys=REALISTIC_2PORT, faults=plan,
                                    engine="codegen")
            assert observe(got) == observe(want)

    def test_batch_returns_exceptions_when_asked(self):
        program = compile_minic(SMALL_SOURCE, "small", opt_level="none")
        batch = program.simulate_batch([[3], [5]], event_limit=2,
                                       return_exceptions=True)
        assert all(isinstance(item, EventLimitError) for item in batch)
        with pytest.raises(EventLimitError):
            program.simulate_batch([[3]], event_limit=2)

    def test_batch_rejects_shared_memsys_object(self):
        from repro.sim.memsys import MemorySystem
        program = compile_minic(SMALL_SOURCE, "small", opt_level="none")
        with pytest.raises(TypeError, match="MemoryConfig"):
            program.simulate_batch([[1]],
                                   memsys=MemorySystem(PERFECT_MEMORY))
