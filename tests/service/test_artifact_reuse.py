"""In-process artifact reuse on the warm simulate path.

``jobs.simulate_row`` serves programs from a bounded LRU keyed by
``(cache_root, compile_key)``, so warm requests simulate the same graph
object and hit its cached plan instead of unpickling and re-planning.
Sim threads share those objects, so concurrent runs must still each
equal the sequential oracle.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import compile_minic
from repro.pipeline.cache import CompilationCache
from repro.pipeline.config import PipelineConfig
from repro.pipeline.driver import CompilerDriver
from repro.service import jobs
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.sim import plan as plan_mod

from tests.service.test_service import SOURCE, make_service


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    monkeypatch.setattr(jobs, "_ARTIFACTS", type(jobs._ARTIFACTS)())
    plan_mod.clear_plan_cache()
    yield
    plan_mod.clear_plan_cache()


@pytest.fixture
def plans_built(monkeypatch):
    """Counts SimPlan constructions in this process."""
    built = []

    class CountingPlan(plan_mod.SimPlan):
        def __init__(self, graph):
            built.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(plan_mod, "SimPlan", CountingPlan)
    return built


@pytest.fixture
def service(tmp_path):
    svc = make_service(tmp_path)
    yield svc
    svc.stop(drain=True)


def _variant(index: int) -> str:
    return SOURCE.replace("i * 2", f"i * {index + 2}")


def test_warm_simulates_build_one_plan(service, plans_built):
    client = ServiceClient(port=service.port, client_id="reuse")
    oracle = compile_minic(SOURCE, "kernel")
    for n in range(3, 9):
        outcome = client.simulate(SOURCE, "kernel", args=[n])
        assert outcome.value == oracle.run_sequential([n]).return_value
    assert service.stats.sims_executed == 6
    assert len(plans_built) == 1


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_concurrent_simulates_of_one_artifact(service, engine):
    oracle = compile_minic(SOURCE, "kernel")
    ServiceClient(port=service.port).compile(SOURCE, "kernel")

    def one(n):
        client = ServiceClient(port=service.port, client_id=f"c{n}")
        outcome = client.simulate(SOURCE, "kernel", args=[n], engine=engine)
        assert outcome.result["engine"] == engine
        return n, outcome.value

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(one, range(20, 28)))
    for n, value in outcomes:
        assert value == oracle.run_sequential([n]).return_value
    assert service.stats.sims_executed == 8
    assert len(jobs._ARTIFACTS) == 1


def _publish(root, sources) -> list[str]:
    cache = CompilationCache(root)
    driver = CompilerDriver(PipelineConfig(), cache=cache)
    keys = []
    for source in sources:
        driver.compile(source, "kernel")
        keys.append(cache.key(source, "kernel", PipelineConfig()))
    return keys


def test_artifact_lru_is_bounded_below_the_plan_cache(tmp_path,
                                                      monkeypatch):
    assert jobs.ARTIFACT_CACHE_LIMIT < plan_mod.PLAN_CACHE_LIMIT
    monkeypatch.setattr(jobs, "ARTIFACT_CACHE_LIMIT", 2)
    root = str(tmp_path / "cache")
    keys = _publish(root, [_variant(index) for index in range(3)])
    rows = [jobs.simulate_row(root, key, [5], "perfect", None, None)
            for key in keys]
    assert [row["return_value"] for row in rows] == [
        compile_minic(_variant(index), "kernel").run_sequential([5])
        .return_value for index in range(3)]
    assert list(jobs._ARTIFACTS) == [(root, keys[1]), (root, keys[2])]
    # A cached program is reused even once its file is gone; an evicted
    # one is looked up on disk again.
    CompilationCache(root).clear()
    jobs.simulate_row(root, keys[2], [5], "perfect", None, None)
    with pytest.raises(ServiceError, match="vanished"):
        jobs.simulate_row(root, keys[0], [5], "perfect", None, None)
