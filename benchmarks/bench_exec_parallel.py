"""Benchmarks of the execution layer: engine fan-out and store reuse.

Measures the same batch of simulations three ways — serial engine, process
pool, and warm result store — and asserts the invariants the layer
promises: identical results across engines, and a warm store that performs
zero simulations.
"""

import os

import pytest

from repro.exec import JobSpec, ProcessPoolEngine, ResultStore, SerialEngine
from repro.sim.config import SystemConfig

BATCH_APPS = ["swim", "cg", "ft", "mg"]
BATCH_POLICIES = ["shared", "model-based"]


@pytest.fixture(scope="module")
def exec_config() -> SystemConfig:
    # Small enough that engine overhead is visible next to simulation time.
    return SystemConfig.quick()


@pytest.fixture(scope="module")
def batch(exec_config) -> list[JobSpec]:
    return [
        JobSpec(app, policy, exec_config)
        for app in BATCH_APPS
        for policy in BATCH_POLICIES
    ]


def test_exec_serial_engine(run_once, batch):
    outcomes = run_once(SerialEngine().run, batch)
    assert all(o.ok for o in outcomes)


def test_exec_process_pool_engine(run_once, batch):
    jobs = min(4, os.cpu_count() or 1)
    outcomes = run_once(ProcessPoolEngine(jobs).run, batch)
    assert all(o.ok for o in outcomes)
    # engines must be interchangeable: same jobs, same results
    serial = SerialEngine().run(batch)
    for s, p in zip(serial, outcomes, strict=True):
        assert s.result == p.result


def test_exec_warm_store_lookup(run_once, batch, tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("exec-bench-store"))
    engine = SerialEngine()
    for spec, outcome in zip(batch, engine.run(batch), strict=True):
        store.put(spec, outcome.result)

    def warm_lookup():
        return [store.get(spec) for spec in batch]

    results = run_once(warm_lookup)
    assert all(r is not None for r in results)
    assert store.hits >= len(batch)
