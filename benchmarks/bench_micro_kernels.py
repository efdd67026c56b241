"""Micro-benchmarks of the simulator's hot kernels.

These are genuine pytest-benchmark measurements (multiple rounds) of the
three loops that dominate simulation cost: the shared-cache access path,
the batch L1 filter (compiled, and its pure-Python fallback), and the
event-driven engine.  Useful for tracking performance regressions in the
substrate itself.
"""

import numpy as np
import pytest

from repro.cache import batchkernel
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import simulate_l1_filter
from repro.cache.shared import PartitionedSharedCache
from repro.sim.config import SystemConfig
from repro.sim.driver import prepare_program, run_application


@pytest.fixture(scope="module")
def addresses():
    rng = np.random.default_rng(3)
    return rng.integers(0, 1 << 22, size=20_000, dtype=np.int64)


def test_micro_shared_cache_access(benchmark, addresses):
    geo = CacheGeometry(sets=32, ways=32)
    cache = PartitionedSharedCache(geo, 4)
    addr_list = addresses.tolist()

    def hammer():
        access = cache.access
        for i, a in enumerate(addr_list):
            access(i & 3, a)

    benchmark(hammer)
    assert sum(cache.stats.accesses) > 0


def test_micro_l1_filter(benchmark, addresses):
    geo = CacheGeometry(sets=32, ways=4)
    result = benchmark(simulate_l1_filter, addresses, geo)
    assert result.size == addresses.size


def test_micro_l1_filter_pure(benchmark, addresses, monkeypatch):
    # The no-compiler fallback, kept next to the compiled row above so the
    # compiled-vs-fallback ratio stays visible.
    monkeypatch.setattr(batchkernel, "load_l1_filter", lambda: None)
    geo = CacheGeometry(sets=32, ways=4)
    result = benchmark(simulate_l1_filter, addresses, geo)
    assert result.size == addresses.size


def test_micro_engine_end_to_end(benchmark):
    cfg = SystemConfig.quick()
    prepare_program("cg", cfg)  # warm the program cache; measure the engine

    result = benchmark.pedantic(
        run_application, args=("cg", "model-based", cfg), rounds=3, iterations=1
    )
    assert result.total_cycles > 0
