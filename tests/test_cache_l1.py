"""Tests for the private L1 cache and the batch trace filter.

The batch filter has a compiled path (the ``l1_filter`` C routine) and a
pure-Python path (the reference loop, also the no-compiler fallback).
``TestBatchFilter`` runs on the compiled path and ``TestBatchFilterPure``
reruns every one of its tests on the Python path; the remaining tests pin
the two paths against each other directly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import batchkernel, l1
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import PrivateCache, simulate_l1_filter
from repro.cpu.streams import compile_program
from repro.obs.metrics import METRICS
from repro.prep import stream_bundle
from repro.sim.config import SystemConfig
from repro.trace.builder import build_program
from repro.trace.workloads import get_workload

from .conftest import line_address


@pytest.fixture
def geo():
    return CacheGeometry(sets=4, ways=2, line_bytes=64)


def _force_pure(monkeypatch):
    monkeypatch.setattr(batchkernel, "load_l1_filter", lambda: None)


def _reference_mask(addrs, geo):
    ref = PrivateCache(geo)
    return np.array([ref.access(int(a)) for a in addrs], dtype=bool)


class TestPrivateCache:
    def test_hit_after_miss(self, geo):
        c = PrivateCache(geo)
        assert c.access(100) is False
        assert c.access(100) is True

    def test_same_line_different_offsets_hit(self, geo):
        c = PrivateCache(geo)
        c.access(128)
        assert c.access(129) is True
        assert c.access(191) is True

    def test_lru_within_set(self, geo):
        c = PrivateCache(geo)
        a = [line_address(geo, 0, t) for t in range(3)]
        c.access(a[0])
        c.access(a[1])
        c.access(a[0])  # refresh 0
        c.access(a[2])  # evicts 1
        assert c.access(a[0]) is True
        assert c.access(a[1]) is False

    def test_stats_single_thread(self, geo):
        c = PrivateCache(geo)
        c.access(0)
        c.access(0)
        assert c.stats.accesses == [2]
        assert c.stats.hits == [1]


class TestBatchFilter:
    """Runs on the compiled filter; see TestBatchFilterPure."""

    @pytest.fixture(autouse=True)
    def _path(self, monkeypatch):
        if batchkernel.load_l1_filter() is None:
            pytest.skip("compiled L1 filter unavailable (no C compiler)")

    def test_matches_object_cache(self, geo, rng):
        addrs = rng.integers(0, 4096, size=2000, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert np.array_equal(mask, _reference_mask(addrs, geo))

    def test_empty_trace(self, geo):
        assert simulate_l1_filter(np.empty(0, dtype=np.int64), geo).size == 0

    def test_repeated_address_all_hits_after_first(self, geo):
        addrs = np.full(10, 512, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert not mask[0]
        assert mask[1:].all()

    def test_streaming_word_stride_hits_within_line(self, geo):
        # Sequential 8-byte words: 1 miss per 8 accesses (64 B lines).
        addrs = np.arange(0, 64 * 16, 8, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert int((~mask).sum()) == 16

    def test_streaming_line_stride_never_hits(self, geo):
        addrs = np.arange(0, 64 * 1000, 64, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert not mask.any()

    def test_2d_input_rejected(self, geo):
        with pytest.raises(ValueError):
            simulate_l1_filter(np.zeros((2, 2), dtype=np.int64), geo)

    def test_mask_is_bool(self, geo, rng):
        mask = simulate_l1_filter(rng.integers(0, 4096, size=100), geo)
        assert mask.dtype == bool

    # Both health checks are by design: the path fixture is set once per
    # test (not per example), and the subclass reruns this on the other path.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.differing_executors,
        ],
    )
    @given(
        sets=st.sampled_from([1, 2, 32, 64]),
        ways=st.sampled_from([1, 2, 4, 16]),
        dtype=st.sampled_from([np.int32, np.uint32, np.int64]),
        addr_list=st.lists(
            st.integers(min_value=0, max_value=2**20) | st.integers(min_value=0, max_value=4096),
            min_size=1,
            max_size=500,
        ),
    )
    def test_property_matches_reference(self, sets, ways, dtype, addr_list):
        geo = CacheGeometry(sets=sets, ways=ways, line_bytes=64)
        addrs = np.array(addr_list, dtype=dtype)
        mask = simulate_l1_filter(addrs, geo)
        assert np.array_equal(mask, _reference_mask(addrs, geo))


class TestBatchFilterPure(TestBatchFilter):
    """Every TestBatchFilter test again, on the pure-Python loop."""

    @pytest.fixture(autouse=True)
    def _path(self, monkeypatch):
        _force_pure(monkeypatch)


@pytest.mark.skipif(
    batchkernel.load_l1_filter() is None, reason="compiled L1 filter unavailable"
)
class TestCompiledMatchesPython:
    @settings(max_examples=60, deadline=None)
    @given(
        sets=st.sampled_from([1, 2, 4, 32, 64, 128]),
        ways=st.sampled_from([1, 2, 3, 4, 8, 16]),
        line_bytes=st.sampled_from([8, 64]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=3000),
        span=st.sampled_from([1 << 10, 1 << 14, 1 << 20, 1 << 40]),
    )
    def test_masks_byte_identical(self, sets, ways, line_bytes, seed, n, span):
        geo = CacheGeometry(sets=sets, ways=ways, line_bytes=line_bytes)
        addrs = np.random.default_rng(seed).integers(0, span, size=n, dtype=np.int64)
        compiled = simulate_l1_filter(addrs, geo)
        assert compiled.tobytes() == l1._filter_python(addrs, geo).tobytes()

    def test_compile_program_identical_on_both_paths(self, monkeypatch):
        cfg = SystemConfig.quick()
        program = build_program(
            get_workload("swim"),
            n_threads=cfg.n_threads,
            n_intervals=cfg.n_intervals,
            interval_instructions=cfg.interval_instructions,
            sections_per_interval=cfg.sections_per_interval,
            seed=cfg.seed,
            line_bytes=cfg.line_bytes,
        )
        compiled = compile_program(program, cfg.l1_geometry, cfg.timing)
        _force_pure(monkeypatch)
        pure = compile_program(program, cfg.l1_geometry, cfg.timing)

        assert compiled.meta == pure.meta
        for sec_c, sec_p in zip(compiled.sections, pure.sections, strict=True):
            for sc, sp in zip(sec_c, sec_p, strict=True):
                for name in ("addresses", "d_instructions", "d_cycles", "miss_cycles"):
                    a, b = getattr(sc, name), getattr(sp, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                for name in ("tail_instructions", "tail_cycles", "total_instructions",
                             "l1_accesses", "l1_hits"):
                    assert getattr(sc, name) == getattr(sp, name), name

        off = cfg.l2_geometry.offset_bits
        arrays_c, meta_c = stream_bundle(compiled, cfg.timing, off)
        arrays_p, meta_p = stream_bundle(pure, cfg.timing, off)
        assert meta_c == meta_p
        assert arrays_c.keys() == arrays_p.keys()
        for name in arrays_c:
            assert arrays_c[name].dtype == arrays_p[name].dtype, name
            assert arrays_c[name].tobytes() == arrays_p[name].tobytes(), name


class TestInputSafety:
    def test_uint64_above_int64_range_takes_python_path(self, geo):
        # Python ints never wrap: 2**63 + 64 keeps its own tag.  An int64
        # cast would wrap it negative and change the mask.
        big = 2**63 + 64
        addrs = np.array([big, 64, big, 64 + (1 << 63)], dtype=np.uint64)
        assert l1._as_int64_exact(addrs) is None
        mask = simulate_l1_filter(addrs, geo)
        assert np.array_equal(mask, _reference_mask([int(a) for a in addrs], geo))
        assert METRICS.counter("l1.fallback_pure").value == 0

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint32, np.uint64, np.int64])
    def test_lossless_integer_dtypes_convert(self, dtype):
        addrs = np.array([0, 1, 100], dtype=dtype)
        exact = l1._as_int64_exact(addrs)
        assert exact is not None and exact.dtype == np.int64
        assert exact.tolist() == [0, 1, 100]

    def test_float_input_not_converted(self):
        assert l1._as_int64_exact(np.array([1.5, 2.0])) is None

    def test_strided_input_made_contiguous(self, geo, rng):
        addrs = rng.integers(0, 4096, size=400, dtype=np.int64)[::2]
        mask = simulate_l1_filter(addrs, geo)
        assert np.array_equal(mask, _reference_mask(addrs, geo))


def test_when_no_compiler_then_masks_identical_and_fallback_counted(
    monkeypatch, tmp_path, rng
):
    """WHEN no C compiler is present (fresh kernel cache, no ``cc``)
    THEN the L1 filter falls back to the Python loop, its masks are
    identical to the compiled path's, ``l1.fallback_pure`` is > 0 and
    the verbose CLI line shows ``l1-fallback-pure=``."""
    from repro.__main__ import _batch_suffix

    geo = CacheGeometry(sets=32, ways=4)
    addrs = rng.integers(0, 1 << 16, size=5000, dtype=np.int64)
    expected = l1._filter_python(addrs, geo)

    monkeypatch.setattr(batchkernel, "_LOADED", [False, None, None])
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernel"))
    monkeypatch.setattr(batchkernel.shutil, "which", lambda name: None)

    mask = simulate_l1_filter(addrs, geo)
    assert batchkernel.load_kernel() is None
    assert mask.tobytes() == expected.tobytes()
    assert METRICS.counter("l1.fallback_pure").value > 0
    assert "l1-fallback-pure=1" in _batch_suffix()
