"""Tests for the event-driven CMP engine."""

import numpy as np
import pytest

from repro.cache.batch import BatchLane, replay_batch
from repro.cache.fastpath import FastPartitionedSharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.shared import PartitionedSharedCache
from repro.cpu.engine import CMPEngine
from repro.cpu.streams import CompiledProgram, L2Stream
from repro.cpu.timing import TimingModel
from repro.obs.metrics import METRICS
from repro.partition.cpi import CPIProportionalPolicy
from repro.partition.static import StaticEqualPolicy
from repro.core.runtime import RuntimeSystem


def stream(addrs, d_instr=None, d_cycles=None, tail_i=0, tail_c=0.0, timing=None):
    timing = timing or TimingModel()
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    d_instr = np.asarray(d_instr if d_instr is not None else [10] * n, dtype=np.int64)
    d_cycles = np.asarray(d_cycles if d_cycles is not None else [10.0] * n, dtype=np.float64)
    return L2Stream(
        addresses=addrs,
        d_instructions=d_instr,
        d_cycles=d_cycles,
        miss_cycles=np.full(n, timing.mem_cycles),
        tail_instructions=tail_i,
        tail_cycles=tail_c,
        total_instructions=int(d_instr.sum()) + tail_i,
        l1_accesses=n,
        l1_hits=0,
    )


def compiled_of(sections, name="test"):
    return CompiledProgram(
        name=name, n_threads=len(sections[0]), sections=tuple(tuple(s) for s in sections),
        meta={},
    )


@pytest.fixture
def geo():
    return CacheGeometry(sets=4, ways=4, line_bytes=64)


@pytest.fixture
def timing():
    return TimingModel()


class TestBasicExecution:
    def test_single_thread_cycle_accounting(self, geo, timing):
        # Two accesses to different lines: both L2 misses.
        c = compiled_of([[stream([0, 64])]])
        l2 = PartitionedSharedCache(geo, 1, enforce_partition=False)
        r = CMPEngine(c, l2, timing, None, interval_instructions=1000).run()
        expected = 2 * 10.0 + 2 * timing.mem_cycles
        assert r.total_cycles == pytest.approx(expected)
        assert r.thread_instructions == (20,)

    def test_l2_hit_costs_less(self, geo, timing):
        c = compiled_of([[stream([0, 0])]])  # second access hits in L2
        l2 = PartitionedSharedCache(geo, 1, enforce_partition=False)
        r = CMPEngine(c, l2, timing, None, interval_instructions=1000).run()
        expected = 2 * 10.0 + timing.mem_cycles + timing.l2_hit_cycles
        assert r.total_cycles == pytest.approx(expected)

    def test_tail_work_accounted(self, geo, timing):
        c = compiled_of([[stream([0], tail_i=50, tail_c=70.0)]])
        l2 = PartitionedSharedCache(geo, 1, enforce_partition=False)
        r = CMPEngine(c, l2, timing, None, interval_instructions=10_000).run()
        assert r.thread_instructions == (60,)
        assert r.total_cycles == pytest.approx(10.0 + timing.mem_cycles + 70.0)

    def test_barrier_synchronises_to_slowest(self, geo, timing):
        # Thread 0: cheap; thread 1: expensive.
        fast = stream([0], d_cycles=[5.0])
        slow = stream([64], d_cycles=[500.0])
        c = compiled_of([[fast, slow]])
        l2 = PartitionedSharedCache(geo, 2)
        r = CMPEngine(c, l2, timing, None, interval_instructions=10_000).run()
        assert r.total_cycles == pytest.approx(500.0 + timing.mem_cycles)
        # Fast thread stalls for the difference.
        assert r.thread_stall_cycles[0] == pytest.approx(495.0)
        assert r.thread_stall_cycles[1] == 0.0
        assert r.barriers.critical_thread_histogram() == [0, 1]

    def test_sections_resume_synchronised(self, geo, timing):
        s1 = [stream([0], d_cycles=[5.0]), stream([64], d_cycles=[100.0])]
        s2 = [stream([128], d_cycles=[5.0]), stream([192], d_cycles=[5.0])]
        c = compiled_of([s1, s2])
        l2 = PartitionedSharedCache(geo, 2)
        r = CMPEngine(c, l2, timing, None, interval_instructions=10_000).run()
        # After the first barrier both threads restart at the same cycle.
        assert len(r.barriers.events) == 2

    def test_interleaving_by_clock(self, geo, timing):
        """The slower thread's accesses interleave after the faster one's."""
        order = []

        class SpyCache(PartitionedSharedCache):
            def access(self, thread, addr):
                order.append(thread)
                return super().access(thread, addr)

        fast = stream([0, 64, 128], d_cycles=[1.0, 1.0, 1.0])
        slow = stream([256, 320, 384], d_cycles=[1000.0, 1000.0, 1000.0])
        c = compiled_of([[fast, slow]])
        l2 = SpyCache(geo, 2)
        CMPEngine(c, l2, timing, None, interval_instructions=10_000).run()
        # Thread 0 should finish all its accesses before thread 1's second.
        assert order.index(1) < len(order)
        assert order.count(0) == 3
        first_t1 = order.index(1)
        assert order[first_t1 + 1 :].count(0) >= 2  # t0 continues while t1 crawls

    def test_thread_count_mismatch_rejected(self, geo, timing):
        c = compiled_of([[stream([0])]])
        l2 = PartitionedSharedCache(geo, 2)
        with pytest.raises(ValueError):
            CMPEngine(c, l2, timing, None)

    def test_invalid_interval_rejected(self, geo, timing):
        c = compiled_of([[stream([0])]])
        l2 = PartitionedSharedCache(geo, 1, enforce_partition=False)
        with pytest.raises(ValueError):
            CMPEngine(c, l2, timing, None, interval_instructions=0)


def replay(kernel, compiled, geo, timing, runtime=None, *, interval_instructions,
           enforce_partition=True):
    """Replay ``compiled`` on one L2 kernel, the way each backend's driver
    does: ``reference``/``fast`` through :class:`CMPEngine`, ``batch`` and
    ``batch-pure`` as a 1-lane :func:`replay_batch`."""
    targets = runtime.initial_targets() if runtime is not None else None
    if kernel.startswith("batch"):
        lane = BatchLane(
            geometry=geo, enforce_partition=enforce_partition, targets=targets, runtime=runtime
        )
        (result,) = replay_batch(
            compiled, [lane], timing, interval_instructions=interval_instructions
        )
        return result
    cache = PartitionedSharedCache if kernel == "reference" else FastPartitionedSharedCache
    l2 = cache(geo, compiled.n_threads, enforce_partition=enforce_partition, targets=targets)
    return CMPEngine(
        compiled, l2, timing, runtime, interval_instructions=interval_instructions
    ).run()


class _AlwaysRepartition:
    """A runtime that reinstalls an equal 2-way split at every interval."""

    name = "always"

    def initial_targets(self):
        return [2, 2]

    def on_interval(self, obs):
        return [2, 2]


class TestIntervalsAndRuntime:
    """The interval protocol's edge cases, on the reference loop; the
    subclasses below pin the same cases on every other L2 kernel."""

    kernel = "reference"

    @pytest.fixture(autouse=True)
    def _kernel(self, monkeypatch):
        if self.kernel == "batch-pure":
            # No compiled lane kernel: the batch's pure-Python fallback.
            monkeypatch.setattr("repro.cache.batch.load_kernel", lambda: None)
        yield
        if self.kernel == "batch-pure":
            assert METRICS.counter("batch.fallback_pure").value > 0

    def run(self, compiled, geo, timing, runtime=None, **kwargs):
        return replay(self.kernel, compiled, geo, timing, runtime, **kwargs)

    def test_intervals_fire_on_instruction_boundaries(self, geo, timing):
        # 10 accesses x 10 instructions = 100 instructions; tick every
        # 20 instr x 1 thread -> 5 intervals.
        c = compiled_of([[stream(np.arange(10) * 64)]])
        r = self.run(c, geo, timing, interval_instructions=20, enforce_partition=False)
        assert len(r.intervals) == 5
        for rec in r.intervals:
            assert sum(rec.observation.instructions) == 20

    def test_final_partial_interval_flushed(self, geo, timing):
        c = compiled_of([[stream(np.arange(5) * 64)]])  # 50 instructions
        r = self.run(c, geo, timing, interval_instructions=40, enforce_partition=False)
        assert len(r.intervals) == 2
        assert sum(sum(rec.observation.instructions) for rec in r.intervals) == 50

    def test_runtime_decides_and_engine_applies(self, geo, timing):
        streams = [stream(np.arange(20) * 64), stream(np.arange(20) * 64 + 4096)]
        c = compiled_of([streams])
        policy = CPIProportionalPolicy(2, geo.ways)
        runtime = RuntimeSystem(policy)
        r = self.run(c, geo, timing, runtime, interval_instructions=50)
        assert runtime.invocations >= 1
        assert all(
            rec.new_targets is None or sum(rec.new_targets) == geo.ways
            for rec in r.intervals
        )
        assert r.policy == "cpi-proportional"

    def test_static_policy_never_changes_targets(self, geo, timing):
        streams = [stream(np.arange(10) * 64), stream(np.arange(10) * 64 + 4096)]
        c = compiled_of([streams])
        runtime = RuntimeSystem(StaticEqualPolicy(2, geo.ways))
        r = self.run(c, geo, timing, runtime, interval_instructions=40)
        assert all(rec.new_targets is None for rec in r.intervals)
        assert all(rec.observation.targets == (2, 2) for rec in r.intervals)

    def test_partition_overhead_charged(self, geo):
        timing = TimingModel(partition_overhead_cycles=1000.0)
        streams = [stream(np.arange(10) * 64), stream(np.arange(10) * 64 + 4096)]
        runtime = RuntimeSystem(CPIProportionalPolicy(2, geo.ways))
        r1 = self.run(compiled_of([streams]), geo, timing, runtime, interval_instructions=50)
        # Same program without a runtime: cheaper by >= one overhead.
        r2 = self.run(compiled_of([streams]), geo, timing, interval_instructions=50)
        assert r1.total_cycles >= r2.total_cycles + 1000.0

    def test_overhead_charged_to_running_threads_only(self, geo):
        # Thread 0 retires after one access and waits at the barrier
        # when the first tick fires; the final flush charges nobody.
        timing = TimingModel(partition_overhead_cycles=1000.0)
        c = compiled_of([[stream([0]), stream(np.arange(10) * 64 + 4096)]])
        r = self.run(c, geo, timing, _AlwaysRepartition(), interval_instructions=30)
        assert [rec.new_targets for rec in r.intervals] == [(2, 2), (2, 2)]
        access = 10.0 + timing.mem_cycles
        assert r.thread_busy_cycles == (access, 10 * access + 1000.0)

    def test_busy_cpi_excludes_stall(self, geo, timing):
        fast = stream([0], d_instr=[100], d_cycles=[10.0])
        slow = stream([64], d_instr=[100], d_cycles=[5000.0])
        c = compiled_of([[fast, slow]])
        r = self.run(c, geo, timing, interval_instructions=100)
        # Thread 0 busy CPI must reflect only its own 10 + mem cycles,
        # not the barrier wait.
        cpi0 = r.thread_cpi(0)
        assert cpi0 == pytest.approx((10.0 + timing.mem_cycles) / 100)

    def test_l1_totals_propagated(self, geo, timing):
        c = compiled_of([[stream([0, 64])]])
        r = self.run(c, geo, timing, interval_instructions=1000, enforce_partition=False)
        assert r.thread_l1_accesses == (2,)
        assert r.thread_l1_hits == (0,)


class TestIntervalsAndRuntimeFast(TestIntervalsAndRuntime):
    kernel = "fast"


class TestIntervalsAndRuntimeBatch(TestIntervalsAndRuntime):
    kernel = "batch"


class TestIntervalsAndRuntimeBatchPure(TestIntervalsAndRuntime):
    kernel = "batch-pure"
