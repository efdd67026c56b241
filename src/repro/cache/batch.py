"""Batched multi-lane replay: the ``"batch"`` cache backend.

A sweep grid replays the *same* prepared program — same app, seed,
thread count, L1-filtered stream arrays — once per policy/L2-geometry
cell.  :func:`replay_batch` executes N such cells ("lanes") against one
:class:`~repro.cpu.streams.CompiledProgram`: the kernel reads the
program's flat stream arrays (:mod:`repro.cpu.streams`) in place — on a
warm run, the mmapped arrays of its :mod:`repro.prep` bundle, with no
copy — and does the line shift and the hit/miss cost adds itself.
Per-lane cache and CPU state lives in stacked struct-of-arrays
(``tags``/``owner``/``last``/``lru-stamp`` of shape ``[lanes, sets x
ways]``, plus the line→slot map and per-(set, owner) LRU lists the
kernel probes instead of scanning ways), and each lane's replay inner
loop runs in the compiled C routine of :mod:`repro.cache.batchkernel`.

Lanes execute sequentially, each to completion — a deliberate deviation
from per-access lane-vectorisation: NumPy's ~2.5 µs per-operator
dispatch on the ~20 operators a lane-parallel step needs was measured
to lose to the fused Python fastpath below ~48 lanes, while the C lane
kernel beats it by two orders of magnitude at any lane count (BENCH.md
v1.9.0 records both).  Batching still amortises what is shared — one
program prep, one stream layout, one state allocation — and
keeps the engine-facing contract the exec layer needs: one batch in,
one byte-identical :class:`~repro.core.records.RunResult` per lane out,
in lane order.

Equivalence contract
--------------------
Identical to the fastpath's: every lane result is **byte-identical** to
a solo reference-backend run of that cell — same IEEE-754 operations on
the same operands in the same order (the C routine transcribes the
reference loop; all cycle quantities are integer-valued doubles, so
busy cycles derive exactly as ``clock - stall``), same statistics, same
interval records.  ``tests/test_cache_differential.py`` and the
hypothesis lane-equivalence property enforce it.

When no C compiler is available the batch degrades gracefully: each
lane replays through the pure-Python fastpath kernel instead (still
sharing the prepared program), counted by ``batch.fallback_pure``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from repro.cache.batchkernel import RC_TICK, load_kernel
from repro.cache.geometry import CacheGeometry
from repro.cache.shared import equal_targets, partition_distance, validate_targets
from repro.cache.stats import CacheStats
from repro.core.interval import IntervalProtocol
from repro.core.records import RunResult
from repro.cpu.streams import CompiledProgram, flat_arrays
from repro.obs.metrics import METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sync.barrier import BarrierLog

__all__ = ["BatchLane", "replay_batch"]

# ctrl-array slots; must match the #defines in batchkernel.KERNEL_SOURCE.
_C_CLK, _C_TOT, _C_NEXT_TICK, _C_SEC, _C_ACTIVE = range(5)

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_F64 = ctypes.POINTER(ctypes.c_double)


@dataclass
class BatchLane:
    """One cell of a batch: an L2 configuration plus its runtime.

    ``runtime`` is consulted at every interval boundary through the same
    :class:`~repro.core.interval.IntervalProtocol` a solo
    :class:`~repro.cpu.engine.CMPEngine` run uses (``None`` disables
    repartitioning; interval records are still produced).  ``targets``
    is the initial way assignment; it must sum to ``geometry.ways``.
    """

    geometry: CacheGeometry
    enforce_partition: bool = True
    targets: list[int] | None = None
    runtime: object | None = None
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)


def _map_bits(geometry: CacheGeometry) -> int:
    """log2 of a lane's line->slot map size: the least power of two
    holding 16 x sets x ways buckets.  Most probes are for lines not in
    the cache, and a sparse table answers them from an empty home
    bucket: on a 2-core x86-64 host, 16x ran the 8-thread kernel about
    19% faster than 4x, and 32x or 64x no faster (BENCH.md)."""
    return (16 * geometry.sets * geometry.ways - 1).bit_length()


class _BatchState:
    """Stacked per-lane state: one row per lane, sized for the largest
    lane geometry (lanes may differ in L2 sets x ways)."""

    def __init__(self, lanes: list[BatchLane], n: int, n_sections: int) -> None:
        L = len(lanes)
        max_slots = max(lane.geometry.sets * lane.geometry.ways for lane in lanes)
        max_counts = max(lane.geometry.sets for lane in lanes) * n
        max_map = max(1 << _map_bits(lane.geometry) for lane in lanes)
        self.tags = np.full((L, max_slots), -1, dtype=np.int64)
        self.owner = np.full((L, max_slots), -1, dtype=np.int32)
        self.last = np.full((L, max_slots), -1, dtype=np.int32)
        self.stamp = np.zeros((L, max_slots), dtype=np.int64)
        self.filled = np.zeros((L, max(lane.geometry.sets for lane in lanes)), dtype=np.int32)
        self.count = np.zeros((L, max_counts), dtype=np.int64)
        # line -> slot (or -1); per-(set, owner) LRU lists over the slots.
        self.slot_map = np.full((L, max_map), -1, dtype=np.int32)
        self.lru_prev = np.full((L, max_slots), -1, dtype=np.int32)
        self.lru_next = np.full((L, max_slots), -1, dtype=np.int32)
        self.lru_head = np.full((L, max_counts), -1, dtype=np.int32)
        self.lru_tail = np.full((L, max_counts), -1, dtype=np.int32)
        self.targets = np.zeros((L, n), dtype=np.int64)
        self.miss = np.zeros((L, n), dtype=np.int64)
        self.evict = np.zeros((L, n), dtype=np.int64)
        self.ith = np.zeros((L, n), dtype=np.int64)
        self.ite = np.zeros((L, n), dtype=np.int64)
        self.inh = np.zeros((L, n), dtype=np.int64)
        self.clock = np.zeros((L, n), dtype=np.float64)
        self.stall = np.zeros((L, n), dtype=np.float64)
        self.instr = np.zeros((L, n), dtype=np.int64)
        self.cursor = np.zeros((L, n), dtype=np.int64)
        self.done = np.zeros((L, n), dtype=np.int32)
        self.arrivals = np.zeros((L, n_sections * n), dtype=np.float64)
        self.ctrl = np.zeros((L, 5), dtype=np.int64)


def _ptr(row: np.ndarray, ctype):
    return row.ctypes.data_as(ctype)


class _LaneL2:
    """One lane's L2 behind the cache interface the interval protocol
    drives: statistics synced from the kernel's counter rows, targets
    mirrored into its target row, occupancy read from its count row."""

    def __init__(self, state: _BatchState, li: int, lane: BatchLane, n: int) -> None:
        geo = lane.geometry
        if lane.enforce_partition and geo.ways < n:
            raise ValueError(
                f"cannot partition {geo.ways} ways among {n} threads with at least one way each"
            )
        self.enforce_partition = lane.enforce_partition
        self.stats = CacheStats(n)
        self._n, self._sets, self._ways = n, geo.sets, geo.ways
        self._state, self._li = state, li
        self.set_targets(lane.targets if lane.targets is not None else equal_targets(n, geo.ways))

    def set_targets(self, targets: list[int]) -> None:
        self.targets = validate_targets(targets, self._n, self._ways)
        self._state.targets[self._li, :] = self.targets

    def partition_distance(self) -> dict:
        counts = self._state.count[self._li, : self._sets * self._n].tolist()
        return partition_distance(counts, self.targets, self._sets)

    def sync_stats(self) -> None:
        """Materialise the kernel's counter rows into :attr:`stats`."""
        state, li, stats = self._state, self._li, self.stats
        miss, evict = state.miss[li], state.evict[li]
        ith, ite, inh = state.ith[li], state.ite[li], state.inh[li]
        for t in range(self._n):
            h = int(ith[t]) + int(inh[t])
            stats.hits[t] = h
            stats.misses[t] = int(miss[t])
            stats.accesses[t] = h + stats.misses[t]
            stats.evictions[t] = int(evict[t])
            stats.inter_thread_hits[t] = int(ith[t])
            stats.inter_thread_evictions[t] = int(ite[t])
            stats.intra_thread_hits[t] = int(inh[t])


def _replay_lane_compiled(
    kernel,
    streams: tuple,
    state: _BatchState,
    li: int,
    lane: BatchLane,
    compiled: CompiledProgram,
    timing,
    interval_instructions: int,
) -> RunResult:
    n = compiled.n_threads
    n_sections = len(compiled.sections)
    l2 = _LaneL2(state, li, lane, n)
    clock = state.clock[li]
    stall = state.stall[li]
    instr = state.instr[li]
    done = state.done[li]

    def charge(threads: list[int], cycles: float) -> None:
        # Busy cycles are derived as clock - stall, so the clock is all
        # there is to charge.
        for t in threads:
            clock[t] += cycles

    ticks = IntervalProtocol(
        compiled,
        l2,
        timing,
        lane.runtime,
        lane.tracer,
        interval_instructions=interval_instructions,
        counters=lambda: (instr.tolist(), (clock - stall).tolist()),
        charge=charge,
    )
    ctrl = state.ctrl[li]
    ctrl[_C_NEXT_TICK] = ticks.next_tick
    ctrl[_C_ACTIVE] = n

    args = (
        *streams,
        _ptr(state.tags[li], _P_I64), _ptr(state.owner[li], _P_I32),
        _ptr(state.last[li], _P_I32), _ptr(state.stamp[li], _P_I64),
        _ptr(state.filled[li], _P_I32), _ptr(state.count[li], _P_I64),
        _ptr(state.targets[li], _P_I64), _ptr(state.slot_map[li], _P_I32),
        _ptr(state.lru_prev[li], _P_I32), _ptr(state.lru_next[li], _P_I32),
        _ptr(state.lru_head[li], _P_I32), _ptr(state.lru_tail[li], _P_I32),
        _ptr(state.miss[li], _P_I64), _ptr(state.evict[li], _P_I64),
        _ptr(state.ith[li], _P_I64), _ptr(state.ite[li], _P_I64),
        _ptr(state.inh[li], _P_I64),
        _ptr(clock, _P_F64), _ptr(stall, _P_F64), _ptr(instr, _P_I64),
        _ptr(state.cursor[li], _P_I64), _ptr(done, _P_I32),
        _ptr(state.arrivals[li], _P_F64), _ptr(ctrl, _P_I64),
        n, n_sections, lane.geometry.ways, lane.geometry.sets - 1,
        64 - _map_bits(lane.geometry), int(lane.enforce_partition),
        lane.geometry.offset_bits, timing.l2_hit_cycles,
    )
    while kernel(*args) == RC_TICK:
        l2.sync_stats()
        ctrl[_C_NEXT_TICK] = ticks.tick([not d for d in done.tolist()])
    l2.sync_stats()
    ticks.finish(int(ctrl[_C_TOT]))

    barriers = BarrierLog(n)
    arrivals = state.arrivals[li].tolist()
    for si in range(n_sections):
        barriers.record(si, arrivals[si * n : si * n + n])
    return ticks.result(clock.tolist(), stall.tolist(), barriers)


def _replay_lane_fallback(
    compiled: CompiledProgram, lane: BatchLane, timing, interval_instructions: int
) -> RunResult:
    """Pure-Python lane replay (no C compiler): the fastpath kernel."""
    from repro.cache.fastpath import FastPartitionedSharedCache
    from repro.cpu.engine import CMPEngine

    l2 = FastPartitionedSharedCache(
        lane.geometry,
        # The compiled program fixes the thread count for every lane.
        compiled.n_threads,
        enforce_partition=lane.enforce_partition,
        targets=lane.targets,
    )
    engine = CMPEngine(
        compiled,
        l2,
        timing,
        lane.runtime,
        interval_instructions=interval_instructions,
        tracer=lane.tracer,
    )
    return engine.run()


def replay_batch(
    compiled: CompiledProgram,
    lanes: list[BatchLane],
    timing,
    *,
    interval_instructions: int,
) -> list[RunResult]:
    """Replay ``compiled`` under every lane; one RunResult per lane, in
    lane order, each byte-identical to a solo run of that cell.

    Lanes may differ in L2 geometry: the kernel shifts addresses by each
    lane's own line offset.  ``interval_instructions`` is shared: it
    shapes the program itself, so cells differing there can never share
    a prepared program in the first place.
    """
    if not lanes:
        return []
    METRICS.counter("batch.batches").inc()
    METRICS.counter("batch.lanes").inc(len(lanes))
    kernel = load_kernel()
    if kernel is None:
        METRICS.counter("batch.fallback_pure").inc(len(lanes))
        return [
            _replay_lane_fallback(compiled, lane, timing, interval_instructions)
            for lane in lanes
        ]
    n, n_sections = compiled.n_threads, len(compiled.sections)
    flat = compiled.flat if compiled.flat is not None else flat_arrays(compiled.sections)
    # bounds[k], bounds[k + 1]: where stream k = sec * n + t starts and ends.
    bounds = np.zeros(n_sections * n + 1, dtype=np.int64)
    np.cumsum(flat["lens"], out=bounds[1:])
    streams = (
        _ptr(flat["addresses"], _P_I64), _ptr(flat["d_cycles"], _P_F64),
        _ptr(flat["miss_cycles"], _P_F64), _ptr(flat["d_instructions"], _P_I64),
        _ptr(bounds, _P_I64), _ptr(bounds[1:], _P_I64),
        _ptr(flat["tail_cycles"], _P_F64), _ptr(flat["tail_instructions"], _P_I64),
    )
    state = _BatchState(lanes, n, n_sections)
    state.cursor[:] = bounds[:n]  # every thread starts on its section-0 stream
    return [
        _replay_lane_compiled(
            kernel, streams, state, li, lane, compiled, timing, interval_instructions
        )
        for li, lane in enumerate(lanes)
    ]
