"""Event-driven CMP execution engine.

The engine replays compiled per-thread L2 streams against the shared L2,
interleaving threads by their simulated cycle clocks: at every step the
thread with the smallest clock issues its next L2 access, pays the L2-hit
or memory latency, and advances.  This gives timing *feedback* — a thread
slowed down by misses issues its subsequent accesses later, exactly the
coupling that makes inter-thread cache contention interesting.

Two pieces of program structure are enforced here:

* **Barriers** (paper §III-B): at the end of every parallel section all
  threads synchronise to the latest arrival; the waiting time of early
  threads is accounted as stall (slack) and excluded from busy CPI.

* **Execution intervals** (paper §VI): after every
  ``interval_instructions × n_threads`` aggregate instructions, the engine
  ticks its :class:`~repro.core.interval.IntervalProtocol`, which hands an
  :class:`~repro.core.records.IntervalObservation` to the runtime system,
  applies any new way targets to the cache and charges the configured
  runtime overhead to every running core.
"""

from __future__ import annotations

from repro.cache.fastpath import replay as _fastpath_replay
from repro.cache.shared import PartitionedSharedCache
from repro.core.interval import IntervalProtocol
from repro.core.records import RunResult
from repro.cpu.streams import CompiledProgram
from repro.cpu.timing import TimingModel
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sync.barrier import BarrierLog

__all__ = ["CMPEngine"]


class CMPEngine:
    """Replays one compiled program under one partitioning runtime.

    Parameters
    ----------
    compiled:
        The program, pre-filtered through the private L1s.
    l2:
        The shared cache (partition enforcement configured by the policy).
    timing:
        Latency model; the runtime overhead per reconfiguration comes from
        here as well.
    runtime:
        Object with ``on_interval(observation) -> list[int] | None``; a
        returned list becomes the new way targets.  ``None`` disables the
        runtime entirely (static policies still get interval records).
    interval_instructions:
        Interval length in instructions *per thread* (the aggregate tick is
        this value times the thread count), mirroring the paper's
        15 M-instruction intervals at our scale.
    tracer:
        Telemetry sink for per-interval ``convergence`` events (the
        runtime emits ``interval``/``repartition`` itself).  Defaults to
        the runtime's tracer, so wiring one through
        :func:`repro.sim.run_application` covers both.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        l2: PartitionedSharedCache,
        timing: TimingModel,
        runtime=None,
        *,
        interval_instructions: int = 12_000,
        tracer: Tracer | None = None,
    ) -> None:
        if l2.n_threads != compiled.n_threads:
            raise ValueError(
                f"cache is shared by {l2.n_threads} threads but program has {compiled.n_threads}"
            )
        if interval_instructions < 1:
            raise ValueError("interval_instructions must be >= 1")
        self.compiled = compiled
        self.l2 = l2
        self.timing = timing
        self.runtime = runtime
        self.interval_instructions = interval_instructions
        if tracer is None:
            tracer = getattr(runtime, "tracer", None)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(self) -> RunResult:
        """Replay the program; dispatches on the cache backend.

        A cache advertising ``supports_replay_kernel`` (the ``"fast"``
        backend) is driven by the fused struct-of-arrays kernel in
        :mod:`repro.cache.fastpath`; anything else gets the readable
        reference loop below.  Both produce byte-identical results —
        enforced by ``tests/test_cache_differential.py``.
        """
        if getattr(self.l2, "supports_replay_kernel", False):
            return _fastpath_replay(self)
        return self._run_reference()

    def interval_protocol(
        self, clock: list[float], busy: list[float], instr: list[int]
    ) -> IntervalProtocol:
        """This run's interval protocol over list-held per-thread counters
        (the reference loop and the fastpath replay keep them alike)."""

        def charge(threads: list[int], cycles: float) -> None:
            for t in threads:
                clock[t] += cycles
                busy[t] += cycles

        return IntervalProtocol(
            self.compiled,
            self.l2,
            self.timing,
            self.runtime,
            self.tracer,
            interval_instructions=self.interval_instructions,
            counters=lambda: (instr, busy),
            charge=charge,
        )

    def _run_reference(self) -> RunResult:
        n = self.compiled.n_threads
        l2_hit_cycles = self.timing.l2_hit_cycles
        access = self.l2.access

        clock = [0.0] * n
        busy = [0.0] * n
        instr = [0] * n
        stall = [0.0] * n
        barriers = BarrierLog(n)
        ticks = self.interval_protocol(clock, busy, instr)
        next_tick = ticks.next_tick
        total_instr = 0

        for section_index, section in enumerate(self.compiled.sections):
            addr_lists = [s.addresses.tolist() for s in section]
            di_lists = [s.d_instructions.tolist() for s in section]
            dc_lists = [s.d_cycles.tolist() for s in section]
            mc_lists = [s.miss_cycles.tolist() for s in section]
            lengths = [len(a) for a in addr_lists]
            cursors = [0] * n
            done = [False] * n
            arrivals = [0.0] * n
            active = n

            while active:
                # Pick the runnable thread with the smallest clock.
                t = -1
                best = None
                for k in range(n):
                    if not done[k]:
                        c = clock[k]
                        if best is None or c < best:
                            best = c
                            t = k
                i = cursors[t]
                if i >= lengths[t]:
                    s = section[t]
                    clock[t] += s.tail_cycles
                    busy[t] += s.tail_cycles
                    instr[t] += s.tail_instructions
                    total_instr += s.tail_instructions
                    arrivals[t] = clock[t]
                    done[t] = True
                    active -= 1
                    if total_instr >= next_tick:
                        next_tick = ticks.tick([not d for d in done])
                    continue
                lat = l2_hit_cycles if access(t, addr_lists[t][i]) else mc_lists[t][i]
                cost = dc_lists[t][i] + lat
                clock[t] += cost
                busy[t] += cost
                di = di_lists[t][i]
                instr[t] += di
                total_instr += di
                cursors[t] = i + 1
                if total_instr >= next_tick:
                    next_tick = ticks.tick([not d for d in done])

            # Barrier: everyone resumes at the latest arrival.
            barriers.record(section_index, arrivals)
            release = max(arrivals)
            for t in range(n):
                stall[t] += release - arrivals[t]
                clock[t] = release

        ticks.finish(total_instr)
        return ticks.result(clock, stall, barriers)
