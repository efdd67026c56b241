"""The execution-interval protocol (paper §VI), written once for every kernel.

At every interval boundary the runtime system runs the same loop, whichever
L2 kernel replays the program: the monitor reads per-thread CPI and L2
counter deltas, the partition engine may pick new way targets, the
configuration unit installs them, and the reconfiguration cost is charged
to the cores still running.  :class:`IntervalProtocol` is that loop; the
reference engine, the fastpath replay and the batch lane replay all drive
one per run and differ only in how they expose their counters.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.records import IntervalObservation, IntervalRecord, RunResult
from repro.obs.events import ConvergenceEvent
from repro.obs.tracer import Tracer
from repro.sync.barrier import BarrierLog

__all__ = ["IntervalProtocol"]


class IntervalProtocol:
    """Interval bookkeeping of one single-application replay.

    The kernel calls :meth:`tick` whenever its aggregate instruction count
    reaches :attr:`next_tick`, :meth:`finish` once the program has retired,
    and :meth:`result` to assemble the :class:`RunResult`.  It supplies
    only how its state is exposed:

    ``l2``
        the shared cache's partition-control surface: ``stats`` (synced by
        the kernel before each :meth:`tick` / :meth:`finish`),
        ``targets``, ``set_targets()``, ``partition_distance()`` and
        ``enforce_partition``.
    ``counters()``
        the current per-thread ``(instructions, busy_cycles)``.
    ``charge(threads, cycles)``
        add ``cycles`` to the clock and busy time of each listed thread.
    """

    def __init__(
        self,
        compiled,
        l2,
        timing,
        runtime,
        tracer: Tracer,
        *,
        interval_instructions: int,
        counters: Callable[[], tuple[Sequence[int], Sequence[float]]],
        charge: Callable[[list[int], float], None],
    ) -> None:
        n = compiled.n_threads
        self.compiled = compiled
        self.l2 = l2
        self.runtime = runtime
        self.tracer = tracer
        self.policy = getattr(runtime, "name", "none")
        self.overhead = timing.partition_overhead_cycles
        self.tick_len = interval_instructions * n
        self.next_tick = self.tick_len
        self.index = 0
        self.intervals: list[IntervalRecord] = []
        self._n = n
        self._counters = counters
        self._charge = charge
        self._base_instr = [0] * n
        self._base_busy = [0.0] * n
        self._base_stats = l2.stats.snapshot()

    def tick(self, running: Sequence[bool]) -> int:
        """Close the current interval; returns the next tick threshold.

        ``running[t]`` is False for a thread already waiting at the
        barrier: it absorbs any reconfiguration in its slack (its arrival
        is fixed and the work happens while it would be stalled anyway),
        so only running threads pay ``partition_overhead_cycles`` (paper:
        overheads < 1.5 %, included in all reported results).
        """
        n = self._n
        l2 = self.l2
        snap = l2.stats.snapshot()
        instr, busy = self._counters()
        base_instr, base_busy = self._base_instr, self._base_busy
        d_instr = tuple(instr[t] - base_instr[t] for t in range(n))
        d_busy = tuple(busy[t] - base_busy[t] for t in range(n))
        obs = IntervalObservation(
            index=self.index,
            cpi=tuple(d_busy[t] / d_instr[t] if d_instr[t] > 0 else 0.0 for t in range(n)),
            instructions=d_instr,
            busy_cycles=d_busy,
            targets=tuple(l2.targets),
            l2=snap.minus(self._base_stats),
        )
        if self.tracer.enabled and l2.enforce_partition:
            # Distance is measured against the targets in effect during the
            # interval just closed, *before* the runtime may install new
            # ones — i.e. how far eviction control actually got.
            self.tracer.emit(
                ConvergenceEvent(
                    app=self.compiled.name,
                    policy=self.policy,
                    index=self.index,
                    **l2.partition_distance(),
                )
            )
        new_targets = None
        if self.runtime is not None:
            new_targets = self.runtime.on_interval(obs)
            if new_targets is not None:
                new_targets = tuple(new_targets)
                l2.set_targets(list(new_targets))
                self._charge([t for t in range(n) if running[t]], self.overhead)
                instr, busy = self._counters()
        self.intervals.append(IntervalRecord(observation=obs, new_targets=new_targets))
        self._base_instr = list(instr)
        self._base_busy = list(busy)
        self._base_stats = snap
        self.index += 1
        self.next_tick += self.tick_len
        return self.next_tick

    def finish(self, total_instructions: int) -> None:
        """Flush a final partial interval so short runs still report stats.

        The run is over, so nobody is running and no overhead is charged
        (there is no next interval to reconfigure for).
        """
        if total_instructions <= self.index * self.tick_len:
            return
        instr, _ = self._counters()
        if any(instr[t] - self._base_instr[t] > 0 for t in range(self._n)):
            self.tick((False,) * self._n)

    def result(
        self, clock: Sequence[float], stall: Sequence[float], barriers: BarrierLog
    ) -> RunResult:
        """The run's :class:`RunResult`, L1 totals included."""
        n = self._n
        instr, busy = self._counters()
        l1_acc = [0] * n
        l1_hit = [0] * n
        for section in self.compiled.sections:
            for t, s in enumerate(section):
                l1_acc[t] += s.l1_accesses
                l1_hit[t] += s.l1_hits
        return RunResult(
            app=self.compiled.name,
            policy=self.policy,
            n_threads=n,
            total_cycles=max(clock) if n else 0.0,
            thread_instructions=tuple(instr),
            thread_busy_cycles=tuple(busy),
            thread_stall_cycles=tuple(stall),
            l2_totals=self.l2.stats.snapshot(),
            thread_l1_accesses=tuple(l1_acc),
            thread_l1_hits=tuple(l1_hit),
            intervals=self.intervals,
            barriers=barriers,
        )
