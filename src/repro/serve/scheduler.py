"""Bridge from the asyncio service to the synchronous execution engines.

The engines (:class:`~repro.exec.engine.SerialEngine`,
:class:`~repro.exec.pool.ProcessPoolEngine`) are blocking batch APIs, and
neither is safe to drive from two threads at once — so one scheduler task
owns the engine and feeds it bounded batches pulled from a FIFO queue of
``(spec, future)`` cells.  Each batch runs in a worker thread
(``run_in_executor``); the engine's ``on_outcome`` callback fires there
as each cell finalises, persists the result into the shared
:class:`~repro.exec.store.ResultStore` (the same completion-ordered
durability rule ``run_sweep`` follows), and posts the outcome back onto
the event loop, where the cell's future resolves and every attached
sweep journals and streams it.

Bounded batches are what make shutdown cheap: a drain only has to wait
out the *current* batch (at most ``batch_size`` cells — workers are not
interruptible), then flushes everything still queued by resolving its
futures to ``None``, the "not executed, resume later" sentinel.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.exec.engine import ExecutionEngine
from repro.exec.jobs import JobOutcome, JobSpec
from repro.exec.store import ResultStore
from repro.obs.metrics import METRICS

__all__ = ["EngineScheduler"]


class EngineScheduler:
    """Single-consumer cell queue in front of one execution engine."""

    def __init__(
        self,
        engine: ExecutionEngine,
        store: ResultStore | None,
        *,
        batch_size: int | None = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.engine = engine
        self.store = store
        # Default: enough to keep a pool's workers busy without making a
        # drain wait on a huge indivisible batch.
        self.batch_size = batch_size or max(2 * getattr(engine, "jobs", 1), 4)
        self._queue: deque[tuple[JobSpec, asyncio.Future]] = deque()
        self._wake = asyncio.Event()
        self._draining = False
        self._dispatched = 0  # cells inside the currently running batch
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.executed = 0

    # -- queue side (event-loop thread) ---------------------------------

    @property
    def backlog(self) -> int:
        """Cells queued or currently executing — the admission bound."""
        return len(self._queue) + self._dispatched

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._task = self._loop.create_task(self._run(), name="serve-scheduler")

    def submit(self, spec: JobSpec, future: asyncio.Future) -> None:
        """Enqueue one cell (the coalescer guarantees digest uniqueness
        among in-flight cells)."""
        if self._draining:
            # Submissions are rejected at admission once draining; a cell
            # that slips through resolves to the drain sentinel.
            if not future.done():
                future.set_result(None)
            return
        self._queue.append((spec, future))
        METRICS.gauge("serve.queue.depth").set(self.backlog)
        self._wake.set()

    async def drain(self) -> None:
        """Finish the in-flight batch, flush the queue with ``None``
        sentinels, stop the scheduler task, and close the engine (which
        drains a warm worker pool)."""
        self._draining = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        if hasattr(self.engine, "close"):
            self.engine.close()

    # -- consumer -------------------------------------------------------

    async def _run(self) -> None:
        assert self._loop is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._queue and not self._draining:
                batch = [
                    self._queue.popleft()
                    for _ in range(min(self.batch_size, len(self._queue)))
                ]
                self._dispatched = len(batch)
                METRICS.gauge("serve.queue.depth").set(self.backlog)
                try:
                    await self._run_batch(batch)
                finally:
                    self._dispatched = 0
                    METRICS.gauge("serve.queue.depth").set(self.backlog)
            if self._draining:
                break
        while self._queue:
            _, future = self._queue.popleft()
            if not future.done():
                future.set_result(None)
        METRICS.gauge("serve.queue.depth").set(0)

    async def _run_batch(self, batch: list[tuple[JobSpec, asyncio.Future]]) -> None:
        assert self._loop is not None
        loop = self._loop
        specs = [spec for spec, _ in batch]
        futures = {spec.digest: future for spec, future in batch}

        def on_outcome(outcome: JobOutcome) -> None:
            # Engine-thread side: persist first (completion-ordered
            # durability, same as run_sweep), then hand the outcome to
            # the loop so sweeps can journal/stream it while the rest of
            # the batch is still running.
            if outcome.ok and self.store is not None:
                self.store.put(outcome.spec, outcome.result)
            loop.call_soon_threadsafe(self._deliver, futures[outcome.spec.digest], outcome)

        def run() -> list[JobOutcome]:
            return self.engine.run(specs, on_outcome=on_outcome)

        with METRICS.span("serve.batch"):
            try:
                outcomes = await loop.run_in_executor(None, run)
            except Exception as exc:  # noqa: BLE001 — engine bugs must not wedge the service
                METRICS.counter("serve.scheduler.errors").inc()
                for _, future in batch:
                    if not future.done():
                        future.set_exception(RuntimeError(f"engine batch failed: {exc}"))
                        # Consume the exception if nothing awaits this future.
                        future.exception()
                return
        # Custom engines may ignore on_outcome; resolve any stragglers.
        for (_, future), outcome in zip(batch, outcomes):
            self._deliver(future, outcome)

    def _deliver(self, future: asyncio.Future, outcome: JobOutcome) -> None:
        if not future.done():
            self.executed += 1
            METRICS.counter("serve.cells.executed").inc()
            future.set_result(outcome)
