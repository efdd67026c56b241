"""The sweep service: multi-tenant front-end over the runner/store stack.

One :class:`SweepService` owns the shared pieces — a
:class:`~repro.exec.store.ResultStore`, an
:class:`~repro.serve.scheduler.EngineScheduler` wrapping one execution
engine, a :class:`~repro.serve.coalescer.CellCoalescer` and an
:class:`~repro.serve.admission.AdmissionController` — and a registry of
:class:`SweepTask`\\ s, one per content-addressed sweep id.

Life of a submission (``submit``):

1. validate (:class:`~repro.serve.protocol.SweepRequest`) — 400 on junk;
2. **attach** if the sweep id is already known (running or retained):
   identical grids from concurrent clients share one sweep outright;
3. resolve the grid: cells restored from the sweep's own journal
   (service was killed mid-sweep and restarted), cells already in the
   result store, cells another sweep has in flight (coalesced), and the
   remainder that needs scheduling;
4. **admission** over that remainder only — warm or duplicate work is
   always admitted — rejecting with 429 + Retry-After when the backlog
   bound or a quota would be exceeded;
5. open the journal (``journals/<sweep_id>.jsonl`` under the data dir)
   and start the sweep task, which journals and streams every cell as it
   completes and finally assembles the exact
   :class:`~repro.exec.sweep.SweepResult` ``run_sweep`` would have built
   — byte-identical aggregates are the contract
   (``tests/test_serve_service.py`` pins it, including across a service
   kill/restart).

``drain()`` is the signal path: stop admitting, let the scheduler finish
its in-flight batch, resolve queued cells to the drain sentinel, close
every journal (each append was already fsynced) and shut the engine's
warm pool down.  Unfinished sweeps end as ``"interrupted"`` — their
journals resume on the next submission of the same grid.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from pathlib import Path

from repro.exec.journal import SweepJournal
from repro.exec.store import ResultStore
from repro.exec.sweep import SweepCell, SweepResult
from repro.obs.events import ServeDrainEvent, SweepRejectedEvent, SweepSubmittedEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import CellCoalescer
from repro.serve.protocol import RequestError, SweepRequest, cell_event, status_event
from repro.serve.scheduler import EngineScheduler

__all__ = ["SweepService", "SweepTask"]


class SweepTask:
    """One sweep's in-service state: cells, journal, event history."""

    def __init__(
        self, service: "SweepService", request: SweepRequest, specs: list | None = None
    ) -> None:
        self.service = service
        self.request = request
        self.id = request.sweep_id
        # Reuse the submitter's spec objects: their digests are cached
        # per instance, and the admission count already computed them.
        self.specs = request.specs() if specs is None else specs
        self.total = len(self.specs)
        self.status = "running"
        self.clients = {request.client}
        self.cells: dict[str, SweepCell] = {}
        self.resumed = 0
        self.store_hits = 0
        self.coalesced = 0
        self.scheduled = 0
        self.executed = 0
        self.result: SweepResult | None = None
        self.events: list[dict] = []
        self.task: asyncio.Task | None = None
        self.journal: SweepJournal | None = None
        self._started = time.perf_counter()
        self.wall_s: float | None = None
        self._waiters: list[asyncio.Future] = []

    # -- progress/event plumbing ----------------------------------------

    def _emit(self, event: dict) -> None:
        self.events.append(event)
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._waiters.clear()

    async def stream(self):
        """Replay history, then tail live events until the sweep ends —
        the body of ``GET /v1/sweeps/<id>/events``.  Detach-safe: a
        consumer can stop at any point; late consumers of a finished
        sweep get the full replay and an immediate end."""
        index = 0
        yield status_event(self.describe())
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.status != "running":
                return
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter

    def describe(self) -> dict:
        """The status payload of ``GET /v1/sweeps/<id>``."""
        payload = {
            "sweep_id": self.id,
            "status": self.status,
            "clients": sorted(self.clients),
            "total_cells": self.total,
            "completed": len(self.cells),
            "resumed": self.resumed,
            "store_hits": self.store_hits,
            "coalesced": self.coalesced,
            "scheduled": self.scheduled,
            "executed": self.executed,
            "failures": sum(1 for c in self.cells.values() if not c.ok),
            "wall_s": round(
                self.wall_s if self.wall_s is not None
                else time.perf_counter() - self._started,
                6,
            ),
        }
        if self.result is not None:
            payload["result"] = self.result.to_dict()
        return payload

    # -- lifecycle ------------------------------------------------------

    def start(self, restored: dict, hits: dict | None = None) -> None:
        """Resolve every cell and start the completion consumer.

        ``restored`` maps digest -> ok
        :class:`~repro.exec.journal.JournalEntry` from this sweep's own
        journal (a previous service incarnation); ``hits`` maps digest ->
        store result prefetched by :meth:`SweepService.submit` (pass
        ``None`` to look the store up here).  Called with no awaits after
        admission, so the resolution is atomic under asyncio.
        """
        store = self.service.store
        pending: list[tuple[object, asyncio.Future]] = []
        for spec in self.specs:
            digest = spec.digest
            if digest in restored:
                entry = restored[digest]
                # Restored verbatim (original source preserved) so the
                # final aggregates match an uninterrupted sweep's bytes.
                cell = SweepCell(
                    app=entry.app,
                    policy=entry.policy,
                    seed=entry.seed,
                    n_threads=entry.n_threads,
                    total_cycles=entry.total_cycles,
                    source=entry.source,
                )
                self.cells[digest] = cell
                self.resumed += 1
                METRICS.counter("serve.cells.resumed").inc()
                self._emit(cell_event(
                    cell, key=digest, completed=len(self.cells), total=self.total,
                    replayed=True,
                ))
                continue
            if hits is not None:
                cached = hits.get(digest)
            else:
                cached = store.get(spec) if store is not None else None
            if cached is not None:
                cell = self._cell(spec, total_cycles=cached.total_cycles, source="store")
                self.cells[digest] = cell
                self.store_hits += 1
                METRICS.counter("serve.cells.store_hits").inc()
                self._journal(spec, cell)
                self._emit(cell_event(
                    cell, key=digest, completed=len(self.cells), total=self.total,
                ))
                continue
            coalesced, future = self.service.coalescer.acquire(spec)
            if coalesced:
                self.coalesced += 1
            else:
                self.scheduled += 1
            pending.append((spec, future))
        if not pending:
            # Every cell resolved at submit time (journal replay / warm
            # store): finalize synchronously so the submit response
            # already carries the terminal status and result — a warm
            # client needs exactly one round trip, no task, no stream.
            try:
                self._finalize()
            finally:
                self._close()
            return
        self.task = asyncio.get_running_loop().create_task(
            self._run(pending), name=f"sweep-{self.id[:12]}"
        )

    async def _run(self, pending: list[tuple[object, asyncio.Future]]) -> None:
        try:
            await asyncio.gather(
                *(self._await_cell(spec, future) for spec, future in pending)
            )
        except Exception as exc:  # noqa: BLE001 — a sweep failure must not kill the loop
            self.status = "failed"
            self._emit(status_event({"sweep_id": self.id, "status": "failed",
                                     "error": str(exc)}))
            METRICS.counter("serve.sweeps.failed").inc()
        else:
            self._finalize()
        finally:
            self._close()

    def _finalize(self) -> None:
        if len(self.cells) < self.total:
            # Drained before every cell ran: resumable, not done.
            self.status = "interrupted"
            METRICS.counter("serve.sweeps.interrupted").inc()
        else:
            self.result = self._build_result()
            self.status = "done"
            METRICS.counter("serve.sweeps.completed").inc()
        self.wall_s = time.perf_counter() - self._started
        self._emit(status_event(self.describe()))

    def _close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        self.service._sweep_finished(self)

    async def _await_cell(self, spec, future: asyncio.Future) -> None:
        digest = spec.digest
        try:
            outcome = await future
        except RuntimeError as exc:  # engine batch blew up (scheduler resolved us)
            outcome = None
            cell = self._cell(spec, total_cycles=None, source="run", error=str(exc))
            self.cells[digest] = cell
            self._journal(spec, cell)
            self._emit(cell_event(cell, key=digest, completed=len(self.cells),
                                  total=self.total))
            return
        if outcome is None:
            return  # drain sentinel: cell never ran; journal holds the rest
        if outcome.ok:
            cell = self._cell(
                spec, total_cycles=outcome.result.total_cycles, source="run"
            )
            self.executed += 1
        else:
            cell = self._cell(spec, total_cycles=None, source="run", error=outcome.error)
        self.cells[digest] = cell
        self._journal(spec, cell)
        self._emit(cell_event(cell, key=digest, completed=len(self.cells),
                              total=self.total))

    def _build_result(self) -> SweepResult:
        request = self.request
        cells = [self.cells[spec.digest] for spec in self.specs]
        store = self.service.store
        return SweepResult(
            apps=list(request.apps),
            policies=list(request.policies),
            seeds=list(request.seeds),
            thread_counts=list(request.thread_counts),
            baseline=request.baseline,
            cells=cells,
            engine=self.service.scheduler.engine.name,
            wall_s=time.perf_counter() - self._started,
            simulated=self.executed,
            store_hits=self.store_hits,
            store_stats=store.stats() if store is not None else None,
            failures=[c for c in cells if not c.ok],
            resumed=self.resumed,
        )

    @staticmethod
    def _cell(spec, *, total_cycles, source, error=None) -> SweepCell:
        return SweepCell(
            app=spec.app,
            policy=spec.policy,
            seed=spec.config.seed,
            n_threads=spec.config.n_threads,
            total_cycles=total_cycles,
            source=source,
            error=error,
        )

    def _journal(self, spec, cell: SweepCell) -> None:
        if self.journal is None:
            return
        from repro.exec.journal import JournalEntry

        self.journal.append(JournalEntry(
            key=spec.digest,
            app=cell.app,
            policy=cell.policy,
            seed=cell.seed,
            n_threads=cell.n_threads,
            total_cycles=cell.total_cycles,
            source=cell.source,
            error=cell.error,
        ))


class SweepService:
    """Registry + shared machinery behind the HTTP front-end."""

    def __init__(
        self,
        *,
        engine,
        store: ResultStore | None,
        data_dir: str | Path,
        admission: AdmissionController | None = None,
        batch_size: int | None = None,
        retain: int = 64,
    ) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.data_dir = Path(data_dir)
        self.journal_dir = self.data_dir / "journals"
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.store = store
        self.scheduler = EngineScheduler(engine, store, batch_size=batch_size)
        self.coalescer = CellCoalescer(self.scheduler)
        self.admission = admission or AdmissionController(
            workers=max(getattr(engine, "jobs", 1), 1)
        )
        self.retain = retain
        self._sweeps: "OrderedDict[str, SweepTask]" = OrderedDict()
        self.draining = False
        self._drained = asyncio.Event()
        self._started_at = time.time()

    def start(self) -> None:
        """Start the scheduler; call once from inside the event loop."""
        self.scheduler.start()

    # -- submissions ----------------------------------------------------

    def journal_path(self, sweep_id: str) -> Path:
        return self.journal_dir / f"{sweep_id}.jsonl"

    def submit(self, payload: object) -> tuple[int, dict]:
        """Handle ``POST /v1/sweeps``; returns ``(http_status, body)``.

        Synchronous on purpose: the whole resolve/admit/start path runs
        without awaiting, so admission decisions cannot interleave.
        """
        METRICS.counter("serve.requests").inc()
        try:
            request = SweepRequest.from_dict(payload)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        if self.draining:
            return 503, {"error": "service is draining; resubmit after restart"}

        sweep_id = request.sweep_id
        task = self._sweeps.get(sweep_id)
        if task is not None and task.status in ("running", "done"):
            task.clients.add(request.client)
            METRICS.counter("serve.sweeps.attached").inc()
            self._trace(SweepSubmittedEvent(
                sweep_id=sweep_id, client=request.client, cells=task.total,
                attached=True,
            ))
            return 200, {"attached": True, **task.describe()}

        # Resolution plan (read-only): journal of a previous incarnation,
        # store hits, in-flight twins — only the remainder needs capacity.
        restored = {}
        journal_file = self.journal_path(sweep_id)
        if request.resume and journal_file.is_file():
            header, entries, _ = SweepJournal.load(journal_file)
            if header is not None and header.get("grid_digest") == sweep_id:
                restored = {k: e for k, e in entries.items() if e.ok}
        specs = request.specs()
        # One store lookup per cell: the hits found here are handed to
        # task.start() so resolution doesn't read the store again.
        hits: dict[str, object] = {}
        new_cells = 0
        for spec in specs:
            digest = spec.digest
            if digest in restored:
                continue
            cached = self.store.get(spec) if self.store is not None else None
            if cached is not None:
                hits[digest] = cached
            elif not self.coalescer.in_flight(digest):
                new_cells += 1
        rejection = self.admission.admit(request.client, new_cells, self.scheduler.backlog)
        if rejection is not None:
            self._trace(SweepRejectedEvent(
                client=request.client, reason=rejection.reason,
                retry_after_s=rejection.retry_after_s,
            ))
            return 429, rejection.to_dict()

        self.admission.register(request.client)
        task = SweepTask(self, request, specs)
        key = request.grid_key()
        if request.resume and restored:
            task.journal = SweepJournal.resume(journal_file, key)
        else:
            # Fresh start — also the recovery path for a journal at this
            # path that failed validation above (corrupt or foreign).
            task.journal = SweepJournal.begin(journal_file, key)
        self._sweeps[sweep_id] = task
        self._sweeps.move_to_end(sweep_id)
        task.start(restored, hits)
        METRICS.counter("serve.sweeps.submitted").inc()
        self._trace(SweepSubmittedEvent(
            sweep_id=sweep_id, client=request.client, cells=task.total,
            resumed=task.resumed, store_hits=task.store_hits,
            coalesced=task.coalesced, scheduled=task.scheduled,
        ))
        return 202, {"attached": False, **task.describe()}

    # -- queries --------------------------------------------------------

    def get(self, sweep_id: str) -> SweepTask | None:
        return self._sweeps.get(sweep_id)

    def archived_status(self, sweep_id: str) -> dict | None:
        """Status for a sweep known only by its on-disk journal (written
        by an earlier incarnation, or evicted from retention)."""
        journal_file = self.journal_path(sweep_id)
        if not journal_file.is_file():
            return None
        header, entries, _ = SweepJournal.load(journal_file)
        if header is None or header.get("grid_digest") != sweep_id:
            return None
        completed = [e for e in entries.values() if e.ok]
        return {
            "sweep_id": sweep_id,
            "status": "archived",
            "completed": len(completed),
            "failures": len(entries) - len(completed),
            "grid": header.get("grid"),
        }

    def archived_events(self, sweep_id: str) -> list[dict] | None:
        """Journal replay for an archived sweep (then the stream ends)."""
        status = self.archived_status(sweep_id)
        if status is None:
            return None
        journal_file = self.journal_path(sweep_id)
        _, entries, _ = SweepJournal.load(journal_file)
        events = [status_event(status)]
        ordered = list(entries.values())
        for done, entry in enumerate(ordered, start=1):
            cell = SweepCell(
                app=entry.app, policy=entry.policy, seed=entry.seed,
                n_threads=entry.n_threads, total_cycles=entry.total_cycles,
                source=entry.source, error=entry.error,
            )
            events.append(cell_event(
                cell, key=entry.key, completed=done, total=len(ordered), replayed=True,
            ))
        events.append(status_event(status))
        return events

    def stats(self) -> dict:
        """The ``GET /v1/stats`` payload: service-level counters plus the
        shared store's hit/miss/stale accounting."""
        snapshot = METRICS.snapshot()["counters"]
        serve = {k: v for k, v in sorted(snapshot.items()) if k.startswith("serve.")}
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "draining": self.draining,
            "active_sweeps": sum(
                1 for t in self._sweeps.values() if t.status == "running"
            ),
            "retained_sweeps": len(self._sweeps),
            "backlog": self.scheduler.backlog,
            "in_flight_cells": self.coalescer.in_flight_count,
            "engine": self.scheduler.engine.name,
            "counters": serve,
            "store": self.store.stats() if self.store is not None else None,
        }

    # -- lifecycle ------------------------------------------------------

    def _sweep_finished(self, task: SweepTask) -> None:
        self.admission.release(task.request.client)
        # Retention: keep the most recent `retain` finished sweeps for
        # attach/replay; older ones fall back to their on-disk journal.
        finished = [
            sid for sid, t in self._sweeps.items() if t.status != "running"
        ]
        while len(finished) > self.retain:
            self._sweeps.pop(finished.pop(0), None)

    async def drain(self, signame: str = "SIGTERM") -> None:
        """Graceful shutdown: finish in-flight cells, journal them, stop."""
        if self.draining:
            await self._drained.wait()
            return
        self.draining = True
        active = [t for t in self._sweeps.values() if t.status == "running"]
        self._trace(ServeDrainEvent(
            signal=signame, active_sweeps=len(active),
            backlog=self.scheduler.backlog,
        ))
        METRICS.counter("serve.drains").inc()
        await self.scheduler.drain()
        await asyncio.gather(
            *(t.task for t in active if t.task is not None), return_exceptions=True
        )
        # Our writers are stopped: anything still staged is an orphan.
        if self.store is not None:
            self.store.sweep_stale(0.0)
        self._drained.set()

    @staticmethod
    def _trace(event) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(event)
