"""RemoteEngine: the ExecutionEngine that runs a batch on a worker fleet.

One dispatcher thread per worker address pulls jobs from a shared queue,
ships them over the wire (``repro.dist.protocol``), and finalises
outcomes under one lock — so ``on_outcome`` consumers (the sweep
journal, incremental store writes) see the same single-threaded call
discipline the in-process engines give them.  The coordinator owns all
retry state: a worker executes exactly one attempt per ``job`` frame,
which is what makes attempts transferable between workers when one
dies.

Failure model (DESIGN.md §G):

* an attempt that fails *on* a worker (job exception) is a normal retry
  — same budget, same backoff as every other engine, via the shared
  :class:`~repro.exec.engine.EngineOptions` semantics;
* a link that dies *after* a job was shipped consumes that attempt (the
  coordinator cannot know how far the worker got, and the simulation is
  deterministic, so re-running is always safe) and the dispatcher
  reconnects; if the worker stays unreachable it is declared lost and
  its in-flight job is requeued for the rest of the fleet;
* when every worker is lost, the engine degrades to the in-process
  serial path — the same loud, per-batch degradation contract as
  :class:`~repro.exec.pool.ProcessPoolEngine`, so a sweep *always*
  completes with an outcome per job.

Network faults (``slow-link``, ``conn-drop``, ``partition``) fire on the
coordinator side of the wire, keyed on ``(job label, attempt)`` by the
same seeded roll as every other injector; ``worker-vanish`` fires on the
worker.  Determinism in the key — not in socket timing — is what keeps
``SweepResult.aggregates()`` byte-identical to a serial run under chaos.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from collections.abc import Sequence

from repro.dist import codec
from repro.dist.protocol import (
    ProtocolError,
    hello_frame,
    recv_frame,
    send_frame,
)
from repro.dist.registry import (
    WorkerRegistry,
    format_address,
    parse_worker_address,
)
from repro.exec.engine import EngineOptions, ExecutionEngine, OnOutcome
from repro.exec.faults import announce_faults, get_fault_plan
from repro.exec.jobs import JobOutcome, JobSpec
from repro.obs.events import JobEndEvent, JobShippedEvent, JobStartEvent, RetryEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

__all__ = ["RemoteEngine"]

#: Sentinel returned by ``_dispatch_batch_unit`` when the worker is gone
#: for good and its dispatcher thread must exit.
_LOST = object()


class _Link:
    """One live, handshaken connection to a worker."""

    __slots__ = ("sock", "worker_id", "pid", "caps")

    def __init__(
        self,
        sock: socket.socket,
        worker_id: str,
        pid: int,
        caps: frozenset[str] = frozenset(),
    ) -> None:
        self.sock = sock
        self.worker_id = worker_id
        self.pid = pid
        self.caps = caps

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Batch:
    """Shared state for one ``run()``: the queue, attempts, outcomes.

    The queue holds *units* — index tuples.  Per-job traffic uses
    1-tuples; the batch planner's multi-lane groups travel as whole
    units so one worker executes all lanes of a group in one pass.  A
    unit that cannot be executed batched (incapable worker, failed
    attempt) is *decomposed* into 1-tuples and re-enters the queue.
    """

    def __init__(self, specs: list[JobSpec], units: list[tuple[int, ...]]) -> None:
        self.specs = specs
        self.lock = threading.Lock()
        self.ready = threading.Condition(self.lock)
        self.pending: deque[tuple[int, ...]] = deque(units)
        self.inflight: set[int] = set()
        self.attempts = [0] * len(specs)
        self.outcomes: list[JobOutcome | None] = [None] * len(specs)
        self.last_error = "no workers reached"

    def claim(self) -> tuple[int, ...] | None:
        """Next unit, or None once the batch has fully drained.
        Blocks while the queue is empty but other dispatchers still have
        jobs in flight (their failures may requeue work for us)."""
        with self.ready:
            while True:
                if self.pending:
                    unit = self.pending.popleft()
                    self.inflight.update(unit)
                    return unit
                if not self.inflight:
                    return None
                self.ready.wait(timeout=0.05)

    def release(self, unit: tuple[int, ...], *, requeue: bool) -> None:
        with self.ready:
            self.inflight.difference_update(unit)
            if requeue:
                self.pending.append(unit)
            self.ready.notify_all()

    def decompose(self, unit: tuple[int, ...]) -> None:
        """Requeue a failed/unshippable multi-lane unit as singles; the
        cells keep their attempt budgets and take the per-job path."""
        with self.ready:
            self.inflight.difference_update(unit)
            for idx in unit:
                self.pending.append((idx,))
            self.ready.notify_all()

    def unfinished(self) -> list[int]:
        with self.lock:
            return [i for i, o in enumerate(self.outcomes) if o is None]


class RemoteEngine(ExecutionEngine):
    """Dispatches jobs to remote workers over length-prefixed JSON/TCP.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs); at least one.
    connect_timeout_s / io_timeout_s:
        Socket budgets for establishing a link and for one frame
        round-trip.  A worker that blows ``io_timeout_s`` mid-job is
        treated as lost (its attempt is consumed and requeued).
    options / retry-backoff kwargs / job_runner:
        The shared :class:`~repro.exec.engine.EngineOptions` semantics;
        ``job_runner`` only runs locally on the degrade-to-serial path
        (workers run their own).
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence,
        *,
        options: EngineOptions | None = None,
        max_retries: int | None = None,
        backoff_s: float | None = None,
        backoff_cap_s: float | None = None,
        backoff_budget_s: float | None = None,
        job_runner=None,
        connect_timeout_s: float = 10.0,
        io_timeout_s: float | None = 600.0,
    ) -> None:
        super().__init__(
            options=options,
            max_retries=max_retries,
            backoff_s=backoff_s,
            backoff_cap_s=backoff_cap_s,
            backoff_budget_s=backoff_budget_s,
            job_runner=job_runner,
        )
        self.addresses = [parse_worker_address(w) for w in workers]
        if not self.addresses:
            raise ValueError("RemoteEngine needs at least one worker address")
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.registry = WorkerRegistry()

    # -- engine contract -----------------------------------------------

    def run(
        self, specs: Sequence[JobSpec], *, on_outcome: OnOutcome | None = None
    ) -> list[JobOutcome]:
        specs = list(specs)
        if not specs:
            return []
        self._reset_backoff()
        batch = _Batch(specs, self._plan_units(specs))
        grid_digest = codec.batch_digest(specs)
        tracer = get_tracer()
        if tracer.enabled:
            # Workers cannot reach this process's tracer; narrate from here
            # (same discipline as the pool engine).
            for spec in specs:
                tracer.emit(
                    JobStartEvent(
                        label=spec.label, app=spec.app, policy=spec.policy, engine=self.name
                    )
                )
        threads = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(address, batch, grid_digest, on_outcome),
                name=f"dispatch-{format_address(address)}",
                daemon=True,
            )
            for address in self.addresses
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        leftovers = batch.unfinished()
        if leftovers:
            # Every worker is gone; the batch still completes, loudly.
            self._note_degraded(f"all workers lost ({batch.last_error})")
            for idx in leftovers:
                outcome = self._execute_with_retry(
                    specs[idx],
                    attempts_used=batch.attempts[idx],
                    engine_name=f"{self.name}→serial",
                    emit_start=False,
                )
                batch.outcomes[idx] = outcome
                if on_outcome is not None:
                    on_outcome(outcome)
        assert all(o is not None for o in batch.outcomes)
        return batch.outcomes  # type: ignore[return-value]

    # -- per-worker dispatcher -----------------------------------------

    def _dispatch_loop(
        self,
        address: tuple[str, int],
        batch: _Batch,
        grid_digest: str,
        on_outcome: OnOutcome | None,
    ) -> None:
        plan = get_fault_plan()
        link: _Link | None = None
        try:
            while True:
                unit = batch.claim()
                if unit is None:
                    return
                if len(unit) > 1:
                    verdict = self._dispatch_batch_unit(
                        address, link, batch, unit, grid_digest, on_outcome
                    )
                    if verdict is _LOST:
                        link = None
                        return
                    link = verdict
                    continue
                idx = unit[0]
                spec = batch.specs[idx]
                attempt = batch.attempts[idx] + 1
                verdict = self._apply_net_faults(batch, idx, attempt, plan, on_outcome)
                if verdict == "conn-drop":
                    if link is not None:
                        link.close()
                        link = None
                    continue
                if verdict == "partition":
                    continue
                if link is None:
                    try:
                        link = self._connect(address, grid_digest, plan)
                    except (OSError, ProtocolError) as exc:
                        # Nothing was shipped: the job keeps its attempt
                        # budget and goes back for the rest of the fleet.
                        batch.last_error = f"{format_address(address)}: {exc}"
                        batch.release((idx,), requeue=True)
                        self.registry.note_lost(address, str(exc), requeued=1)
                        return
                try:
                    self._ship(link, spec, attempt, grid_digest)
                    outcome = self._await_outcome(link, spec)
                except (OSError, ProtocolError) as exc:
                    # The link died under this job: the attempt is consumed
                    # (we cannot know how far the worker got; reruns are
                    # safe by determinism), and we try one fresh link.
                    error = f"worker {format_address(address)} lost: {exc}"
                    link.close()
                    link = None
                    self._attempt_failed(batch, idx, attempt, error, on_outcome, plan)
                    if not self._reachable(address):
                        batch.last_error = error
                        self.registry.note_lost(address, str(exc), requeued=1)
                        return
                    continue
                if outcome.get("ok"):
                    self._record_success(batch, idx, attempt, outcome, on_outcome, plan)
                else:
                    self._attempt_failed(
                        batch, idx, attempt, str(outcome.get("error")), on_outcome, plan
                    )
        finally:
            if link is not None:
                try:
                    send_frame(link.sock, {"type": "bye"})
                except OSError:
                    pass
                link.close()

    def _dispatch_batch_unit(
        self,
        address: tuple[str, int],
        link: _Link | None,
        batch: _Batch,
        unit: tuple[int, ...],
        grid_digest: str,
        on_outcome: OnOutcome | None,
    ):
        """Ship one multi-lane unit; returns the (possibly new) link, or
        :data:`_LOST` when the worker is unreachable and the dispatcher
        must exit.

        Failure never retries the *unit*: an incapable worker, a failed
        batch attempt, or a dead link all decompose the unit into
        singles, which re-enter the queue with their attempt budgets
        intact and take the fleet's ordinary per-job path.  Fault plans
        never coexist with batching (the planner gates on them), so no
        net/job faults fire here.
        """
        if link is None:
            try:
                link = self._connect(address, grid_digest, None)
            except (OSError, ProtocolError) as exc:
                batch.last_error = f"{format_address(address)}: {exc}"
                batch.release(unit, requeue=True)
                self.registry.note_lost(address, str(exc), requeued=len(unit))
                return _LOST
        if "batch" not in link.caps:
            METRICS.counter("dist.batch_unsupported").inc()
            batch.decompose(unit)
            return link
        specs = [batch.specs[i] for i in unit]
        try:
            self._ship_batch(link, specs, grid_digest)
            frame = self._await_batch_outcome(link, specs)
        except (OSError, ProtocolError) as exc:
            METRICS.counter("batch.failed").inc()
            error = f"worker {format_address(address)} lost: {exc}"
            link.close()
            batch.decompose(unit)
            if not self._reachable(address):
                batch.last_error = error
                self.registry.note_lost(address, str(exc), requeued=len(unit))
                return _LOST
            return None
        if frame.get("ok"):
            self._record_batch_success(batch, unit, frame, on_outcome)
        else:
            METRICS.counter("batch.failed").inc()
            batch.decompose(unit)
        return link

    def _ship_batch(
        self, link: _Link, specs: list[JobSpec], grid_digest: str
    ) -> None:
        METRICS.counter("dist.jobs_shipped").inc(len(specs))
        METRICS.counter("dist.batches_shipped").inc()
        send_frame(
            link.sock,
            {
                "type": "batch",
                "grid_digest": grid_digest,
                "digest": codec.batch_digest(specs),
                "jobs": [codec.encode_spec(spec) for spec in specs],
            },
        )

    def _await_batch_outcome(self, link: _Link, specs: list[JobSpec]) -> dict:
        """Read frames until this unit's ``batch_outcome``, answering
        ``prep_fetch`` requests inline (same as :meth:`_await_outcome`)."""
        expect = codec.batch_digest(specs)
        label = f"batch[{specs[0].label}+{len(specs) - 1}]"
        while True:
            frame = recv_frame(link.sock)
            if frame is None:
                raise ProtocolError(f"worker closed while running {label}")
            if frame["type"] == "prep_fetch":
                self._serve_prep_fetch(link, frame)
                continue
            if frame["type"] == "error":
                raise ProtocolError(str(frame.get("error")))
            if frame["type"] != "batch_outcome":
                raise ProtocolError(
                    f"unexpected frame {frame['type']!r} awaiting batch outcome"
                )
            if frame.get("digest") != expect:
                raise ProtocolError(
                    f"batch outcome digest {frame.get('digest')!r} does not answer {label}"
                )
            return frame

    def _record_batch_success(
        self,
        batch: _Batch,
        unit: tuple[int, ...],
        frame: dict,
        on_outcome: OnOutcome | None,
    ) -> None:
        from repro.core.records import RunResult

        results = frame.get("results") or []
        if len(results) != len(unit):
            METRICS.counter("batch.failed").inc()
            batch.decompose(unit)
            return
        per_cell = float(frame.get("duration_s", 0.0)) / len(unit)
        with batch.lock:
            for idx, payload in zip(unit, results):
                spec = batch.specs[idx]
                batch.attempts[idx] += 1
                outcome = JobOutcome(
                    spec=spec,
                    result=RunResult.from_dict(payload),
                    attempts=batch.attempts[idx],
                    duration_s=per_cell,
                    engine=self.name,
                )
                batch.outcomes[idx] = outcome
                METRICS.timer("exec.job").observe(per_cell)
                METRICS.counter("exec.jobs_ok").inc()
                if on_outcome is not None:
                    on_outcome(outcome)
        batch.release(unit, requeue=False)

    def _connect(
        self, address: tuple[str, int], grid_digest: str, plan
    ) -> _Link:
        sock = socket.create_connection(address, timeout=self.connect_timeout_s)
        sock.settimeout(self.io_timeout_s)
        send_frame(
            sock, hello_frame(grid_digest, None if plan is None else plan.to_dict())
        )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            error = (welcome or {}).get("error", "worker closed during handshake")
            sock.close()
            raise ProtocolError(f"handshake refused: {error}")
        link = _Link(
            sock,
            str(welcome.get("worker_id", "?")),
            int(welcome.get("pid", 0)),
            frozenset(welcome.get("caps") or ()),
        )
        self.registry.note_join(address, link.worker_id, link.pid)
        return link

    def _reachable(self, address: tuple[str, int]) -> bool:
        """Cheap liveness probe after a link death: can the worker still
        accept?  Distinguishes a dropped connection (reconnect and carry
        on) from a vanished worker (declare it lost)."""
        try:
            socket.create_connection(address, timeout=self.connect_timeout_s).close()
            return True
        except OSError:
            return False

    def _ship(self, link: _Link, spec: JobSpec, attempt: int, grid_digest: str) -> None:
        METRICS.counter("dist.jobs_shipped").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                JobShippedEvent(label=spec.label, worker=link.worker_id, attempt=attempt)
            )
        send_frame(
            link.sock,
            {
                "type": "job",
                "grid_digest": grid_digest,
                "attempt": attempt,
                **codec.encode_spec(spec),
            },
        )

    def _await_outcome(self, link: _Link, spec: JobSpec) -> dict:
        """Read frames until this job's outcome, answering ``prep_fetch``
        requests inline from the coordinator's prep store."""
        while True:
            frame = recv_frame(link.sock)
            if frame is None:
                raise ProtocolError(f"worker closed while running {spec.label}")
            if frame["type"] == "prep_fetch":
                self._serve_prep_fetch(link, frame)
                continue
            if frame["type"] == "error":
                raise ProtocolError(str(frame.get("error")))
            if frame["type"] != "outcome":
                raise ProtocolError(f"unexpected frame {frame['type']!r} awaiting outcome")
            if frame.get("digest") != spec.digest:
                raise ProtocolError(
                    f"outcome digest {frame.get('digest')!r} does not answer {spec.label}"
                )
            return frame

    def _serve_prep_fetch(self, link: _Link, frame: dict) -> None:
        from repro.prep import get_prep_store

        store = get_prep_store()
        bundle = store.get(frame.get("key")) if store is not None else None
        if bundle is None:
            send_frame(link.sock, {"type": "prep_bundle", "found": False})
            return
        METRICS.counter("dist.prep_shipped").inc()
        send_frame(
            link.sock,
            {
                "type": "prep_bundle",
                "found": True,
                "bundle": codec.encode_prep_bundle(bundle.meta, bundle.arrays),
            },
        )

    # -- fault hooks ----------------------------------------------------

    def _apply_net_faults(
        self, batch: _Batch, idx: int, attempt: int, plan, on_outcome: OnOutcome | None
    ) -> str:
        """Coordinator-side network faults for ``(job, attempt)``.

        Returns ``"ok"``, or the fault kind that consumed the attempt on
        the wire itself: ``"partition"`` ate the frame, ``"conn-drop"``
        killed the link before the job landed (the caller drops its
        link).  ``slow-link`` only delays.  ``worker-vanish`` is executed
        by the worker; nothing to do here (the link death comes back as
        an ``OSError``/EOF and takes the lost-worker path).
        """
        if plan is None:
            return "ok"
        spec = batch.specs[idx]
        for rule in plan.planned_net_faults(spec.label, attempt):
            if rule.kind == "slow-link":
                announce_faults((rule,), spec.label, attempt)
                time.sleep(rule.delay_s)
            elif rule.kind in ("partition", "conn-drop"):
                announce_faults((rule,), spec.label, attempt)
                error = f"injected {rule.kind} for {spec.label} (attempt {attempt})"
                self._attempt_failed(
                    batch, idx, attempt, error, on_outcome, plan, announce_job=False
                )
                return rule.kind
        return "ok"

    def _announce_job_faults(self, plan, spec: JobSpec, attempt: int) -> None:
        """The worker executed this attempt's job faults silently
        (announce=False); the coordinator announces them — identical to
        the pool parent's announce-at-submission discipline."""
        if plan is None:
            return
        rules = plan.planned_job_faults(spec.label, attempt)
        if rules:
            announce_faults(rules, spec.label, attempt)

    # -- outcome accounting ---------------------------------------------

    def _record_success(
        self,
        batch: _Batch,
        idx: int,
        attempt: int,
        frame: dict,
        on_outcome: OnOutcome | None,
        plan,
    ) -> None:
        spec = batch.specs[idx]
        outcome = codec.decode_outcome(
            {**frame, "attempts": attempt, "engine": self.name}, spec
        )
        with batch.lock:
            batch.attempts[idx] = attempt
            self._announce_job_faults(plan, spec, attempt)
            batch.outcomes[idx] = outcome
            METRICS.timer("exec.job").observe(outcome.duration_s)
            METRICS.counter("exec.jobs_ok").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    JobEndEvent(
                        label=spec.label,
                        app=spec.app,
                        policy=spec.policy,
                        engine=self.name,
                        ok=True,
                        attempts=attempt,
                        duration_s=outcome.duration_s,
                    )
                )
            if on_outcome is not None:
                # Serialised under the batch lock: journal appends and
                # store puts see one caller at a time, whatever the
                # fleet's completion order.
                on_outcome(outcome)
        batch.release((idx,), requeue=False)

    def _attempt_failed(
        self,
        batch: _Batch,
        idx: int,
        attempt: int,
        error: str,
        on_outcome: OnOutcome | None,
        plan,
        *,
        announce_job: bool = True,
    ) -> None:
        spec = batch.specs[idx]
        final = attempt >= self.max_attempts
        with batch.lock:
            batch.attempts[idx] = attempt
            if announce_job:
                self._announce_job_faults(plan, spec, attempt)
            METRICS.counter("exec.retries").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    RetryEvent(label=spec.label, engine=self.name, attempt=attempt, error=error)
                )
            if final:
                outcome = JobOutcome(
                    spec=spec, error=error, attempts=attempt, engine=self.name
                )
                batch.outcomes[idx] = outcome
                METRICS.counter("exec.jobs_failed").inc()
                if tracer.enabled:
                    tracer.emit(
                        JobEndEvent(
                            label=spec.label,
                            app=spec.app,
                            policy=spec.policy,
                            engine=self.name,
                            ok=False,
                            attempts=attempt,
                            duration_s=0.0,
                            error=error,
                        )
                    )
                if on_outcome is not None:
                    on_outcome(outcome)
        batch.release((idx,), requeue=not final)
        if not final:
            self._backoff_sleep(attempt)
