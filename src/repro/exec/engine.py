"""Execution engines: the attempt state machine, its in-process transport,
and the serial engine.

An engine turns a batch of :class:`~repro.exec.jobs.JobSpec` into a batch
of :class:`~repro.exec.jobs.JobOutcome`, preserving order.  Engines never
raise for a failing *job* — a job that exhausts its retry budget comes back
as an outcome with ``error`` set, so one bad run cannot lose the results of
the rest of a sweep.

:meth:`ExecutionEngine._run` is the one attempt loop: it plans units (one
cell, or several cells batched over one prepared program), hands each
round's attempts to a *transport*, and records, retries or decomposes
what comes back.  Engines differ only in the transport, i.e. where one
attempt at one unit runs: :class:`SerialEngine` runs it in-process when
its result is collected, :class:`~repro.exec.pool.ProcessPoolEngine` on
a warm process pool.

The actual simulation is performed by a *job runner* callable
(:func:`execute_job` by default); tests inject failing or sleeping runners
to exercise the retry/timeout machinery without a real simulation.  The
runner must be a picklable (module-level) callable so pool engines can ship
it to workers.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass

from repro.core.records import RunResult
from repro.exec.faults import announce_faults, fire_job_faults, get_fault_plan
from repro.exec.jobs import JobOutcome, JobSpec
from repro.obs.events import EngineDegradedEvent, JobEndEvent, JobStartEvent, RetryEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

__all__ = ["EngineOptions", "ExecutionEngine", "SerialEngine", "execute_job"]

OnOutcome = Callable[[JobOutcome], None]


@dataclass(frozen=True)
class EngineOptions:
    """Retry/backoff/degradation knobs shared by every engine.

    One frozen bag of semantics instead of per-engine kwargs, so the
    serial and process-pool engines degrade and retry identically:

    ``max_retries``
        How many times a failing job is retried (a job is attempted at
        most ``max_retries + 1`` times).
    ``backoff_s``
        Base delay before a retry round; doubles each round, jittered to
        a uniform fraction in [0.5, 1.0] of the nominal delay.  Zero
        disables the sleep.
    ``backoff_cap_s``
        Upper bound on any single backoff sleep.
    ``backoff_budget_s``
        Upper bound on the total time one batch may spend sleeping
        between retries; refilled at the start of each batch.
    """

    max_retries: int = 2
    backoff_s: float = 0.1
    backoff_cap_s: float = 2.0
    backoff_budget_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_cap_s < 0 or self.backoff_budget_s < 0:
            raise ValueError("backoff_cap_s and backoff_budget_s must be >= 0")

    def replace(self, **overrides) -> "EngineOptions":
        """A copy with ``overrides`` applied (validated like any other)."""
        return dataclasses.replace(self, **overrides)

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1


def execute_job(spec: JobSpec) -> RunResult:
    """Default job runner: one full simulation.

    Imported lazily so that engine/bookkeeping code stays importable in
    contexts (and subprocesses) that never simulate.
    """
    from repro.sim.driver import run_application

    return run_application(spec.app, spec.policy, spec.config)


def run_unit(
    job_runner: Callable[[JobSpec], RunResult], specs: Sequence[JobSpec], attempt: int
) -> tuple[list[RunResult], float]:
    """One attempt at one unit, wherever it runs: the unit's results in
    spec order and its wall-clock seconds.

    Module-level so the pool can pickle it.  A 1-lane unit carries out
    the job faults planned for ``(label, attempt)``, then calls
    ``job_runner``; it never announces them (the engine does, once the
    attempt is used up).  A multi-lane unit runs every lane through
    :func:`repro.exec.batch.execute_batch`, looked up at call time.
    """
    start = time.perf_counter()
    if len(specs) == 1:
        fire_job_faults(specs[0].label, attempt)
        results = [job_runner(specs[0])]
    else:
        from repro.exec.batch import execute_batch

        results = execute_batch(specs)
    return results, time.perf_counter() - start


class _Deferred(Future):
    """The in-process transport's future: the attempt runs when its result
    is first asked for.  The machine collects a round in order, so each
    unit's outcomes reach ``on_outcome`` before the next unit starts."""

    def __init__(self, fn, *args) -> None:
        super().__init__()
        self._call = (fn, args)

    def result(self, timeout=None):
        if self._call is not None:
            fn, args = self._call
            self._call = None
            try:
                self.set_result(fn(*args))
            except Exception as exc:  # noqa: BLE001 — re-raised just below
                self.set_exception(exc)
        return super().result(timeout)


class ExecutionEngine(ABC):
    """Runs batches of jobs; subclasses choose *where* each attempt runs.

    Parameters
    ----------
    options:
        An :class:`EngineOptions` with the retry/backoff knobs.  The
        individual keyword arguments below override the corresponding
        option field when given, so both styles compose:
        ``SerialEngine(max_retries=0)`` and
        ``SerialEngine(options=EngineOptions(max_retries=0))`` are the
        same engine.
    max_retries, backoff_s, backoff_cap_s, backoff_budget_s:
        Per-field overrides of ``options`` (see :class:`EngineOptions`
        for semantics).
    job_runner:
        Callable ``spec -> RunResult``; defaults to :func:`execute_job`.
    """

    name = "engine"
    #: Cap on the wait for one unit's result, per lane; in-process
    #: attempts are never timed out.
    timeout_s: float | None = None

    def __init__(
        self,
        *,
        options: EngineOptions | None = None,
        max_retries: int | None = None,
        backoff_s: float | None = None,
        backoff_cap_s: float | None = None,
        backoff_budget_s: float | None = None,
        job_runner: Callable[[JobSpec], RunResult] | None = None,
    ) -> None:
        opts = options if options is not None else EngineOptions()
        overrides = {
            key: value
            for key, value in {
                "max_retries": max_retries,
                "backoff_s": backoff_s,
                "backoff_cap_s": backoff_cap_s,
                "backoff_budget_s": backoff_budget_s,
            }.items()
            if value is not None
        }
        if overrides:
            opts = opts.replace(**overrides)
        self.options = opts
        self.job_runner = job_runner or execute_job
        self._backoff_left = opts.backoff_budget_s
        self._backoff_lock = threading.Lock()
        # Every degradation to serial, in order — surfaced by the CLI's
        # -v line and asserted on by tests; never reset implicitly.
        self.degraded_reasons: list[str] = []

    # The knobs stay readable as plain attributes — long-standing API for
    # tests and callers that predate EngineOptions.
    @property
    def max_retries(self) -> int:
        return self.options.max_retries

    @property
    def backoff_s(self) -> float:
        return self.options.backoff_s

    @property
    def backoff_cap_s(self) -> float:
        return self.options.backoff_cap_s

    @property
    def backoff_budget_s(self) -> float:
        return self.options.backoff_budget_s

    @property
    def max_attempts(self) -> int:
        return self.options.max_attempts

    def close(self) -> None:
        """Release what the transport holds (nothing, in-process); the
        engine stays usable."""

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _note_degraded(self, reason: str) -> None:
        """A degradation to serial is a loud warning, never silent: count
        it, trace it, and keep the cause for ``-v`` reporting."""
        self.degraded_reasons.append(reason)
        METRICS.counter("exec.degraded_to_serial").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(EngineDegradedEvent(engine=self.name, reason=reason))
        print(f"warning: {self.name} degraded to serial: {reason}", file=sys.stderr)

    @abstractmethod
    def run(
        self, specs: Sequence[JobSpec], *, on_outcome: OnOutcome | None = None
    ) -> list[JobOutcome]:
        """Execute every job, returning outcomes in input order.

        ``on_outcome`` is invoked once per job *as its outcome is
        finalised* (success, or failure after the last retry) — the hook
        crash-safe consumers (the sweep journal, incremental store
        writes) use to persist completed work before the batch ends.
        Callback order is completion order, not input order.
        """

    def run_one(self, spec: JobSpec) -> JobOutcome:
        return self.run([spec])[0]

    def _reset_backoff(self) -> None:
        """Refill the backoff budget; called at the start of each batch."""
        self._backoff_left = self.backoff_budget_s

    def _backoff_sleep(self, failed_rounds: int) -> float:
        """Jittered, capped exponential backoff; returns seconds slept.

        The nominal delay doubles per failed round but is clamped to
        ``backoff_cap_s`` per sleep and to the batch's remaining
        ``backoff_budget_s`` overall, then scaled by a uniform jitter in
        [0.5, 1.0] — so one flaky job can delay a sweep by at most the
        budget, and never serialises concurrent retriers on a beat.
        """
        if self.backoff_s <= 0:
            return 0.0
        # Threads retrying through one engine share one budget; the lock
        # covers the accounting, never the sleep.
        with self._backoff_lock:
            if self._backoff_left <= 0:
                return 0.0
            nominal = min(
                self.backoff_s * (2 ** (failed_rounds - 1)),
                self.backoff_cap_s,
                self._backoff_left,
            )
            delay = nominal * (0.5 + 0.5 * random.random())
            self._backoff_left -= delay
        time.sleep(delay)
        return delay

    # -- transports -----------------------------------------------------

    def _transport(self, n_specs: int) -> Callable[..., Future]:
        """Where this round's attempts run, for a run of ``n_specs`` jobs:
        a ``submit(fn, *args) -> Future``.  This one is in-process and
        lazy; when another cannot be built or its ``submit`` raises, the
        run degrades to this one."""
        return _Deferred

    def _abandon(self) -> None:
        """Drop a transport that timed out or broke (nothing in-process)."""

    # -- the attempt state machine ----------------------------------------

    def _batching_enabled(self) -> bool:
        """Batching is a pure perf transformation; anything that depends
        on per-cell execution — fault replay keyed on per-job attempts,
        a custom runner — keeps cells single."""
        return self.job_runner is execute_job and get_fault_plan() is None

    def _plan_units(self, specs: Sequence[JobSpec]) -> list[tuple[int, ...]]:
        """Index units for ``specs``: multi-lane groups when the batch
        planner applies, else the identity plan (one unit per job)."""
        if not self._batching_enabled():
            return [(i,) for i in range(len(specs))]
        from repro.exec.batch import plan_units

        return plan_units(specs)

    def _run(self, specs: Sequence[JobSpec], on_outcome: OnOutcome | None) -> list[JobOutcome]:
        """Run every job through the transport, in rounds.

        Each round submits every pending unit's next attempt, then
        collects the results in order.  A success fans out into per-cell
        outcomes, its wall time split evenly across lanes.  A failed
        1-lane unit uses up an attempt: its planned faults are announced
        and it is retried next round, after a backoff sleep, or
        finalized.  A failed multi-lane unit splits into 1-lane units
        with their full budget.  A timeout or a dead worker abandons the
        transport, and units it never finished go back into the queue
        with their budget intact; a dead worker, or a transport that
        cannot be built or take the round, runs the rest of the run
        in-process.
        """
        specs = list(specs)
        self._reset_backoff()
        tracer = get_tracer()
        plan = get_fault_plan()
        engine = self.name
        if tracer.enabled:
            for spec in specs:
                tracer.emit(
                    JobStartEvent(label=spec.label, app=spec.app, policy=spec.policy, engine=engine)
                )
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        attempts = [0] * len(specs)
        pending = self._plan_units(specs)
        degraded = False
        failed_rounds = 0

        def use_attempt(idx: int) -> None:
            attempts[idx] += 1
            if plan is not None:
                label = specs[idx].label
                rules = plan.planned_job_faults(label, attempts[idx])
                if rules:
                    announce_faults(rules, label, attempts[idx])

        def finish(idx: int, **fields) -> None:
            spec = specs[idx]
            outcome = JobOutcome(spec=spec, attempts=attempts[idx], engine=engine, **fields)
            if outcome.ok:
                METRICS.timer("exec.job").observe(outcome.duration_s)
                METRICS.counter("exec.jobs_ok").inc()
            else:
                METRICS.counter("exec.jobs_failed").inc()
            if tracer.enabled:
                tracer.emit(
                    JobEndEvent(
                        label=spec.label,
                        app=spec.app,
                        policy=spec.policy,
                        engine=engine,
                        ok=outcome.ok,
                        attempts=outcome.attempts,
                        duration_s=outcome.duration_s,
                        error=outcome.error,
                    )
                )
            outcomes[idx] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        def degrade(reason: str) -> None:
            nonlocal degraded, engine
            self._note_degraded(reason)
            degraded, engine = True, f"{self.name}→serial"

        try:
            while pending:
                units, pending = pending, []
                calls = [
                    (run_unit, self.job_runner, [specs[i] for i in u], attempts[u[0]] + 1)
                    for u in units
                ]
                if not degraded:
                    try:
                        submit = self._transport(len(specs))
                        futures = [submit(*call) for call in calls]
                    except Exception as exc:  # noqa: BLE001 — a pool that cannot be built,
                        # or that broke while idle, degrades like a dead worker
                        self._abandon()
                        degrade(f"pool unusable: {type(exc).__name__}: {exc}")
                if degraded:
                    futures = [_Deferred(*call) for call in calls]
                abandoned = retried = False
                broken: str | None = None
                for unit, future in zip(units, futures):
                    if abandoned and not (future.done() and not future.cancelled()):
                        future.cancel()
                        pending.append(unit)  # never finished: budget intact
                        continue
                    label = specs[unit[0]].label
                    if len(unit) > 1:
                        label = f"batch[{label}+{len(unit) - 1}]"
                    wait = None if self.timeout_s is None else self.timeout_s * len(unit)
                    try:
                        results, seconds = future.result(timeout=wait)
                    except BrokenExecutor:
                        if abandoned:  # a broken pool's casualty, not the unit's
                            pending.append(unit)
                            continue
                        error = broken = f"pool worker died running {label}"
                        abandoned = True
                    except Exception as exc:  # noqa: BLE001 — a unit failure is data
                        if future.done():
                            error = f"{type(exc).__name__}: {exc}"
                        else:  # the wait ran out; the worker may still be wedged on it
                            error = f"job {label} timed out after {wait:g}s"
                            abandoned = True
                    else:
                        for idx, result in zip(unit, results):
                            use_attempt(idx)
                            finish(idx, result=result, duration_s=seconds / len(unit))
                        continue
                    if len(unit) > 1:
                        # Decompose, never retry as a batch: no cell loses
                        # an attempt to its unit's failure.
                        METRICS.counter("batch.failed").inc()
                        pending.extend((idx,) for idx in unit)
                        continue
                    (idx,) = unit
                    use_attempt(idx)
                    METRICS.counter("exec.retries").inc()
                    if tracer.enabled:
                        tracer.emit(
                            RetryEvent(
                                label=label, engine=engine, attempt=attempts[idx], error=error
                            )
                        )
                    if attempts[idx] < self.max_attempts:
                        pending.append(unit)
                        retried = True
                    else:
                        finish(idx, error=error)
                if abandoned:
                    self._abandon()
                pending.sort()
                if broken is not None and pending and not degraded:
                    degrade(broken)
                if retried:
                    failed_rounds += 1
                    self._backoff_sleep(failed_rounds)
        except (KeyboardInterrupt, SystemExit):
            # Interrupt protocol: never leave a transport (and its worker
            # processes) behind when the batch is being torn down.
            self._abandon()
            raise
        return outcomes  # type: ignore[return-value]


class SerialEngine(ExecutionEngine):
    """Runs every job in the calling process, one after another.

    This is the default engine: zero overhead, exactly the behaviour the
    harness had before the execution layer existed — plus retries.  Cells
    grouped by the batch planner (``cache_backend: "batch"``) execute as
    one multi-lane replay, fanned back out into per-cell outcomes.
    """

    name = "serial"

    def run(
        self, specs: Sequence[JobSpec], *, on_outcome: OnOutcome | None = None
    ) -> list[JobOutcome]:
        return self._run(specs, on_outcome)
