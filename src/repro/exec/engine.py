"""Execution engines: the ABC, the serial engine, and the shared retry loop.

An engine turns a batch of :class:`~repro.exec.jobs.JobSpec` into a batch
of :class:`~repro.exec.jobs.JobOutcome`, preserving order.  Engines never
raise for a failing *job* — a job that exhausts its retry budget comes back
as an outcome with ``error`` set, so one bad run cannot lose the results of
the rest of a sweep.

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
from dataclasses import dataclass

from repro.core.records import RunResult
from repro.exec.faults import fire_job_faults, get_fault_plan
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
    process-pool and remote engines degrade and retry identically:

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


class ExecutionEngine(ABC):
    """Runs batches of jobs; subclasses choose *where* the work happens.

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
        # The remote engine's dispatcher threads share one budget; the
        # lock covers the accounting, never the sleep.
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

    def _execute_with_retry(
        self,
        spec: JobSpec,
        *,
        attempts_used: int = 0,
        engine_name: str | None = None,
        emit_start: bool = True,
    ) -> JobOutcome:
        """In-process attempt loop shared by the serial engine and by pool
        engines degrading to serial: ``attempts_used`` carries over attempts
        a job already consumed elsewhere (e.g. in a broken pool), in which
        case the pool already announced the job and ``emit_start`` is False.
        """
        name = engine_name if engine_name is not None else self.name
        tracer = get_tracer()
        if tracer.enabled and emit_start:
            tracer.emit(
                JobStartEvent(label=spec.label, app=spec.app, policy=spec.policy, engine=name)
            )
        attempts = attempts_used
        error = "no attempts made"
        while attempts < max(self.max_attempts, attempts_used + 1):
            if attempts > attempts_used:
                self._backoff_sleep(attempts - attempts_used)
            attempts += 1
            start = time.perf_counter()
            try:
                if get_fault_plan() is not None:
                    fire_job_faults(spec.label, attempts)
                result = self.job_runner(spec)
            except Exception as exc:  # noqa: BLE001 — a job failure is data
                error = f"{type(exc).__name__}: {exc}"
                METRICS.counter("exec.retries").inc()
                if tracer.enabled:
                    tracer.emit(
                        RetryEvent(label=spec.label, engine=name, attempt=attempts, error=error)
                    )
                continue
            duration = time.perf_counter() - start
            METRICS.timer("exec.job").observe(duration)
            METRICS.counter("exec.jobs_ok").inc()
            if tracer.enabled:
                tracer.emit(
                    JobEndEvent(
                        label=spec.label,
                        app=spec.app,
                        policy=spec.policy,
                        engine=name,
                        ok=True,
                        attempts=attempts,
                        duration_s=duration,
                    )
                )
            return JobOutcome(
                spec=spec,
                result=result,
                attempts=attempts,
                duration_s=duration,
                engine=name,
            )
        METRICS.counter("exec.jobs_failed").inc()
        if tracer.enabled:
            tracer.emit(
                JobEndEvent(
                    label=spec.label,
                    app=spec.app,
                    policy=spec.policy,
                    engine=name,
                    ok=False,
                    attempts=attempts,
                    duration_s=0.0,
                    error=error,
                )
            )
        return JobOutcome(spec=spec, error=error, attempts=attempts, engine=name)

    # -- batched execution (repro.exec.batch) ---------------------------

    def _batching_enabled(self) -> bool:
        """Batching is a pure perf transformation; anything that depends
        on per-cell execution — fault replay keyed on per-job attempts,
        per-job trace narration, a custom runner — keeps cells single."""
        return (
            self.job_runner is execute_job
            and get_fault_plan() is None
            and not get_tracer().enabled
        )

    def _plan_units(self, specs: Sequence[JobSpec]) -> list[tuple[int, ...]]:
        """Index units for ``specs``: multi-lane groups when the batch
        planner applies, else the identity plan (one unit per job)."""
        if not self._batching_enabled():
            return [(i,) for i in range(len(specs))]
        from repro.exec.batch import plan_units

        return plan_units(specs)

    def _run_batch_inline(
        self, specs: list[JobSpec], *, engine_name: str | None = None
    ) -> list[JobOutcome]:
        """One in-process attempt at a whole batch unit.

        A failing batch is decomposed, not retried as a batch: every cell
        re-enters the per-job retry path with its full attempt budget, so
        batching can never cost a cell its retries.  Wall clock is
        attributed evenly across lanes (lanes run back-to-back over
        shared state; finer attribution would charge the shared prep to
        whichever lane went first).
        """
        from repro.exec.batch import execute_batch

        name = engine_name if engine_name is not None else self.name
        start = time.perf_counter()
        try:
            results = execute_batch(specs)
        except Exception as exc:  # noqa: BLE001 — decompose, don't fail cells
            METRICS.counter("batch.failed").inc()
            METRICS.counter("exec.retries").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    RetryEvent(
                        label=f"batch[{specs[0].label}+{len(specs) - 1}]",
                        engine=name,
                        attempt=1,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
            return [self._execute_with_retry(spec, engine_name=name) for spec in specs]
        per_cell = (time.perf_counter() - start) / len(specs)
        outcomes = []
        for spec, result in zip(specs, results):
            METRICS.timer("exec.job").observe(per_cell)
            METRICS.counter("exec.jobs_ok").inc()
            outcomes.append(
                JobOutcome(
                    spec=spec,
                    result=result,
                    attempts=1,
                    duration_s=per_cell,
                    engine=name,
                )
            )
        return outcomes


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
        self._reset_backoff()
        specs = list(specs)
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        for unit in self._plan_units(specs):
            if len(unit) == 1:
                unit_outcomes = [self._execute_with_retry(specs[unit[0]])]
            else:
                unit_outcomes = self._run_batch_inline([specs[i] for i in unit])
            for idx, outcome in zip(unit, unit_outcomes):
                outcomes[idx] = outcome
                if on_outcome is not None:
                    on_outcome(outcome)
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]
