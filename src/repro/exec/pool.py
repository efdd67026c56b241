"""Multiprocessing execution engine.

Fans jobs out over a ``concurrent.futures.ProcessPoolExecutor`` in bounded
chunks.  Fault model:

* a job that **raises** in a worker consumes an attempt and is retried
  (bounded, exponential backoff between rounds) in a later round;
* a job that exceeds the **per-job timeout** consumes an attempt; the
  executor that may still be wedged on it is abandoned (workers are not
  interruptible) and a fresh pool is built for the next round;
* a **dead worker** (``BrokenProcessPool`` — e.g. the OOM killer or a
  crash in native code) degrades the engine gracefully: every unfinished
  job finishes in-process via the serial retry path, so a sweep always
  completes with an outcome per job.

Simulations are deterministic in ``(app, policy, config)``, so serial and
pool execution produce identical :class:`~repro.core.records.RunResult`s —
the engines are interchangeable, only wall-clock differs.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.core.records import RunResult
from repro.exec.engine import EngineOptions, ExecutionEngine, OnOutcome
from repro.exec.faults import (
    FaultPlan,
    announce_faults,
    fire_job_faults,
    get_fault_plan,
    set_fault_plan,
)
from repro.exec.jobs import JobOutcome, JobSpec
from repro.obs.events import JobEndEvent, JobStartEvent, RetryEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

__all__ = ["ProcessPoolEngine"]

_IndexedSpec = tuple[int, JobSpec]


def _timed_call(job_runner: Callable[[JobSpec], RunResult], spec: JobSpec, attempt: int):
    """Worker-side wrapper: run one job and report its wall-clock cost.

    Fault injectors execute here (the worker inherited the plan through
    the pool initializer) but are *announced* by the parent — the
    worker's tracer and metrics are invisible to it, and the plan is
    deterministic in ``(job_key, attempt)``, so both sides agree on what
    fires without any cross-process signalling.
    """
    if get_fault_plan() is not None:
        fire_job_faults(spec.label, attempt, announce=False)
    start = time.perf_counter()
    result = job_runner(spec)
    return result, time.perf_counter() - start


def _timed_batch_call(specs: list[JobSpec]):
    """Worker-side wrapper for one batch unit: every lane in one pass.

    Fault plans never coexist with batching (the planner gates on them),
    so unlike :func:`_timed_call` there is nothing to fire here.
    """
    from repro.exec.batch import execute_batch

    start = time.perf_counter()
    results = execute_batch(specs)
    return results, time.perf_counter() - start


def _worker_init(prep_key, fault_plan: FaultPlan | None) -> None:
    """Pool-worker initializer: install the shared prep store and the
    active fault plan.

    The prep store runs once per worker process, so every job the worker
    executes opens prepared-program artifacts via
    ``np.load(mmap_mode="r")`` — the same on-disk pages as its siblings,
    shared through the OS page cache rather than regenerated per process.
    """
    if prep_key is not None:
        from repro.prep import configure_prep

        prep_root, prep_version = prep_key
        configure_prep(prep_root, version=prep_version)
    set_fault_plan(fault_plan)


def _shutdown_pool(holder: list) -> None:
    """Finalizer for an engine's warm pool (must not reference the engine)."""
    while holder:
        holder.pop().shutdown(wait=False, cancel_futures=True)


class ProcessPoolEngine(ExecutionEngine):
    """Executes jobs across worker processes.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to ``os.cpu_count()``.  With
        ``jobs <= 1`` (or a single-job batch) the engine short-circuits to
        the in-process serial path — no pool is spawned, so
        ``get_result``-style single lookups pay no fork cost.
    chunk_size:
        Jobs submitted to the pool per wave, bounding the backlog of
        pickled results held in flight.  Defaults to ``2 × jobs`` so
        every worker has a next job queued while the engine drains the
        current wave.  Workers are long-lived across chunks *and* across
        ``run()`` invocations (the pool stays warm until :meth:`close`),
        so worker start-up and the solo cells' compiled-program memo
        amortise over a whole sweep.  A batch unit's program, and the
        prep bundle mapping it reads, are released when the unit ends.
    timeout_s:
        Per-job cap on the wall-clock wait for that job's result once the
        engine starts waiting on it; ``None`` waits forever.
    mp_context:
        Optional ``multiprocessing`` context (e.g. ``get_context("spawn")``).
    """

    name = "process-pool"

    def __init__(
        self,
        jobs: int | None = None,
        *,
        chunk_size: int | None = None,
        timeout_s: float | None = None,
        options: EngineOptions | None = None,
        max_retries: int | None = None,
        backoff_s: float | None = None,
        backoff_cap_s: float | None = None,
        backoff_budget_s: float | None = None,
        job_runner: Callable[[JobSpec], RunResult] | None = None,
        mp_context=None,
    ) -> None:
        super().__init__(
            options=options,
            max_retries=max_retries,
            backoff_s=backoff_s,
            backoff_cap_s=backoff_cap_s,
            backoff_budget_s=backoff_budget_s,
            job_runner=job_runner,
        )
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.chunk_size = chunk_size if chunk_size is not None else 2 * self.jobs
        self.timeout_s = timeout_s
        self.mp_context = mp_context or multiprocessing.get_context()
        # Warm pool: [executor] while one is alive.  The finalizer closes
        # a leaked pool when the engine is garbage-collected; tests and
        # the CLI should call close() (or use the engine as a context
        # manager) for deterministic teardown.
        self._pool_holder: list[ProcessPoolExecutor] = []
        self._pool_prep_key: tuple | None = None
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool_holder)

    @staticmethod
    def _prep_key() -> tuple | None:
        """Identity of the active prep-store config (pool rebuild trigger)."""
        from repro.prep import get_prep_store

        store = get_prep_store()
        return None if store is None else (str(store.root), store.version)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return the warm pool, (re)building it on first use or when the
        prep-store / fault-plan configuration changed since it was
        forked (workers receive both through the initializer)."""
        key = (self._prep_key(), get_fault_plan())
        if self._pool_holder and self._pool_prep_key != key:
            self._discard_pool(wait=True)
        if not self._pool_holder:
            self._pool_holder.append(
                ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=self.mp_context,
                    initializer=_worker_init,
                    initargs=key,
                )
            )
            self._pool_prep_key = key
        return self._pool_holder[0]

    def _discard_pool(self, *, wait: bool) -> None:
        while self._pool_holder:
            self._pool_holder.pop().shutdown(wait=wait, cancel_futures=not wait)

    def close(self) -> None:
        """Shut the warm pool down (the engine stays usable; the next
        ``run()`` forks a fresh pool)."""
        self._discard_pool(wait=True)

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self, specs: Sequence[JobSpec], *, on_outcome: OnOutcome | None = None
    ) -> list[JobOutcome]:
        specs = list(specs)
        if not specs:
            return []
        self._reset_backoff()
        units = self._plan_units(specs)
        batch_units = [u for u in units if len(u) >= 2]
        if not batch_units:
            return self._run_singles(specs, on_outcome)
        # Batched units go through the pool first (one future per unit);
        # a unit that fails decomposes into singles, which then share the
        # ordinary pooled path — and its retry/degradation machinery —
        # with the cells that were never batchable.
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        singles = [i for u in units if len(u) == 1 for i in u]
        if self.jobs <= 1:
            for unit in batch_units:
                for idx, outcome in zip(
                    unit,
                    self._run_batch_inline(
                        [specs[i] for i in unit], engine_name=self.name
                    ),
                ):
                    outcomes[idx] = outcome
                    if on_outcome is not None:
                        on_outcome(outcome)
        else:
            try:
                singles += self._run_batches_pooled(
                    specs, batch_units, outcomes, on_outcome
                )
            except (KeyboardInterrupt, SystemExit):
                self._discard_pool(wait=False)
                raise
        singles.sort()
        if singles:
            single_outcomes = self._run_singles(
                [specs[i] for i in singles], on_outcome
            )
            for idx, outcome in zip(singles, single_outcomes):
                outcomes[idx] = outcome
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def _run_singles(
        self, specs: list[JobSpec], on_outcome: OnOutcome | None
    ) -> list[JobOutcome]:
        """The per-job path: pooled, or in-process when a pool buys
        nothing (``jobs <= 1`` or a single job)."""
        if not specs:
            return []
        if self.jobs <= 1 or len(specs) == 1:
            # A pool buys nothing here; keep the exact serial semantics.
            outcomes = []
            for spec in specs:
                outcome = self._execute_with_retry(spec, engine_name=self.name)
                if on_outcome is not None:
                    on_outcome(outcome)
                outcomes.append(outcome)
            return outcomes
        try:
            return self._run_pooled(specs, on_outcome)
        except (KeyboardInterrupt, SystemExit):
            # Interrupt protocol: never leave a warm pool (and its worker
            # processes) behind when the batch is being torn down.
            self._discard_pool(wait=False)
            raise

    def _run_batches_pooled(
        self,
        specs: list[JobSpec],
        units: list[tuple[int, ...]],
        outcomes: list[JobOutcome | None],
        on_outcome: OnOutcome | None,
    ) -> list[int]:
        """Execute multi-lane units on the warm pool; fill ``outcomes``
        for cells that succeeded and return the indices of cells whose
        unit failed (they fall back to the per-job path, budget intact).

        The per-job timeout scales by lane count — a unit is N cells of
        work.  A wedged or broken pool is discarded exactly like in
        :meth:`_pool_round`; the per-job path that follows rebuilds it.
        """
        leftover: list[int] = []
        try:
            executor = self._ensure_pool()
        except Exception as exc:  # noqa: BLE001 — any build failure decomposes
            METRICS.counter("batch.failed").inc(len(units))
            del exc  # the singles path will surface the pool problem loudly
            return [i for u in units for i in u]
        abandoned = False
        waves = [
            (unit, executor.submit(_timed_batch_call, [specs[i] for i in unit]))
            for unit in units
        ]
        try:
            for unit, future in waves:
                if abandoned:
                    future.cancel()
                    leftover.extend(unit)
                    continue
                timeout = None if self.timeout_s is None else self.timeout_s * len(unit)
                try:
                    results, duration = future.result(timeout=timeout)
                except FutureTimeoutError:
                    METRICS.counter("batch.failed").inc()
                    leftover.extend(unit)
                    abandoned = True  # the worker may still be wedged on it
                    continue
                except BrokenExecutor:
                    METRICS.counter("batch.failed").inc()
                    leftover.extend(unit)
                    abandoned = True
                    continue
                except Exception:  # noqa: BLE001 — unit failure decomposes
                    METRICS.counter("batch.failed").inc()
                    leftover.extend(unit)
                    continue
                per_cell = duration / len(unit)
                for idx, result in zip(unit, results):
                    METRICS.timer("exec.job").observe(per_cell)
                    METRICS.counter("exec.jobs_ok").inc()
                    outcome = JobOutcome(
                        spec=specs[idx],
                        result=result,
                        attempts=1,
                        duration_s=per_cell,
                        engine=self.name,
                    )
                    outcomes[idx] = outcome
                    if on_outcome is not None:
                        on_outcome(outcome)
        finally:
            if abandoned:
                self._discard_pool(wait=False)
        return leftover

    def _run_pooled(
        self, specs: list[JobSpec], on_outcome: OnOutcome | None
    ) -> list[JobOutcome]:
        tracer = get_tracer()
        if tracer.enabled:
            # Workers cannot reach this process's tracer, so job lifecycle
            # is narrated from here: every job starts now (they are all
            # queued for the first round), and ends when its outcome is
            # finalised below.
            for spec in specs:
                tracer.emit(
                    JobStartEvent(
                        label=spec.label, app=spec.app, policy=spec.policy, engine=self.name
                    )
                )

        def finalize(outcome: JobOutcome) -> JobOutcome:
            if outcome.ok:
                METRICS.timer("exec.job").observe(outcome.duration_s)
                METRICS.counter("exec.jobs_ok").inc()
            else:
                METRICS.counter("exec.jobs_failed").inc()
            if tracer.enabled:
                tracer.emit(
                    JobEndEvent(
                        label=outcome.spec.label,
                        app=outcome.spec.app,
                        policy=outcome.spec.policy,
                        engine=outcome.engine,
                        ok=outcome.ok,
                        attempts=outcome.attempts,
                        duration_s=outcome.duration_s,
                        error=outcome.error,
                    )
                )
            if on_outcome is not None:
                on_outcome(outcome)
            return outcome

        outcomes: list[JobOutcome | None] = [None] * len(specs)
        attempts = [0] * len(specs)
        pending: list[_IndexedSpec] = list(enumerate(specs))
        failed_rounds = 0
        plan = get_fault_plan()

        def announce_attempt(idx: int) -> None:
            """An attempt was consumed: announce the faults that fired in
            the worker for it (deterministic replay of its decision)."""
            if plan is None:
                return
            rules = plan.planned_job_faults(specs[idx].label, attempts[idx])
            if rules:
                announce_faults(rules, specs[idx].label, attempts[idx])

        def record_success(idx: int, result: RunResult, duration: float) -> None:
            # Streamed from _pool_round as each future completes, so a
            # crash-safe consumer (the sweep journal) has durably recorded
            # every finished cell even if the process dies mid-round.
            attempts[idx] += 1
            announce_attempt(idx)
            outcomes[idx] = finalize(
                JobOutcome(
                    spec=specs[idx],
                    result=result,
                    attempts=attempts[idx],
                    duration_s=duration,
                    engine=self.name,
                )
            )

        while pending:
            if failed_rounds:
                self._backoff_sleep(failed_rounds)
            failures, remainder, degrade_reason = self._pool_round(
                pending, attempts, record_success
            )
            # Jobs in `remainder` were never dispatched (their pool went
            # away first); they keep their attempt budget.
            pending = list(remainder)
            for idx, error in failures:
                attempts[idx] += 1
                announce_attempt(idx)
                METRICS.counter("exec.retries").inc()
                if tracer.enabled:
                    tracer.emit(
                        RetryEvent(
                            label=specs[idx].label,
                            engine=self.name,
                            attempt=attempts[idx],
                            error=error,
                        )
                    )
                if attempts[idx] >= self.max_attempts:
                    outcomes[idx] = finalize(
                        JobOutcome(
                            spec=specs[idx], error=error, attempts=attempts[idx], engine=self.name
                        )
                    )
                else:
                    pending.append((idx, specs[idx]))
            if failures:
                failed_rounds += 1
            if degrade_reason is not None and pending:
                self._note_degraded(degrade_reason)
                pending.sort()
                for idx, spec in pending:
                    # The pool already announced these jobs, and the serial
                    # path emits its own job_end/metrics — no second
                    # job_start and no finalize() here.
                    outcomes[idx] = self._execute_with_retry(
                        spec,
                        attempts_used=attempts[idx],
                        engine_name=f"{self.name}→serial",
                        emit_start=False,
                    )
                    if on_outcome is not None:
                        on_outcome(outcomes[idx])
                pending = []

        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def _pool_round(
        self,
        items: Sequence[_IndexedSpec],
        attempts: Sequence[int],
        record_success: Callable[[int, RunResult, float], None],
    ):
        """One pass over ``items`` through the warm pool.

        Successes are streamed to ``record_success(index, result,
        duration)`` the moment their future completes — not batched until
        the round ends — so the caller can durably persist each one
        before the next is awaited.  Returns ``(failures, remainder,
        degrade_reason)`` where ``failures`` is ``(index, error)`` pairs
        that consumed an attempt, ``remainder`` holds never-dispatched
        items, and a non-None ``degrade_reason`` asks the caller to
        finish everything unfinished in-process.  The pool survives the
        round unless it was abandoned (wedged on a timed-out job, or
        broken by a worker death) — then it is discarded and the next
        round starts fresh.
        """
        failures: list[tuple[int, str]] = []
        remainder: list[_IndexedSpec] = []
        abandoned = False  # a wedged/broken pool must not be rejoined
        degrade_reason: str | None = None
        try:
            executor = self._ensure_pool()
        except Exception as exc:  # noqa: BLE001 — any build failure degrades
            # Cannot even build a pool: run everything serially.  This
            # used to be swallowed silently; the cause must surface.
            return [], list(items), f"pool build failed: {type(exc).__name__}: {exc}"

        try:
            for chunk_start in range(0, len(items), self.chunk_size):
                chunk = items[chunk_start : chunk_start + self.chunk_size]
                if abandoned:
                    remainder.extend(chunk)
                    continue
                waves = [
                    (
                        idx,
                        spec,
                        executor.submit(
                            _timed_call, self.job_runner, spec, attempts[idx] + 1
                        ),
                    )
                    for idx, spec in chunk
                ]
                for idx, spec, future in waves:
                    if abandoned:
                        # Salvage whatever already finished; everything else
                        # goes back untouched.
                        if future.done() and not future.cancelled():
                            exc = future.exception()
                            if exc is None:
                                result, duration = future.result()
                                record_success(idx, result, duration)
                            elif not isinstance(exc, BrokenExecutor):
                                failures.append((idx, f"{type(exc).__name__}: {exc}"))
                            else:
                                remainder.append((idx, spec))
                        else:
                            future.cancel()
                            remainder.append((idx, spec))
                        continue
                    try:
                        result, duration = future.result(timeout=self.timeout_s)
                        record_success(idx, result, duration)
                    except FutureTimeoutError:
                        failures.append(
                            (idx, f"job {spec.label} timed out after {self.timeout_s:g}s")
                        )
                        abandoned = True  # the worker may still be wedged on it
                    except BrokenExecutor:
                        failures.append((idx, f"pool worker died running {spec.label}"))
                        abandoned = True
                        degrade_reason = f"pool worker died running {spec.label}"
                    except Exception as exc:  # noqa: BLE001 — job failure is data
                        failures.append((idx, f"{type(exc).__name__}: {exc}"))
        finally:
            if abandoned:
                self._discard_pool(wait=False)
        return failures, remainder, degrade_reason
