"""Process-pool transport for the attempt state machine.

:class:`ProcessPoolEngine` runs the one attempt loop,
:meth:`ExecutionEngine._run <repro.exec.engine.ExecutionEngine._run>`,
and hands each round's attempts to a warm ``ProcessPoolExecutor``: one
future per unit, every unit of a round submitted at once.  The fault
model is the machine's, common to both engines:

* a 1-lane unit that **raises** in a worker uses up an attempt and is
  retried (bounded, exponential backoff between rounds) in a later round;
  a multi-lane unit that raises splits into 1-lane units, budget intact;
* a unit that exceeds its **timeout** (``timeout_s`` per lane) fails the
  same way, and the executor that may still be wedged on it is abandoned
  (workers are not interruptible): a fresh pool serves the next round;
* a **dead worker** (``BrokenProcessPool`` — e.g. the OOM killer or a
  crash in native code) fails the unit it ran, abandons the pool and
  degrades the rest of the run to the in-process transport, loudly
  (``degraded_reasons``, ``exec.degraded_to_serial``, an
  ``engine_degraded`` event and a stderr warning), so a sweep always
  completes with an outcome per job.  A pool that cannot be built, or
  that broke while idle between runs, degrades the same way.

Units the abandoned pool never finished go back into the queue with
their budget intact.  Simulations are deterministic in ``(app, policy,
config)``, so serial and pool execution produce identical
:class:`~repro.core.records.RunResult`s — the engines are
interchangeable, only wall-clock differs.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor

from repro.core.records import RunResult
from repro.exec.engine import EngineOptions, ExecutionEngine, OnOutcome
from repro.exec.faults import FaultPlan, get_fault_plan, set_fault_plan
from repro.exec.jobs import JobOutcome, JobSpec

__all__ = ["ProcessPoolEngine"]


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
    """Runs the attempt machine over worker processes.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to ``os.cpu_count()``.  With
        ``jobs <= 1``, or a run that holds a single job, attempts run
        in-process — no pool is spawned, so ``get_result``-style single
        lookups pay no fork cost.  A lone multi-lane unit still goes to
        the pool.  Workers are long-lived across rounds *and* across
        ``run()`` invocations (the pool stays warm until :meth:`close`),
        so worker start-up and the solo cells' compiled-program memo
        amortise over a whole sweep.  A batch unit's program, and the
        prep bundle mapping it reads, are released when the unit ends.
    timeout_s:
        Per-job cap on the wall-clock wait for a unit's result once the
        engine starts waiting on it, scaled by the unit's lane count;
        ``None`` waits forever.
    mp_context:
        Optional ``multiprocessing`` context (e.g. ``get_context("spawn")``).
    """

    name = "process-pool"

    def __init__(
        self,
        jobs: int | None = None,
        *,
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
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
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
            self.close()
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

    def close(self) -> None:
        """Shut the warm pool down (the engine stays usable; the next
        ``run()`` forks a fresh pool)."""
        while self._pool_holder:
            self._pool_holder.pop().shutdown(wait=True)

    def run(
        self, specs: Sequence[JobSpec], *, on_outcome: OnOutcome | None = None
    ) -> list[JobOutcome]:
        return self._run(specs, on_outcome)

    def _transport(self, n_specs: int) -> Callable[..., Future]:
        if self.jobs <= 1 or n_specs == 1:
            return super()._transport(n_specs)  # a pool buys nothing here
        return self._ensure_pool().submit

    def _abandon(self) -> None:
        _shutdown_pool(self._pool_holder)
