"""Execution layer: parallel engines and a persistent result store.

Every paper figure replays ``(app, policy, config)`` simulations; this
package is the layer between the simulator and every harness entry point
that makes those replays cheap:

* :class:`JobSpec` / :class:`JobOutcome` — the unit of work and its
  recorded outcome (result or error, attempts, duration).
* :class:`ExecutionEngine` — how jobs run: :class:`SerialEngine`
  (in-process), :class:`ProcessPoolEngine` (multiprocessing fan-out
  with chunked submission, per-job timeouts, bounded retry with backoff
  and graceful degradation to serial when a pool worker dies) or
  :class:`~repro.dist.engine.RemoteEngine` (a static list of TCP
  workers; lives in :mod:`repro.dist`).  All three share one
  :class:`EngineOptions` retry/backoff configuration.
* :class:`ResultStore` — a content-addressed cache of
  :class:`~repro.core.records.RunResult` that persists across harness
  invocations (key = SHA-256 of the job's canonical JSON, atomic
  write-then-rename, invalidated by ``repro.__version__``), persisted
  through a pluggable :class:`StoreBackend` (:class:`LocalDirBackend`
  on disk, :class:`MemoryBackend` in tests).
* :func:`run_sweep` — fan a grid of apps × policies × seeds ×
  thread-counts out over an engine and aggregate speedups.
* :class:`SweepJournal` — append-only, fsynced record of completed sweep
  cells; ``run_sweep(..., journal=..., resume=True)`` restores them
  after a crash instead of recomputing.
* :class:`FaultPlan` — deterministic, seeded fault injection (worker
  death, job exceptions, artifact corruption, delays, plus the network
  kinds in ``NET_FAULT_KINDS``: slow links, dropped connections,
  partitions, vanishing workers) threaded through every engine and
  store behind a zero-overhead-when-disabled hook.

See DESIGN.md §A (execution appendix) for the key scheme and the
invalidation-by-version rule, §E for crash safety and fault
injection, and §G for distributed execution.
"""

from repro.exec.backend import LocalDirBackend, MemoryBackend, StoreBackend
from repro.exec.engine import EngineOptions, ExecutionEngine, SerialEngine, execute_job
from repro.exec.faults import (
    NET_FAULT_KINDS,
    FaultPlan,
    FaultRule,
    InjectedFault,
    get_fault_plan,
    set_fault_plan,
)
from repro.exec.grid import DEFAULT_POLICIES, POLICY_ALIASES, GridError, SweepGrid
from repro.exec.jobs import JobOutcome, JobSpec
from repro.exec.journal import JournalEntry, JournalMismatchError, SweepJournal
from repro.exec.pool import ProcessPoolEngine
from repro.exec.store import ResultStore
from repro.exec.sweep import SweepResult, expand_grid, grid_key, run_sweep

__all__ = [
    "DEFAULT_POLICIES",
    "EngineOptions",
    "ExecutionEngine",
    "FaultPlan",
    "FaultRule",
    "GridError",
    "InjectedFault",
    "JobOutcome",
    "JobSpec",
    "JournalEntry",
    "JournalMismatchError",
    "LocalDirBackend",
    "MemoryBackend",
    "NET_FAULT_KINDS",
    "POLICY_ALIASES",
    "ProcessPoolEngine",
    "ResultStore",
    "SerialEngine",
    "StoreBackend",
    "SweepGrid",
    "SweepJournal",
    "SweepResult",
    "execute_job",
    "expand_grid",
    "get_fault_plan",
    "grid_key",
    "run_sweep",
    "set_fault_plan",
]
