"""Typed telemetry events.

Every event is a small frozen dataclass with a class-level ``kind`` tag.
The schema is flat and JSON-first: ``to_dict()`` produces exactly the
payload a :class:`~repro.obs.tracer.JsonlTracer` writes (the tracer adds
the ``kind`` and ``ts`` keys), and the exporters in
:mod:`repro.obs.export` consume those dicts back — no reification needed
on the reading side.

Two event families exist (DESIGN.md §B):

* **simulation events**, emitted per execution interval from inside a run —
  ``interval`` (the monitor's view: per-thread CPI/misses/ways, the
  critical thread, and the model's prediction for the interval when a
  model-based policy made one), ``repartition`` (a partition change:
  old/new targets, what triggered it, how many ways moved) and
  ``convergence`` (how far the per-set way occupancy still is from the
  targets after eviction control);
* **execution-layer events**, emitted around whole simulations —
  ``job_start``/``job_end``/``retry`` from the engines,
  ``store_hit``/``store_miss`` from the result store,
  ``engine_degraded`` when a pool engine falls back to in-process
  execution, ``fault_injected`` when an active
  :class:`~repro.exec.faults.FaultPlan` fires an injector,
  ``interrupt`` when a sweep is stopped by SIGINT/SIGTERM, plus generic
  ``span`` phase timings and a final ``metrics`` registry snapshot.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

__all__ = [
    "ConvergenceEvent",
    "EVENT_KINDS",
    "EngineDegradedEvent",
    "FaultInjectedEvent",
    "IntervalEvent",
    "InterruptEvent",
    "JobEndEvent",
    "JobShippedEvent",
    "JobStartEvent",
    "MetricsEvent",
    "RepartitionEvent",
    "RetryEvent",
    "SpanEvent",
    "StoreHitEvent",
    "StoreMissEvent",
    "WorkerJoinEvent",
    "WorkerLostEvent",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class: ``kind`` tags the schema, ``to_dict`` is the payload."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IntervalEvent(TraceEvent):
    """One execution interval as the runtime's monitor saw it.

    ``predicted_cpi`` is the per-thread CPI the policy's models forecast
    *for this interval* when they chose its targets (one interval earlier);
    ``None`` for policies without models or before the models exist.
    """

    kind: ClassVar[str] = "interval"

    app: str
    policy: str
    index: int
    cpi: tuple[float, ...]
    misses: tuple[int, ...]
    ways: tuple[int, ...]
    critical_thread: int
    predicted_cpi: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RepartitionEvent(TraceEvent):
    """A partition decision that changed the way targets."""

    kind: ClassVar[str] = "repartition"

    app: str
    policy: str
    index: int
    old: tuple[int, ...]
    new: tuple[int, ...]
    trigger: str
    moved_ways: int
    iterations: int | None = None


@dataclass(frozen=True)
class ConvergenceEvent(TraceEvent):
    """Distance of per-set way occupancy from the targets at an interval
    boundary — how far eviction control still has to walk the sets."""

    kind: ClassVar[str] = "convergence"

    app: str
    policy: str
    index: int
    mean_distance: float
    max_distance: int
    converged_sets: int
    total_sets: int


@dataclass(frozen=True)
class JobStartEvent(TraceEvent):
    """An engine began working on a job."""

    kind: ClassVar[str] = "job_start"

    label: str
    app: str
    policy: str
    engine: str


@dataclass(frozen=True)
class JobEndEvent(TraceEvent):
    """An engine finished (or gave up on) a job."""

    kind: ClassVar[str] = "job_end"

    label: str
    app: str
    policy: str
    engine: str
    ok: bool
    attempts: int
    duration_s: float
    error: str | None = None


@dataclass(frozen=True)
class RetryEvent(TraceEvent):
    """One failed attempt at a job (the attempt that will be retried or,
    on the last attempt, reported in the ``job_end``)."""

    kind: ClassVar[str] = "retry"

    label: str
    engine: str
    attempt: int
    error: str


@dataclass(frozen=True)
class EngineDegradedEvent(TraceEvent):
    """A pool engine fell back to in-process execution — a warning, not a
    failure: the batch still completes, but without parallelism.  The
    cause (a pool that could not be built, or a dead worker) is data a
    production operator must see, never a silent slowdown."""

    kind: ClassVar[str] = "engine_degraded"

    engine: str
    reason: str


@dataclass(frozen=True)
class FaultInjectedEvent(TraceEvent):
    """An active FaultPlan fired one injector.  ``key`` is the job label
    (or artifact digest for ``artifact-corruption``); ``attempt`` is the
    1-based attempt number the fault keyed on (0 for artifacts)."""

    kind: ClassVar[str] = "fault_injected"

    fault: str
    key: str
    attempt: int


@dataclass(frozen=True)
class InterruptEvent(TraceEvent):
    """A sweep was stopped by a signal after draining in-flight work.
    ``completed`` counts cells already durably journaled."""

    kind: ClassVar[str] = "interrupt"

    signal: str
    completed: int


@dataclass(frozen=True)
class StoreHitEvent(TraceEvent):
    kind: ClassVar[str] = "store_hit"

    label: str
    digest: str


@dataclass(frozen=True)
class StoreMissEvent(TraceEvent):
    kind: ClassVar[str] = "store_miss"

    label: str
    digest: str
    corrupt: bool = False


@dataclass(frozen=True)
class WorkerJoinEvent(TraceEvent):
    """A remote worker completed the protocol handshake for a batch."""

    kind: ClassVar[str] = "worker_join"

    worker: str
    address: str
    pid: int


@dataclass(frozen=True)
class WorkerLostEvent(TraceEvent):
    """A remote worker's link died (vanished process, dropped connection,
    failed handshake).  ``requeued`` counts jobs sent back to the pool."""

    kind: ClassVar[str] = "worker_lost"

    worker: str
    address: str
    reason: str
    requeued: int = 0


@dataclass(frozen=True)
class JobShippedEvent(TraceEvent):
    """One job attempt was dispatched over the wire to a worker."""

    kind: ClassVar[str] = "job_shipped"

    label: str
    worker: str
    attempt: int


@dataclass(frozen=True)
class SpanEvent(TraceEvent):
    """A timed phase; the tracer stamps the *end*, so the phase started at
    ``ts - duration_s``."""

    kind: ClassVar[str] = "span"

    name: str
    duration_s: float


@dataclass(frozen=True)
class MetricsEvent(TraceEvent):
    """Snapshot of the metrics registry, typically emitted once at the end
    of a traced invocation so counters land next to the event stream."""

    kind: ClassVar[str] = "metrics"

    snapshot: dict


EVENT_KINDS: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        IntervalEvent,
        RepartitionEvent,
        ConvergenceEvent,
        JobStartEvent,
        JobEndEvent,
        RetryEvent,
        EngineDegradedEvent,
        FaultInjectedEvent,
        InterruptEvent,
        StoreHitEvent,
        StoreMissEvent,
        WorkerJoinEvent,
        WorkerLostEvent,
        JobShippedEvent,
        SpanEvent,
        MetricsEvent,
    )
}
"""``kind`` string -> event class, the authoritative schema registry."""
