"""repro.obs — structured telemetry for the simulator and execution layer.

The paper's runtime system *is* a monitoring loop (Fig. 17: the Cache/CPI
monitor feeding the partition engine); this package makes that loop — and
everything around it — observable instead of throwing the per-interval
story away.  Three pieces (DESIGN.md §B):

* **Tracers** (:mod:`repro.obs.tracer`): an event bus with typed events
  (:mod:`repro.obs.events`).  Disabled by default via :data:`NULL_TRACER`
  — instrumented code guards with ``tracer.enabled`` so a disabled run
  constructs no event objects and is byte-identical to an untraced one
  (``benchmarks/bench_obs_overhead.py`` bounds the residual cost).
* **Metrics** (:mod:`repro.obs.metrics`): an always-on registry of
  counters/gauges/timers shared by every layer (:data:`METRICS`).
* **Exporters** (:mod:`repro.obs.export`): JSONL in, Chrome
  ``trace_event`` JSON (Perfetto-loadable) and a plain-text report out.

CLI: ``--trace PATH [--trace-format jsonl|chrome]`` on ``run`` /
``compare`` / ``figure`` / ``sweep``, and ``repro report PATH`` to
summarize a JSONL trace.
"""

from repro.obs.events import (
    EVENT_KINDS,
    ConvergenceEvent,
    EngineDegradedEvent,
    FaultInjectedEvent,
    IntervalEvent,
    InterruptEvent,
    JobEndEvent,
    JobStartEvent,
    MetricsEvent,
    RepartitionEvent,
    RetryEvent,
    SpanEvent,
    StoreHitEvent,
    StoreMissEvent,
)
from repro.obs.export import chrome_trace, read_events, summarize, write_chrome_trace
from repro.obs.metrics import METRICS, Counter, Gauge, Metrics, Timer
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "ConvergenceEvent",
    "EVENT_KINDS",
    "EngineDegradedEvent",
    "FaultInjectedEvent",
    "Gauge",
    "IntervalEvent",
    "InterruptEvent",
    "JobEndEvent",
    "JobStartEvent",
    "JsonlTracer",
    "METRICS",
    "Metrics",
    "MetricsEvent",
    "NULL_TRACER",
    "NullTracer",
    "RecordingTracer",
    "RepartitionEvent",
    "RetryEvent",
    "SpanEvent",
    "StoreHitEvent",
    "StoreMissEvent",
    "Timer",
    "Tracer",
    "chrome_trace",
    "get_tracer",
    "read_events",
    "set_tracer",
    "summarize",
    "write_chrome_trace",
]
