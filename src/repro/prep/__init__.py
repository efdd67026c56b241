"""repro.prep — content-addressed prepared-program artifact cache.

Program preparation (trace generation + the sequential L1 filter)
dominates the cold cost of a simulation job, and a sweep re-prepares the
same program in every worker process.  This package stores prepared
artifacts on disk as memory-mappable ``.npy`` bundles so a program is
generated once, ever, per ``(workload, trace params, machine front-end,
repro.__version__)`` — and every later job, in every process, maps the
shared pages instead of recomputing.

Layers (see DESIGN.md appendix D):

* :mod:`repro.prep.store` — the generic content-addressed bundle store
  (atomic publishes, corruption recovery, telemetry; no in-process cache);
* :mod:`repro.prep.artifacts` — encoding/decoding of the two bundle
  kinds (raw traces; compiled L2 streams in the flat layout of
  :mod:`repro.cpu.streams`);
* consumers — ``repro.trace.builder`` (trace bundles) and
  ``repro.sim.driver`` (stream bundles, whose arrays every replay
  kernel then reads in place), both through the process-wide store
  installed by :func:`configure_prep` (CLI flag ``--prep-dir``).
"""

from repro.prep.artifacts import (
    compiled_from_bundle,
    program_from_bundle,
    stream_bundle,
    stream_key,
    trace_bundle,
    trace_key,
)
from repro.prep.store import (
    PrepBundle,
    PrepStore,
    configure_prep,
    get_prep_store,
    key_digest,
    set_prep_store,
)

__all__ = [
    "PrepBundle",
    "PrepStore",
    "compiled_from_bundle",
    "configure_prep",
    "get_prep_store",
    "key_digest",
    "program_from_bundle",
    "set_prep_store",
    "stream_bundle",
    "stream_key",
    "trace_bundle",
    "trace_key",
]
