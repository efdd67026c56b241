"""Distributed sweep execution: remote workers and their wire protocol.

The execution layer's engines stopped at one machine's cores; this
package scales a sweep across a fleet:

* :class:`RemoteEngine` — an :class:`~repro.exec.engine.ExecutionEngine`
  that dispatches jobs to a static list of workers (``--workers``)
  over length-prefixed JSON/TCP, with the same
  retry/backoff/degrade-to-serial semantics (shared
  :class:`~repro.exec.engine.EngineOptions`) as the in-process engines.
  A remote sweep's ``SweepResult.aggregates()`` is byte-identical to a
  serial run — including under injected network faults, worker death
  mid-batch, and kill/resume of the coordinator.
* :class:`WorkerServer` — the ``repro worker`` process: handshake,
  one-attempt-per-frame job service, lazy prep-bundle fetch.
* :mod:`repro.dist.protocol` / :mod:`repro.dist.codec` — framing,
  the protocol-version + grid-digest handshake that refuses
  cross-version mixing, and the content-hash-verified wire forms of
  specs, outcomes and prep bundles.  Every result travels back to the
  coordinator in its outcome frame; the coordinator alone writes the
  result store.

See DESIGN.md §G for the wire protocol and failure model.
"""

from repro.dist.codec import batch_digest
from repro.dist.engine import RemoteEngine
from repro.dist.protocol import PROTOCOL_VERSION, HandshakeError, ProtocolError
from repro.dist.registry import WorkerRegistry, parse_worker_address, ping_worker
from repro.dist.worker import WorkerServer

__all__ = [
    "PROTOCOL_VERSION",
    "HandshakeError",
    "ProtocolError",
    "RemoteEngine",
    "WorkerRegistry",
    "WorkerServer",
    "batch_digest",
    "parse_worker_address",
    "ping_worker",
]
