"""Job records: what to simulate and what happened when we did.

A :class:`JobSpec` names one simulation — ``(app, policy, config)`` with a
string policy, so the job is pure data and can cross process boundaries or
be content-addressed on disk.  Its :meth:`JobSpec.digest` is the SHA-256 of
the canonical JSON of those three fields and is the key under which
:class:`repro.exec.store.ResultStore` files the result.

A :class:`JobOutcome` is what an engine hands back: either a
:class:`~repro.core.records.RunResult` or an error string, plus how many
attempts it took and how long the successful attempt ran.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from repro.core.records import RunResult
from repro.sim.config import SystemConfig

__all__ = ["JobOutcome", "JobSpec"]


@dataclass(frozen=True)
class JobSpec:
    """One simulation request: a workload under a named policy and config.

    Only *named* policies are representable — a pre-built policy object
    carries state, cannot be content-addressed, and must go through
    :func:`repro.sim.run_application` directly.
    """

    app: str
    policy: str
    config: SystemConfig

    def canonical(self) -> dict:
        """Canonical dict form — the content that is addressed."""
        return {"app": self.app, "policy": self.policy, "config": self.config.to_dict()}

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    @cached_property
    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json` — the store key.

        Cached: the spec is frozen, and hot paths (store lookups, journal
        keys) ask repeatedly.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable id for logs and error messages."""
        return f"{self.app}/{self.policy}"


@dataclass
class JobOutcome:
    """Result of attempting one :class:`JobSpec` on an engine.

    Exactly one of ``result`` / ``error`` is set.  ``attempts`` counts every
    try including the successful one; ``duration_s`` is the wall-clock time
    of the successful attempt (0.0 on failure).  ``engine`` names the engine
    that produced the outcome — a pool engine that degraded to serial
    reports that in the name (e.g. ``"process-pool→serial"``).
    """

    spec: JobSpec
    result: RunResult | None = None
    error: str | None = None
    attempts: int = 1
    duration_s: float = 0.0
    engine: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None
