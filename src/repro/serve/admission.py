"""Admission control: bounded backlog, per-client quotas, backpressure.

The service exists so "heavy traffic from millions of users" degrades
gracefully instead of OOMing the box: every submission is checked here
*before* any cell is enqueued.  Three independent limits:

* **backlog bound** — the scheduler may hold at most ``max_pending_cells``
  cells that are queued or executing.  A submission whose *new* work
  (cells not already resolved by the store, the journal, or an in-flight
  twin) would overflow the bound is rejected.  Coalesced and cached cells
  are free: a fully-warm or fully-duplicate submission is always admitted,
  which is what makes request coalescing an admission-control feature and
  not just a cache optimisation.
* **per-client quota** — at most ``max_sweeps_per_client`` unfinished
  sweeps owned by one client id, so a single runaway tenant cannot starve
  the rest (the LFOC-style fairness concern at service granularity).
* **global sweep cap** — ``max_active_sweeps`` unfinished sweeps total.

A rejection carries a ``retry_after_s`` estimate derived from the live
``exec.job`` timer (mean job cost x backlog / workers, clamped to
[1s, 60s]) — the value of the HTTP 429 ``Retry-After`` header.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import METRICS

__all__ = ["AdmissionController", "Rejection"]


@dataclass(frozen=True)
class Rejection:
    """Why a submission was turned away, and when to try again.

    ``reason`` is the machine-groupable kind (``backlog`` /
    ``client_quota`` / ``sweep_cap``); ``message`` the operator-readable
    sentence."""

    reason: str
    message: str
    retry_after_s: float

    def to_dict(self) -> dict:
        return {
            "error": self.message,
            "reason": self.reason,
            "retry_after_s": self.retry_after_s,
        }


class AdmissionController:
    def __init__(
        self,
        *,
        max_pending_cells: int = 512,
        max_active_sweeps: int = 64,
        max_sweeps_per_client: int = 8,
        workers: int = 1,
    ) -> None:
        if min(max_pending_cells, max_active_sweeps, max_sweeps_per_client, workers) < 1:
            raise ValueError("admission limits must all be >= 1")
        self.max_pending_cells = max_pending_cells
        self.max_active_sweeps = max_active_sweeps
        self.max_sweeps_per_client = max_sweeps_per_client
        self.workers = workers
        self._active_by_client: dict[str, int] = {}

    # -- accounting ------------------------------------------------------

    @property
    def active_sweeps(self) -> int:
        return sum(self._active_by_client.values())

    def register(self, client: str) -> None:
        """Count a newly admitted sweep against ``client``'s quota."""
        self._active_by_client[client] = self._active_by_client.get(client, 0) + 1
        METRICS.gauge("serve.active_sweeps").set(self.active_sweeps)

    def release(self, client: str) -> None:
        """A sweep owned by ``client`` reached a terminal state."""
        left = self._active_by_client.get(client, 0) - 1
        if left > 0:
            self._active_by_client[client] = left
        else:
            self._active_by_client.pop(client, None)
        METRICS.gauge("serve.active_sweeps").set(self.active_sweeps)

    # -- decisions -------------------------------------------------------

    def retry_after_s(self, backlog: int) -> float:
        """Estimate when capacity frees up: the backlog drained at the
        observed mean job cost across ``workers``, clamped to [1, 60]s so
        a cold timer (no jobs yet) still returns something actionable."""
        mean_s = METRICS.timer("exec.job").mean_s or 0.1
        return max(1.0, min(60.0, backlog * mean_s / self.workers))

    def admit(self, client: str, new_cells: int, backlog: int) -> Rejection | None:
        """Admit or reject a submission wanting ``new_cells`` scheduled
        on top of the scheduler's current ``backlog``.  Returns None when
        admitted (the caller then ``register``-s the sweep)."""
        owned = self._active_by_client.get(client, 0)
        if owned >= self.max_sweeps_per_client:
            return self._reject(
                f"client {client!r} already has {owned} active sweep(s) "
                f"(limit {self.max_sweeps_per_client})",
                backlog,
                "client_quota",
            )
        if self.active_sweeps >= self.max_active_sweeps:
            return self._reject(
                f"{self.active_sweeps} sweeps already active (limit {self.max_active_sweeps})",
                backlog,
                "sweep_cap",
            )
        if new_cells and backlog + new_cells > self.max_pending_cells:
            return self._reject(
                f"scheduling {new_cells} cell(s) would exceed the pending-cell bound "
                f"({backlog} queued, limit {self.max_pending_cells})",
                backlog,
                "backlog",
            )
        return None

    def _reject(self, message: str, backlog: int, kind: str) -> Rejection:
        METRICS.counter("serve.sweeps.rejected").inc()
        METRICS.counter(f"serve.rejected.{kind}").inc()
        return Rejection(
            reason=kind, message=message,
            retry_after_s=round(self.retry_after_s(backlog), 3),
        )
