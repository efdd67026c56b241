"""Wire protocol of the sweep service: requests, sweep identity, events.

A :class:`SweepRequest` is the JSON body of ``POST /v1/sweeps`` — the
same grid ``repro sweep`` takes on the command line (apps x policies x
seeds x thread-counts over a scaled :class:`~repro.sim.config.SystemConfig`),
validated up front so a malformed submission is a 400 with a message, not
a traceback inside the scheduler.

Sweep identity is content-addressed: :attr:`SweepRequest.sweep_id` is the
SHA-256 digest of the same grid key ``repro sweep --journal`` stamps into
its journal header (:func:`repro.exec.sweep.grid_key`, which includes
``repro.__version__``).  Two clients submitting identical grids therefore
*name the same sweep* and attach to one execution; the journal a sweep
writes is stored under its id, so a restarted service resumes exactly the
journal that sweep left behind.

Event records (the NDJSON stream of ``GET /v1/sweeps/<id>/events``) are
plain dicts built by :func:`cell_event` / :func:`status_event` — flat,
JSON-first, one object per line, mirroring the obs event style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.exec.grid import SweepGrid
from repro.exec.jobs import JobSpec
from repro.exec.sweep import SweepCell
from repro.partition import POLICY_REGISTRY
from repro.sim.config import CACHE_BACKEND_NAMES, SystemConfig
from repro.trace.workloads import list_workloads

__all__ = ["RequestError", "SweepRequest", "cell_event", "status_event"]

DEFAULT_PORT = 8787
"""Default TCP port of ``repro serve`` (localhost only)."""


class RequestError(ValueError):
    """A submission that fails validation — rendered as HTTP 400."""


def _str_list(payload: dict, key: str, *, required: bool = False) -> list[str] | None:
    value = payload.get(key)
    if value is None:
        if required:
            raise RequestError(f"{key!r} is required (a non-empty list of strings)")
        return None
    if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
        raise RequestError(f"{key!r} must be a non-empty list of strings")
    return value


def _int_list(payload: dict, key: str, default: list[int], *, minimum: int = 0) -> list[int]:
    value = payload.get(key)
    if value is None:
        return default
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise RequestError(f"{key!r} must be a non-empty list of integers")
    if any(v < minimum for v in value):
        raise RequestError(f"{key!r} values must be >= {minimum}")
    return value


def _pos_int(payload: dict, key: str, default: int) -> int:
    value = payload.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise RequestError(f"{key!r} must be an integer >= 1")
    return value


@dataclass(frozen=True)
class SweepRequest:
    """One validated sweep submission (the body of ``POST /v1/sweeps``).

    ``baseline`` is already resolved (``"shared"`` when swept, else the
    first policy) so every identity derived from the request — grid key,
    sweep id, journal header — is deterministic in the payload.
    """

    apps: tuple[str, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...] = (1,)
    thread_counts: tuple[int, ...] = (4,)
    baseline: str = "shared"
    intervals: int = 50
    interval_instructions: int = 20_000
    cache_backend: str = "fast"
    client: str = "anonymous"
    resume: bool = field(default=True, compare=False)

    @classmethod
    def from_dict(cls, payload: object) -> "SweepRequest":
        """Validate a JSON payload into a request; raises
        :class:`RequestError` with an operator-readable message."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        apps = _str_list(payload, "apps", required=True)
        policies = _str_list(payload, "policies", required=True)
        known_apps = list_workloads()
        unknown = [a for a in apps if a not in known_apps]
        if unknown:
            raise RequestError(
                f"unknown workloads: {', '.join(unknown)} (known: {', '.join(known_apps)})"
            )
        unknown = [p for p in policies if p not in POLICY_REGISTRY]
        if unknown:
            raise RequestError(
                f"unknown policies: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(POLICY_REGISTRY))})"
            )
        baseline = payload.get("baseline")
        if baseline is None:
            baseline = "shared" if "shared" in policies else policies[0]
        elif baseline not in policies:
            raise RequestError(
                f"baseline {baseline!r} is not among the swept policies: {', '.join(policies)}"
            )
        backend = payload.get("cache_backend", "fast")
        if backend not in CACHE_BACKEND_NAMES:
            raise RequestError(
                f"'cache_backend' must be one of {', '.join(CACHE_BACKEND_NAMES)}, "
                f"got {backend!r}"
            )
        client = payload.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise RequestError("'client' must be a non-empty string")
        return cls(
            apps=tuple(apps),
            policies=tuple(policies),
            seeds=tuple(_int_list(payload, "seeds", [1])),
            thread_counts=tuple(_int_list(payload, "thread_counts", [4], minimum=1)),
            baseline=baseline,
            intervals=_pos_int(payload, "intervals", 50),
            interval_instructions=_pos_int(payload, "interval_instructions", 20_000),
            cache_backend=backend,
            client=client,
            resume=bool(payload.get("resume", True)),
        )

    def to_dict(self) -> dict:
        return {
            "apps": list(self.apps),
            "policies": list(self.policies),
            "seeds": list(self.seeds),
            "thread_counts": list(self.thread_counts),
            "baseline": self.baseline,
            "intervals": self.intervals,
            "interval_instructions": self.interval_instructions,
            "cache_backend": self.cache_backend,
            "client": self.client,
        }

    @cached_property
    def grid(self) -> SweepGrid:
        """The request as the canonical :class:`~repro.exec.grid.SweepGrid`
        every entry point compiles through — so spec digests (and therefore
        store keys and coalescing) agree across CLI, specs and service."""
        return SweepGrid(
            apps=self.apps,
            policies=self.policies,
            seeds=self.seeds,
            thread_counts=self.thread_counts,
            baseline=self.baseline,
            intervals=self.intervals,
            interval_instructions=self.interval_instructions,
            cache_backend=self.cache_backend,
        )

    def config(self) -> SystemConfig:
        """The base config this grid varies — exactly what
        ``repro sweep`` builds from the same flags."""
        return self.grid.config()

    def grid_key(self) -> dict:
        return self.grid.grid_key()

    @property
    def sweep_id(self) -> str:
        """Content address of the whole sweep (includes the simulator
        version): the attach/coalesce key and the journal file name."""
        return self.grid.digest

    def specs(self) -> list[JobSpec]:
        """The grid in canonical sweep order (shared with ``run_sweep``)."""
        return self.grid.specs()

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells


def cell_event(
    cell: SweepCell, *, key: str, completed: int, total: int, replayed: bool = False
) -> dict:
    """One completed cell as an NDJSON stream record.  ``replayed`` marks
    history restored from the journal/store at attach time rather than
    produced live."""
    return {
        "event": "cell",
        "key": key,
        "app": cell.app,
        "policy": cell.policy,
        "seed": cell.seed,
        "n_threads": cell.n_threads,
        "ok": cell.ok,
        "source": cell.source,
        "total_cycles": cell.total_cycles,
        "error": cell.error,
        "completed": completed,
        "total": total,
        "replayed": replayed,
    }


def status_event(status: dict) -> dict:
    """The stream's first record (current progress) and its last (the
    terminal status)."""
    return {"event": "status", **status}
