"""Shared machinery for experiment runners: engine- and store-backed results.

Several figures read the same underlying runs (e.g. Figs. 3, 4 and 5 all
analyse the nine applications under the shared cache; Figs. 19-21 all need
the model-based run).  Lookups resolve in three layers:

1. an in-process memo keyed by ``(app, policy, SystemConfig)`` — the
   frozen config dataclass itself, so the key can never drift out of sync
   with the config's fields;
2. the configured :class:`repro.exec.ResultStore` (if any) — an on-disk
   cache that persists results across harness invocations;
3. the configured :class:`repro.exec.ExecutionEngine` — serial by default;
   a :class:`~repro.exec.ProcessPoolEngine` fans batched misses (see
   :func:`get_results`) out over worker processes.

``python -m repro``'s ``--jobs`` / ``--cache-dir`` flags configure the
engine and store via :func:`configure`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.records import RunResult
from repro.exec.engine import ExecutionEngine, SerialEngine
from repro.exec.jobs import JobSpec
from repro.exec.store import ResultStore
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer
from repro.sim.config import SystemConfig

__all__ = [
    "clear_result_cache",
    "configure",
    "current_engine",
    "current_store",
    "execution_stats",
    "get_result",
    "get_results",
    "reset_execution_stats",
]

_MEMO: dict[tuple[str, str, SystemConfig], RunResult] = {}
_ENGINE: ExecutionEngine = SerialEngine()
_STORE: ResultStore | None = None
_STATS = {"memo_hits": 0, "store_hits": 0, "simulated": 0}

_UNSET = object()


def configure(*, engine=_UNSET, store=_UNSET) -> None:
    """Install the engine and/or result store used by all lookups.

    Pass ``engine=None`` to restore the default :class:`SerialEngine`;
    pass ``store=None`` to detach the persistent store.  Omitted keywords
    leave the current setting untouched.
    """
    global _ENGINE, _STORE
    if engine is not _UNSET:
        _ENGINE = engine if engine is not None else SerialEngine()
    if store is not _UNSET:
        _STORE = store


def current_engine() -> ExecutionEngine:
    return _ENGINE


def current_store() -> ResultStore | None:
    return _STORE


def execution_stats() -> dict:
    """Lookup counters since the last reset (store counters included)."""
    stats = dict(_STATS)
    if _STORE is not None:
        stats["store"] = _STORE.stats()
    return stats


def reset_execution_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def get_result(app: str, policy: str, config: SystemConfig) -> RunResult:
    """Run (or fetch the memoised/stored) simulation of ``app`` under
    ``policy``.

    Only string policy names are cacheable — pre-built policy objects carry
    state and must go through :func:`repro.sim.run_application` directly.
    """
    return get_results([(app, policy)], config)[(app, policy)]


def get_results(
    pairs: Iterable[tuple[str, str]], config: SystemConfig
) -> dict[tuple[str, str], RunResult]:
    """Resolve a batch of ``(app, policy)`` pairs against one config.

    Memo and store hits are filled first; the remaining misses go to the
    configured engine as one batch — with a pool engine this is where a
    figure's whole working set simulates in parallel.  Raises
    ``RuntimeError`` if any job still fails after the engine's retries.
    """
    pairs = list(dict.fromkeys(pairs))
    results: dict[tuple[str, str], RunResult] = {}
    misses: list[tuple[str, str]] = []
    for app, policy in pairs:
        key = (app, policy, config)
        memoised = _MEMO.get(key)
        if memoised is not None:
            _STATS["memo_hits"] += 1
            results[(app, policy)] = memoised
            continue
        if _STORE is not None:
            stored = _STORE.get(JobSpec(app, policy, config))
            if stored is not None:
                _STATS["store_hits"] += 1
                _MEMO[key] = stored
                results[(app, policy)] = stored
                continue
        misses.append((app, policy))

    if misses:
        specs = [JobSpec(app, policy, config) for app, policy in misses]
        # Fixed span name: the report aggregates time-in-phase by name.
        with get_tracer().span("simulate-batch"):
            outcomes = _ENGINE.run(specs)
        METRICS.counter("experiments.batches").inc()
        for spec, outcome in zip(specs, outcomes, strict=True):
            if not outcome.ok:
                raise RuntimeError(
                    f"simulation of {spec.label} failed after "
                    f"{outcome.attempts} attempt(s): {outcome.error}"
                )
            _STATS["simulated"] += 1
            if _STORE is not None:
                _STORE.put(spec, outcome.result)
            _MEMO[(spec.app, spec.policy, config)] = outcome.result
            results[(spec.app, spec.policy)] = outcome.result
    return results


def clear_result_cache() -> None:
    """Drop the in-process memo (the on-disk store is unaffected)."""
    _MEMO.clear()
