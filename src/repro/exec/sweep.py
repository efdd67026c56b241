"""Grid sweeps: apps × policies × seeds × thread-counts over an engine.

The paper's evaluation (and related work such as Com-CAS and LFOC) is a
large sweep over workload/policy/configuration combinations — exactly the
embarrassingly parallel shape the execution layer exists for.  A sweep

1. expands the grid into :class:`~repro.exec.jobs.JobSpec`s,
2. restores cells already completed by an interrupted run when resuming
   from a :class:`~repro.exec.journal.SweepJournal`,
3. resolves what it can from a :class:`~repro.exec.store.ResultStore`,
4. fans the misses out over an :class:`~repro.exec.engine.ExecutionEngine`,
   persisting every cell (store entry + journal record) *as it
   completes* so a crash loses at most in-flight work, and
5. aggregates per-policy speedups over a baseline policy across the grid.

Failures never abort a sweep: failed cells are reported and excluded from
the aggregates.  Grid points whose *baseline* cell failed are excluded
from every policy's speedup at that point (a speedup needs both runs) and
counted in ``baseline_missing`` so the report shows the reduced coverage
instead of silently averaging over fewer points.

Crash-safety contract: :meth:`SweepResult.aggregates` — the grid, the
per-cell outcomes and the per-policy mean speedups — is byte-identical
between an uninterrupted sweep and any kill/resume of the same grid
(``tests/test_chaos.py`` pins this under both engines, with and without
injected faults).  Bookkeeping that legitimately differs across a resume
(wall time, simulated/store-hit/resumed counts) lives only in
:meth:`SweepResult.to_dict` alongside the aggregates.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.exec.engine import ExecutionEngine, SerialEngine
from repro.exec.jobs import JobOutcome, JobSpec
from repro.exec.journal import JournalEntry, SweepJournal
from repro.exec.store import ResultStore
from repro.obs.metrics import METRICS
from repro.sim.config import SystemConfig

__all__ = ["SweepCell", "SweepResult", "expand_grid", "grid_key", "run_sweep"]


@dataclass(frozen=True)
class SweepCell:
    """One grid point's summary (full RunResults stay in the store)."""

    app: str
    policy: str
    seed: int
    n_threads: int
    total_cycles: float | None
    source: str  # "store" | "run"
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """Outcome of one grid sweep, with ``format()``/``to_dict()`` like every
    experiment runner."""

    apps: list[str]
    policies: list[str]
    seeds: list[int]
    thread_counts: list[int]
    baseline: str
    cells: list[SweepCell]
    engine: str
    wall_s: float
    simulated: int
    store_hits: int
    store_stats: dict | None = None
    failures: list[SweepCell] = field(default_factory=list)
    resumed: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.cells)

    def _cycles(self, app: str, policy: str, seed: int, n_threads: int) -> float | None:
        for cell in self.cells:
            if (cell.app, cell.policy, cell.seed, cell.n_threads) == (
                app, policy, seed, n_threads,
            ):
                return cell.total_cycles if cell.ok else None
        return None

    def speedups(self, app: str, policy: str) -> list[float]:
        """Speedups of ``policy`` over the baseline for ``app``, one per
        (seed, thread-count) grid point where both runs succeeded.

        A grid point whose baseline cell failed contributes to *no*
        policy's speedups (there is nothing to normalise by); it is
        counted in :attr:`baseline_missing` rather than silently
        shrinking the mean's denominator.
        """
        out = []
        for seed in self.seeds:
            for n_threads in self.thread_counts:
                cyc = self._cycles(app, policy, seed, n_threads)
                base = self._cycles(app, self.baseline, seed, n_threads)
                if cyc is not None and base:
                    out.append(base / cyc - 1.0)
        return out

    @property
    def baseline_missing(self) -> int:
        """Grid points (app × seed × thread-count) with no usable baseline
        cell — excluded from every per-policy speedup aggregate."""
        return sum(
            1
            for app in self.apps
            for seed in self.seeds
            for n_threads in self.thread_counts
            if not self._cycles(app, self.baseline, seed, n_threads)
        )

    def mean_speedup(self, app: str, policy: str) -> float | None:
        ss = self.speedups(app, policy)
        return sum(ss) / len(ss) if ss else None

    def policy_mean_speedup(self, policy: str) -> float | None:
        """Grand mean over every app's per-grid-point speedups."""
        ss = [s for app in self.apps for s in self.speedups(app, policy)]
        return sum(ss) / len(ss) if ss else None

    def format(self) -> str:
        from repro.experiments.reporting import format_table

        others = [p for p in self.policies if p != self.baseline]
        rows: list[list[object]] = []
        for app in self.apps:
            row: list[object] = [app]
            for policy in others:
                mean = self.mean_speedup(app, policy)
                row.append("n/a" if mean is None else f"{mean:+.1%}")
            rows.append(row)
        mean_row: list[object] = ["(mean)"]
        for policy in others:
            mean = self.policy_mean_speedup(policy)
            mean_row.append("n/a" if mean is None else f"{mean:+.1%}")
        rows.append(mean_row)
        table = format_table(
            ["app"] + [f"{p} vs {self.baseline}" for p in others],
            rows,
            title=(
                f"sweep: {len(self.apps)} apps x {len(self.policies)} policies x "
                f"{len(self.seeds)} seeds x {len(self.thread_counts)} thread-counts"
            ),
        )
        summary = (
            f"{self.n_jobs} jobs on {self.engine}: {self.simulated} simulated, "
            f"{self.store_hits} store hits, {self.resumed} resumed, "
            f"{len(self.failures)} failed, {self.wall_s:.2f}s wall"
        )
        if self.failures:
            failed = ", ".join(
                f"{c.app}/{c.policy}@s{c.seed}t{c.n_threads}" for c in self.failures
            )
            summary += f"\nfailed cells: {failed}"
        if self.baseline_missing:
            summary += (
                f"\nbaseline-missing grid points: {self.baseline_missing} "
                f"(no {self.baseline} run to normalise by; excluded from speedups)"
            )
        return f"{table}\n{summary}"

    def aggregates(self) -> dict:
        """The resume-invariant part of the result: grid identity, per-cell
        outcomes and speedup aggregates.  This dict — not the wall-clock
        and cache bookkeeping in :meth:`to_dict` — is what a kill/resume
        cycle must reproduce byte-for-byte."""
        return {
            "apps": self.apps,
            "policies": self.policies,
            "seeds": self.seeds,
            "thread_counts": self.thread_counts,
            "baseline": self.baseline,
            "n_failures": len(self.failures),
            "baseline_missing": self.baseline_missing,
            "cells": [
                {
                    "app": c.app,
                    "policy": c.policy,
                    "seed": c.seed,
                    "n_threads": c.n_threads,
                    "total_cycles": c.total_cycles,
                    "source": c.source,
                    "error": c.error,
                }
                for c in self.cells
            ],
            "mean_speedups": {
                policy: {
                    app: self.mean_speedup(app, policy)
                    for app in self.apps
                }
                for policy in self.policies
                if policy != self.baseline
            },
        }

    def to_dict(self) -> dict:
        return {
            **self.aggregates(),
            "engine": self.engine,
            "wall_s": self.wall_s,
            "simulated": self.simulated,
            "store_hits": self.store_hits,
            "resumed": self.resumed,
            "store_stats": self.store_stats,
        }


def grid_key(
    apps: Sequence[str],
    policies: Sequence[str],
    seeds: Sequence[int],
    thread_counts: Sequence[int],
    baseline: str,
    config: SystemConfig,
) -> dict:
    """Identity of a sweep for journal compatibility: everything that
    shapes the grid's JobSpecs, plus the simulator version (a version
    bump changes results, so resuming across one would mix outputs)."""
    return {
        "apps": list(apps),
        "policies": list(policies),
        "seeds": [int(s) for s in seeds],
        "thread_counts": [int(t) for t in thread_counts],
        "baseline": baseline,
        "config": config.to_dict(),
        "version": repro.__version__,
    }


def expand_grid(
    apps: Sequence[str],
    policies: Sequence[str],
    seeds: Sequence[int],
    thread_counts: Sequence[int],
    config: SystemConfig,
) -> list[JobSpec]:
    """Expand the grid into JobSpecs in the canonical sweep order
    (apps x policies x seeds x thread-counts, outermost first).  Every
    consumer of a grid — ``run_sweep`` and :class:`~repro.exec.grid
    .SweepGrid` — must use this expansion so cell ordering (and therefore
    aggregate bytes) is identical everywhere."""
    return [
        JobSpec(app, policy, config.with_(seed=seed, n_threads=n_threads))
        for app in apps
        for policy in policies
        for seed in seeds
        for n_threads in thread_counts
    ]


def run_sweep(
    apps: Sequence[str],
    policies: Sequence[str],
    *,
    seeds: Sequence[int] = (1,),
    thread_counts: Sequence[int] = (4,),
    config: SystemConfig | None = None,
    engine: ExecutionEngine | None = None,
    store: ResultStore | None = None,
    baseline: str | None = None,
    journal: SweepJournal | str | Path | None = None,
    resume: bool = False,
) -> SweepResult:
    """Run the full grid and aggregate speedups over ``baseline``.

    ``config`` supplies every parameter the grid does not vary; the grid
    overrides its ``seed`` and ``n_threads``.  ``baseline`` defaults to
    ``"shared"`` when present, else the first policy.

    ``journal`` (a path, or an already-open
    :class:`~repro.exec.journal.SweepJournal`) makes the sweep
    crash-safe: every cell outcome is durably appended as it completes.
    With ``resume=True`` the journal is replayed first — cells it
    records as completed are restored without recomputation (their
    count lands in ``SweepResult.resumed``) and only the remainder is
    fanned out.  Failed journaled cells are re-attempted.  An
    interrupt (KeyboardInterrupt) leaves the journal flushed and
    closed, ready for a later ``resume``.
    """
    if not apps or not policies:
        raise ValueError("sweep needs at least one app and one policy")
    config = config or SystemConfig.default()
    engine = engine or SerialEngine()
    if baseline is None:
        baseline = "shared" if "shared" in policies else policies[0]
    if baseline not in policies:
        raise ValueError(f"baseline {baseline!r} is not one of the swept policies")
    if resume and journal is None:
        raise ValueError("resume=True needs a journal to resume from")

    grid = expand_grid(apps, policies, seeds, thread_counts, config)

    owns_journal = journal is not None and not isinstance(journal, SweepJournal)
    if owns_journal:
        key = grid_key(apps, policies, seeds, thread_counts, baseline, config)
        journal = SweepJournal.resume(journal, key) if resume else SweepJournal.begin(journal, key)

    start = time.perf_counter()
    resolved: dict[JobSpec, SweepCell] = {}
    pending: list[JobSpec] = []
    resumed = 0
    store_hits = 0
    simulated = 0
    try:
        for spec in grid:
            if resume:
                entry = journal.entries.get(spec.digest)
                if entry is not None and entry.ok:
                    # Completed by the interrupted run: restore it verbatim
                    # (including its original source, so aggregates are
                    # byte-identical to an uninterrupted sweep's).
                    resolved[spec] = SweepCell(
                        app=entry.app,
                        policy=entry.policy,
                        seed=entry.seed,
                        n_threads=entry.n_threads,
                        total_cycles=entry.total_cycles,
                        source=entry.source,
                    )
                    resumed += 1
                    continue
            cached = store.get(spec) if store is not None else None
            if cached is not None:
                cell = _cell(spec, total_cycles=cached.total_cycles, source="store")
                resolved[spec] = cell
                store_hits += 1
                _journal_cell(journal, spec, cell)
            else:
                pending.append(spec)
        if resumed:
            METRICS.counter("sweep.resumed_cells").inc(resumed)

        def on_outcome(outcome: JobOutcome) -> None:
            # Completion-ordered persistence: by the time the engine moves
            # on, this cell is in the store and the journal — a crash now
            # costs only work still in flight.
            nonlocal simulated
            spec = outcome.spec
            if outcome.ok:
                if store is not None:
                    store.put(spec, outcome.result)
                cell = _cell(spec, total_cycles=outcome.result.total_cycles, source="run")
                simulated += 1
            else:
                cell = _cell(spec, total_cycles=None, source="run", error=outcome.error)
            resolved[spec] = cell
            _journal_cell(journal, spec, cell)

        outcomes = engine.run(pending, on_outcome=on_outcome) if pending else []
        for spec, outcome in zip(pending, outcomes, strict=True):
            if spec not in resolved:  # engine ignored on_outcome (custom impl)
                on_outcome(outcome)
    finally:
        if owns_journal:
            journal.close()
    wall_s = time.perf_counter() - start

    cells = [resolved[spec] for spec in grid]
    return SweepResult(
        apps=list(apps),
        policies=list(policies),
        seeds=list(seeds),
        thread_counts=list(thread_counts),
        baseline=baseline,
        cells=cells,
        engine=engine.name,
        wall_s=wall_s,
        simulated=simulated,
        store_hits=store_hits,
        store_stats=store.stats() if store is not None else None,
        failures=[c for c in cells if not c.ok],
        resumed=resumed,
    )


def _cell(
    spec: JobSpec, *, total_cycles: float | None, source: str, error: str | None = None
) -> SweepCell:
    return SweepCell(
        app=spec.app,
        policy=spec.policy,
        seed=spec.config.seed,
        n_threads=spec.config.n_threads,
        total_cycles=total_cycles,
        source=source,
        error=error,
    )


def _journal_cell(journal: SweepJournal | None, spec: JobSpec, cell: SweepCell) -> None:
    if journal is None:
        return
    journal.append(
        JournalEntry(
            key=spec.digest,
            app=cell.app,
            policy=cell.policy,
            seed=cell.seed,
            n_threads=cell.n_threads,
            total_cycles=cell.total_cycles,
            source=cell.source,
            error=cell.error,
        )
    )
