"""Execute a parsed :class:`~repro.spec.schema.ExperimentSpec`.

``run_experiment`` is a thin, deterministic adapter: it builds exactly
the engine/store/journal/fault-plan the flag-driven ``repro sweep``
would, then calls the same :func:`repro.exec.sweep.run_sweep` — so a
spec run and its equivalent flag run produce byte-identical
resume-invariant aggregates (pinned by ``tests/test_spec_run.py``).

``smoke`` mode shrinks a spec to a seconds-scale probe of the same
machinery (first value of every grid axis, capped intervals) for CI
jobs that want the wiring exercised, not the full figure.

``check_expectations`` evaluates the spec's ``expectations`` block
against a finished :class:`~repro.exec.sweep.SweepResult` and returns
the violations as ``field.path: problem`` strings — same shape as
schema errors, so the CLI reports both identically.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.exec.engine import ExecutionEngine
from repro.exec.faults import set_fault_plan
from repro.exec.store import ResultStore
from repro.exec.sweep import SweepResult, run_sweep
from repro.obs.metrics import METRICS
from repro.spec.schema import ExperimentSpec

__all__ = ["check_expectations", "run_experiment", "smoke_spec"]

SMOKE_MAX_INTERVALS = 5
SMOKE_MAX_INTERVAL_INSTRUCTIONS = 2000


def smoke_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """The seconds-scale probe of ``spec``: first value of every grid
    axis, intervals capped — same schema, same pipeline, tiny grid."""
    grid = spec.grid
    small = dataclasses.replace(
        grid,
        apps=grid.apps[:1],
        policies=grid.policies[: (2 if len(grid.policies) > 1 else 1)],
        seeds=grid.seeds[:1],
        thread_counts=grid.thread_counts[:1],
        baseline=grid.policies[0],
        intervals=min(grid.intervals, SMOKE_MAX_INTERVALS),
        interval_instructions=min(
            grid.interval_instructions, SMOKE_MAX_INTERVAL_INSTRUCTIONS
        ),
    )
    return dataclasses.replace(spec, grid=small)


def run_experiment(
    spec: ExperimentSpec,
    *,
    smoke: bool = False,
    engine: ExecutionEngine | None = None,
    store_dir: str | Path | None = None,
    prep_dir: str | Path | None = None,
    journal_path: str | Path | None = None,
) -> SweepResult:
    """Run ``spec``'s sweep.  The keyword overrides exist for the CLI
    (``--cache-dir``/``--prep-dir``/``--journal`` beat the spec's own
    blocks) and for tests that inject a prepared engine.

    Raises what :func:`run_sweep` raises — notably
    :class:`~repro.exec.journal.JournalMismatchError` when the spec's
    journal belongs to a different grid.
    """
    if smoke:
        spec = smoke_spec(spec)
        METRICS.counter("spec.smoke_runs").inc()
    METRICS.counter("spec.runs").inc()
    grid = spec.grid

    set_fault_plan(spec.faults)  # before the engine: pool workers inherit it
    owns_engine = engine is None
    if engine is None:
        engine = spec.engine.build()

    store = None
    store_root = store_dir if store_dir is not None else spec.store_dir
    if store_root is not None:
        store = ResultStore(store_root)

    prep_root = prep_dir if prep_dir is not None else spec.prep_dir
    if prep_root is not None:
        from repro.prep import configure_prep

        configure_prep(prep_root)

    journal = journal_path if journal_path is not None else (
        spec.journal.path if spec.journal else None
    )
    if smoke and journal_path is None and journal is not None:
        # A smoke run shrinks the grid (different digest); give it its own
        # journal so it can never trip the full run's mismatch guard.
        journal = f"{journal}.smoke"
    resume = spec.journal.resume if spec.journal else False

    try:
        return run_sweep(
            grid.apps,
            grid.policies,
            seeds=grid.seeds,
            thread_counts=grid.thread_counts,
            config=grid.config(),
            engine=engine,
            store=store,
            baseline=grid.baseline,
            journal=journal,
            resume=bool(journal) and resume,
        )
    finally:
        set_fault_plan(None)
        if owns_engine:
            engine.close()


def check_expectations(spec: ExperimentSpec, result: SweepResult) -> list[str]:
    """The spec's ``expectations`` block evaluated against ``result``;
    returns violations as ``field.path: problem`` strings (empty = met)."""
    expect = spec.expectations
    violations: list[str] = []
    if len(result.failures) > expect.max_failures:
        labels = sorted(
            f"{c.app}/{c.policy} seed={c.seed} t={c.n_threads}" for c in result.failures
        )
        violations.append(
            f"spec.expectations.max_failures: {len(result.failures)} cell(s) failed "
            f"(allowed {expect.max_failures}): " + ", ".join(labels[:5])
        )
    if expect.max_baseline_missing is not None:
        missing = result.baseline_missing
        if missing > expect.max_baseline_missing:
            violations.append(
                f"spec.expectations.max_baseline_missing: {missing} baseline cell(s) "
                f"missing (allowed {expect.max_baseline_missing})"
            )
    for policy, floor in sorted(expect.min_mean_speedup.items()):
        for app in result.apps:
            speedup = result.mean_speedup(app, policy)
            if speedup is None:
                violations.append(
                    f"spec.expectations.min_mean_speedup.{policy}: no speedup "
                    f"for app {app!r} (cell failed or baseline missing)"
                )
            elif speedup < floor:
                violations.append(
                    f"spec.expectations.min_mean_speedup.{policy}: {app} reached "
                    f"{speedup:+.2%}, below the {floor:+.2%} floor"
                )
    if violations:
        METRICS.counter("spec.expectation_failures").inc(len(violations))
    return violations
