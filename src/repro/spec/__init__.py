"""Declarative experiment specs and the continuous result comparator.

This package turns experiments into checked-in files (DESIGN.md §H):

* :mod:`repro.spec.schema` — versioned YAML/JSON documents naming a
  sweep's grid, config scaling, engine, fault plan, journal, stores and
  expected outcome; validated collect-all with actionable field paths
  (``spec.grid.thread_counts[2]: expected int >= 1``) and compiled
  through :class:`repro.exec.grid.SweepGrid`, so a spec run is
  byte-identical to the equivalent flag-driven ``repro sweep``.
* :mod:`repro.spec.run` — ``repro run-spec``'s engine: executes a spec
  (serial or pool, journal/resume aware, smoke mode) and checks its
  ``expectations`` block.
* :mod:`repro.spec.compare` — ``repro compare-runs``'s engine: diffs two
  content-addressed result stores cell by cell, classifying
  added/removed/changed against per-metric tolerances, with a
  machine-readable *incomparable* verdict for stores that cannot be
  meaningfully diffed (wrong version, empty, foreign grid).

The checked-in specs live in ``specs/`` at the repo root; CI replays
one on every push and fails on any cell-level regression.
"""

from repro.spec.compare import CellDiff, RunComparison, compare_runs
from repro.spec.run import check_expectations, run_experiment, smoke_spec
from repro.spec.schema import (
    EngineSpec,
    Expectations,
    ExperimentSpec,
    JournalSpec,
    SpecError,
    load_spec,
    parse_spec,
)

__all__ = [
    "CellDiff",
    "EngineSpec",
    "Expectations",
    "ExperimentSpec",
    "JournalSpec",
    "RunComparison",
    "SpecError",
    "check_expectations",
    "compare_runs",
    "load_spec",
    "parse_spec",
    "run_experiment",
    "smoke_spec",
]
