"""Experiment-spec schema: parsing, defaulting, validation, round-trip.

A *spec* is one YAML/JSON document that names everything a sweep needs —
the grid, the config scaling, the engine, fault plan, journal, stores and
the expected outcome — so an experiment is reproducible from a checked-in
file instead of a command line.  The document shape (all blocks optional
except ``spec_version`` and ``grid``)::

    spec_version: 1
    name: fig20-vs-shared
    description: model-based vs the shared baseline, fig. 20 slice
    grid:                      # SweepGrid axes (DESIGN.md §H)
      apps: [ft, cg]
      policies: [shared, model-based]
      seeds: [1]
      thread_counts: [4]
      baseline: shared
    config:                    # SystemConfig scaling shared by all cells
      intervals: 30
      interval_instructions: 8000
      cache_backend: fast
    engine:                    # where cells run (serial/pool/remote)
      jobs: 4
      max_retries: 2
    journal: {path: runs/f20.journal, resume: true}
    store_dir: runs/store
    prep_dir: runs/prep
    faults: {seed: 7, rules: [...]}   # FaultPlan document (DESIGN.md §E)
    expectations:              # aggregate assertions checked after the run
      max_failures: 0
      tolerances: {total_cycles: 0.0, l2_misses: 0.0}
      min_mean_speedup: {model-based: 0.0}

Validation is *collect-then-raise*: every problem found is reported in one
:class:`SpecError`, each line an actionable field path
(``spec.grid.thread_counts[2]: expected int >= 1``), and the CLI surfaces
them verbatim with exit 2.  :meth:`ExperimentSpec.to_dict` emits the
fully-defaulted document, and ``parse_spec(spec.to_dict())`` round-trips.

Compilation is delegated to :class:`repro.exec.grid.SweepGrid`, so a spec
compiles to exactly the :class:`~repro.exec.jobs.JobSpec` grid (same
digests, same order) the flag-driven CLI builds — spec-driven and
flag-driven sweeps are byte-identical by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.engine import EngineOptions, ExecutionEngine, SerialEngine
from repro.exec.faults import FaultPlan
from repro.exec.grid import POLICY_ALIASES, GridError, SweepGrid
from repro.sim.config import CACHE_BACKEND_NAMES

__all__ = [
    "EngineSpec",
    "Expectations",
    "ExperimentSpec",
    "JournalSpec",
    "SpecError",
    "load_spec",
    "parse_spec",
]

SPEC_VERSION = 1

_TOP_KEYS = {
    "spec_version", "name", "description", "grid", "config", "engine",
    "journal", "store_dir", "prep_dir", "faults", "expectations",
}
_GRID_KEYS = {"apps", "policies", "seeds", "thread_counts", "baseline"}
_CONFIG_KEYS = {"intervals", "interval_instructions", "cache_backend"}
_ENGINE_KEYS = {
    "kind", "jobs", "workers",
    "max_retries", "backoff_s", "backoff_cap_s", "backoff_budget_s",
}
_JOURNAL_KEYS = {"path", "resume"}
_EXPECT_KEYS = {"max_failures", "max_baseline_missing", "tolerances", "min_mean_speedup"}
_METRICS = ("total_cycles", "l2_misses")


class SpecError(ValueError):
    """A spec that fails validation.  ``problems`` holds every violation
    found, each a ``field.path: problem`` line; ``str()`` joins them."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


class _Problems:
    """Collector: validation keeps going so one bad spec reports every
    problem at once instead of one per edit-run cycle."""

    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, path: str, problem: str) -> None:
        self.items.append(f"{path}: {problem}")

    def raise_if_any(self) -> None:
        if self.items:
            raise SpecError(self.items)


@dataclass(frozen=True)
class EngineSpec:
    """Where a spec's cells execute (mirrors ``--engine/--jobs/--workers``).

    ``kind=None`` means *inferred*, with the CLI's rule: remote if
    ``workers`` is non-empty, pool if ``jobs > 1``, else serial.
    """

    kind: str | None = None
    jobs: int = 1
    workers: tuple[str, ...] = ()
    options: EngineOptions = field(default_factory=EngineOptions)

    def resolved_kind(self) -> str:
        if self.kind is not None:
            return self.kind
        return "remote" if self.workers else "pool" if self.jobs > 1 else "serial"

    def build(self) -> ExecutionEngine:
        kind = self.resolved_kind()
        if kind == "remote":
            from repro.dist import RemoteEngine, parse_worker_address

            return RemoteEngine(
                [parse_worker_address(w) for w in self.workers], options=self.options
            )
        if kind == "pool":
            from repro.exec.pool import ProcessPoolEngine

            return ProcessPoolEngine(self.jobs, options=self.options)
        return SerialEngine(options=self.options)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "jobs": self.jobs,
            "workers": list(self.workers),
            "max_retries": self.options.max_retries,
            "backoff_s": self.options.backoff_s,
            "backoff_cap_s": self.options.backoff_cap_s,
            "backoff_budget_s": self.options.backoff_budget_s,
        }


@dataclass(frozen=True)
class JournalSpec:
    """Crash-safety block: journal every cell to ``path``; ``resume``
    restores completed cells on re-run (DESIGN.md §E)."""

    path: str
    resume: bool = True

    def to_dict(self) -> dict:
        return {"path": self.path, "resume": self.resume}


@dataclass(frozen=True)
class Expectations:
    """Aggregate assertions checked after a spec run (and the tolerances
    ``repro compare-runs`` applies when diffing two runs of the spec).

    ``tolerances`` maps metric name → max *relative* delta allowed before
    a cell counts as changed; ``min_mean_speedup`` maps policy → the
    minimum mean speedup (over the baseline) every app must reach.
    """

    max_failures: int = 0
    max_baseline_missing: int | None = None
    tolerances: dict = field(default_factory=dict)
    min_mean_speedup: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "max_failures": self.max_failures,
            "max_baseline_missing": self.max_baseline_missing,
            "tolerances": dict(self.tolerances),
            "min_mean_speedup": dict(self.min_mean_speedup),
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """One parsed, validated, fully-defaulted experiment spec."""

    grid: SweepGrid
    name: str = ""
    description: str = ""
    engine: EngineSpec = field(default_factory=EngineSpec)
    journal: JournalSpec | None = None
    store_dir: str | None = None
    prep_dir: str | None = None
    faults: FaultPlan | None = None
    expectations: Expectations = field(default_factory=Expectations)
    source: str = "<spec>"

    def to_dict(self) -> dict:
        """The fully-defaulted document; ``parse_spec`` round-trips it."""
        grid = self.grid.to_dict()
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "description": self.description,
            "grid": {k: grid[k] for k in
                     ("apps", "policies", "seeds", "thread_counts", "baseline")},
            "config": {k: grid[k] for k in
                       ("intervals", "interval_instructions", "cache_backend")},
            "engine": self.engine.to_dict(),
            "journal": self.journal.to_dict() if self.journal else None,
            "store_dir": self.store_dir,
            "prep_dir": self.prep_dir,
            "faults": self.faults.to_dict() if self.faults else None,
            "expectations": self.expectations.to_dict(),
        }


def _check_keys(block: dict, known: set, path: str, problems: _Problems) -> None:
    for key in sorted(set(block) - known):
        problems.add(f"{path}.{key}", f"unknown key (known: {', '.join(sorted(known))})")


def _block(payload: dict, key: str, problems: _Problems) -> dict | None:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, dict):
        problems.add(f"spec.{key}", f"expected a mapping, got {type(value).__name__}")
        return None
    return value


def _opt_str(block: dict, key: str, path: str, problems: _Problems) -> str | None:
    value = block.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        problems.add(f"{path}.{key}", f"expected a non-empty string, got {value!r}")
        return None
    return value


def _nonneg_int(value: object, path: str, problems: _Problems, default: int) -> int:
    if value is None:
        return default
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        problems.add(path, f"expected int >= 0, got {value!r}")
        return default
    return value


def _parse_grid(payload: dict, problems: _Problems) -> SweepGrid | None:
    grid_block = _block(payload, "grid", problems)
    if grid_block is None and payload.get("grid") is None:
        # Absent and explicit ``grid: null`` are both "missing"; _block
        # already flagged any other non-mapping value.
        problems.add("spec.grid", "required block is missing")
    config_block = _block(payload, "config", problems) or {}
    if grid_block is None:
        return None
    _check_keys(grid_block, _GRID_KEYS, "spec.grid", problems)
    _check_keys(config_block, _CONFIG_KEYS, "spec.config", problems)
    # The config scalars are validated here under their own ``spec.config``
    # paths; SweepGrid.build re-checks them (harmlessly) with the axes.
    intervals = config_block.get("intervals", 50)
    interval_instructions = config_block.get("interval_instructions", 20_000)
    cache_backend = config_block.get("cache_backend", "fast")
    for key, value in (
        ("intervals", intervals), ("interval_instructions", interval_instructions),
    ):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            problems.add(f"spec.config.{key}", f"expected int >= 1, got {value!r}")
            return None
    if cache_backend not in CACHE_BACKEND_NAMES:
        problems.add(
            "spec.config.cache_backend",
            f"expected one of {', '.join(CACHE_BACKEND_NAMES)}, got {cache_backend!r}",
        )
        return None
    try:
        return SweepGrid.build(
            apps=grid_block.get("apps"),
            policies=grid_block.get("policies"),
            seeds=grid_block.get("seeds"),
            thread_counts=grid_block.get("thread_counts"),
            baseline=grid_block.get("baseline"),
            intervals=intervals,
            interval_instructions=interval_instructions,
            cache_backend=cache_backend,
            path="spec.grid",
        )
    except GridError as exc:
        problems.add(exc.path, exc.problem)
        return None


def _parse_engine(payload: dict, problems: _Problems) -> EngineSpec:
    block = _block(payload, "engine", problems)
    if block is None:
        return EngineSpec()
    _check_keys(block, _ENGINE_KEYS, "spec.engine", problems)
    kind = block.get("kind")
    if kind is not None and kind not in ("serial", "pool", "remote"):
        problems.add("spec.engine.kind", f"expected serial, pool or remote, got {kind!r}")
        kind = None
    jobs = block.get("jobs", 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        problems.add("spec.engine.jobs", f"expected int >= 1, got {jobs!r}")
        jobs = 1
    workers = block.get("workers", [])
    if not isinstance(workers, list) or not all(isinstance(w, str) for w in workers):
        problems.add("spec.engine.workers", "expected a list of HOST:PORT strings")
        workers = []
    else:
        from repro.dist import parse_worker_address

        for index, worker in enumerate(workers):
            try:
                parse_worker_address(worker)
            except ValueError as exc:
                problems.add(f"spec.engine.workers[{index}]", str(exc))
    if kind == "remote" and not workers:
        problems.add("spec.engine.workers", "engine kind 'remote' needs at least one worker")
    option_values = {}
    for key in ("max_retries", "backoff_s", "backoff_cap_s", "backoff_budget_s"):
        if key in block:
            option_values[key] = block[key]
    try:
        options = EngineOptions(**option_values)
    except (TypeError, ValueError) as exc:
        problems.add("spec.engine", str(exc))
        options = EngineOptions()
    return EngineSpec(kind=kind, jobs=jobs, workers=tuple(workers), options=options)


def _parse_journal(payload: dict, problems: _Problems) -> JournalSpec | None:
    block = _block(payload, "journal", problems)
    if block is None:
        return None
    _check_keys(block, _JOURNAL_KEYS, "spec.journal", problems)
    path = _opt_str(block, "path", "spec.journal", problems)
    if path is None:
        problems.add("spec.journal.path", "required (where cell outcomes are journaled)")
        return None
    resume = block.get("resume", True)
    if not isinstance(resume, bool):
        problems.add("spec.journal.resume", f"expected true/false, got {resume!r}")
        resume = True
    return JournalSpec(path=path, resume=resume)


def _parse_faults(payload: dict, problems: _Problems) -> FaultPlan | None:
    block = _block(payload, "faults", problems)
    if block is None:
        return None
    try:
        return FaultPlan.from_dict(block)
    except (KeyError, TypeError, ValueError) as exc:
        problems.add("spec.faults", f"invalid fault plan: {exc}")
        return None


def _parse_expectations(
    payload: dict, grid: SweepGrid | None, problems: _Problems
) -> Expectations:
    block = _block(payload, "expectations", problems)
    if block is None:
        return Expectations()
    _check_keys(block, _EXPECT_KEYS, "spec.expectations", problems)
    max_failures = _nonneg_int(
        block.get("max_failures"), "spec.expectations.max_failures", problems, 0
    )
    max_baseline_missing = block.get("max_baseline_missing")
    if max_baseline_missing is not None:
        max_baseline_missing = _nonneg_int(
            max_baseline_missing, "spec.expectations.max_baseline_missing", problems, 0
        )
    tolerances = block.get("tolerances", {})
    if not isinstance(tolerances, dict):
        problems.add("spec.expectations.tolerances", "expected a mapping of metric -> number")
        tolerances = {}
    else:
        for metric, tol in sorted(tolerances.items()):
            if metric not in _METRICS:
                problems.add(
                    f"spec.expectations.tolerances.{metric}",
                    f"unknown metric (known: {', '.join(_METRICS)})",
                )
            elif not isinstance(tol, (int, float)) or isinstance(tol, bool) or tol < 0:
                problems.add(
                    f"spec.expectations.tolerances.{metric}",
                    f"expected a number >= 0, got {tol!r}",
                )
    speedups = block.get("min_mean_speedup", {})
    if not isinstance(speedups, dict):
        problems.add(
            "spec.expectations.min_mean_speedup", "expected a mapping of policy -> number"
        )
        speedups = {}
    else:
        normalised = {}
        for policy, floor in sorted(speedups.items()):
            policy = POLICY_ALIASES.get(policy, policy)
            if grid is not None and policy not in grid.policies:
                problems.add(
                    f"spec.expectations.min_mean_speedup.{policy}",
                    f"policy is not swept by this spec (swept: {', '.join(grid.policies)})",
                )
            elif grid is not None and policy == grid.baseline:
                problems.add(
                    f"spec.expectations.min_mean_speedup.{policy}",
                    "policy is the baseline (its speedup is identically zero)",
                )
            if not isinstance(floor, (int, float)) or isinstance(floor, bool):
                problems.add(
                    f"spec.expectations.min_mean_speedup.{policy}",
                    f"expected a number, got {floor!r}",
                )
            else:
                normalised[policy] = float(floor)
        speedups = normalised
    return Expectations(
        max_failures=max_failures,
        max_baseline_missing=max_baseline_missing,
        tolerances={m: float(t) for m, t in tolerances.items()
                    if m in _METRICS and isinstance(t, (int, float))
                    and not isinstance(t, bool) and t >= 0},
        min_mean_speedup=speedups,
    )


def parse_spec(payload: object, *, source: str = "<spec>") -> ExperimentSpec:
    """Validate a decoded YAML/JSON document into an
    :class:`ExperimentSpec`; raises :class:`SpecError` carrying *every*
    problem found, each with an actionable field path."""
    problems = _Problems()
    if not isinstance(payload, dict):
        raise SpecError([f"spec: expected a mapping, got {type(payload).__name__}"])
    version = payload.get("spec_version")
    if version != SPEC_VERSION:
        problems.add(
            "spec.spec_version",
            f"expected {SPEC_VERSION}, got {version!r}"
            + ("" if "spec_version" in payload else " (missing)"),
        )
    _check_keys(payload, _TOP_KEYS, "spec", problems)
    name = payload.get("name", "")
    if not isinstance(name, str):
        problems.add("spec.name", f"expected a string, got {name!r}")
        name = ""
    description = payload.get("description", "")
    if not isinstance(description, str):
        problems.add("spec.description", f"expected a string, got {description!r}")
        description = ""
    grid = _parse_grid(payload, problems)
    engine = _parse_engine(payload, problems)
    journal = _parse_journal(payload, problems)
    store_dir = _opt_str(payload, "store_dir", "spec", problems)
    prep_dir = _opt_str(payload, "prep_dir", "spec", problems)
    faults = _parse_faults(payload, problems)
    expectations = _parse_expectations(payload, grid, problems)
    problems.raise_if_any()
    assert grid is not None  # no problems means the grid parsed
    return ExperimentSpec(
        grid=grid,
        name=name,
        description=description,
        engine=engine,
        journal=journal,
        store_dir=store_dir,
        prep_dir=prep_dir,
        faults=faults,
        expectations=expectations,
        source=source,
    )


def load_spec(path: str | Path) -> ExperimentSpec:
    """Read and parse a spec file.  ``.json`` is always available;
    ``.yaml``/``.yml`` needs PyYAML (a clear :class:`SpecError` if the
    interpreter lacks it, not an ImportError traceback)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError([f"spec: cannot read {path}: {exc}"]) from None
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise SpecError(
                [f"spec: {path} is YAML but PyYAML is not installed; "
                 "install pyyaml or use a .json spec"]
            ) from None
        try:
            payload = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SpecError([f"spec: {path} is not valid YAML: {exc}"]) from None
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError([f"spec: {path} is not valid JSON: {exc}"]) from None
    return parse_spec(payload, source=str(path))
