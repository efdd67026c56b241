"""Canonical sweep-grid construction, shared by every entry point.

A sweep grid — apps × policies × seeds × thread-counts over a scaled
:class:`~repro.sim.config.SystemConfig` — is built by the ``sweep`` CLI
from argparse flags and by the declarative specs in :mod:`repro.spec`.
:class:`SweepGrid` is the one builder both share, so defaulting,
validation, cell ordering and the grid's content address are decided in
exactly one place.  The contract the rest of the system leans on:

* **purity** — a :class:`SweepGrid` is a frozen value object; the same
  grid always compiles to the same :meth:`specs` list (same
  :attr:`~repro.exec.jobs.JobSpec.digest` sequence, order included),
  which is what makes spec-driven and flag-driven sweeps byte-identical
  and lets ``repro compare-runs`` diff two result stores cell-by-cell;
* **validation with field paths** — :meth:`SweepGrid.build` rejects bad
  axes with a :class:`GridError` whose message names the offending field
  (``grid.thread_counts[2]: expected int >= 1``), the error style the
  spec schema and the CLI both surface verbatim;
* **identity** — :meth:`grid_key` / :attr:`digest` are the values
  ``repro sweep --journal`` and ``repro run-spec`` stamp into journal
  headers, so grids built anywhere agree on identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.sim.config import CACHE_BACKEND_NAMES, SystemConfig

__all__ = ["DEFAULT_POLICIES", "GridError", "POLICY_ALIASES", "SweepGrid"]

DEFAULT_POLICIES = ("shared", "static-equal", "throughput", "model-based")
"""The grid swept when no policies are named (the paper's headline four)."""

# Short spellings accepted anywhere a policy name is; shared by the CLI's
# argparse hook and the spec schema so both entry points normalise alike.
POLICY_ALIASES = {"model": "model-based", "cpi": "cpi-proportional", "equal": "static-equal"}

class GridError(ValueError):
    """A grid that cannot be built; ``path`` names the offending field
    (``grid.seeds[1]``) so callers can surface actionable messages."""

    def __init__(self, path: str, problem: str) -> None:
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}")


def _require_axis(values: object, path: str, kind: type, describe: str) -> tuple:
    if not isinstance(values, (list, tuple)) or not values:
        raise GridError(path, f"expected a non-empty list of {describe}")
    out = []
    for index, value in enumerate(values):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise GridError(f"{path}[{index}]", f"expected {describe[:-1]}, got {value!r}")
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class SweepGrid:
    """One validated sweep grid (pure data; compile with :meth:`specs`).

    Construct through :meth:`build` — the direct constructor performs no
    validation or defaulting and exists for already-checked callers.
    """

    apps: tuple[str, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...] = (1,)
    thread_counts: tuple[int, ...] = (4,)
    baseline: str = "shared"
    intervals: int = 50
    interval_instructions: int = 20_000
    cache_backend: str = "fast"

    @classmethod
    def build(
        cls,
        *,
        apps: Sequence[str] | None = None,
        policies: Sequence[str] | None = None,
        seeds: Sequence[int] | None = None,
        thread_counts: Sequence[int] | None = None,
        baseline: str | None = None,
        intervals: int = 50,
        interval_instructions: int = 20_000,
        cache_backend: str = "fast",
        path: str = "grid",
    ) -> "SweepGrid":
        """Default, normalise and validate one grid.

        ``None`` axes take their documented defaults (all workloads, the
        four headline policies, seed 1, four threads).  Policy aliases
        are normalised.  Any violation raises :class:`GridError` with a
        ``path``-rooted field path — including a thread count the grid's
        L2 cannot give one way per thread.
        """
        from repro.partition import POLICY_REGISTRY
        from repro.trace.workloads import list_workloads

        known_apps = list_workloads()
        apps = tuple(known_apps) if apps is None else _require_axis(
            apps, f"{path}.apps", str, "workload names"
        )
        for index, app in enumerate(apps):
            if app not in known_apps:
                raise GridError(
                    f"{path}.apps[{index}]",
                    f"unknown workload {app!r} (known: {', '.join(known_apps)})",
                )
        if policies is None:
            policies = DEFAULT_POLICIES
        else:
            policies = _require_axis(policies, f"{path}.policies", str, "policy names")
            policies = tuple(POLICY_ALIASES.get(p, p) for p in policies)
        for index, policy in enumerate(policies):
            if policy not in POLICY_REGISTRY:
                raise GridError(
                    f"{path}.policies[{index}]",
                    f"unknown policy {policy!r} "
                    f"(known: {', '.join(sorted(POLICY_REGISTRY))})",
                )
        seeds = (1,) if seeds is None else _require_axis(
            seeds, f"{path}.seeds", int, "integers"
        )
        if thread_counts is None:
            thread_counts = (4,)
        else:
            thread_counts = _require_axis(
                thread_counts, f"{path}.thread_counts", int, "integers"
            )
            for index, count in enumerate(thread_counts):
                if count < 1:
                    raise GridError(f"{path}.thread_counts[{index}]", "expected int >= 1")
        if baseline is None:
            baseline = "shared" if "shared" in policies else policies[0]
        else:
            if not isinstance(baseline, str):
                raise GridError(f"{path}.baseline", f"expected a policy name, got {baseline!r}")
            baseline = POLICY_ALIASES.get(baseline, baseline)
            if baseline not in policies:
                raise GridError(
                    f"{path}.baseline",
                    f"{baseline!r} is not among the swept policies: {', '.join(policies)}",
                )
        for name, value in (
            ("intervals", intervals),
            ("interval_instructions", interval_instructions),
        ):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise GridError(f"{path}.{name}", f"expected int >= 1, got {value!r}")
        if cache_backend not in CACHE_BACKEND_NAMES:
            raise GridError(
                f"{path}.cache_backend",
                f"expected one of {', '.join(CACHE_BACKEND_NAMES)}, got {cache_backend!r}",
            )
        grid = cls(
            apps=apps,
            policies=policies,
            seeds=tuple(int(s) for s in seeds),
            thread_counts=tuple(int(t) for t in thread_counts),
            baseline=baseline,
            intervals=int(intervals),
            interval_instructions=int(interval_instructions),
            cache_backend=cache_backend,
        )
        # SystemConfig owns the L2-capacity rule; every other field of the
        # grid's config is valid by now, so its error names the count.
        base = grid.config()
        for index, count in enumerate(grid.thread_counts):
            try:
                base.with_(n_threads=count)
            except ValueError as exc:
                raise GridError(f"{path}.thread_counts[{index}]", str(exc)) from None
        return grid

    # -- compilation ----------------------------------------------------

    def config(self) -> SystemConfig:
        """The base config the grid varies (``seed`` / ``n_threads`` are
        overridden per cell) — identical across every entry point so cell
        digests and store keys agree."""
        return SystemConfig.default().with_(
            n_intervals=self.intervals,
            interval_instructions=self.interval_instructions,
            cache_backend=self.cache_backend,
        )

    def grid_key(self) -> dict:
        """Journal identity of this grid (includes the simulator version;
        see :func:`repro.exec.sweep.grid_key`)."""
        from repro.exec.sweep import grid_key

        return grid_key(
            self.apps, self.policies, self.seeds, self.thread_counts,
            self.baseline, self.config(),
        )

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the canonical grid key — the sweep/journal id."""
        from repro.exec.journal import grid_digest

        return grid_digest(self.grid_key())

    def specs(self) -> list:
        """The grid expanded to :class:`~repro.exec.jobs.JobSpec`\\ s in
        canonical sweep order — a pure function of this grid's fields."""
        from repro.exec.sweep import expand_grid

        return expand_grid(
            self.apps, self.policies, self.seeds, self.thread_counts, self.config()
        )

    @property
    def n_cells(self) -> int:
        return (
            len(self.apps) * len(self.policies) * len(self.seeds) * len(self.thread_counts)
        )

    def to_dict(self) -> dict:
        """Fully-defaulted JSON form; ``SweepGrid.build(**d)`` round-trips."""
        return {
            "apps": list(self.apps),
            "policies": list(self.policies),
            "seeds": list(self.seeds),
            "thread_counts": list(self.thread_counts),
            "baseline": self.baseline,
            "intervals": self.intervals,
            "interval_instructions": self.interval_instructions,
            "cache_backend": self.cache_backend,
        }
