"""Headline comparisons: paper Figures 19-21 and the 8-core Figure 22.

* Fig. 19 — dynamic model-based partitioning vs the statically (equal)
  partitioned cache (the private-cache / fairness baseline).  Paper: up to
  23 % improvement, ~11 % average.
* Fig. 20 — vs the shared unpartitioned cache.  Paper: up to 15 %, ~9 %
  average; three small-working-set benchmarks show only small benefit.
* Fig. 21 — vs a throughput-oriented partitioning scheme.  Paper: the
  dynamic scheme wins for all applications, by up to ~20 %.
* Fig. 22 — the same comparisons on an 8-core CMP: gains similar to the
  4-core case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.reporting import format_bar_chart, format_table
from repro.experiments.runner import get_results
from repro.sim.config import SystemConfig
from repro.trace.workloads import list_workloads

__all__ = [
    "ComparisonResult",
    "fig19_vs_private",
    "fig20_vs_shared",
    "fig21_vs_throughput",
    "fig22_eight_core",
    "speedup_table",
]


@dataclass
class ComparisonResult:
    """Speedups of the dynamic scheme over one baseline, per application."""

    figure: str
    baseline: str
    apps: list[str]
    speedups: list[float]
    extra: dict = field(default_factory=dict)

    @property
    def average(self) -> float:
        return float(np.mean(self.speedups)) if self.speedups else 0.0

    @property
    def maximum(self) -> float:
        return float(np.max(self.speedups)) if self.speedups else 0.0

    def format(self) -> str:
        chart = format_bar_chart(self.apps, self.speedups, title=self.figure)
        return (
            f"{chart}\n"
            f"average improvement: {self.average:+.1%}   max: {self.maximum:+.1%}"
        )

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "baseline": self.baseline,
            "apps": self.apps,
            "speedups": self.speedups,
            "average": self.average,
            "max": self.maximum,
            **self.extra,
        }


def _compare(
    figure: str,
    baseline: str,
    config: SystemConfig,
    apps: list[str],
    *,
    scheme: str = "model-based",
) -> ComparisonResult:
    # One batched lookup so a pool engine can simulate the whole figure's
    # working set in parallel.
    results = get_results(
        [(app, p) for app in apps for p in (scheme, baseline)], config
    )
    speedups = [
        results[(app, scheme)].speedup_over(results[(app, baseline)]) for app in apps
    ]
    return ComparisonResult(figure=figure, baseline=baseline, apps=apps, speedups=speedups)


def fig19_vs_private(
    config: SystemConfig | None = None, apps: list[str] | None = None
) -> ComparisonResult:
    """Dynamic partitioning vs statically-equal (private) cache (Fig. 19)."""
    config = config or SystemConfig.default()
    apps = apps or list_workloads()
    return _compare(
        "Figure 19: improvement over statically partitioned (private) cache",
        "static-equal",
        config,
        apps,
    )


def fig20_vs_shared(
    config: SystemConfig | None = None, apps: list[str] | None = None
) -> ComparisonResult:
    """Dynamic partitioning vs shared unpartitioned cache (Fig. 20)."""
    config = config or SystemConfig.default()
    apps = apps or list_workloads()
    return _compare(
        "Figure 20: improvement over shared unpartitioned cache",
        "shared",
        config,
        apps,
    )


def fig21_vs_throughput(
    config: SystemConfig | None = None, apps: list[str] | None = None
) -> ComparisonResult:
    """Dynamic partitioning vs throughput-oriented scheme (Fig. 21)."""
    config = config or SystemConfig.default()
    apps = apps or list_workloads()
    return _compare(
        "Figure 21: improvement over throughput-oriented partitioning",
        "throughput",
        config,
        apps,
    )


@dataclass
class EightCoreResult:
    """Fig. 22: both baseline comparisons at 8 threads on 8 cores."""

    vs_private: ComparisonResult
    vs_shared: ComparisonResult

    def format(self) -> str:
        return (
            "Figure 22: 8-core CMP sensitivity\n\n"
            + self.vs_private.format()
            + "\n\n"
            + self.vs_shared.format()
        )

    def to_dict(self) -> dict:
        return {"vs_private": self.vs_private.to_dict(), "vs_shared": self.vs_shared.to_dict()}


def fig22_eight_core(
    config: SystemConfig | None = None, apps: list[str] | None = None
) -> EightCoreResult:
    """The 4-core headline comparisons repeated on an 8-core CMP."""
    config = config or SystemConfig.eight_core()
    if config.n_threads < 8:
        config = config.with_(n_threads=8)
    apps = apps or list_workloads()
    # One lookup for both comparisons: a batched engine then prepares each
    # app's program once, for one unit (batch units skip the program memo).
    get_results([(a, p) for a in apps for p in ("model-based", "static-equal", "shared")], config)
    return EightCoreResult(
        vs_private=_compare(
            "8 cores: improvement over statically partitioned (private) cache",
            "static-equal",
            config,
            apps,
        ),
        vs_shared=_compare(
            "8 cores: improvement over shared unpartitioned cache",
            "shared",
            config,
            apps,
        ),
    )


def speedup_table(
    config: SystemConfig | None = None,
    apps: list[str] | None = None,
    *,
    baselines: tuple[str, ...] = ("shared", "static-equal", "throughput"),
    scheme: str = "model-based",
) -> str:
    """One table with every baseline side by side (harness convenience)."""
    config = config or SystemConfig.default()
    apps = apps or list_workloads()
    results = get_results(
        [(app, p) for app in apps for p in (scheme, *baselines)], config
    )
    rows = []
    for app in apps:
        dyn = results[(app, scheme)]
        row: list[object] = [app]
        for b in baselines:
            row.append(f"{dyn.speedup_over(results[(app, b)]):+.1%}")
        rows.append(row)
    return format_table(
        ["app"] + [f"vs {b}" for b in baselines],
        rows,
        title=f"{scheme} improvement over each baseline",
    )
