"""System configuration (the paper's Figure 2, at reproduction scale).

The paper simulates a 4-core UltraSPARC-3 CMP with 8 KB private L1s and a
1 MB, 64-way shared L2, running 15 M-instruction intervals for 50
intervals.  A pure-Python trace-driven simulator cannot execute billions
of instructions, so the **default** configuration scales everything down
while preserving the ratios that drive the result (see DESIGN.md §2):

=====================  =======================  =====================
quantity               paper                    this reproduction
=====================  =======================  =====================
cores / threads        4 (8 in Fig. 22)         4 (8 supported)
L1 (private)           8 KB, 4-way              8 KB, 4-way (32 sets)
L2 (shared)            1 MB, 64-way             64 KB, 32-way (32 sets)
line size              64 B                     64 B
interval               15 M instructions        20 K instructions/thread
run length             50 intervals             50 intervals
=====================  =======================  =====================

Everything is a parameter; ``SystemConfig.quick()`` gives a much smaller
setup for unit tests and benchmark harness smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.geometry import CacheGeometry
from repro.cpu.timing import TimingModel

__all__ = ["CACHE_BACKEND_NAMES", "SystemConfig"]

#: Every accepted ``SystemConfig.cache_backend`` — the CLI, the spec
#: schema and the grid builder validate against this tuple.
CACHE_BACKEND_NAMES = ("fast", "reference", "batch")


@dataclass(frozen=True)
class SystemConfig:
    n_threads: int = 4
    l1_geometry: CacheGeometry = field(default_factory=lambda: CacheGeometry(sets=32, ways=4))
    l2_geometry: CacheGeometry = field(default_factory=lambda: CacheGeometry(sets=32, ways=32))
    timing: TimingModel = field(default_factory=TimingModel)
    interval_instructions: int = 20_000
    n_intervals: int = 50
    sections_per_interval: int = 2
    min_ways: int = 1
    seed: int = 1
    # Shared-L2 implementation: "fast" (struct-of-arrays + fused replay
    # kernel), "reference" (the readable per-set implementation) or
    # "batch" (cells sharing a prepared program replay in one pass).  All
    # are byte-identical in output (tests/test_cache_differential.py), so
    # this selects speed, never semantics.
    cache_backend: str = "fast"

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.l2_geometry.ways < self.n_threads * max(self.min_ways, 1):
            raise ValueError(
                f"L2 has {self.l2_geometry.ways} ways; too few for {self.n_threads} threads"
            )
        if self.l1_geometry.line_bytes != self.l2_geometry.line_bytes:
            raise ValueError("L1 and L2 must use the same line size")
        if self.interval_instructions < 1 or self.n_intervals < 1:
            raise ValueError("interval_instructions and n_intervals must be >= 1")
        if self.sections_per_interval < 1:
            raise ValueError("sections_per_interval must be >= 1")
        if self.min_ways < 0:
            raise ValueError("min_ways must be >= 0")
        if self.cache_backend not in CACHE_BACKEND_NAMES:
            raise ValueError(
                f"cache_backend must be one of {', '.join(CACHE_BACKEND_NAMES)}, "
                f"got {self.cache_backend!r}"
            )

    @property
    def line_bytes(self) -> int:
        return self.l2_geometry.line_bytes

    @property
    def total_ways(self) -> int:
        return self.l2_geometry.ways

    @classmethod
    def default(cls) -> "SystemConfig":
        """The standard 4-core evaluation configuration."""
        return cls()

    @classmethod
    def eight_core(cls) -> "SystemConfig":
        """The 8-core sensitivity configuration (paper Fig. 22: same total
        cache, more threads)."""
        return cls(n_threads=8)

    @classmethod
    def quick(cls, *, n_threads: int = 4) -> "SystemConfig":
        """Small configuration for tests and fast benchmark smoke runs."""
        return cls(
            n_threads=n_threads,
            l2_geometry=CacheGeometry(sets=32, ways=16),
            interval_instructions=3_000,
            n_intervals=10,
            sections_per_interval=2,
        )

    def with_(self, **kwargs) -> "SystemConfig":
        """Functional update (``dataclasses.replace`` spelled fluently)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Canonical JSON-serialisable form.

        This is the configuration half of :class:`repro.exec.JobSpec`'s
        content address, so it must enumerate **every** field that affects
        a simulation — a field added to :class:`SystemConfig` without being
        reflected here would alias distinct configurations in the result
        store.  :meth:`from_dict` round-trips it.
        """
        return {
            "n_threads": self.n_threads,
            "l1_geometry": self.l1_geometry.to_dict(),
            "l2_geometry": self.l2_geometry.to_dict(),
            "timing": self.timing.to_dict(),
            "interval_instructions": self.interval_instructions,
            "n_intervals": self.n_intervals,
            "sections_per_interval": self.sections_per_interval,
            "min_ways": self.min_ways,
            "seed": self.seed,
            "cache_backend": self.cache_backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        return cls(
            n_threads=data["n_threads"],
            l1_geometry=CacheGeometry.from_dict(data["l1_geometry"]),
            l2_geometry=CacheGeometry.from_dict(data["l2_geometry"]),
            timing=TimingModel.from_dict(data["timing"]),
            interval_instructions=data["interval_instructions"],
            n_intervals=data["n_intervals"],
            sections_per_interval=data["sections_per_interval"],
            min_ways=data["min_ways"],
            seed=data["seed"],
            # Absent in pre-1.3 serialisations, which were always reference.
            cache_backend=data.get("cache_backend", "reference"),
        )

    def describe(self) -> dict[str, str]:
        """Human-readable configuration table (the paper's Figure 2)."""
        return {
            "Number of cores": str(self.n_threads),
            "Number of threads": str(self.n_threads),
            "L1 cache size": f"{self.l1_geometry.size_bytes // 1024} KB",
            "L1 cache associativity": str(self.l1_geometry.ways),
            "L2 cache type": "Shared",
            "L2 cache size": f"{self.l2_geometry.size_bytes // 1024} KB",
            "L2 cache associativity": str(self.l2_geometry.ways),
            "Cache line size": f"{self.line_bytes} B",
            "Execution interval": f"{self.interval_instructions} instructions/thread",
            "Intervals per run": str(self.n_intervals),
        }
