"""Compilation of raw traces into L2 access streams.

The private L1s are independent of anything the shared-L2 partitioning
policy does, so every thread's trace is filtered through its L1 exactly
once (:func:`repro.cache.simulate_l1_filter`) and *compiled* into a compact
L2 stream: the addresses that miss in the L1, each annotated with the
instructions and cycles the thread retires between consecutive L2
accesses.  Policies under comparison then replay identical L2 streams,
which removes both a 4-5x simulation cost and a source of noise from
policy comparisons.

The flat layout
---------------
A compiled program keeps all of its streams in one set of arrays, the
layout a :mod:`repro.prep` stream bundle stores and the compiled lane
kernel (:mod:`repro.cache.batch`) reads in place.  Stream ``k = sec * n
+ t`` (section ``sec``, thread ``t`` of ``n``) occupies
``[starts[k], starts[k] + lens[sec, t])`` of four per-access arrays —
``addresses``, ``d_instructions`` (int64), ``d_cycles`` and
``miss_cycles`` (float64), concatenated section-major, thread-minor —
where ``starts`` is the exclusive prefix sum of ``lens``.  Five
``(sections, threads)`` tables hold each stream's scalars.  Every
:class:`L2Stream` of such a program is a view into those arrays, so
every replay kernel reads the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import simulate_l1_filter
from repro.cpu.timing import TimingModel
from repro.sync.program import SyntheticProgram, ThreadWork
from repro.trace.layout import STREAM_BASE_ADDRESS

__all__ = [
    "CompiledProgram",
    "L2Stream",
    "check_flat",
    "compile_program",
    "compile_thread_work",
    "flat_arrays",
    "flat_program",
]

# The flat layout: its per-access arrays, then its per-stream scalar
# tables of shape (sections, threads), with their dtypes.  Together they
# list L2Stream's fields in declaration order.
_FLAT_STREAMS = (
    ("addresses", np.int64),
    ("d_instructions", np.int64),
    ("d_cycles", np.float64),
    ("miss_cycles", np.float64),
)
_FLAT_TABLES = (
    ("tail_instructions", np.int64),
    ("tail_cycles", np.float64),
    ("total_instructions", np.int64),
    ("l1_accesses", np.int64),
    ("l1_hits", np.int64),
)


@dataclass(frozen=True)
class L2Stream:
    """One thread's L2 accesses within one section.

    ``d_instructions[i]`` / ``d_cycles[i]`` are the instructions retired
    and cycles spent (base work + L1 activity) from just after the previous
    L2 access up to and including the memory operation that produced L2
    access ``i`` — the engine adds the L2-hit latency or ``miss_cycles[i]``
    on top.  ``miss_cycles`` is the per-access L2-miss penalty: the
    prefetch-covered ``stream_miss_cycles`` for streaming-region addresses,
    the full ``mem_cycles`` otherwise.  ``tail_*`` cover the work after the
    final L2 access to the end of the section.
    """

    addresses: np.ndarray
    d_instructions: np.ndarray
    d_cycles: np.ndarray
    miss_cycles: np.ndarray
    tail_instructions: int
    tail_cycles: float
    total_instructions: int
    l1_accesses: int
    l1_hits: int

    def __post_init__(self) -> None:
        n = self.addresses.size
        if (
            self.d_instructions.size != n
            or self.d_cycles.size != n
            or self.miss_cycles.size != n
        ):
            raise ValueError("stream arrays must be equal length")

    @property
    def n_l2_accesses(self) -> int:
        return int(self.addresses.size)

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0


@dataclass(frozen=True)
class CompiledProgram:
    """All sections of a program, compiled to per-thread L2 streams.

    ``flat`` holds the program's streams in the flat layout (module
    docstring; :func:`flat_arrays` names the arrays), and ``sections``
    are views into it.  It is ``None`` for a program assembled from
    hand-built streams.  It never participates in identity or equality.
    """

    name: str
    n_threads: int
    sections: tuple[tuple[L2Stream, ...], ...]
    meta: dict
    flat: dict[str, np.ndarray] | None = field(default=None, compare=False, repr=False)

    @property
    def total_instructions(self) -> int:
        return sum(s.total_instructions for sec in self.sections for s in sec)

    @property
    def total_l2_accesses(self) -> int:
        return sum(s.n_l2_accesses for sec in self.sections for s in sec)


def compile_thread_work(
    work: ThreadWork, l1_geometry: CacheGeometry, timing: TimingModel
) -> L2Stream:
    """Filter one thread-section trace through the L1 and compress it."""
    addrs = work.addrs
    gaps = work.gaps.astype(np.int64)
    hits = simulate_l1_filter(addrs, l1_geometry)

    instr_per_op = gaps + 1
    cyc_per_op = gaps * timing.base_cpi + timing.l1_hit_cycles
    cum_instr = np.cumsum(instr_per_op)
    cum_cycles = np.cumsum(cyc_per_op)
    total_instr = int(cum_instr[-1]) if instr_per_op.size else 0
    total_cycles = float(cum_cycles[-1]) if cyc_per_op.size else 0.0

    miss_idx = np.flatnonzero(~hits)
    if miss_idx.size == 0:
        return L2Stream(
            addresses=np.empty(0, dtype=np.int64),
            d_instructions=np.empty(0, dtype=np.int64),
            d_cycles=np.empty(0, dtype=np.float64),
            miss_cycles=np.empty(0, dtype=np.float64),
            tail_instructions=total_instr,
            tail_cycles=total_cycles,
            total_instructions=total_instr,
            l1_accesses=int(addrs.size),
            l1_hits=int(hits.sum()),
        )

    instr_at_miss = cum_instr[miss_idx]
    cycles_at_miss = cum_cycles[miss_idx]
    d_instr = np.diff(instr_at_miss, prepend=0)
    d_cycles = np.diff(cycles_at_miss, prepend=0.0)

    l2_addrs = addrs[miss_idx].astype(np.int64)
    miss_cycles = np.where(
        l2_addrs >= STREAM_BASE_ADDRESS, timing.stream_miss_cycles, timing.mem_cycles
    ).astype(np.float64)

    return L2Stream(
        addresses=l2_addrs,
        d_instructions=d_instr.astype(np.int64),
        d_cycles=d_cycles.astype(np.float64),
        miss_cycles=miss_cycles,
        tail_instructions=total_instr - int(instr_at_miss[-1]),
        tail_cycles=total_cycles - float(cycles_at_miss[-1]),
        total_instructions=total_instr,
        l1_accesses=int(addrs.size),
        l1_hits=int(hits.sum()),
    )


def compile_program(
    program: SyntheticProgram, l1_geometry: CacheGeometry, timing: TimingModel
) -> CompiledProgram:
    """Compile every thread of every section into the flat layout; see
    the module docstring."""
    sections = [
        [compile_thread_work(work, l1_geometry, timing) for work in sec.works]
        for sec in program.sections
    ]
    return flat_program(
        flat_arrays(sections),
        name=program.name,
        n_sections=len(sections),
        n_threads=program.n_threads,
        meta=dict(program.meta),
    )


def flat_arrays(sections: Sequence[Sequence[L2Stream]]) -> dict[str, np.ndarray]:
    """Concatenate a program's streams into the flat layout: the four
    per-access arrays, ``lens`` and the five scalar tables."""
    streams = [s for sec in sections for s in sec]
    arrays = {
        name: np.concatenate([getattr(s, name) for s in streams], dtype=dtype)
        for name, dtype in _FLAT_STREAMS
    }
    arrays["lens"] = np.array(
        [[s.n_l2_accesses for s in sec] for sec in sections], dtype=np.int64
    )
    for name, dtype in _FLAT_TABLES:
        arrays[name] = np.array([[getattr(s, name) for s in sec] for sec in sections], dtype=dtype)
    return arrays


def check_flat(
    arrays: dict[str, np.ndarray], n_sections: int, n_threads: int,
    per_access: Sequence[tuple] = _FLAT_STREAMS, tables: Sequence[tuple] = _FLAT_TABLES,
) -> None:
    """Raise ValueError unless ``arrays`` hold a well-formed flat layout
    of ``n_sections x n_threads`` streams (by default a compiled program's
    ``per_access`` arrays and ``tables``).  Readers slice, and the lane
    kernel indexes, the per-access arrays by offsets derived from ``lens``,
    so a ``lens`` that disagrees with them must never get that far."""
    for name, dtype in (*per_access, ("lens", np.int64), *tables):
        a = arrays.get(name)
        if a is None:
            raise ValueError(f"flat layout lacks {name!r}")
        if a.dtype != dtype or not a.flags.c_contiguous:
            raise ValueError(f"flat array {name!r} is not a C-contiguous {np.dtype(dtype)} array")
    lens = arrays["lens"]
    if lens.shape != (n_sections, n_threads):
        raise ValueError(f"lens has shape {lens.shape}, expected {(n_sections, n_threads)}")
    if (lens < 0).any():
        raise ValueError("lens holds a negative stream length")
    total = int(lens.sum())
    for name, _ in per_access:
        if arrays[name].shape != (total,):
            raise ValueError(f"{name!r} has shape {arrays[name].shape}; lens sum to {total}")
    for name, _ in tables:
        if arrays[name].shape != lens.shape:
            raise ValueError(f"table {name!r} has shape {arrays[name].shape}, not {lens.shape}")


def flat_program(
    arrays: dict[str, np.ndarray], *, name: str, n_sections: int, n_threads: int, meta: dict
) -> CompiledProgram:
    """The program whose streams are views into the flat ``arrays``.

    Checks the layout first and raises ValueError when it is malformed
    (wrong dtype, shape or contiguity, negative lengths, or lengths that
    do not sum to the per-access arrays' size).
    """
    check_flat(arrays, n_sections, n_threads)
    bounds = np.zeros(n_sections * n_threads + 1, dtype=np.int64)
    np.cumsum(arrays["lens"], out=bounds[1:])
    bounds = bounds.tolist()
    per_access = [arrays[name] for name, _ in _FLAT_STREAMS]
    tables = [arrays[name].ravel().tolist() for name, _ in _FLAT_TABLES]
    sections = tuple(
        tuple(
            L2Stream(
                *(a[bounds[k] : bounds[k + 1]] for a in per_access),
                *(table[k] for table in tables),
            )
            for k in range(sec * n_threads, (sec + 1) * n_threads)
        )
        for sec in range(n_sections)
    )
    return CompiledProgram(
        name=name, n_threads=n_threads, sections=sections, meta=meta, flat=arrays
    )
