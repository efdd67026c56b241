"""Assemble workload profiles into executable synthetic programs."""

from __future__ import annotations

import numpy as np

from repro.sync.program import Section, SyntheticProgram, ThreadWork
from repro.trace.behavior import behavior_schedule
from repro.trace.generator import ThreadTraceGenerator
from repro.trace.layout import AddressLayout
from repro.trace.workloads import WorkloadProfile

__all__ = ["build_program"]


def build_program(
    profile: WorkloadProfile,
    *,
    n_threads: int = 4,
    n_intervals: int = 50,
    interval_instructions: int = 12_000,
    sections_per_interval: int = 4,
    seed: int = 1,
    line_bytes: int = 64,
    work_jitter: float = 0.05,
) -> SyntheticProgram:
    """Build the barrier-structured program for one application run.

    Each execution interval is split into ``sections_per_interval``
    barrier-bound parallel sections (the paper notes an interval can span
    several sections and vice versa; making sections shorter than intervals
    keeps barrier effects visible inside every interval).  Per-thread
    section work is ``interval_instructions / sections_per_interval``
    instructions with small uniform jitter — the load imbalance in these
    workloads comes from *cache behaviour*, not from instruction-count
    skew, exactly as the paper argues.

    Determinism: a fixed ``seed`` yields an identical program, so different
    partitioning policies are compared on byte-identical traces.

    When a :mod:`repro.prep` store is configured, generated traces are
    published as content-addressed bundles and later builds of the same
    parameters reconstruct the program from mmapped arrays instead of
    regenerating — value-identical by the determinism above.  A corrupt
    bundle is rejected (``prep.corrupt``) and regenerated.
    """
    if n_intervals < 1 or sections_per_interval < 1:
        raise ValueError("n_intervals and sections_per_interval must be >= 1")
    if interval_instructions < sections_per_interval:
        raise ValueError("interval_instructions must cover at least one instruction per section")
    if not 0.0 <= work_jitter < 1.0:
        raise ValueError("work_jitter must be in [0, 1)")

    from repro.prep import get_prep_store, program_from_bundle, trace_bundle, trace_key

    store = get_prep_store()
    key = None
    if store is not None:
        key = trace_key(
            profile,
            n_threads=n_threads,
            n_intervals=n_intervals,
            interval_instructions=interval_instructions,
            sections_per_interval=sections_per_interval,
            seed=seed,
            line_bytes=line_bytes,
            work_jitter=work_jitter,
        )
        bundle = store.get(key)
        if bundle is not None:
            try:
                return program_from_bundle(bundle)
            except ValueError:
                store.reject(key)  # corrupt: evicted here, regenerated below

    layout = AddressLayout(line_bytes=line_bytes)
    behaviors = profile.behaviors_for(n_threads)
    schedule = behavior_schedule(behaviors, list(profile.phases), n_intervals)

    gens = [
        ThreadTraceGenerator(t, layout, seed=seed * 1_000_003 + t) for t in range(n_threads)
    ]
    jitter_rng = np.random.default_rng(seed ^ 0xBA55)

    section_instr = interval_instructions / sections_per_interval
    sections: list[Section] = []
    for interval in range(n_intervals):
        interval_behaviors = schedule[interval]
        for _ in range(sections_per_interval):
            works = []
            for t in range(n_threads):
                target = section_instr * (1.0 + jitter_rng.uniform(-work_jitter, work_jitter))
                addrs, gaps = gens[t].generate(interval_behaviors[t], max(1, int(round(target))))
                works.append(ThreadWork(addrs=addrs, gaps=gaps))
            sections.append(Section(works=tuple(works)))

    program = SyntheticProgram(
        name=profile.name,
        sections=tuple(sections),
        meta={
            "suite": profile.suite,
            "n_intervals": n_intervals,
            "interval_instructions": interval_instructions,
            "sections_per_interval": sections_per_interval,
            "seed": seed,
            "n_threads": n_threads,
        },
    )
    if store is not None:
        arrays, meta = trace_bundle(program)
        store.put(key, arrays, meta)
    return program
