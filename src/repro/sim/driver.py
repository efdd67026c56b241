"""Top-level simulation driver.

Ties together the substrates: builds (and memoises) the synthetic program
for an application, compiles it through the private L1s once, then replays
it under any number of partitioning policies.  Because the program and the
L1-filtered L2 streams are identical across policies, policy comparisons
(the paper's Figs. 19-22) are exact A/B comparisons on the same trace.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.fastpath import make_shared_cache
from repro.core.records import RunResult
from repro.core.runtime import RuntimeSystem
from repro.cpu.engine import CMPEngine
from repro.cpu.streams import CompiledProgram, compile_program
from repro.obs.metrics import METRICS
from repro.obs.tracer import Tracer, get_tracer
from repro.partition import POLICY_REGISTRY
from repro.partition.base import PartitioningPolicy
from repro.sim.config import SystemConfig
from repro.trace.builder import build_program
from repro.trace.workloads import WorkloadProfile, get_workload

__all__ = [
    "clear_program_cache",
    "make_policy",
    "prepare_program",
    "run_application",
    "run_batch",
    "set_program_cache_limit",
]

# Compiled programs are large (every per-thread L2 stream of every section);
# an unbounded memo turns a long sweep into a slow leak.  LRU with a
# configurable cap: a solo policy comparison re-reads the same entry for every
# policy, so a small cap keeps the old hit rate; batch units never enter it.
DEFAULT_PROGRAM_CACHE_LIMIT = 32

_PROGRAM_CACHE: OrderedDict[tuple, CompiledProgram] = OrderedDict()
_PROGRAM_CACHE_LIMIT = DEFAULT_PROGRAM_CACHE_LIMIT


def _cache_key(profile: WorkloadProfile, config: SystemConfig) -> tuple:
    # Key on the frozen config itself rather than a hand-picked tuple of
    # fields: a tuple silently drifts (stale hits) whenever SystemConfig
    # grows a field.  The L2 geometry and min_ways do not affect the
    # compiled program, so configs differing only there recompile — a small
    # cost next to the correctness risk of under-keying.
    return (profile.name, config)


def prepare_program(
    app: str | WorkloadProfile, config: SystemConfig, *, keep: bool = True
) -> CompiledProgram:
    """Build + L1-compile the program for ``app``, memoised per config.

    The memo is what makes solo multi-policy comparisons cheap: trace
    generation and L1 filtering dominate setup cost and depend only on the
    workload and machine front-end, never on the L2 policy.  When a
    :mod:`repro.prep` store is configured, a memo miss consults it for a
    compiled *stream bundle* first — a hit rebuilds the program from
    mmapped arrays (shared page-cache pages across worker processes) and
    skips generation and L1 filtering entirely; a miss compiles as usual
    and publishes the bundle for every later process.

    ``keep=False`` still serves a memo hit but does not insert a miss,
    so the program (and the bundle mapping it reads) lives only as long
    as the caller holds it.
    """
    profile = get_workload(app) if isinstance(app, str) else app
    key = _cache_key(profile, config)
    compiled = _PROGRAM_CACHE.get(key)
    if compiled is not None:
        METRICS.counter("sim.program_cache.hits").inc()
        _PROGRAM_CACHE.move_to_end(key)
        return compiled
    METRICS.counter("sim.program_cache.misses").inc()
    compiled = _prepare_uncached(profile, config)
    if keep:
        _PROGRAM_CACHE[key] = compiled
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_LIMIT:
            _PROGRAM_CACHE.popitem(last=False)
            METRICS.counter("sim.program_cache.evictions").inc()
        METRICS.gauge("sim.program_cache.size").set(len(_PROGRAM_CACHE))
    return compiled


def _prepare_uncached(profile: WorkloadProfile, config: SystemConfig) -> CompiledProgram:
    """Resolve a program-memo miss: prep store first, then full compile."""
    from repro.prep import compiled_from_bundle, get_prep_store, stream_bundle, stream_key

    store = get_prep_store()
    key = stream_key(profile, config) if store is not None else None
    bundle = store.get(key) if store is not None else None
    if bundle is not None:
        try:
            return compiled_from_bundle(bundle)
        except ValueError:
            store.reject(key)  # corrupt: evicted here, regenerated below
    program = build_program(
        profile,
        n_threads=config.n_threads,
        n_intervals=config.n_intervals,
        interval_instructions=config.interval_instructions,
        sections_per_interval=config.sections_per_interval,
        seed=config.seed,
        line_bytes=config.line_bytes,
    )
    # compile_program emits the flat layout, so publishing copies nothing.
    compiled = compile_program(program, config.l1_geometry, config.timing)
    if store is not None:
        store.put(key, *stream_bundle(compiled, config.timing, config.l2_geometry.offset_bits))
    return compiled


def set_program_cache_limit(limit: int) -> None:
    """Cap the compiled-program memo at ``limit`` entries (LRU beyond it)."""
    global _PROGRAM_CACHE_LIMIT
    if limit < 1:
        raise ValueError("program cache limit must be >= 1")
    _PROGRAM_CACHE_LIMIT = limit
    while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_LIMIT:
        _PROGRAM_CACHE.popitem(last=False)
        METRICS.counter("sim.program_cache.evictions").inc()
    METRICS.gauge("sim.program_cache.size").set(len(_PROGRAM_CACHE))


def clear_program_cache() -> None:
    """Drop all memoised compiled programs (tests use this to bound memory)."""
    _PROGRAM_CACHE.clear()
    METRICS.gauge("sim.program_cache.size").set(0)


def make_policy(policy: str | PartitioningPolicy, config: SystemConfig) -> PartitioningPolicy:
    """Resolve a policy name (see ``repro.partition.POLICY_REGISTRY``) or
    pass an already-constructed policy through."""
    if isinstance(policy, PartitioningPolicy):
        return policy
    try:
        cls = POLICY_REGISTRY[policy]
    except KeyError:
        raise KeyError(
            f"unknown policy {policy!r}; known: {', '.join(sorted(POLICY_REGISTRY))}"
        ) from None
    return cls(config.n_threads, config.total_ways, min_ways=config.min_ways)


def run_application(
    app: str | WorkloadProfile,
    policy: str | PartitioningPolicy,
    config: SystemConfig | None = None,
    *,
    tracer: Tracer | None = None,
) -> RunResult:
    """Simulate one application under one partitioning policy.

    This is the main public entry point::

        result = run_application("swim", "model-based")
        baseline = run_application("swim", "shared")
        print(result.speedup_over(baseline))

    ``tracer`` receives the run's telemetry (``interval``, ``repartition``,
    ``convergence`` events plus prepare/simulate spans); it defaults to the
    process-wide tracer from :func:`repro.obs.get_tracer`, which is the
    no-op :data:`~repro.obs.NULL_TRACER` unless the CLI (``--trace``) or a
    caller installed one.
    """
    config = config or SystemConfig.default()
    if tracer is None:
        tracer = get_tracer()
    with tracer.span("prepare"):
        compiled = prepare_program(app, config)
        policy_obj = make_policy(policy, config)
        policy_obj.reset()
    runtime = RuntimeSystem(policy_obj, tracer=tracer, app=compiled.name)
    if config.cache_backend == "batch":
        # A solo cell on the batch backend: a 1-lane batch, replayed by
        # the fastpath kernel (see repro.cache.fastpath.CACHE_BACKENDS).
        METRICS.counter("batch.fallback").inc()
    l2 = make_shared_cache(
        config.l2_geometry,
        config.n_threads,
        backend=config.cache_backend,
        enforce_partition=policy_obj.enforce_partition,
        targets=runtime.initial_targets(),
    )
    engine = CMPEngine(
        compiled,
        l2,
        config.timing,
        runtime,
        interval_instructions=config.interval_instructions,
        tracer=tracer,
    )
    with tracer.span("simulate"):
        return engine.run()


def run_batch(
    app: str | WorkloadProfile,
    cells: list[tuple[str | PartitioningPolicy, SystemConfig]],
    *,
    tracer: Tracer | None = None,
) -> list[RunResult]:
    """Simulate one application under several (policy, config) cells that
    share a prepared program, in a single batched replay.

    Every cell must agree on everything that shapes the program — seed,
    thread count, interval structure, L1 geometry, timing — while the L2
    geometry, ``min_ways``, and of course the policy are free to vary
    per lane.  Returns one :class:`RunResult` per cell, in cell order,
    each byte-identical to :func:`run_application` on that cell alone.

    Prepared with ``keep=False``: :func:`repro.exec.batch.plan_units` puts
    every cell sharing a ``batch_key`` into one unit, so this call is the
    program's only consumer in its sweep and a memo entry would outlive it.
    """
    from dataclasses import replace

    from repro.cache.batch import BatchLane, replay_batch

    if not cells:
        return []
    base = cells[0][1]
    for i, (_, cfg) in enumerate(cells):
        if (
            replace(cfg, l2_geometry=base.l2_geometry, min_ways=base.min_ways)
            != base
        ):
            raise ValueError(
                f"batch cell {i} does not share cell 0's prepared program "
                "(cells may differ only in policy, L2 geometry, and min_ways)"
            )
    if tracer is None:
        tracer = get_tracer()
    with tracer.span("prepare"):
        compiled = prepare_program(app, base, keep=False)
        lanes = []
        for policy, cfg in cells:
            policy_obj = make_policy(policy, cfg)
            policy_obj.reset()
            runtime = RuntimeSystem(policy_obj, tracer=tracer, app=compiled.name)
            lanes.append(
                BatchLane(
                    geometry=cfg.l2_geometry,
                    enforce_partition=policy_obj.enforce_partition,
                    targets=runtime.initial_targets(),
                    runtime=runtime,
                    tracer=tracer,
                )
            )
    with tracer.span("simulate"):
        return replay_batch(
            compiled,
            lanes,
            base.timing,
            interval_instructions=base.interval_instructions,
        )
