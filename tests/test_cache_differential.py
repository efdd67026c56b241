"""Differential equivalence: the fast L2 backend is a behavioural twin.

``FastPartitionedSharedCache`` (struct-of-arrays layout plus the fused
replay kernel) exists purely for speed; this suite is the contract that
it is *byte-identical* to the readable reference implementation:

* every :class:`~repro.core.records.RunResult` field — clocks, busy/stall
  cycles, instruction counts, per-thread cache statistics, interval
  records — serialises to the same JSON across apps x policies x seeds
  x L2 geometries,
* the telemetry event stream (interval / repartition / convergence) is
  identical event-for-event,
* the standalone ``access()`` surface produces the same hit/miss stream,
  statistics and occupancy under randomised traffic and live
  repartitioning, with structural invariants intact throughout.

Anything the fast path gets wrong shows up here as a field-level diff,
not as a silently different experiment result.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro import SystemConfig
from repro.cache import CacheGeometry, FastPartitionedSharedCache, PartitionedSharedCache
from repro.obs.tracer import RecordingTracer
from repro.partition import POLICY_REGISTRY, PartitioningPolicy
from repro.sim.driver import run_application, run_batch

APPS = ("swim", "art", "equake", "mgrid")
SEEDS = (1, 7)
GEOMETRIES = (CacheGeometry(sets=32, ways=16), CacheGeometry(sets=16, ways=8))


def _quick_config(geometry: CacheGeometry, seed: int, backend: str) -> SystemConfig:
    return SystemConfig.quick().with_(
        l2_geometry=geometry, seed=seed, cache_backend=backend
    )


def _result_json(app: str, policy: str, config: SystemConfig) -> str:
    return json.dumps(run_application(app, policy, config).to_dict(), sort_keys=True)


def _diff_fields(ref: dict, fast: dict, path: str = "") -> list[str]:
    """Paths where two result dicts disagree (value or type)."""
    if type(ref) is not type(fast):
        return [f"{path}: type {type(ref).__name__} != {type(fast).__name__}"]
    if isinstance(ref, dict):
        out = []
        for key in sorted(set(ref) | set(fast)):
            if key not in ref or key not in fast:
                out.append(f"{path}.{key}: missing on one side")
            else:
                out.extend(_diff_fields(ref[key], fast[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if len(ref) != len(fast):
            return [f"{path}: length {len(ref)} != {len(fast)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, fast)):
            out.extend(_diff_fields(a, b, f"{path}[{i}]"))
        return out
    if ref != fast:
        return [f"{path}: {ref!r} != {fast!r}"]
    return []


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=("l2-32x16", "l2-16x8"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
@pytest.mark.parametrize("app", APPS)
def test_run_results_byte_identical(app, policy, seed, geometry):
    """Full matrix: RunResult.to_dict() must serialise identically."""
    ref = run_application(app, policy, _quick_config(geometry, seed, "reference"))
    fast = run_application(app, policy, _quick_config(geometry, seed, "fast"))
    ref_d, fast_d = ref.to_dict(), fast.to_dict()
    if json.dumps(ref_d, sort_keys=True) != json.dumps(fast_d, sort_keys=True):
        diffs = _diff_fields(ref_d, fast_d)
        pytest.fail(
            f"backends diverge for {app}/{policy} seed={seed} {geometry}:\n  "
            + "\n  ".join(diffs[:20])
        )


@pytest.mark.parametrize("policy", ("model-based", "shared"))
def test_run_results_byte_identical_eight_core(policy):
    """The 8-thread kernel specialisations replay identically too."""
    base = SystemConfig.quick(n_threads=8)
    ref = run_application("art", policy, base.with_(cache_backend="reference"))
    fast = run_application("art", policy, base.with_(cache_backend="fast"))
    assert json.dumps(ref.to_dict(), sort_keys=True) == json.dumps(
        fast.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=("l2-32x16", "l2-16x8"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", APPS)
def test_batched_run_results_byte_identical(app, seed, geometry):
    """Full matrix for the batch backend: every lane of an all-policies
    batch serialises identically to the reference run of that cell."""
    policies = sorted(POLICY_REGISTRY)
    config = _quick_config(geometry, seed, "batch")
    results = run_batch(app, [(policy, config) for policy in policies])
    for policy, result in zip(policies, results):
        ref = run_application(app, policy, _quick_config(geometry, seed, "reference"))
        ref_d, lane_d = ref.to_dict(), result.to_dict()
        if json.dumps(ref_d, sort_keys=True) != json.dumps(lane_d, sort_keys=True):
            diffs = _diff_fields(ref_d, lane_d)
            pytest.fail(
                f"batch lane diverges for {app}/{policy} seed={seed} {geometry}:\n  "
                + "\n  ".join(diffs[:20])
            )


@pytest.mark.parametrize("policies", (("model-based", "shared"), ("fairness", "cpi-proportional")))
def test_batched_run_results_byte_identical_eight_core(policies):
    """8-thread lanes replay identically batched too."""
    base = SystemConfig.quick(n_threads=8)
    results = run_batch(
        "art", [(policy, base.with_(cache_backend="batch")) for policy in policies]
    )
    for policy, result in zip(policies, results):
        ref = run_application("art", policy, base.with_(cache_backend="reference"))
        assert json.dumps(ref.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        ), f"batched 8-core lane diverges for art/{policy}"


def test_batched_lanes_may_differ_in_l2_geometry():
    """The lane axis spans L2 geometries sharing one prepared program."""
    cells = [
        ("model-based", _quick_config(geometry, 1, "batch"))
        for geometry in GEOMETRIES
    ]
    results = run_batch("swim", cells)
    for (policy, config), result in zip(cells, results):
        ref = run_application(
            "swim", policy, config.with_(cache_backend="reference")
        )
        assert json.dumps(ref.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )


def test_batched_telemetry_stream_matches_reference():
    """A traced batch narrates each lane exactly like a solo reference
    run, in lane order (spans differ: one prepare/simulate per batch)."""
    policies = ("model-based", "shared")
    tracer = RecordingTracer()
    run_batch(
        "swim",
        [(policy, _quick_config(GEOMETRIES[0], 1, "batch")) for policy in policies],
        tracer=tracer,
    )
    batched = [(e.kind, e.to_dict()) for e in tracer.events if e.kind != "span"]
    expected = []
    for policy in policies:
        solo = RecordingTracer()
        run_application(
            "swim", policy, _quick_config(GEOMETRIES[0], 1, "reference"), tracer=solo
        )
        expected.extend(
            (e.kind, e.to_dict()) for e in solo.events if e.kind != "span"
        )
    assert batched == expected


@pytest.mark.parametrize("policy", ("model-based", "throughput", "shared"))
def test_telemetry_streams_identical(policy):
    """Interval/repartition/convergence events match one-for-one.

    Span events carry wall-clock durations, so only their names are
    compared; every simulation-derived event must agree payload-for-
    payload, in order.
    """
    streams = {}
    for backend in ("reference", "fast"):
        tracer = RecordingTracer()
        run_application("swim", policy, _quick_config(GEOMETRIES[0], 1, backend), tracer=tracer)
        streams[backend] = [
            (e.kind, e.to_dict()) for e in tracer.events if e.kind != "span"
        ]
        streams[backend + "-spans"] = [
            e.to_dict()["name"] for e in tracer.events if e.kind == "span"
        ]
    assert streams["reference"] == streams["fast"]
    assert streams["reference-spans"] == streams["fast-spans"]


def _random_stream(seed: int, n_threads: int, length: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    # Mixed locality: small hot region, larger warm region, cold tail.
    regions = ((1 << 12, 0.6), (1 << 16, 0.3), (1 << 22, 0.1))
    out = []
    for _ in range(length):
        thread = rng.randrange(n_threads)
        roll, base = rng.random(), 0.0
        for span, weight in regions:
            base += weight
            if roll < base:
                out.append((thread, rng.randrange(span)))
                break
        else:
            out.append((thread, rng.randrange(regions[-1][0])))
    return out


def _random_targets(rng: random.Random, n_threads: int, ways: int) -> list[int]:
    cuts = sorted(rng.randrange(ways + 1) for _ in range(n_threads - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, ways])]


class _ChurningTargets(PartitioningPolicy):
    """Seeded random cuts of the ways, zeros included, at every interval.

    A zero target drives the Section V fallbacks that no registered
    policy reaches: a missing thread that owns nothing in the set, and
    a full set where nobody is over target.
    """

    def __init__(self, n_threads: int, total_ways: int, seed: int) -> None:
        super().__init__(n_threads, total_ways, min_ways=0)
        self.seed = seed
        self.reset()

    @property
    def name(self) -> str:
        return f"churn-{self.seed}"

    def initial_targets(self) -> list[int]:
        return _random_targets(self._rng, self.n_threads, self.total_ways)

    def on_interval(self, obs) -> list[int]:
        return _random_targets(self._rng, self.n_threads, self.total_ways)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


@pytest.mark.parametrize(
    "geometry",
    (
        CacheGeometry(sets=16, ways=8),
        CacheGeometry(sets=32, ways=16),
        CacheGeometry(sets=32, ways=32),
    ),
    ids=("l2-16x8", "l2-32x16", "l2-32x32"),
)
@pytest.mark.parametrize("n_threads", (4, 8))
def test_batched_lanes_under_zero_and_churning_targets(n_threads, geometry):
    """Compiled lanes whose targets include zeros and change every
    interval match the reference engine over PartitionedSharedCache."""
    config = SystemConfig.quick(n_threads=n_threads).with_(l2_geometry=geometry)
    seeds = (3, 11, 29)
    results = run_batch(
        "swim",
        [
            (_ChurningTargets(n_threads, geometry.ways, seed), config.with_(cache_backend="batch"))
            for seed in seeds
        ],
    )
    for seed, result in zip(seeds, results):
        ref = run_application(
            "swim",
            _ChurningTargets(n_threads, geometry.ways, seed),
            config.with_(cache_backend="reference"),
        )
        ref_d, lane_d = ref.to_dict(), result.to_dict()
        if json.dumps(ref_d, sort_keys=True) != json.dumps(lane_d, sort_keys=True):
            diffs = _diff_fields(ref_d, lane_d)
            pytest.fail(f"churning lane seed={seed} diverges:\n  " + "\n  ".join(diffs[:20]))


@pytest.mark.parametrize("enforce", (True, False), ids=("partitioned", "plain-lru"))
@pytest.mark.parametrize("seed", SEEDS)
def test_access_stream_differential(enforce, seed):
    """Standalone access() surface: same hits, stats and occupancy under
    randomised traffic with repartitioning every 512 accesses."""
    geometry = CacheGeometry(sets=16, ways=8)
    n_threads = 4
    ref = PartitionedSharedCache(geometry, n_threads, enforce_partition=enforce)
    fast = FastPartitionedSharedCache(geometry, n_threads, enforce_partition=enforce)
    rng = random.Random(seed + 100)
    for i, (thread, addr) in enumerate(_random_stream(seed, n_threads, 6000)):
        if enforce and i % 512 == 0 and i:
            targets = _random_targets(rng, n_threads, geometry.ways)
            ref.set_targets(targets)
            fast.set_targets(targets)
        assert ref.access(thread, addr) == fast.access(thread, addr), (
            f"hit/miss divergence at access {i} (thread={thread}, addr={addr:#x})"
        )
        if i % 1000 == 0:
            assert ref.occupancy() == fast.occupancy()
            fast.check_invariants()
    assert ref.stats.snapshot() == fast.stats.snapshot()
    assert ref.occupancy() == fast.occupancy()
    for s in range(geometry.sets):
        assert ref.set_occupancy(s) == fast.set_occupancy(s)
    assert ref.partition_distance() == fast.partition_distance()
    ref.check_invariants()
    fast.check_invariants()


def test_backend_field_rejects_unknown():
    with pytest.raises(ValueError, match="cache_backend"):
        dataclasses.replace(SystemConfig.quick(), cache_backend="turbo")
