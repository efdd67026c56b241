"""Batch planner and batched-engine semantics.

The planner (:mod:`repro.exec.batch`) may only ever *regroup* work:
every unit must execute to the same per-cell bytes the per-job path
produces, ineligible cells must not pay for the machinery, and a unit
that fails must decompose back into the ordinary retry path without
costing any cell its attempt budget.  The byte-identity of the batch
*kernel* itself is pinned by ``test_cache_differential.py``; this module
pins the orchestration around it.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.cache import CacheGeometry
from repro.exec.batch import batch_key, execute_batch, plan_units
from repro.exec.engine import SerialEngine
from repro.exec.jobs import JobSpec
from repro.exec.pool import ProcessPoolEngine
from repro.obs import RecordingTracer, set_tracer
from repro.obs.metrics import METRICS
from repro.partition import POLICY_REGISTRY
from repro.sim.driver import run_application, run_batch

#: Small-but-complete config: intervals, sections, partitioning all live.
BASE = SystemConfig(
    n_threads=4,
    l2_geometry=CacheGeometry(sets=16, ways=8),
    interval_instructions=1_500,
    n_intervals=5,
    sections_per_interval=2,
)
BATCHED = BASE.with_(cache_backend="batch")


def _specs(pairs, config=BATCHED):
    return [JobSpec(app, policy, config) for app, policy in pairs]


def _fast_twin(spec: JobSpec):
    """The per-job ground truth for ``spec``: same cell, fastpath kernel."""
    return run_application(spec.app, spec.policy, spec.config.with_(cache_backend="fast"))


class TestPlanUnits:
    def test_cells_sharing_a_program_form_one_unit(self):
        specs = _specs([("swim", p) for p in ("shared", "model-based", "static-equal")])
        assert plan_units(specs) == [(0, 1, 2)]
        assert METRICS.counter("batch.planned").value == 1
        assert METRICS.counter("batch.cells_batched").value == 3

    def test_lane_fields_may_vary_within_a_unit(self):
        # l2_geometry and min_ways do not shape the prepared program, so
        # they are free lane axes; everything else splits the unit.
        specs = [
            JobSpec("swim", "model-based", BATCHED),
            JobSpec("swim", "model-based", BATCHED.with_(l2_geometry=CacheGeometry(sets=32, ways=16))),
            JobSpec("swim", "model-based", BATCHED.with_(min_ways=2)),
        ]
        assert plan_units(specs) == [(0, 1, 2)]
        assert len({batch_key(s) for s in specs}) == 1

    def test_program_identity_splits_units(self):
        specs = [
            JobSpec("swim", "shared", BATCHED),
            JobSpec("art", "shared", BATCHED),  # different app
            JobSpec("swim", "shared", BATCHED.with_(seed=99)),  # different stream
        ]
        assert plan_units(specs) == [(0,), (1,), (2,)]
        assert len({batch_key(s) for s in specs}) == 3
        # 1-lane units are not "batches": no planner counters move.
        assert METRICS.counter("batch.planned").value == 0

    def test_interleaved_cells_group_in_input_order(self):
        specs = _specs(
            [("swim", "shared"), ("art", "shared"), ("swim", "model-based"), ("art", "model-based")]
        )
        assert plan_units(specs) == [(0, 2), (1, 3)]

    def test_non_batch_backends_are_untouched(self):
        specs = _specs([("swim", "shared"), ("swim", "model-based")], config=BASE)
        assert plan_units(specs) == [(0,), (1,)]
        assert METRICS.counter("batch.planned").value == 0


class TestBatchingDisabled:
    """Anything that relies on per-cell execution must see the identity
    plan, even for perfectly batchable grids."""

    BATCHABLE = (("swim", "shared"), ("swim", "model-based"))

    def test_active_fault_plan_disables_batching(self):
        from repro.exec.faults import FaultPlan, set_fault_plan

        set_fault_plan(FaultPlan(seed=7))
        assert SerialEngine()._plan_units(_specs(self.BATCHABLE)) == [(0,), (1,)]

    def test_custom_job_runner_disables_batching(self):
        engine = SerialEngine(job_runner=lambda spec: _fast_twin(spec))
        assert engine._plan_units(_specs(self.BATCHABLE)) == [(0,), (1,)]

    def test_default_engine_batches(self):
        assert SerialEngine()._plan_units(_specs(self.BATCHABLE)) == [(0, 1)]


class TestSingleLaneFallback:
    def test_one_lane_unit_never_enters_batch_machinery(self, monkeypatch):
        """Regression: a cell whose prep key is unique must run through
        the ordinary per-job path on the non-batched kernel — the batch
        entry point must not even be called."""

        def _forbidden(specs):
            raise AssertionError("execute_batch called for a 1-lane unit")

        monkeypatch.setattr("repro.exec.batch.execute_batch", _forbidden)
        spec = JobSpec("swim", "model-based", BATCHED)
        (outcome,) = SerialEngine().run([spec])
        assert outcome.ok and outcome.attempts == 1
        # The "batch" backend fell through to the fastpath kernel ...
        assert METRICS.counter("batch.fallback").value == 1
        assert METRICS.counter("batch.batches").value == 0
        # ... and produced the per-job bytes exactly.
        assert outcome.result == _fast_twin(spec)

    def test_fallthrough_simulation_is_byte_identical(self):
        # Direct run_application with the batch backend (no planner at
        # all) is the same zero-overhead fallthrough.
        result = run_application("art", "shared", BATCHED)
        assert METRICS.counter("batch.fallback").value == 1
        assert result == run_application("art", "shared", BASE.with_(cache_backend="fast"))

    def test_coexecution_under_batch_counts_no_fallback(self):
        # Co-execution drives its own loop over the shared L2; no batch
        # cell exists there, so none can have fallen back.
        from repro.multiapp import run_coexecution

        config = SystemConfig.quick().with_(cache_backend="batch", n_intervals=2)
        run_coexecution(["ft", "cg"], config, scheme="shared", threads_per_app=2)
        assert METRICS.counter("batch.fallback").value == 0


class TestBatchedEngines:
    def test_serial_engine_fans_batches_back_out(self):
        specs = _specs([("swim", p) for p in ("shared", "model-based", "static-equal")])
        seen = []
        outcomes = SerialEngine().run(specs, on_outcome=seen.append)
        assert [o.spec is s for o, s in zip(outcomes, specs)] == [True] * 3
        assert seen == outcomes
        assert all(o.ok and o.attempts == 1 and o.engine == "serial" for o in outcomes)
        assert METRICS.counter("batch.batches").value == 1
        assert METRICS.counter("batch.lanes").value == 3
        assert METRICS.counter("exec.jobs_ok").value == 3
        for outcome in outcomes:
            assert outcome.result == _fast_twin(outcome.spec)

    def test_pool_engine_matches_serial(self):
        specs = _specs(
            [("swim", "shared"), ("swim", "model-based"), ("art", "shared"), ("art", "model-based")]
        )
        serial = SerialEngine().run(specs)
        pooled = ProcessPoolEngine(2).run(specs)
        assert all(o.ok for o in pooled), [o.error for o in pooled]
        for s, p in zip(serial, pooled, strict=True):
            assert s.result == p.result, f"{s.spec.label}: pool and serial batches differ"

    def test_failed_batch_decomposes_to_per_job_retries(self, monkeypatch):
        monkeypatch.setattr(
            "repro.exec.batch.execute_batch",
            lambda specs: (_ for _ in ()).throw(RuntimeError("kernel exploded")),
        )
        specs = _specs([("swim", "shared"), ("swim", "model-based")])
        outcomes = SerialEngine(backoff_s=0.0).run(specs)
        # Every cell still succeeds — with its full attempt budget.
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert METRICS.counter("batch.failed").value == 1
        # Splitting a unit is not a retry: no attempt was used up.
        assert METRICS.counter("exec.retries").value == 0
        # The decomposed cells ran per-job, i.e. through the fallthrough.
        assert METRICS.counter("batch.fallback").value == 2
        for outcome in outcomes:
            assert outcome.result == _fast_twin(outcome.spec)


# -- one attempt machine, both transports --------------------------------

#: Two 2-lane units: swim's cells and art's cells.
TWO_UNITS = (("swim", "shared"), ("swim", "model-based"), ("art", "shared"), ("art", "model-based"))


def _explode(specs):
    raise RuntimeError("kernel exploded")


def _die_in_worker(specs):
    # Kills the pool worker running the unit (simulating OOM or a native
    # crash); in the parent the unit runs as usual.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return execute_batch(specs)


def _stall_in_worker(specs):
    if multiprocessing.parent_process() is not None:
        time.sleep(4.0)
    return execute_batch(specs)


def _pool(**kwargs) -> ProcessPoolEngine:
    # fork, so that a monkeypatched execute_batch reaches the workers
    return ProcessPoolEngine(
        2, backoff_s=0.0, mp_context=multiprocessing.get_context("fork"), **kwargs
    )


@pytest.fixture(params=["serial", "pool"])
def engine(request):
    with SerialEngine(backoff_s=0.0) if request.param == "serial" else _pool() as engine:
        yield engine


class TestOneAttemptMachine:
    """Retries, unit failure, timeouts and degradation follow one rule,
    whichever transport runs the attempts."""

    def test_when_tracer_enabled_then_cells_batch_and_each_is_narrated(self):
        tracer = RecordingTracer()
        set_tracer(tracer)
        specs = _specs([("swim", "shared"), ("swim", "model-based")])
        engine = SerialEngine()
        assert engine._plan_units(specs) == [(0, 1)]
        outcomes = engine.run(specs)
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert METRICS.counter("batch.batches").value == 1
        labels = sorted(s.label for s in specs)
        for kind in ("job_start", "job_end"):
            assert sorted(e.label for e in tracer.events if e.kind == kind) == labels

    def test_when_a_multi_lane_unit_raises_then_its_cells_run_single_with_full_budget(
        self, engine, monkeypatch
    ):
        monkeypatch.setattr("repro.exec.batch.execute_batch", _explode)
        outcomes = engine.run(_specs(TWO_UNITS))
        assert all(o.ok and o.attempts == 1 for o in outcomes), [o.error for o in outcomes]
        for outcome in outcomes:
            assert outcome.result == _fast_twin(outcome.spec)
        assert METRICS.counter("batch.failed").value == 2
        assert METRICS.counter("exec.retries").value == 0

    def test_when_a_worker_dies_inside_a_multi_lane_unit_then_the_pool_degrades_loudly(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr("repro.exec.batch.execute_batch", _die_in_worker)
        with _pool() as engine:
            outcomes = engine.run(_specs(TWO_UNITS))
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        for outcome in outcomes:
            assert outcome.result == _fast_twin(outcome.spec)
        assert len(engine.degraded_reasons) == 1
        assert "pool worker died" in engine.degraded_reasons[0]
        assert METRICS.counter("exec.degraded_to_serial").value == 1
        assert "degraded to serial" in capsys.readouterr().err

    def test_when_the_pool_cannot_be_built_then_units_run_in_process_whole(self, monkeypatch):
        def no_pool(self):
            raise OSError("no processes left")

        monkeypatch.setattr(ProcessPoolEngine, "_ensure_pool", no_pool)
        engine = _pool()
        outcomes = engine.run(_specs(TWO_UNITS))
        assert all(o.ok and o.attempts == 1 for o in outcomes), [o.error for o in outcomes]
        assert {o.engine for o in outcomes} == {"process-pool→serial"}
        assert engine.degraded_reasons == ["pool unusable: OSError: no processes left"]
        assert METRICS.counter("batch.failed").value == 0
        assert METRICS.counter("batch.batches").value == 2

    def test_when_serial_runs_two_units_then_the_first_is_recorded_before_the_second_starts(
        self, monkeypatch
    ):
        log = []

        def spy(specs):
            log.append(("unit", specs[0].app))
            return execute_batch(specs)

        monkeypatch.setattr("repro.exec.batch.execute_batch", spy)
        SerialEngine().run(
            _specs(TWO_UNITS), on_outcome=lambda o: log.append(("outcome", o.spec.app))
        )
        assert log == [
            ("unit", "swim"), ("outcome", "swim"), ("outcome", "swim"),
            ("unit", "art"), ("outcome", "art"), ("outcome", "art"),
        ]

    def test_when_a_multi_lane_unit_times_out_then_its_cells_split_onto_a_fresh_pool(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.exec.batch.execute_batch", _stall_in_worker)
        specs = _specs([("swim", "shared"), ("swim", "model-based")])
        twins = [_fast_twin(s) for s in specs]
        # A cell takes well under a second here; the unit's wait is 2 x 1 s.
        with _pool(timeout_s=1.0) as engine:
            stalled = engine._ensure_pool()
            outcomes = engine.run(specs)
            assert engine._pool_holder and engine._pool_holder[0] is not stalled
        assert [o.result for o in outcomes] == twins
        assert all(o.ok and o.attempts == 1 and o.engine == "process-pool" for o in outcomes)
        assert METRICS.counter("batch.failed").value == 1
        assert METRICS.counter("exec.retries").value == 0
        assert engine.degraded_reasons == []


# -- lane-equivalence property -----------------------------------------

_GEOMETRIES = (CacheGeometry(sets=16, ways=8), CacheGeometry(sets=32, ways=16))
_LANE_OPTIONS = tuple(
    (policy, g) for policy in sorted(POLICY_REGISTRY) for g in range(len(_GEOMETRIES))
)
_SOLO_CACHE: dict[tuple[str, int], dict] = {}


def _solo(policy: str, g: int) -> dict:
    """Cached per-cell ground truth (fastpath replay) for one lane."""
    key = (policy, g)
    if key not in _SOLO_CACHE:
        config = BASE.with_(l2_geometry=_GEOMETRIES[g], cache_backend="fast")
        _SOLO_CACHE[key] = run_application("swim", policy, config).to_dict()
    return _SOLO_CACHE[key]


@settings(max_examples=15, deadline=None)
@given(
    lanes=st.lists(st.sampled_from(_LANE_OPTIONS), min_size=1, max_size=4, unique=True)
)
def test_random_lane_subsets_match_solo_replay(lanes):
    """Property: any subset of lanes, in any order, batched over one
    shared program produces each lane's solo bytes exactly — lane results
    cannot depend on which neighbours share the batch."""
    cells = [
        (policy, BATCHED.with_(l2_geometry=_GEOMETRIES[g])) for policy, g in lanes
    ]
    results = run_batch("swim", cells)
    for (policy, g), result in zip(lanes, results):
        assert result.to_dict() == _solo(policy, g), (
            f"lane swim/{policy}/geometry-{g} diverged inside batch {lanes}"
        )
