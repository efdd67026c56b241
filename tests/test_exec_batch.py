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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig
from repro.cache import CacheGeometry
from repro.exec.batch import batch_key, plan_units
from repro.exec.engine import SerialEngine, execute_job
from repro.exec.jobs import JobSpec
from repro.exec.pool import ProcessPoolEngine
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

    def test_enabled_tracer_disables_batching(self):
        from repro.obs import set_tracer
        from repro.obs.tracer import RecordingTracer

        set_tracer(RecordingTracer())
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
        # The decomposed cells ran per-job, i.e. through the fallthrough.
        assert METRICS.counter("batch.fallback").value == 2
        for outcome in outcomes:
            assert outcome.result == _fast_twin(outcome.spec)


class TestRemoteBatch:
    def _fleet_specs(self):
        return _specs([("swim", p) for p in ("shared", "model-based", "static-equal")])

    def test_capable_worker_runs_whole_units(self):
        from repro.dist.engine import RemoteEngine
        from repro.dist.worker import WorkerServer

        specs = self._fleet_specs()
        expected = SerialEngine().run(specs)
        with WorkerServer() as worker:
            worker.start()
            outcomes = RemoteEngine([worker.address]).run(specs)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert METRICS.counter("dist.batches_shipped").value == 1
        assert worker.jobs_run == 3
        for e, o in zip(expected, outcomes, strict=True):
            assert e.result == o.result

    def test_incapable_worker_decomposes_units(self):
        from repro.dist.engine import RemoteEngine
        from repro.dist.worker import WorkerServer

        def _per_job_only(spec):  # not `execute_job` itself → no batch cap
            return execute_job(spec)

        specs = self._fleet_specs()
        expected = SerialEngine().run(specs)
        with WorkerServer(job_runner=_per_job_only) as worker:
            worker.start()
            outcomes = RemoteEngine([worker.address]).run(specs)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert METRICS.counter("dist.batch_unsupported").value == 1
        assert METRICS.counter("dist.batches_shipped").value == 0
        assert worker.jobs_run == 3  # shipped one job frame per cell instead
        for e, o in zip(expected, outcomes, strict=True):
            assert e.result == o.result


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
