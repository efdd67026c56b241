"""Tests for repro.exec.faults: deterministic fault injection.

The injected job runners must be module-level functions so the pool
engine can pickle them into worker processes.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cache.stats import StatsSnapshot
from repro.core.records import RunResult
from repro.exec.engine import SerialEngine
from repro.exec.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    fire_job_faults,
    get_fault_plan,
    set_fault_plan,
)
from repro.exec.jobs import JobSpec
from repro.exec.pool import ProcessPoolEngine
from repro.exec.store import ResultStore
from repro.obs import METRICS, RecordingTracer, set_tracer


def _dummy_result(spec: JobSpec) -> RunResult:
    zeros = (0,)
    snap = StatsSnapshot(zeros, zeros, zeros, zeros, zeros, zeros, zeros)
    return RunResult(
        app=spec.app,
        policy=spec.policy,
        n_threads=1,
        total_cycles=1.0,
        thread_instructions=(1,),
        thread_busy_cycles=(1.0,),
        thread_stall_cycles=(0.0,),
        l2_totals=snap,
    )


def _echo_runner(spec: JobSpec) -> RunResult:
    return _dummy_result(spec)


def specs_for(config, pairs):
    return [JobSpec(app, policy, config) for app, policy in pairs]


def _counters() -> dict:
    return METRICS.snapshot()["counters"]


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        # The former network kinds are refused, not accepted and never rolled.
        for kind in ("coffee-spill", "slow-link", "conn-drop", "partition", "worker-vanish"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultRule(kind=kind)

    def test_rate_and_delay_validated(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(kind="delay", rate=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            FaultRule(kind="delay", delay_s=-0.1)


class TestFaultPlan:
    def test_roundtrip_through_dict(self):
        plan = FaultPlan(
            seed=42,
            rules=(
                FaultRule(kind="job-exception", match="swim/*", attempts=(1, 2)),
                FaultRule(kind="delay", rate=0.5, delay_s=0.01),
            ),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_select_is_deterministic(self):
        plan = FaultPlan(seed=7, rules=(FaultRule(kind="job-exception", rate=0.5),))
        decisions = [plan.select("job-exception", f"app{i}/pol", 1) for i in range(64)]
        again = [plan.select("job-exception", f"app{i}/pol", 1) for i in range(64)]
        assert decisions == again
        fired = sum(1 for d in decisions if d is not None)
        # rate=0.5 over 64 keys: not all, not none (deterministic, so this
        # never flakes — it pins the seeded distribution).
        assert 10 < fired < 54

    def test_different_seed_different_selection(self):
        r = (FaultRule(kind="job-exception", rate=0.5),)
        keys = [f"app{i}/pol" for i in range(64)]
        a = {k for k in keys if FaultPlan(seed=1, rules=r).select("job-exception", k, 1)}
        b = {k for k in keys if FaultPlan(seed=2, rules=r).select("job-exception", k, 1)}
        assert a != b

    def test_match_and_attempts_filter(self):
        plan = FaultPlan(
            rules=(FaultRule(kind="job-exception", match="swim/*", attempts=(1,)),)
        )
        assert plan.select("job-exception", "swim/shared", 1) is not None
        assert plan.select("job-exception", "swim/shared", 2) is None
        assert plan.select("job-exception", "cg/shared", 1) is None

    def test_planned_job_faults_excludes_artifact_kind(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="artifact-corruption"),
                FaultRule(kind="delay", delay_s=0.0),
            )
        )
        kinds = [r.kind for r in plan.planned_job_faults("any", 1)]
        assert kinds == ["delay"]


class TestProcessSlot:
    def test_default_is_disabled(self):
        assert get_fault_plan() is None

    def test_disabled_hook_is_inert(self):
        fire_job_faults("swim/shared", 1)  # no plan: must not raise
        assert _counters().get("faults.injected.job-exception", 0) == 0

    def test_set_returns_previous(self):
        plan = FaultPlan()
        assert set_fault_plan(plan) is None
        assert set_fault_plan(None) is plan


class TestSerialInjection:
    def test_job_exception_consumes_attempt_then_retry_succeeds(self, tiny_config):
        set_fault_plan(
            FaultPlan(rules=(FaultRule(kind="job-exception", attempts=(1,)),))
        )
        tracer = RecordingTracer()
        set_tracer(tracer)
        engine = SerialEngine(max_retries=1, backoff_s=0.0, job_runner=_echo_runner)
        outcome = engine.run_one(JobSpec("ft", "shared", tiny_config))
        assert outcome.ok
        assert outcome.attempts == 2
        assert _counters()["faults.injected.job-exception"] == 1
        injected = [e for e in tracer.events if e.kind == "fault_injected"]
        assert [(e.fault, e.attempt) for e in injected] == [("job-exception", 1)]

    def test_worker_death_degrades_to_exception_in_process(self, tiny_config):
        set_fault_plan(FaultPlan(rules=(FaultRule(kind="worker-death"),)))
        engine = SerialEngine(max_retries=0, backoff_s=0.0, job_runner=_echo_runner)
        outcome = engine.run_one(JobSpec("ft", "shared", tiny_config))
        assert not outcome.ok
        assert "injected worker-death" in outcome.error

    def test_delay_sleeps_before_attempt(self, tiny_config):
        set_fault_plan(
            FaultPlan(rules=(FaultRule(kind="delay", delay_s=0.05, attempts=(1,)),))
        )
        engine = SerialEngine(max_retries=0, job_runner=_echo_runner)
        start = time.perf_counter()
        outcome = engine.run_one(JobSpec("ft", "shared", tiny_config))
        assert outcome.ok
        assert time.perf_counter() - start >= 0.05
        assert _counters()["faults.injected.delay"] == 1

    def test_backoff_budget_bounds_perpetual_failure(self, tiny_config):
        """Satellite: one perpetually-failing job exhausts the retry/backoff
        budget and is reported failed while the rest of the batch completes
        — and the budget caps how long the failure can stall the batch."""
        set_fault_plan(
            FaultPlan(rules=(FaultRule(kind="job-exception", match="art/*"),))
        )
        engine = SerialEngine(
            max_retries=4,
            backoff_s=0.2,
            backoff_cap_s=0.2,
            backoff_budget_s=0.25,
            job_runner=_echo_runner,
        )
        jobs = specs_for(tiny_config, [("ft", "shared"), ("art", "shared"), ("cg", "shared")])
        start = time.perf_counter()
        outcomes = engine.run(jobs)
        wall = time.perf_counter() - start
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].attempts == 5
        assert "InjectedFault" in outcomes[1].error
        # 4 retry sleeps at nominal 0.2s each would be ~0.8s un-budgeted;
        # the 0.25s budget must cap the total well below that.
        assert wall < 0.6
        assert _counters()["faults.injected.job-exception"] == 5


class TestPoolInjection:
    def test_worker_death_degrades_pool_to_serial(self, tiny_config):
        set_fault_plan(
            FaultPlan(rules=(FaultRule(kind="worker-death", match="art/*", attempts=(1,)),))
        )
        tracer = RecordingTracer()
        set_tracer(tracer)
        engine = ProcessPoolEngine(2, max_retries=1, backoff_s=0.0, job_runner=_echo_runner)
        with engine:
            jobs = specs_for(tiny_config, [("ft", "shared"), ("art", "shared")])
            outcomes = engine.run(jobs)
        assert all(o.ok for o in outcomes)
        # The doomed job retried in-process after the pool broke.
        assert outcomes[1].attempts == 2
        assert "serial" in outcomes[1].engine
        assert engine.degraded_reasons
        assert _counters()["exec.degraded_to_serial"] == 1
        assert _counters()["faults.injected.worker-death"] == 1
        degraded = [e for e in tracer.events if e.kind == "engine_degraded"]
        assert len(degraded) == 1
        assert "died" in degraded[0].reason

    def test_pool_announces_same_counts_as_serial(self, tiny_config):
        """The parent-side announcement replays the deterministic plan, so
        serial and pool runs record identical injection counters."""
        plan = FaultPlan(
            seed=3, rules=(FaultRule(kind="job-exception", rate=0.6, attempts=(1,)),)
        )
        jobs = specs_for(
            tiny_config,
            [("ft", "shared"), ("cg", "shared"), ("swim", "shared"), ("art", "shared")],
        )
        set_fault_plan(plan)
        serial = SerialEngine(max_retries=1, backoff_s=0.0, job_runner=_echo_runner)
        assert all(o.ok for o in serial.run(jobs))
        serial_count = _counters().get("faults.injected.job-exception", 0)
        assert serial_count > 0
        METRICS.reset()
        pool = ProcessPoolEngine(2, max_retries=1, backoff_s=0.0, job_runner=_echo_runner)
        with pool:
            assert all(o.ok for o in pool.run(jobs))
        assert _counters().get("faults.injected.job-exception", 0) == serial_count


class TestArtifactCorruption:
    def test_store_put_is_bitten_and_next_get_recovers(self, tmp_path, tiny_config):
        store = ResultStore(tmp_path)
        spec = JobSpec("ft", "shared", tiny_config)
        result = _dummy_result(spec)
        set_fault_plan(FaultPlan(rules=(FaultRule(kind="artifact-corruption"),)))
        path = store.put(spec, result)
        assert _counters()["faults.injected.artifact-corruption"] == 1
        intact = len(
            json.dumps(
                {
                    "version": store.version,
                    "spec": spec.canonical(),
                    "digest": spec.digest,
                    "result": result.to_dict(),
                },
                separators=(",", ":"),
            )
        )
        assert path.stat().st_size < intact
        # The corrupt entry is evicted as a miss, never an error...
        set_fault_plan(None)
        assert store.get(spec) is None
        assert store.corrupt == 1
        # ...and a clean re-publish round-trips.
        store.put(spec, result)
        assert store.get(spec) == result

    def test_prep_store_manifest_is_bitten(self, tmp_path):
        np = pytest.importorskip("numpy")
        from repro.prep.store import PrepStore

        store = PrepStore(tmp_path)
        key = {"program": "ft", "n": 1}
        arrays = {"a": np.arange(4, dtype=np.int64)}
        set_fault_plan(FaultPlan(rules=(FaultRule(kind="artifact-corruption"),)))
        store.put(key, arrays)
        set_fault_plan(None)
        assert store.get(key) is None
        assert store.corrupt == 1
