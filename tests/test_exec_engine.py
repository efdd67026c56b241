"""Tests for the execution engines: equivalence, retries, timeouts,
degradation.

The injected job runners must be module-level functions so the pool engine
can pickle them into worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.cache.stats import StatsSnapshot
from repro.core.records import RunResult
from repro.exec.engine import SerialEngine, execute_job
from repro.exec.jobs import JobSpec
from repro.exec.pool import ProcessPoolEngine
from repro.sim.driver import run_application


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


def _fail_on_art(spec: JobSpec) -> RunResult:
    if spec.app == "art":
        raise ValueError("art always fails")
    return _dummy_result(spec)


def _sleepy_runner(spec: JobSpec) -> RunResult:
    time.sleep(2.0)
    return _dummy_result(spec)


def _die_in_worker(spec: JobSpec) -> RunResult:
    # Kills pool workers outright (simulating OOM/native crash) but runs
    # fine in the parent process, so degradation to serial can succeed.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _dummy_result(spec)


class _FlakyRunner:
    """Fails the first ``n_failures`` calls, then succeeds (serial only)."""

    def __init__(self, n_failures: int) -> None:
        self.n_failures = n_failures
        self.calls = 0

    def __call__(self, spec: JobSpec) -> RunResult:
        self.calls += 1
        if self.calls <= self.n_failures:
            raise RuntimeError(f"flaky failure {self.calls}")
        return _dummy_result(spec)


def specs_for(config, pairs):
    return [JobSpec(app, policy, config) for app, policy in pairs]


class TestSerialEngine:
    def test_runs_real_simulation(self, tiny_config):
        outcome = SerialEngine().run_one(JobSpec("ft", "shared", tiny_config))
        assert outcome.ok
        assert outcome.attempts == 1
        assert outcome.engine == "serial"
        assert outcome.duration_s > 0
        assert outcome.result == run_application("ft", "shared", tiny_config)

    def test_outcomes_preserve_order(self, tiny_config):
        jobs = specs_for(tiny_config, [("cg", "shared"), ("ft", "shared"), ("swim", "shared")])
        outcomes = SerialEngine(job_runner=_echo_runner).run(jobs)
        assert [o.spec.app for o in outcomes] == ["cg", "ft", "swim"]
        assert all(o.ok for o in outcomes)

    def test_retry_until_success(self, tiny_config):
        runner = _FlakyRunner(n_failures=2)
        engine = SerialEngine(max_retries=2, backoff_s=0.0, job_runner=runner)
        outcome = engine.run_one(JobSpec("ft", "shared", tiny_config))
        assert outcome.ok
        assert outcome.attempts == 3
        assert runner.calls == 3

    def test_retries_are_bounded(self, tiny_config):
        runner = _FlakyRunner(n_failures=100)
        engine = SerialEngine(max_retries=1, backoff_s=0.0, job_runner=runner)
        outcome = engine.run_one(JobSpec("ft", "shared", tiny_config))
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "flaky failure" in outcome.error
        assert runner.calls == 2

    def test_one_failure_does_not_poison_the_batch(self, tiny_config):
        jobs = specs_for(tiny_config, [("ft", "shared"), ("art", "shared"), ("cg", "shared")])
        outcomes = SerialEngine(max_retries=0, backoff_s=0.0, job_runner=_fail_on_art).run(jobs)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "art always fails" in outcomes[1].error

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SerialEngine(max_retries=-1)
        with pytest.raises(ValueError):
            SerialEngine(backoff_s=-0.5)


class TestProcessPoolEngine:
    def test_matches_serial_exactly(self, tiny_config):
        jobs = specs_for(
            tiny_config,
            [("ft", "shared"), ("ft", "model-based"), ("cg", "shared"), ("cg", "static-equal")],
        )
        serial = SerialEngine().run(jobs)
        pool = ProcessPoolEngine(2).run(jobs)
        assert all(o.ok for o in pool)
        for s, p in zip(serial, pool, strict=True):
            assert s.result == p.result, f"{s.spec.label}: pool and serial results differ"

    def test_single_job_short_circuits_to_serial(self, tiny_config):
        engine = ProcessPoolEngine(4, job_runner=_echo_runner)
        outcome = engine.run_one(JobSpec("ft", "shared", tiny_config))
        assert outcome.ok
        assert outcome.engine == "process-pool"

    def test_jobs_leq_one_runs_in_process(self, tiny_config):
        engine = ProcessPoolEngine(1, job_runner=_echo_runner)
        outcomes = engine.run(specs_for(tiny_config, [("ft", "shared"), ("cg", "shared")]))
        assert all(o.ok for o in outcomes)

    def test_failing_job_reports_error_others_succeed(self, tiny_config):
        engine = ProcessPoolEngine(2, max_retries=1, backoff_s=0.0, job_runner=_fail_on_art)
        jobs = specs_for(tiny_config, [("ft", "shared"), ("art", "shared"), ("cg", "shared")])
        outcomes = engine.run(jobs)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].attempts == 2
        assert "art always fails" in outcomes[1].error

    def test_per_job_timeout(self, tiny_config):
        engine = ProcessPoolEngine(
            2, timeout_s=0.2, max_retries=0, backoff_s=0.0, job_runner=_sleepy_runner
        )
        jobs = specs_for(tiny_config, [("ft", "shared"), ("cg", "shared")])
        outcomes = engine.run(jobs)
        assert all(not o.ok for o in outcomes)
        assert any("timed out" in o.error for o in outcomes)

    def test_dead_worker_degrades_to_serial(self, tiny_config):
        engine = ProcessPoolEngine(2, max_retries=1, backoff_s=0.0, job_runner=_die_in_worker)
        jobs = specs_for(tiny_config, [("ft", "shared"), ("cg", "shared"), ("swim", "shared")])
        outcomes = engine.run(jobs)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert any(o.engine == "process-pool→serial" for o in outcomes)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolEngine(0)
        with pytest.raises(ValueError):
            ProcessPoolEngine(2, timeout_s=0)


class TestBackoff:
    """The retry backoff must be jittered, capped per sleep, and bounded
    per batch — a flaky job may not stall a sweep indefinitely."""

    def _capture_sleeps(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.exec.engine.time.sleep", lambda s: sleeps.append(s)
        )
        return sleeps

    def test_backoff_is_jittered_not_lockstep(self, monkeypatch):
        sleeps = self._capture_sleeps(monkeypatch)
        engine = SerialEngine(backoff_s=1.0, backoff_cap_s=100.0, backoff_budget_s=1000.0)
        for _ in range(32):
            engine._backoff_sleep(1)
        # Every delay lands in [0.5, 1.0) x nominal, and they are not all
        # the identical beat.
        assert all(0.5 <= s < 1.0 for s in sleeps)
        assert len(set(sleeps)) > 1

    def test_backoff_doubles_then_caps(self, monkeypatch):
        sleeps = self._capture_sleeps(monkeypatch)
        monkeypatch.setattr("repro.exec.engine.random.random", lambda: 1.0)  # no jitter
        engine = SerialEngine(backoff_s=0.1, backoff_cap_s=0.5, backoff_budget_s=1000.0)
        for round_ in range(1, 7):
            engine._backoff_sleep(round_)
        assert sleeps == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5, 0.5])

    def test_backoff_budget_bounds_a_batch(self, monkeypatch):
        sleeps = self._capture_sleeps(monkeypatch)
        monkeypatch.setattr("repro.exec.engine.random.random", lambda: 1.0)
        engine = SerialEngine(backoff_s=1.0, backoff_cap_s=10.0, backoff_budget_s=2.5)
        total = sum(engine._backoff_sleep(r) for r in range(1, 20))
        assert total == pytest.approx(2.5)
        assert sum(sleeps) == pytest.approx(2.5)
        # Once spent, further retries proceed immediately ...
        assert engine._backoff_sleep(20) == 0.0
        # ... and the next batch refills the budget.
        engine._reset_backoff()
        assert engine._backoff_sleep(1) > 0.0

    def test_backoff_budget_holds_under_concurrent_retriers(self, monkeypatch):
        """Threads retrying through one engine share one budget: however
        their budget updates interleave, the delays they are granted never
        sum past it."""
        self._capture_sleeps(monkeypatch)
        monkeypatch.setattr("repro.exec.engine.random.random", lambda: 1.0)
        engine = SerialEngine(backoff_s=1e-4, backoff_cap_s=1e-4, backoff_budget_s=1.0)
        granted: list[float] = []

        def retrier():
            for _ in range(2000):
                granted.append(engine._backoff_sleep(1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=retrier) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(granted) == 8 * 2000
        assert sum(granted) <= engine.backoff_budget_s + 1e-9

    def test_run_refills_budget_per_batch(self, monkeypatch, tiny_config):
        self._capture_sleeps(monkeypatch)
        runner = _FlakyRunner(n_failures=2)
        engine = SerialEngine(
            max_retries=2, backoff_s=1.0, backoff_cap_s=1.0, backoff_budget_s=1.5,
            job_runner=runner,
        )
        spec = JobSpec("ft", "shared", tiny_config)
        assert engine.run([spec])[0].ok
        assert engine._backoff_left < engine.backoff_budget_s
        runner.n_failures = 0
        engine.run([spec])
        assert engine._backoff_left == engine.backoff_budget_s

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        sleeps = self._capture_sleeps(monkeypatch)
        engine = SerialEngine(backoff_s=0.0)
        assert engine._backoff_sleep(3) == 0.0
        assert sleeps == []

    def test_invalid_backoff_parameters_rejected(self):
        with pytest.raises(ValueError):
            SerialEngine(backoff_cap_s=-1.0)
        with pytest.raises(ValueError):
            SerialEngine(backoff_budget_s=-1.0)


class TestWarmPool:
    def test_pool_persists_across_runs(self, tiny_config):
        jobs = specs_for(tiny_config, [("ft", "shared"), ("cg", "shared")])
        with ProcessPoolEngine(2, job_runner=_echo_runner) as engine:
            assert engine.run(jobs)  # forks the pool
            first = engine._pool_holder[0]
            assert engine.run(jobs)
            assert engine._pool_holder[0] is first, "warm pool must be reused"
            pids_before = {p.pid for p in first._processes.values()}
            assert engine.run(jobs)
            pids_after = {p.pid for p in engine._pool_holder[0]._processes.values()}
            assert pids_before == pids_after, "workers must survive across run()s"
        assert engine._pool_holder == []

    def test_close_allows_reuse(self, tiny_config):
        jobs = specs_for(tiny_config, [("ft", "shared"), ("cg", "shared")])
        engine = ProcessPoolEngine(2, job_runner=_echo_runner)
        assert all(o.ok for o in engine.run(jobs))
        engine.close()
        assert engine._pool_holder == []
        assert all(o.ok for o in engine.run(jobs)), "a closed engine rebuilds its pool"
        engine.close()

    def test_pool_rebuilds_when_prep_config_changes(self, tmp_path, tiny_config):
        from repro.prep import PrepStore, set_prep_store

        jobs = specs_for(tiny_config, [("ft", "shared"), ("cg", "shared")])
        previous = set_prep_store(None)
        engine = ProcessPoolEngine(2, job_runner=_echo_runner)
        try:
            engine.run(jobs)
            bare_pool = engine._pool_holder[0]
            set_prep_store(PrepStore(tmp_path))
            engine.run(jobs)
            assert engine._pool_holder[0] is not bare_pool, (
                "a prep-store change must re-fork workers with the new initializer"
            )
            rebuilt = engine._pool_holder[0]
            engine.run(jobs)
            assert engine._pool_holder[0] is rebuilt, "same config: pool stays warm"
        finally:
            engine.close()
            set_prep_store(previous)

    def test_when_a_worker_dies_while_the_pool_idles_then_the_next_run_degrades_loudly(
        self, tiny_config
    ):
        jobs = specs_for(tiny_config, [("ft", "shared"), ("cg", "shared")])
        with ProcessPoolEngine(2, job_runner=_echo_runner) as engine:
            assert all(o.ok for o in engine.run(jobs))
            pool = engine._pool_holder[0]
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool._broken, "the pool never noticed its dead worker"
            outcomes = engine.run(jobs)
            assert all(o.ok for o in outcomes), [o.error for o in outcomes]
            assert {o.engine for o in outcomes} == {"process-pool→serial"}
            assert len(engine.degraded_reasons) == 1
            assert "BrokenProcessPool" in engine.degraded_reasons[0]
            assert engine._pool_holder == [], "a broken pool must not be rejoined"

    def test_abandoned_pool_is_replaced(self, tiny_config):
        engine = ProcessPoolEngine(
            2, timeout_s=0.2, max_retries=0, backoff_s=0.0, job_runner=_sleepy_runner
        )
        try:
            jobs = specs_for(tiny_config, [("ft", "shared"), ("cg", "shared")])
            outcomes = engine.run(jobs)
            assert any(not o.ok for o in outcomes)
            assert engine._pool_holder == [], "a wedged pool must not be rejoined"
        finally:
            engine.close()


class TestExecuteJob:
    def test_default_runner_simulates(self, tiny_config):
        result = execute_job(JobSpec("ft", "shared", tiny_config))
        assert result == run_application("ft", "shared", tiny_config)


class TestEngineStoreIntegration:
    def test_pool_results_roundtrip_through_store(self, tmp_path, tiny_config):
        from repro.exec.store import ResultStore

        store = ResultStore(tmp_path)
        spec = JobSpec("ft", "model-based", tiny_config)
        outcome = ProcessPoolEngine(2, job_runner=_echo_runner).run_one(spec)
        store.put(spec, outcome.result)
        assert store.get(spec) == outcome.result
