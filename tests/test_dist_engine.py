"""Tests for RemoteEngine and friends: byte-identity with the serial
engine (clean, under network chaos, under worker death), degradation,
worker-loss accounting, and prep-bundle fetching.

Workers run in-process (``WorkerServer.start()`` threads): same wire,
same frames, no subprocess management — and an injected ``worker-vanish``
closes the worker's sockets instead of killing the test process.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dist import RemoteEngine, WorkerRegistry, WorkerServer, codec
from repro.exec.engine import SerialEngine, execute_job
from repro.exec.faults import FaultPlan, FaultRule, set_fault_plan
from repro.exec.sweep import run_sweep
from repro.obs import METRICS
from repro.sim.config import SystemConfig

APPS = ["ft", "cg"]
POLICIES = ["shared", "static-equal"]
CONFIG = SystemConfig.default().with_(n_intervals=6, interval_instructions=4000)


def _aggregates(engine) -> tuple[dict, str]:
    """Run the reference grid on ``engine``; (result dict, canonical JSON)."""
    result = run_sweep(APPS, POLICIES, config=CONFIG, engine=engine)
    agg = result.aggregates()
    return result, json.dumps(agg, sort_keys=True)


@pytest.fixture
def fleet():
    """Two in-process workers; yields the RemoteEngine pointed at them."""
    workers = [WorkerServer().start(), WorkerServer().start()]
    try:
        yield RemoteEngine([w.address for w in workers]), workers
    finally:
        for w in workers:
            w.stop()


class TestRemoteByteIdentity:
    def test_clean_remote_matches_serial(self, fleet):
        engine, workers = fleet
        serial_result, serial_agg = _aggregates(SerialEngine())
        remote_result, remote_agg = _aggregates(engine)
        assert remote_agg == serial_agg
        assert remote_result.engine == "remote"
        # Both workers actually participated.
        assert sum(w.jobs_run for w in workers) == len(APPS) * len(POLICIES)
        assert all(w.jobs_run > 0 for w in workers)
        assert engine.registry.joined == 2

    def test_network_chaos_matches_serial(self, fleet):
        """Conn drops, partitions, slow links and a job exception: jobs
        retry across the fleet, aggregates stay byte-identical (the jobs
        all eventually succeed, and error-free cells carry no attempt or
        engine fields)."""
        engine, _workers = fleet
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(kind="conn-drop", match="ft/*", attempts=(1,)),
                FaultRule(kind="partition", match="cg/shared", attempts=(1,)),
                FaultRule(kind="slow-link", match="*", attempts=(1,), delay_s=0.01),
                FaultRule(kind="job-exception", match="cg/static-equal", attempts=(1,)),
            ),
        )
        set_fault_plan(plan)
        _, serial_agg = _aggregates(SerialEngine())
        set_fault_plan(plan)  # the serial sweep's workers reset nothing
        _, remote_agg = _aggregates(engine)
        assert remote_agg == serial_agg
        counters = METRICS.snapshot()["counters"]
        assert counters["faults.injected.conn-drop"] >= 1
        assert counters["faults.injected.partition"] >= 1

    def test_single_worker_vanish_redistributes(self, fleet):
        """One worker dying mid-batch loses no jobs: its in-flight job is
        requeued for the survivor and the sweep stays byte-identical."""
        engine, _workers = fleet
        _, serial_agg = _aggregates(SerialEngine())
        set_fault_plan(
            FaultPlan(rules=(FaultRule(kind="worker-vanish", match="ft/shared", attempts=(1,)),))
        )
        result, remote_agg = _aggregates(engine)
        assert remote_agg == serial_agg
        assert not result.failures
        assert engine.registry.lost == 1
        assert engine.degraded_reasons == []  # the survivor finished the batch

    def test_all_workers_lost_degrades_to_serial(self, fleet):
        """The batch still completes — loudly — when the whole fleet dies."""
        engine, _workers = fleet
        _, serial_agg = _aggregates(SerialEngine())
        set_fault_plan(
            FaultPlan(rules=(FaultRule(kind="worker-vanish", match="*", attempts=(1, 2, 3)),))
        )
        result, remote_agg = _aggregates(engine)
        assert remote_agg == serial_agg
        assert not result.failures
        assert engine.degraded_reasons and "all workers lost" in engine.degraded_reasons[0]
        assert METRICS.snapshot()["counters"]["exec.degraded_to_serial"] == 1

    def test_failing_job_reports_identical_error_string(self, fleet):
        """A job that fails every attempt must produce the same outcome
        error remotely as serially — error strings are part of the
        aggregate surface."""
        engine, _workers = fleet
        plan = FaultPlan(
            rules=(FaultRule(kind="job-exception", match="ft/shared"),)  # every attempt
        )
        set_fault_plan(plan)
        serial_result, serial_agg = _aggregates(SerialEngine())
        set_fault_plan(plan)
        remote_result, remote_agg = _aggregates(engine)
        assert serial_result.failures and remote_result.failures
        assert remote_agg == serial_agg


class TestRemoteEngineBasics:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            RemoteEngine([])

    def test_empty_batch_is_a_noop(self, fleet):
        engine, _ = fleet
        assert engine.run([]) == []

    def test_unreachable_fleet_degrades_not_raises(self):
        engine = RemoteEngine(
            ["127.0.0.1:1", "127.0.0.1:2"], connect_timeout_s=0.5
        )
        result = run_sweep(["ft"], ["shared"], config=CONFIG, engine=engine)
        assert not result.failures
        assert engine.degraded_reasons


class TestMixedEngineJournalResume:
    def test_serial_cells_resume_under_remote_engine(self, tmp_path, fleet):
        """A sweep journaled by the serial engine, interrupted, then
        resumed on a worker fleet: journaled cells restore verbatim and
        the final aggregates are byte-identical to an uninterrupted
        serial run."""
        engine, _workers = fleet
        _, reference_agg = _aggregates(SerialEngine())

        ran = []

        def interrupting_runner(spec):
            if len(ran) >= 2:
                raise KeyboardInterrupt
            ran.append(spec.label)
            return execute_job(spec)

        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                APPS,
                POLICIES,
                config=CONFIG,
                engine=SerialEngine(job_runner=interrupting_runner),
                journal=journal,
            )
        assert len(ran) == 2  # two cells journaled before the interrupt

        resumed = run_sweep(
            APPS, POLICIES, config=CONFIG, engine=engine, journal=journal, resume=True
        )
        assert resumed.resumed == 2
        assert json.dumps(resumed.aggregates(), sort_keys=True) == reference_agg


class TestLossAccounting:
    def test_stranger_loss_is_not_counted(self):
        """A connect-refused retry reports an address that never joined;
        the registry must drop it rather than inflate ``lost``."""
        registry = WorkerRegistry()
        assert registry.note_lost(("127.0.0.1", 1), "connect refused") is False
        assert registry.lost == 0
        assert METRICS.snapshot()["counters"].get("dist.worker_lost", 0) == 0

    def test_double_report_counts_once(self):
        """The dispatch-failure path and the liveness probe can both
        report the same death; only the first may count."""
        registry = WorkerRegistry()
        registry.note_join(("127.0.0.1", 7001), "w1", 42)
        assert registry.note_lost(("127.0.0.1", 7001), "io error") is True
        assert registry.note_lost(("127.0.0.1", 7001), "probe failed") is False
        assert registry.lost == 1
        assert METRICS.snapshot()["counters"]["dist.worker_lost"] == 1


class TestPrepFetch:
    def _stock_store(self, root):
        from repro.prep.store import PrepStore

        store = PrepStore(root)
        key = {"kind": "test-bundle", "n": 1}
        store.put(key, {"x": np.arange(5, dtype=np.float64)}, {"note": "hi"})
        return store, key

    def test_miss_fetches_verifies_and_caches(self, tmp_path):
        from repro.prep.store import PrepStore

        src, key = self._stock_store(tmp_path / "src")
        bundle = src.get(key)
        dst = PrepStore(tmp_path / "dst")
        calls = []

        def fetcher(k):
            calls.append(k)
            return codec.encode_prep_bundle(bundle.meta, dict(bundle.arrays))

        dst.fetcher = fetcher
        got = dst.get(key)
        assert got is not None
        np.testing.assert_array_equal(got.arrays["x"], bundle.arrays["x"])
        assert calls == [key]
        assert dst.stats()["fetched"] == 1
        dst.get(key)  # now a local hit
        assert len(calls) == 1

    def test_poisoned_bundle_is_rejected_not_cached(self, tmp_path):
        from repro.prep.store import PrepStore

        src, key = self._stock_store(tmp_path / "src")
        bundle = src.get(key)

        def poisoned_fetcher(k):
            payload = codec.encode_prep_bundle(bundle.meta, dict(bundle.arrays))
            payload["arrays"]["x"]["sha256"] = "0" * 64
            return payload

        dst = PrepStore(tmp_path / "dst")
        dst.fetcher = poisoned_fetcher
        assert dst.get(key) is None
        assert METRICS.snapshot()["counters"]["prep.fetch_rejected"] == 1
        dst.fetcher = None
        assert dst.get(key) is None  # nothing was cached


class TestWorkerCli:
    def test_ping_a_live_worker(self, capsys):
        from repro.__main__ import main

        with WorkerServer(worker_id="pingme") as server:
            server.start()
            host, port = server.address
            assert main(["worker", "--ping", f"{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert "alive" in out and "pingme" in out

    def test_ping_a_dead_address(self, capsys):
        from repro.__main__ import main

        assert main(["worker", "--ping", "127.0.0.1:1"]) == 1
        assert "unreachable" in capsys.readouterr().err

    def test_remote_engine_requires_workers(self, capsys):
        from repro.__main__ import main

        code = main(["sweep", "--apps", "ft", "--engine", "remote"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
