"""SweepService behavior: coalescing, admission, streaming, drain/resume.

Driven with ``asyncio.run`` directly (no pytest-asyncio in the image);
each test builds a service on a tmp data dir, runs one scenario inside a
coroutine, and always drains before the loop closes so no engine thread
or journal handle outlives the test.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exec.engine import SerialEngine
from repro.exec.store import ResultStore
from repro.exec.sweep import run_sweep
from repro.obs import METRICS, RecordingTracer, set_tracer
from repro.serve.admission import AdmissionController
from repro.serve.protocol import SweepRequest
from repro.serve.service import SweepService

TINY = {
    "apps": ["ft"],
    "policies": ["shared", "static-equal"],
    "intervals": 3,
    "interval_instructions": 2000,
}
# Slow enough to still be running when a test drains mid-sweep.
SLOW = {**TINY, "intervals": 30, "interval_instructions": 8000}


def _service(tmp_path, **kwargs) -> SweepService:
    kwargs.setdefault("engine", SerialEngine())
    kwargs.setdefault("store", ResultStore(tmp_path / "store"))
    return SweepService(data_dir=tmp_path / "data", **kwargs)


async def _finish(service: SweepService, sweep_id: str):
    task = service.get(sweep_id)
    if task.task is not None:  # fully-warm sweeps finalize at submit time
        await task.task
    return task


def _reference_aggregates(payload: dict) -> str:
    """Canonical JSON of what a cold `repro sweep` of the grid produces."""
    req = SweepRequest.from_dict(payload)
    result = run_sweep(
        list(req.apps), list(req.policies),
        seeds=list(req.seeds), thread_counts=list(req.thread_counts),
        config=req.config(), engine=SerialEngine(), store=None,
        baseline=payload.get("baseline"),
    )
    return json.dumps(result.aggregates(), sort_keys=True)


class TestSubmission:
    def test_submit_runs_to_done_with_byte_identical_aggregates(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            status, body = service.submit(TINY)
            assert status == 202 and body["attached"] is False
            task = await _finish(service, body["sweep_id"])
            assert task.status == "done"
            await service.drain()
            return json.dumps(task.result.aggregates(), sort_keys=True)

        served = asyncio.run(main())
        METRICS.reset()  # isolate the reference sweep's counters
        assert served == _reference_aggregates(TINY)

    def test_invalid_request_is_400_not_an_exception(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            status, body = service.submit({"apps": ["nope"], "policies": ["shared"]})
            assert status == 400 and "unknown workloads" in body["error"]
            status, body = service.submit("not a dict")
            assert status == 400
            await service.drain()

        asyncio.run(main())

    def test_when_batch_grid_submitted_then_done_and_byte_identical(self, tmp_path):
        """WHEN a grid with ``cache_backend: batch`` is submitted THEN it
        finishes ``done`` with aggregates byte-identical to ``run_sweep``
        of the same grid."""
        grid = {**TINY, "cache_backend": "batch"}

        async def main():
            service = _service(tmp_path)
            service.start()
            status, body = service.submit(grid)
            assert status == 202
            task = await _finish(service, body["sweep_id"])
            assert task.status == "done" and not task.result.failures
            await service.drain()
            return json.dumps(task.result.aggregates(), sort_keys=True)

        served = asyncio.run(main())
        METRICS.reset()
        assert served == _reference_aggregates(grid)

    def test_when_unknown_backend_submitted_then_400_names_all_backends(self, tmp_path):
        """WHEN a grid names an unknown ``cache_backend`` THEN the 400
        response lists every accepted backend."""
        async def main():
            service = _service(tmp_path)
            service.start()
            status, body = service.submit({**TINY, "cache_backend": "magic"})
            await service.drain()
            return status, body["error"]

        status, error = asyncio.run(main())
        assert status == 400
        for backend in ("fast", "reference", "batch"):
            assert backend in error

    def test_identical_grids_attach_and_execute_once(self, tmp_path):
        """Satellite: two clients, same grid -> one engine execution per
        cell, byte-identical results for both."""
        async def main():
            service = _service(tmp_path)
            service.start()
            s1, b1 = service.submit({**TINY, "client": "alice"})
            s2, b2 = service.submit({**TINY, "client": "bob"})
            assert (s1, s2) == (202, 200)
            assert b2["attached"] is True
            assert b1["sweep_id"] == b2["sweep_id"]
            task = await _finish(service, b1["sweep_id"])
            assert task.clients == {"alice", "bob"}
            counters = METRICS.snapshot()["counters"]
            # Exactly one engine execution per distinct cell.
            assert counters["exec.jobs_ok"] == task.total == 2
            assert counters["serve.cells.executed"] == 2
            assert counters["serve.sweeps.attached"] == 1
            assert counters.get("serve.cells.coalesced", 0) == 0
            await service.drain()
            return json.dumps(task.result.aggregates(), sort_keys=True)

        served = asyncio.run(main())
        METRICS.reset()
        assert served == _reference_aggregates(TINY)

    def test_overlapping_grids_coalesce_shared_cells(self, tmp_path):
        """Different grids sharing cells: the shared cells execute once
        (per-cell coalescing), the unique remainder executes normally."""
        wide = {**TINY, "policies": ["shared", "static-equal", "throughput"]}

        async def main():
            service = _service(tmp_path)
            service.start()
            _, b1 = service.submit({**TINY, "client": "alice"})
            _, b2 = service.submit({**wide, "client": "bob"})
            assert b1["sweep_id"] != b2["sweep_id"]
            t1 = await _finish(service, b1["sweep_id"])
            t2 = await _finish(service, b2["sweep_id"])
            assert t1.status == t2.status == "done"
            counters = METRICS.snapshot()["counters"]
            # 2 cells in grid 1; grid 2 shares both and adds 1: the
            # engine must have run each distinct cell exactly once.
            assert counters["exec.jobs_ok"] == 3
            assert t2.coalesced + t2.store_hits == 2  # shared cells never re-ran
            await service.drain()

        asyncio.run(main())

    def test_warm_store_resolves_cells_without_scheduling(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            _, b1 = service.submit(TINY)
            await _finish(service, b1["sweep_id"])
            # Evict the retained sweep so the resubmission cannot attach.
            service._sweeps.clear()
            _, b2 = service.submit({**TINY, "resume": False})
            task = await _finish(service, b2["sweep_id"])
            assert task.store_hits == task.total == 2
            assert task.scheduled == 0 and task.executed == 0
            assert [c.source for c in task.result.cells] == ["store", "store"]
            await service.drain()

        asyncio.run(main())


class TestAdmission:
    def test_static_int_still_works(self):
        admission = AdmissionController(workers=4)
        assert admission.workers == 4

    def test_static_zero_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(workers=0)

    def test_backlog_bound_rejects_with_retry_after(self, tmp_path):
        async def main():
            admission = AdmissionController(max_pending_cells=1)
            service = _service(tmp_path, admission=admission)
            service.start()
            status, body = service.submit(TINY)  # 2 cells > bound of 1
            assert status == 429
            assert body["reason"] == "backlog"
            assert body["retry_after_s"] >= 0.1
            assert METRICS.snapshot()["counters"]["serve.rejected.backlog"] == 1
            await service.drain()

        asyncio.run(main())

    def test_per_client_quota(self, tmp_path):
        other = {**SLOW, "seeds": [2]}

        async def main():
            admission = AdmissionController(max_sweeps_per_client=1)
            service = _service(tmp_path, admission=admission, batch_size=1)
            service.start()
            s1, b1 = service.submit({**SLOW, "client": "alice"})
            assert s1 == 202
            s2, body = service.submit({**other, "client": "alice"})
            assert s2 == 429 and body["reason"] == "client_quota"
            s3, _ = service.submit({**other, "client": "bob"})
            assert s3 == 202  # quota is per client, not global
            await _finish(service, b1["sweep_id"])
            await service.drain()

        asyncio.run(main())

    def test_draining_service_rejects_with_503(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            await service.drain()
            status, body = service.submit(TINY)
            assert status == 503 and "draining" in body["error"]

        asyncio.run(main())


class TestStreaming:
    def test_stream_replays_history_then_ends_on_terminal_status(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            _, body = service.submit(TINY)
            task = service.get(body["sweep_id"])
            events = [event async for event in task.stream()]
            assert events[0]["event"] == "status"
            cells = [e for e in events if e["event"] == "cell"]
            assert len(cells) == 2
            assert [c["completed"] for c in cells] == [1, 2]
            assert events[-1]["event"] == "status" and events[-1]["status"] == "done"
            # A late stream of the finished sweep replays everything.
            replay = [event async for event in task.stream()]
            assert [e for e in replay if e["event"] == "cell"] == cells
            await service.drain()

        asyncio.run(main())

    def test_concurrent_streams_see_the_same_events(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            _, body = service.submit(TINY)
            task = service.get(body["sweep_id"])

            async def collect():
                return [e async for e in task.stream()]

            a, b = await asyncio.gather(collect(), collect())
            assert [e for e in a if e["event"] == "cell"] == [
                e for e in b if e["event"] == "cell"
            ]
            await service.drain()

        asyncio.run(main())


class TestDrainAndResume:
    def test_drain_mid_sweep_interrupts_and_journal_resumes(self, tmp_path):
        """Kill/attach/resume across service incarnations: the resumed
        sweep's aggregates are byte-identical to an uninterrupted one."""
        many = {**SLOW, "seeds": [1, 2, 3]}  # 6 cells

        async def phase1():
            service = _service(tmp_path, batch_size=1)
            service.start()
            _, body = service.submit(many)
            task = service.get(body["sweep_id"])
            # Wait for the first cell to complete, then drain under load.
            while not any(e["event"] == "cell" for e in task.events):
                await asyncio.sleep(0.01)
            await service.drain("SIGTERM")
            await task.task
            assert task.status == "interrupted"
            assert 0 < len(task.cells) < task.total
            journal = service.journal_path(body["sweep_id"])
            assert journal.is_file()
            # Crash-safety invariant: every record newline-terminated.
            assert journal.read_bytes().endswith(b"\n")
            return body["sweep_id"], len(task.cells)

        sweep_id, completed = asyncio.run(phase1())

        async def phase2():
            service = _service(tmp_path)  # same data dir: new incarnation
            service.start()
            status, body = service.submit(many)
            assert status == 202
            assert body["resumed"] == completed
            task = await _finish(service, sweep_id)
            assert task.status == "done"
            # Restored cells keep their original source verbatim.
            assert sum(1 for c in task.result.cells if c.source == "run") == task.total
            await service.drain()
            return json.dumps(task.result.aggregates(), sort_keys=True)

        resumed = asyncio.run(phase2())
        METRICS.reset()
        assert resumed == _reference_aggregates(many)

    def test_no_resume_starts_fresh_despite_journal(self, tmp_path):
        many = {**SLOW, "seeds": [1, 2, 3]}  # enough cells to catch mid-queue

        async def main():
            service = _service(tmp_path, batch_size=1)
            service.start()
            _, body = service.submit(many)
            task = service.get(body["sweep_id"])
            while not any(e["event"] == "cell" for e in task.events):
                await asyncio.sleep(0.01)
            await service.drain()
            await task.task
            assert task.status == "interrupted"
            return body["sweep_id"]

        sweep_id = asyncio.run(main())

        async def fresh():
            service = _service(tmp_path)
            service.start()
            _, body = service.submit({**many, "resume": False})
            assert body["resumed"] == 0
            task = await _finish(service, sweep_id)
            assert task.status == "done"
            await service.drain()

        asyncio.run(fresh())

    def test_archived_status_and_events_from_journal(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            _, body = service.submit(TINY)
            await _finish(service, body["sweep_id"])
            await service.drain()
            return body["sweep_id"]

        sweep_id = asyncio.run(main())

        async def later():
            service = _service(tmp_path)
            service.start()
            # Not in memory (new incarnation), but the journal remains.
            assert service.get(sweep_id) is None
            status = service.archived_status(sweep_id)
            assert status["status"] == "archived"
            assert status["completed"] == 2
            events = service.archived_events(sweep_id)
            cells = [e for e in events if e["event"] == "cell"]
            assert len(cells) == 2 and all(e["replayed"] for e in cells)
            assert service.archived_status("0" * 64) is None
            await service.drain()

        asyncio.run(later())


class TestObservability:
    def test_submissions_emit_trace_events(self, tmp_path):
        tracer = RecordingTracer()
        set_tracer(tracer)
        try:
            async def main():
                admission = AdmissionController(max_pending_cells=1)
                service = _service(tmp_path, admission=admission)
                service.start()
                status, _ = service.submit(TINY)
                assert status == 429
                await service.drain("SIGTERM")

            asyncio.run(main())
        finally:
            set_tracer(None)
        kinds = [r["kind"] for r in tracer.records]
        assert "sweep_rejected" in kinds
        assert "serve_drain" in kinds
        rejected = next(r for r in tracer.records if r["kind"] == "sweep_rejected")
        assert rejected["reason"] == "backlog"

    def test_stats_shape(self, tmp_path):
        async def main():
            service = _service(tmp_path)
            service.start()
            _, body = service.submit(TINY)
            await _finish(service, body["sweep_id"])
            stats = service.stats()
            assert stats["engine"] == "serial"
            assert stats["retained_sweeps"] == 1
            assert stats["counters"]["serve.cells.executed"] == 2
            assert stats["store"]["writes"] == 2
            await service.drain()

        asyncio.run(main())


class TestRetention:
    def test_finished_sweeps_evicted_beyond_retain(self, tmp_path):
        async def main():
            service = _service(tmp_path, retain=1)
            service.start()
            grids = [{**TINY, "seeds": [s]} for s in (1, 2, 3)]
            ids = []
            for grid in grids:
                _, body = service.submit(grid)
                await _finish(service, body["sweep_id"])
                ids.append(body["sweep_id"])
            assert service.get(ids[-1]) is not None  # newest retained
            assert service.get(ids[0]) is None  # oldest evicted...
            assert service.archived_status(ids[0]) is not None  # ...but replayable
            await service.drain()

        asyncio.run(main())


class TestPoolEngine:
    def test_pool_engine_aggregates_byte_identical(self, tmp_path):
        from repro.exec.pool import ProcessPoolEngine

        grid = {**TINY, "seeds": [1, 2]}  # 4 cells over 2 workers

        async def main():
            service = _service(tmp_path, engine=ProcessPoolEngine(2))
            service.start()
            _, body = service.submit(grid)
            task = await _finish(service, body["sweep_id"])
            assert task.status == "done"
            await service.drain()  # also closes the pool
            return json.dumps(task.result.aggregates(), sort_keys=True)

        served = asyncio.run(main())
        METRICS.reset()
        assert served == _reference_aggregates(grid)
