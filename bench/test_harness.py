"""Tests of the benchmark harness itself: ``python -m pytest bench``."""

from __future__ import annotations

import json
import statistics
import sys

import pytest

import compare
import run
import spans
import workloads as wl
from stats import median, quartiles, summary

sys.path.insert(0, str(wl.SRC))


def _span(pid, sid, parent, start, end, name="x"):
    return {"name": name, "pid": pid, "id": sid, "parent": parent, "unit": None,
            "start": start, "end": end, "attrs": {}}


def test_self_time_nested_and_sibling_spans():
    spans_ = [
        _span(1, 1, None, 0.0, 10.0),  # root
        _span(1, 2, 1, 1.0, 4.0),  # child
        _span(1, 3, 2, 2.0, 3.0),  # grandchild
        _span(1, 4, 1, 5.0, 7.0),  # sibling of the child
        _span(2, 1, None, 1.0, 9.0),  # another process's root: not a child
    ]
    selfs = spans.self_times(spans_)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(1, 4)] == pytest.approx(2.0)
    assert selfs[(2, 1)] == pytest.approx(8.0)


def test_self_time_clips_overlapping_children():
    spans_ = [_span(1, 1, None, 0.0, 4.0), _span(1, 2, 1, 1.0, 3.0), _span(1, 3, 1, 2.0, 5.0)]
    assert spans.self_times(spans_)[(1, 1)] == pytest.approx(1.0)


def test_unaccounted_share_is_the_root_self_time():
    root = _span(1, 1, None, 0.0, 10.0, "sweep")
    child = _span(1, 2, 1, 0.0, 9.0, "exec.store.put")
    metrics = spans.pass_metrics([root, child], root, spans.self_times([root, child]))
    assert metrics["bench.unaccounted_frac"] == pytest.approx(0.1)
    assert metrics["exec.store.put.self_s"] == pytest.approx(9.0)
    assert metrics["exec.store.put.calls"] == 1


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [5.0] * 4,
                                    [0.5, 9.0, 1.5, 2.0, 7.0, 3.0]])
def test_median_and_quartiles_match_statistics(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert median(values) == statistics.median(values)
    assert quartiles(values) == (q1, q3)


def test_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5)
    assert summary([2.5], "s")["n"] == 1


def _s(values):
    return summary(values, "s")


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.90, 0.91, 0.89, 0.90, 0.92], "better"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.00, 1.02, 0.98, 1.01, 1.00], "unchanged"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.20, 1.21, 1.19, 1.20, 1.22], "worse"),
        ([1.00, 1.40, 0.70, 1.00, 1.30], [1.00, 1.02, 0.98, 1.01, 1.00], "unresolved"),
        # Wide spread, but every sample of B beats every sample of A.
        ([1.00, 1.40, 1.10, 1.20, 1.30], [0.50, 0.90, 0.60, 0.70, 0.80], "better"),
        # A 5% median gain with wins in only 3 of 5 pairs is not a gain.
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.95, 1.03, 0.94, 1.05, 0.95], "unchanged"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(_s(a), _s(b), 0.10, "lower") == expected


def test_compare_verdict_for_higher_is_better_and_floor():
    assert compare.verdict(_s([10, 10, 10]), _s([12, 12, 12]), 0.1, "higher") == "better"
    # 0.01 s worse, but inside the absolute floor of 0.02 s.
    assert compare.verdict(_s([0.05] * 3), _s([0.06] * 3), 0.1, "lower", 0.02) == "unchanged"


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )


def test_schema_check_flags_malformed_results():
    assert run.check_schema({"schema": run.SCHEMA, "workloads": {"w": {"metrics": {}}}})
    assert run.check_schema({"schema": "other", "workloads": {}})


def test_golden_mismatch_exits_non_zero(tmp_path, monkeypatch, capsys):
    goldens = tmp_path / "goldens.json"
    goldens.write_text(json.dumps({"smoke": {"cells.small": "0" * 64}}))
    monkeypatch.setattr(run, "GOLDENS", goldens)
    assert run.main(["--workload", "cells.small", "--smoke"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def _counters():
    from repro.obs.metrics import METRICS

    c = METRICS.snapshot()["counters"]
    return c.get("batch.planned", 0), c.get("batch.cells_batched", 0)


def _tiny_sweep(tmp_path, tag, engine):
    from repro.exec.store import ResultStore
    from repro.exec.sweep import run_sweep
    from repro.prep import PrepStore, set_prep_store
    from repro.sim.driver import clear_program_cache

    w = wl.WORKLOADS["cells.small"].smoke()
    clear_program_cache()
    previous = set_prep_store(PrepStore(tmp_path / "prep"))
    try:
        before = _counters()
        result = run_sweep(**wl.grid_kwargs(w, 1), engine=engine(),
                           store=ResultStore(tmp_path / f"store-{tag}"),
                           journal=tmp_path / f"journal-{tag}.jsonl")
        after = _counters()
    finally:
        set_prep_store(previous)
    assert not result.failures
    return (after[0] - before[0], after[1] - before[1]), wl.digest(result.aggregates())


def test_traced_run_keeps_the_production_path(tmp_path):
    from repro.exec.engine import SerialEngine

    plain = _tiny_sweep(tmp_path, "plain", SerialEngine)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        traced = _tiny_sweep(tmp_path, "traced", SerialEngine)
    finally:
        uninstall()
    assert plain == traced
    assert plain[0][0] > 0 and plain[0][1] > plain[0][0]
    names = {s["name"] for s in rec.spans}
    assert {"exec.unit", "cache.replay_batch", "exec.store.put"} <= names
    assert all(s["unit"] for s in rec.spans if s["name"] == "cache.replay_batch")


def test_pool_workers_spill_their_spans(tmp_path):
    from repro.exec.pool import ProcessPoolEngine

    (tmp_path / "spill").mkdir()
    rec = spans.Recorder(tmp_path / "spill")
    uninstall = spans.install(rec)
    try:
        with ProcessPoolEngine(jobs=2) as engine:
            _tiny_sweep(tmp_path, "pool", lambda: engine)
    finally:
        uninstall()
    rec.collect()
    workers = {s["pid"] for s in rec.spans if s["name"] == "cache.replay_batch"}
    assert workers and rec.coordinator_pid not in workers
    assert not list((tmp_path / "spill").iterdir())
