"""``run_experiment``'s contract: spec-driven == flag-driven, exactly.

The tentpole guarantee of the spec subsystem is that declaring a sweep in
a file changes *nothing* about what runs: the resume-invariant aggregates
of ``repro run-spec`` are byte-identical to the equivalent flag-driven
``repro sweep`` (serial and pool), a spec's journal resumes like any
sweep journal, and the ``expectations`` block turns aggregate drift into
a non-zero exit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.exec.engine import SerialEngine
from repro.exec.journal import JournalMismatchError, SweepJournal
from repro.exec.sweep import run_sweep
from repro.spec import check_expectations, parse_spec, run_experiment, smoke_spec

SPECS_DIR = Path(__file__).parent.parent / "specs"

DOC = {
    "spec_version": 1,
    "name": "conformance",
    "grid": {"apps": ["ft", "cg"], "policies": ["shared", "static-equal"]},
    "config": {"intervals": 3, "interval_instructions": 2000},
}


def _agg(result) -> str:
    return json.dumps(result.aggregates(), sort_keys=True)


class TestSpecVsFlags:
    def test_serial_aggregates_are_byte_identical(self):
        spec = parse_spec(DOC)
        from_spec = run_experiment(spec)
        engine = SerialEngine()
        from_flags = run_sweep(
            ["ft", "cg"], ["shared", "static-equal"],
            seeds=[1], thread_counts=[4],
            config=spec.grid.config(), engine=engine, baseline="shared",
        )
        assert _agg(from_spec) == _agg(from_flags)

    def test_pool_aggregates_match_serial(self):
        spec = parse_spec({**DOC, "engine": {"jobs": 2}})
        assert spec.engine.resolved_kind() == "pool"
        from_pool = run_experiment(spec)
        from_serial = run_experiment(parse_spec(DOC))
        assert _agg(from_pool) == _agg(from_serial)

    def test_cli_run_spec_matches_cli_sweep(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(DOC))
        assert main(["run-spec", str(path), "--json"]) == 0
        spec_out = json.loads(capsys.readouterr().out)
        assert main([
            "sweep", "--apps", "ft", "cg",
            "--policies", "shared", "static-equal",
            "--intervals", "3", "--interval-instructions", "2000", "--json",
        ]) == 0
        flags_out = json.loads(capsys.readouterr().out)
        keys = ("apps", "policies", "seeds", "thread_counts", "baseline",
                "cells", "mean_speedups")
        for key in keys:
            assert json.dumps(spec_out[key], sort_keys=True) == \
                json.dumps(flags_out[key], sort_keys=True), key

    def test_spec_store_and_flag_store_file_identical_cells(self, tmp_path):
        spec = parse_spec(DOC)
        run_experiment(spec, store_dir=tmp_path / "a")
        engine = SerialEngine()
        run_sweep(
            ["ft", "cg"], ["shared", "static-equal"],
            seeds=[1], thread_counts=[4], config=spec.grid.config(),
            engine=engine, baseline="shared",
            store=__import__("repro.exec.store", fromlist=["ResultStore"])
            .ResultStore(tmp_path / "b"),
        )
        keys_a = sorted(p.name for p in (tmp_path / "a").glob("v*/*/*.json"))
        keys_b = sorted(p.name for p in (tmp_path / "b").glob("v*/*/*.json"))
        assert keys_a == keys_b and len(keys_a) == 4


class TestJournalResume:
    def test_spec_journal_resumes_without_recomputation(self, tmp_path):
        journal = tmp_path / "spec.journal"
        doc = {**DOC, "journal": {"path": str(journal), "resume": True}}
        spec = parse_spec(doc)
        first = run_experiment(spec)
        assert journal.is_file() and first.resumed == 0
        again = run_experiment(spec)
        assert again.resumed == 4 and again.simulated == 0
        assert _agg(again) == _agg(first)

    def test_partial_journal_resumes_only_the_remainder(self, tmp_path):
        journal = tmp_path / "spec.journal"
        doc = {**DOC, "journal": {"path": str(journal), "resume": True}}
        spec = parse_spec(doc)
        control = run_experiment(parse_spec(DOC))
        full = run_experiment(spec)
        # Drop the journal's last cell record: simulates a crash that
        # lost the in-flight cell.
        lines = journal.read_text().strip().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        resumed = run_experiment(spec)
        assert resumed.resumed == 3 and resumed.simulated == 1
        assert _agg(resumed) == _agg(full) == _agg(control)

    def test_foreign_journal_is_refused(self, tmp_path):
        journal = tmp_path / "other.journal"
        other = parse_spec({**DOC, "grid": {"apps": ["swim"], "policies": ["shared"]},
                            "journal": {"path": str(journal), "resume": True}})
        run_experiment(other)
        mine = parse_spec({**DOC, "journal": {"path": str(journal), "resume": True}})
        with pytest.raises(JournalMismatchError):
            run_experiment(mine)

    def test_cli_run_spec_journal_mismatch_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "other.journal"
        foreign = parse_spec(DOC)
        SweepJournal.begin(journal, foreign.grid.grid_key()).close()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            **DOC, "grid": {"apps": ["swim"], "policies": ["shared"]},
            "journal": {"path": str(journal), "resume": True},
        }))
        assert main(["run-spec", str(path)]) == 2
        assert "different sweep grid" in capsys.readouterr().err


class TestSmoke:
    def test_smoke_shrinks_every_axis(self):
        spec = parse_spec({
            "spec_version": 1,
            "grid": {"apps": ["ft", "cg", "swim"],
                     "policies": ["shared", "static-equal", "model-based"],
                     "seeds": [1, 2], "thread_counts": [4, 8]},
            "config": {"intervals": 50, "interval_instructions": 20000},
        })
        small = smoke_spec(spec).grid
        assert small.apps == ("ft",)
        assert small.policies == ("shared", "static-equal")
        assert small.seeds == (1,) and small.thread_counts == (4,)
        assert small.intervals <= 5 and small.interval_instructions <= 2000
        assert small.baseline in small.policies

    def test_smoke_run_uses_its_own_journal(self, tmp_path):
        journal = tmp_path / "full.journal"
        spec = parse_spec({**DOC, "journal": {"path": str(journal), "resume": True}})
        result = run_experiment(spec, smoke=True)
        assert not result.failures
        assert not journal.exists()
        assert (tmp_path / "full.journal.smoke").is_file()

    def test_cli_smoke_exits_0(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(DOC))
        assert main(["run-spec", str(path), "--smoke"]) == 0


class TestExpectations:
    def test_met_expectations_return_no_violations(self):
        spec = parse_spec({**DOC, "expectations": {"max_failures": 0}})
        assert check_expectations(spec, run_experiment(spec)) == []

    def test_failed_cells_violate_max_failures(self):
        doc = {
            **DOC,
            # Faults on every attempt exhaust the retry budget: all fail.
            "engine": {"max_retries": 0, "backoff_s": 0.0},
            "faults": {"seed": 3, "rules": [
                {"kind": "job-exception", "match": "*", "rate": 1.0, "attempts": [1]},
            ]},
        }
        spec = parse_spec(doc)
        result = run_experiment(spec)
        assert result.failures
        violations = check_expectations(spec, result)
        assert violations and violations[0].startswith("spec.expectations.max_failures:")

    def test_min_mean_speedup_floor_violation_names_policy_and_app(self):
        doc = {**DOC, "expectations": {"min_mean_speedup": {"static-equal": 10.0}}}
        spec = parse_spec(doc)
        violations = check_expectations(spec, run_experiment(spec))
        assert len(violations) == 2  # one per app
        assert all("min_mean_speedup.static-equal" in v for v in violations)
        assert any("ft" in v for v in violations)

    def test_cli_exits_1_on_unmet_expectations(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {**DOC, "expectations": {"min_mean_speedup": {"static-equal": 10.0}}}
        ))
        assert main(["run-spec", str(path)]) == 1
        assert "expectation not met" in capsys.readouterr().err
        assert main(["run-spec", str(path), "--no-expectations"]) == 0
