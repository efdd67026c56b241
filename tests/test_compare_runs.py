"""Comparator conformance: ``repro compare-runs`` on fabricated stores.

Cells are fabricated straight into :class:`ResultStore` trees (no
simulation), so every edge the comparator must survive is cheap to
stage: identical stores, a single perturbed cell (which must be *named*,
with the offending metric), tolerance boundaries, foreign grids, empty
and partially-populated stores, version-mismatched namespaces and
corrupt entries.  The hard rule throughout: a comparison that cannot be
performed is a machine-readable ``incomparable`` verdict (exit 4) —
never a crash, and never a false ``clean``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cache.stats import StatsSnapshot
from repro.core.records import RunResult
from repro.exec.grid import SweepGrid
from repro.exec.store import ResultStore
from repro.spec.compare import (
    EXIT_CLEAN,
    EXIT_INCOMPARABLE,
    EXIT_REGRESSION,
    compare_runs,
)

GRID = SweepGrid.build(
    apps=["ft", "cg"], policies=["shared", "static-equal"],
    intervals=3, interval_instructions=2000,
)


def _result(spec, total_cycles=10_000.0, miss_bump=0) -> RunResult:
    n = spec.config.n_threads
    return RunResult(
        app=spec.app,
        policy=spec.policy,
        n_threads=n,
        total_cycles=float(total_cycles),
        thread_instructions=[1000] * n,
        thread_busy_cycles=[800.0] * n,
        thread_stall_cycles=[200.0] * n,
        l2_totals=StatsSnapshot(
            accesses=[300] * n, hits=[200] * n, misses=[100 + miss_bump] * n,
            evictions=[0] * n, inter_thread_hits=[0] * n,
            inter_thread_evictions=[0] * n, intra_thread_hits=[200] * n,
        ),
        thread_l1_accesses=[5000] * n,
        thread_l1_hits=[4700] * n,
        intervals=[],
        barriers=None,
    )


def _populate(root: Path, grid: SweepGrid = GRID, *, skip=(), cycles=None,
              misses=None) -> ResultStore:
    """File one fabricated result per grid cell (minus ``skip`` labels);
    ``cycles``/``misses`` override per label for perturbation."""
    store = ResultStore(root)
    for spec in grid.specs():
        if spec.label in skip:
            continue
        store.put(
            spec,
            _result(
                spec,
                total_cycles=(cycles or {}).get(spec.label, 10_000.0),
                miss_bump=(misses or {}).get(spec.label, 0),
            ),
        )
    return store


class TestCleanAndRegression:
    def test_identical_stores_are_clean(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b")
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=GRID)
        assert comparison.verdict == "clean"
        assert comparison.exit_code == EXIT_CLEAN
        assert comparison.counts() == {"equal": 4, "changed": 0, "added": 0, "removed": 0}

    def test_perturbed_cell_is_detected_and_named(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", cycles={"cg/static-equal": 10_500.0})
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=GRID)
        assert comparison.verdict == "regression"
        assert comparison.exit_code == EXIT_REGRESSION
        changed = [c for c in comparison.cells if c.status == "changed"]
        assert len(changed) == 1
        assert changed[0].label == "cg/static-equal seed=1 t=4"
        assert changed[0].metrics["total_cycles"]["beyond"]
        assert not changed[0].metrics["l2_misses"]["beyond"]
        rendered = comparison.format()
        assert "cg/static-equal seed=1 t=4" in rendered
        assert "total_cycles" in rendered

    def test_perturbed_misses_flag_the_other_metric(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", misses={"ft/shared": 7})
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=GRID)
        [changed] = [c for c in comparison.cells if c.status == "changed"]
        assert changed.label.startswith("ft/shared")
        assert changed.metrics["l2_misses"]["beyond"]
        assert not changed.metrics["total_cycles"]["beyond"]

    def test_missing_cell_in_b_is_removed_and_a_regression(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", skip={"ft/shared"})
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=GRID)
        assert comparison.verdict == "regression"
        assert comparison.counts()["removed"] == 1

    def test_extra_cell_in_b_is_added_not_a_regression(self, tmp_path):
        _populate(tmp_path / "a", skip={"cg/shared"})
        _populate(tmp_path / "b")
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=GRID)
        assert comparison.verdict == "clean"
        assert comparison.counts()["added"] == 1

    def test_without_a_grid_every_stored_cell_is_compared(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", cycles={"ft/shared": 1.0})
        comparison = compare_runs(tmp_path / "a", tmp_path / "b")
        assert comparison.verdict == "regression"
        assert sum(comparison.counts().values()) == 4


class TestTolerances:
    @pytest.mark.parametrize(
        ("bump", "tolerance", "verdict"),
        [
            (500.0, 0.06, "clean"),       # +5% within 6%
            (500.0, 0.05, "clean"),       # exactly at the boundary: allowed
            (500.0, 0.049, "regression"),  # just beyond
            (500.0, 0.0, "regression"),   # zero tolerance: any drift fails
        ],
    )
    def test_relative_tolerance_boundary(self, tmp_path, bump, tolerance, verdict):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", cycles={"ft/shared": 10_000.0 + bump})
        comparison = compare_runs(
            tmp_path / "a", tmp_path / "b", grid=GRID,
            tolerances={"total_cycles": tolerance},
        )
        assert comparison.verdict == verdict

    def test_tolerance_applies_per_metric(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", cycles={"ft/shared": 10_100.0}, misses={"ft/shared": 50})
        comparison = compare_runs(
            tmp_path / "a", tmp_path / "b", grid=GRID,
            tolerances={"total_cycles": 0.5},  # cycles forgiven, misses not
        )
        [changed] = [c for c in comparison.cells if c.status == "changed"]
        assert changed.metrics["l2_misses"]["beyond"]
        assert not changed.metrics["total_cycles"]["beyond"]


class TestIncomparable:
    def test_missing_store_dir(self, tmp_path):
        _populate(tmp_path / "a")
        comparison = compare_runs(tmp_path / "a", tmp_path / "nope")
        assert comparison.verdict == "incomparable"
        assert comparison.exit_code == EXIT_INCOMPARABLE
        assert "does not exist" in comparison.reason

    def test_empty_store(self, tmp_path):
        _populate(tmp_path / "a")
        (tmp_path / "b").mkdir()
        comparison = compare_runs(tmp_path / "a", tmp_path / "b")
        assert comparison.verdict == "incomparable"
        assert "empty" in comparison.reason

    def test_version_mismatched_namespaces(self, tmp_path):
        _populate(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b", version="0.0.1")
        for spec in GRID.specs():
            store_b.put(spec, _result(spec))
        comparison = compare_runs(tmp_path / "a", tmp_path / "b")
        assert comparison.verdict == "incomparable"
        assert "different simulator versions" in comparison.reason
        assert "v0.0.1" in comparison.reason

    def test_when_stores_share_two_releases_then_the_newest_is_compared(self, tmp_path):
        """WHEN both stores hold ``v1.9.0`` and ``v1.10.0`` THEN the diff
        runs in ``v1.10.0``: releases order by their integers, not as
        strings."""
        for root in (tmp_path / "a", tmp_path / "b"):
            for version in ("1.9.0", "1.10.0"):
                store = ResultStore(root, version=version)
                for spec in GRID.specs():
                    store.put(spec, _result(spec))
        comparison = compare_runs(tmp_path / "a", tmp_path / "b")
        assert comparison.namespace == "v1.10.0"

    def test_foreign_grid_is_refused_not_clean(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b")
        foreign = SweepGrid.build(apps=["swim"], policies=["shared"])
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=foreign)
        assert comparison.verdict == "incomparable"
        assert "foreign grid" in comparison.reason

    def test_partially_populated_stores_compare_what_exists(self, tmp_path):
        # A journal killed mid-sweep leaves a store with a cell subset;
        # that is comparable (missing cells classify), not incomparable.
        _populate(tmp_path / "a", skip={"cg/shared", "cg/static-equal"})
        _populate(tmp_path / "b", skip={"cg/static-equal"})
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=GRID)
        assert comparison.verdict == "clean"
        counts = comparison.counts()
        assert counts == {"equal": 2, "changed": 0, "added": 1, "removed": 0}

    def test_corrupt_entries_are_skipped_never_fatal(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b")
        victim = sorted((tmp_path / "b").glob("v*/*/*.json"))[0]
        victim.write_text("{torn")
        comparison = compare_runs(tmp_path / "a", tmp_path / "b", grid=GRID)
        assert comparison.skipped_b == 1
        # The corrupt cell reads as missing from b -> removed -> regression.
        assert comparison.verdict == "regression"
        assert comparison.counts()["removed"] == 1

    def test_all_cells_corrupt_is_incomparable(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b")
        for side in ("a", "b"):
            for path in (tmp_path / side).glob("v*/*/*.json"):
                path.write_text("not json")
        comparison = compare_runs(tmp_path / "a", tmp_path / "b")
        assert comparison.verdict == "incomparable"
        assert "no readable cells" in comparison.reason

    def test_to_dict_is_machine_readable(self, tmp_path):
        comparison = compare_runs(tmp_path / "a", tmp_path / "b")
        payload = json.loads(json.dumps(comparison.to_dict()))
        assert payload["verdict"] == "incomparable"
        assert payload["reason"]


class TestCli:
    def _spec_file(self, tmp_path) -> str:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "spec_version": 1,
            "grid": {"apps": ["ft", "cg"], "policies": ["shared", "static-equal"]},
            "config": {"intervals": 3, "interval_instructions": 2000},
        }))
        return str(path)

    def test_exit_0_on_clean(self, tmp_path, capsys):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b")
        rc = main(["compare-runs", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--spec", self._spec_file(tmp_path)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_1_names_the_perturbed_cell(self, tmp_path, capsys):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", cycles={"ft/shared": 11_000.0})
        rc = main(["compare-runs", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--spec", self._spec_file(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "ft/shared seed=1 t=4" in out and "total_cycles" in out

    def test_exit_4_on_incomparable(self, tmp_path):
        _populate(tmp_path / "a")
        assert main(["compare-runs", str(tmp_path / "a"), str(tmp_path / "gone")]) == 4

    def test_tolerance_flag_overrides(self, tmp_path):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", cycles={"ft/shared": 10_400.0})
        argv = ["compare-runs", str(tmp_path / "a"), str(tmp_path / "b")]
        assert main(argv) == 1
        assert main([*argv, "--tolerance", "total_cycles=0.05"]) == 0
        assert main([*argv, "--tolerance", "bogus=0.05"]) == 2
        assert main([*argv, "--tolerance", "total_cycles=-1"]) == 2

    def test_json_output(self, tmp_path, capsys):
        _populate(tmp_path / "a")
        _populate(tmp_path / "b", cycles={"ft/shared": 11_000.0})
        rc = main(["compare-runs", str(tmp_path / "a"), str(tmp_path / "b"), "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "regression"
        assert payload["counts"]["changed"] == 1
        [cell] = payload["cells"]
        assert cell["label"] == "ft/shared seed=1 t=4"
