"""Tests for the experiment harness (every runner, quick config)."""

import json

import pytest

from repro.experiments import (
    ablation_cpi_vs_model,
    ablation_termination_rule,
    clear_result_cache,
    fig2_system_configuration,
    fig3_performance_variability,
    fig4_miss_variability,
    fig5_cpi_miss_correlation,
    fig6_swim_cpi_phases,
    fig7_swim_miss_phases,
    fig8_interaction_fraction,
    fig9_interaction_breakdown,
    fig10_way_sensitivity,
    fig15_runtime_models,
    fig18_partition_snapshot,
    fig19_vs_private,
    fig20_vs_shared,
    fig21_vs_throughput,
    fig22_eight_core,
    get_experiment,
    get_result,
    list_experiments,
)
from repro.obs.metrics import METRICS
from repro.sim.config import SystemConfig
from repro.sim.driver import clear_program_cache

APPS = ["swim", "cg"]


@pytest.fixture(scope="module")
def cfg():
    clear_result_cache()
    return SystemConfig.quick()


class TestRegistry:
    def test_all_paper_figures_present(self):
        names = set(list_experiments())
        for fig in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig15", "fig18", "fig19", "fig20",
                    "fig21", "fig22"):
            assert fig in names

    def test_ablations_present(self):
        names = set(list_experiments())
        assert {"ablation-interval", "ablation-fitting",
                "ablation-termination", "ablation-cpi-vs-model"} <= names

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_get_returns_callable(self):
        assert callable(get_experiment("fig3"))


class TestResultCache:
    def test_memoised(self, cfg):
        r1 = get_result("cg", "shared", cfg)
        r2 = get_result("cg", "shared", cfg)
        assert r1 is r2

    def test_distinct_policies_distinct_results(self, cfg):
        assert get_result("cg", "shared", cfg) is not get_result("cg", "static-equal", cfg)


class TestRunners:
    def test_fig2(self, cfg):
        res = fig2_system_configuration(cfg)
        text = res.format()
        assert "L2 cache" in text
        assert "UltraSparc" in text
        json.dumps(res.to_dict())

    def test_fig3(self, cfg):
        res = fig3_performance_variability(cfg, APPS)
        assert len(res.rows) == 2
        # Normalised: max is 1, all entries in (0, 1].
        for row in res.rows:
            vals = row[1 : 1 + cfg.n_threads]
            assert max(vals) == pytest.approx(1.0)
            assert all(0 < v <= 1.0 for v in vals)
        json.dumps(res.to_dict())

    def test_fig4(self, cfg):
        res = fig4_miss_variability(cfg, APPS)
        for row in res.rows:
            vals = row[1:]
            assert max(vals) == pytest.approx(1.0)
        json.dumps(res.to_dict())

    def test_fig5(self, cfg):
        res = fig5_cpi_miss_correlation(cfg, APPS)
        for row in res.rows:
            assert -1.0 <= row[1] <= 1.0
            assert -1.0 <= row[2] <= 1.0
        assert "average correlation" in res.notes

    def test_fig6(self, cfg):
        res = fig6_swim_cpi_phases(cfg)
        assert len(res.series) == cfg.n_threads
        lengths = {len(v) for v in res.series.values()}
        assert len(lengths) == 1

    def test_fig7(self, cfg):
        res = fig7_swim_miss_phases(cfg)
        (series,) = res.series.values()
        assert all(v >= 0 for v in series)

    def test_fig7_bad_thread(self, cfg):
        with pytest.raises(ValueError):
            fig7_swim_miss_phases(cfg, thread=99)

    def test_fig8(self, cfg):
        res = fig8_interaction_fraction(cfg, APPS)
        for row in res.rows:
            assert 0.0 <= float(row[1]) <= 100.0

    def test_fig9(self, cfg):
        res = fig9_interaction_breakdown(cfg, APPS)
        for row in res.rows:
            assert float(row[1]) + float(row[2]) == pytest.approx(100.0)

    def test_fig10(self, cfg):
        res = fig10_way_sensitivity(cfg, "swim", way_points=[4, 8], threads=[0, 2])
        assert set(res.cpi) == {0, 2}
        assert all(len(v) == 2 for v in res.cpi.values())
        res.format()

    def test_fig15(self, cfg):
        res = fig15_runtime_models(cfg, "cg", way_grid=[2, 4, 8, 12])
        assert sum(res.optimized_partition) == cfg.total_ways
        assert res.predicted_cpi_optimized <= res.predicted_cpi_equal + 1e-9
        assert len(res.curves) == cfg.n_threads
        res.format()

    def test_fig18(self, cfg):
        res = fig18_partition_snapshot(cfg, "cg", n_intervals=4)
        assert len(res.rows) == 4
        # First interval starts from the equal partition.
        assert res.rows[0]["targets"] == [cfg.total_ways // cfg.n_threads] * cfg.n_threads
        res.format()

    def test_fig18_range_check(self, cfg):
        with pytest.raises(ValueError):
            fig18_partition_snapshot(cfg, "cg", n_intervals=9999)

    def test_fig19_20_21(self, cfg):
        for fn in (fig19_vs_private, fig20_vs_shared, fig21_vs_throughput):
            res = fn(cfg, APPS)
            assert len(res.speedups) == 2
            assert res.maximum >= res.average
            res.format()
            json.dumps(res.to_dict())

    def test_fig22(self, cfg):
        res = fig22_eight_core(cfg.with_(n_threads=8), ["ft"])
        assert res.vs_private.apps == ["ft"]
        res.format()

    def test_when_fig22_runs_batched_then_each_program_is_prepared_once(self, cfg):
        # GIVEN the batch backend, an empty result memo and no prep store
        clear_result_cache()
        clear_program_cache()
        config = cfg.with_(n_threads=8, cache_backend="batch")
        # WHEN both 8-core comparisons run
        res = fig22_eight_core(config, ["ft"])
        # THEN ft's program was prepared once, for one 3-lane unit, and
        # the results equal the fast backend's
        assert METRICS.counter("sim.program_cache.misses").value == 1
        assert METRICS.counter("batch.cells_batched").value == 3
        fast = fig22_eight_core(cfg.with_(n_threads=8), ["ft"])
        assert res.to_dict() == fast.to_dict()

    def test_ablation_termination(self, cfg):
        res = ablation_termination_rule(cfg, ["cg"])
        assert len(res.rows) == 1
        res.format()

    def test_ablation_cpi_vs_model(self, cfg):
        res = ablation_cpi_vs_model(cfg, APPS)
        assert len(res.rows) == 2
        assert "model-based" in res.notes
