"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import runner as runner_mod


@pytest.fixture(autouse=True)
def _reset_execution_layer():
    """main() installs engines/stores globally and results memoise across
    tests; isolate each test so counter assertions are deterministic."""
    runner_mod.clear_result_cache()
    runner_mod.reset_execution_stats()
    yield
    runner_mod.configure(engine=None, store=None)
    runner_mod.clear_result_cache()
    runner_mod.reset_execution_stats()


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "swim"])
        assert args.app == "swim"
        assert args.policy == "model-based"
        assert args.trace is None
        assert args.trace_format == "jsonl"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "swim", "--policy", "bogus"])

    def test_policy_aliases_normalise(self):
        args = build_parser().parse_args(["run", "swim", "--policy", "model"])
        assert args.policy == "model-based"
        args = build_parser().parse_args(["sweep", "--policies", "cpi", "equal"])
        assert args.policies == ["cpi-proportional", "static-equal"]

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "swim", "--jobs", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "swim", "--jobs", "many"])

    def test_trace_format_is_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "swim", "--trace", "t", "--trace-format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_report_args(self):
        args = build_parser().parse_args(["report", "t.jsonl", "--top", "3"])
        assert args.trace == "t.jsonl"
        assert args.top == 3

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig20"])
        assert args.name == "fig20"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["serve", "submit"])
    def test_removed_service_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


QUICK = ["--intervals", "6", "--interval-instructions", "3000"]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out
        assert "model-based" in out
        assert "fig20" in out

    def test_run_table(self, capsys):
        assert main(["run", "ft", "--policy", "shared", *QUICK]) == 0
        out = capsys.readouterr().out
        assert "ft under shared" in out
        assert "busy CPI" in out

    def test_run_json(self, capsys):
        assert main(["run", "ft", "--policy", "shared", "--json", *QUICK]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["app"] == "ft"
        assert data["total_cycles"] > 0

    def test_compare(self, capsys):
        assert main(["compare", "ft", *QUICK]) == 0
        out = capsys.readouterr().out
        assert "vs shared" in out
        assert "ft" in out

    def test_compare_unknown_app(self, capsys):
        assert main(["compare", "not-an-app", *QUICK]) == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_figure_fig2(self, capsys):
        assert main(["figure", "fig2", *QUICK]) == 0
        assert "system configuration" in capsys.readouterr().out

    def test_figure_json(self, capsys):
        assert main(["figure", "fig2", "--json", *QUICK]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["figure"].startswith("Figure 2")

    def test_run_unknown_app_exits_2(self, capsys):
        assert main(["run", "not-an-app", *QUICK]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "swim" in err  # the message lists the known workloads


class TestExecutionFlags:
    def test_compare_jobs_output_identical_to_serial(self, capsys):
        argv = ["compare", "ft", "cg", *QUICK]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        runner_mod.clear_result_cache()
        assert main([*argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_verbose_reports_counters(self, capsys):
        assert main(["compare", "ft", *QUICK, "-v"]) == 0
        err = capsys.readouterr().err
        assert "engine=serial" in err
        assert "simulated=4" in err

    def test_cache_dir_warm_run_simulates_nothing(self, tmp_path, capsys):
        argv = ["compare", "ft", *QUICK, "--cache-dir", str(tmp_path), "-v"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "simulated=4" in cold.err
        assert "store-writes=4" in cold.err

        runner_mod.clear_result_cache()  # fresh process simulation
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "simulated=0" in warm.err
        assert "store-hits=4" in warm.err
        assert warm.out == cold.out, "warm store must reproduce tables exactly"

    def test_run_uses_cache_dir(self, tmp_path, capsys):
        argv = ["run", "ft", "--policy", "shared", *QUICK, "--cache-dir", str(tmp_path), "-v"]
        assert main(argv) == 0
        assert "simulated=1" in capsys.readouterr().err
        runner_mod.clear_result_cache()
        assert main(argv) == 0
        assert "store-hits=1" in capsys.readouterr().err


class TestTraceFlags:
    def test_run_trace_writes_interval_and_repartition_events(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "swim", "--policy", "model", *QUICK, "--trace", str(trace)]) == 0
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert kinds.count("interval") >= 6  # one per interval
        assert "repartition" in kinds
        assert "convergence" in kinds
        assert kinds[-1] == "metrics"  # final registry snapshot

    def test_run_trace_bypasses_warm_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["run", "ft", "--policy", "shared", *QUICK, "--cache-dir", str(store)]
        assert main(argv) == 0  # warm the store
        capsys.readouterr()
        trace = tmp_path / "t.jsonl"
        assert main([*argv, "--trace", str(trace)]) == 0
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert "interval" in kinds, "traced run must simulate, not replay the store"

    def test_chrome_format_writes_trace_event_array(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([
            "run", "swim", "--policy", "model", *QUICK,
            "--trace", str(trace), "--trace-format", "chrome",
        ]) == 0
        data = json.loads(trace.read_text())
        assert isinstance(data, list) and data
        assert all("ph" in e for e in data)

    def test_report_summarizes_a_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "swim", "--policy", "model", *QUICK, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "run swim/model-based" in out
        assert "per-thread CPI trajectory" in out
        assert "repartitions:" in out

    def test_report_rejects_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        trace.write_text("[]\n")
        assert main(["report", str(trace)]) == 2
        assert "Chrome trace" in capsys.readouterr().err

    def test_report_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "report:" in capsys.readouterr().err

    def test_compare_trace_records_job_lifecycle(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["compare", "ft", *QUICK, "--trace", str(trace)]) == 0
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert kinds.count("job_start") == kinds.count("job_end") >= 4
        assert "span" in kinds

    def test_tracer_slot_restored_after_main(self, tmp_path, capsys):
        from repro.obs import NULL_TRACER, get_tracer

        trace = tmp_path / "t.jsonl"
        assert main(["run", "ft", "--policy", "shared", *QUICK, "--trace", str(trace)]) == 0
        assert get_tracer() is NULL_TRACER


class TestSweepCommand:
    def test_sweep_table(self, capsys):
        assert main([
            "sweep", "--apps", "ft", "cg", "--policies", "shared", "model-based",
            "--intervals", "6", "--interval-instructions", "3000",
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 apps x 2 policies" in out
        assert "model-based vs shared" in out
        assert "4 jobs on serial" in out

    def test_sweep_json_with_grid_axes(self, capsys):
        assert main([
            "sweep", "--apps", "ft", "--policies", "shared", "static-equal",
            "--seeds", "1", "2", "--intervals", "5", "--interval-instructions", "2000",
            "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seeds"] == [1, 2]
        assert len(data["cells"]) == 4
        assert data["n_failures"] == 0

    def test_sweep_with_jobs_and_store(self, tmp_path, capsys):
        argv = [
            "sweep", "--apps", "ft", "--policies", "shared", "model-based",
            "--intervals", "5", "--interval-instructions", "2000",
            "--jobs", "2", "--cache-dir", str(tmp_path), "-v",
        ]
        assert main(argv) == 0
        assert "simulated=2" in capsys.readouterr().err
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "simulated=0" in err
        assert "store-hits=2" in err

    def test_sweep_rejects_unknown_app_and_baseline(self, capsys):
        assert main(["sweep", "--apps", "nope"]) == 2
        assert "sweep.apps[0]" in capsys.readouterr().err
        assert main([
            "sweep", "--apps", "ft", "--policies", "shared", "--baseline", "model-based",
        ]) == 2
        assert "baseline" in capsys.readouterr().err


def _exit_code(argv: list[str]) -> int:
    """``main``'s exit status, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_CONFIG_COMMANDS = pytest.mark.parametrize(
    "command", [["run", "ft"], ["compare", "ft"], ["figure", "fig2"]],
    ids=["run", "compare", "figure"],
)


class TestOutOfRangeConfigExits2:
    """WHEN a flag asks for a config the simulator cannot build THEN the
    command exits 2 with a one-line message, never a traceback."""

    @_CONFIG_COMMANDS
    @pytest.mark.parametrize(
        "flag", ["--threads", "--intervals", "--interval-instructions"]
    )
    def test_when_count_below_one_then_usage_error(self, command, flag, capsys):
        assert _exit_code([*command, flag, "0"]) == 2
        assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err

    @_CONFIG_COMMANDS
    def test_when_l2_cannot_hold_the_threads_then_exit_2(self, command, capsys):
        assert _exit_code([*command, "--threads", "40"]) == 2
        err = capsys.readouterr().err
        assert f"{command[0]}: L2 has 32 ways; too few for 40 threads" in err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--thread-counts", "0"], "sweep.thread_counts[0]: expected int >= 1"),
            (["--thread-counts", "4", "40"],
             "sweep.thread_counts[1]: L2 has 32 ways; too few for 40 threads"),
            (["--intervals", "0"], "sweep.intervals: expected int >= 1, got 0"),
        ],
        ids=["thread-counts-0", "thread-counts-40", "intervals-0"],
    )
    def test_when_sweep_axis_out_of_range_then_exit_2(self, flags, message, capsys):
        assert main(["sweep", "--apps", "ft", "--policies", "shared", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and "usage:" in err


class TestRunnerLayer:
    def test_get_results_batches_and_memoises(self, quick_config):
        from repro.experiments.runner import execution_stats, get_results, reset_execution_stats

        runner_mod.clear_result_cache()
        reset_execution_stats()
        pairs = [("ft", "shared"), ("ft", "model-based")]
        first = get_results(pairs, quick_config)
        assert set(first) == set(pairs)
        stats = execution_stats()
        assert stats["simulated"] == 2
        second = get_results(pairs, quick_config)
        assert second == first
        assert execution_stats()["memo_hits"] == 2

    def test_failed_job_raises_runtime_error(self, quick_config):
        from repro.exec.engine import SerialEngine

        def boom(spec):
            raise ValueError("injected failure")

        runner_mod.clear_result_cache()
        runner_mod.configure(engine=SerialEngine(max_retries=0, backoff_s=0.0, job_runner=boom))
        with pytest.raises(RuntimeError, match="injected failure"):
            runner_mod.get_result("ft", "shared", quick_config.with_(seed=31337))


class TestCrashSafetyCli:
    SWEEP = [
        "sweep", "--apps", "ft", "--policies", "shared", "static-equal",
        "--intervals", "5", "--interval-instructions", "2000",
    ]

    def test_faults_inline_json_parsed(self):
        args = build_parser().parse_args(
            ["run", "swim", "--faults", '{"seed": 9, "rules": [{"kind": "delay"}]}']
        )
        assert args.faults.seed == 9
        assert args.faults.rules[0].kind == "delay"

    def test_faults_from_file(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"rules": [{"kind": "job-exception", "match": "ft/*"}]}')
        args = build_parser().parse_args(["run", "swim", "--faults", str(plan)])
        assert args.faults.rules[0].match == "ft/*"

    def test_bad_faults_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "swim", "--faults", "{not json"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "swim", "--faults", '{"rules": [{"kind": "bogus"}]}']
            )

    def test_resume_requires_journal(self, capsys):
        assert main([*self.SWEEP, "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_sweep_journal_written_and_resumed(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        argv = [*self.SWEEP, "--journal", str(journal), "-v"]
        assert main(argv) == 0
        assert journal.is_file()
        err = capsys.readouterr().err
        assert "simulated=2" in err and "resumed=0" in err
        assert main([*argv, "--resume"]) == 0
        err = capsys.readouterr().err
        assert "simulated=0" in err and "resumed=2" in err

    def test_resume_foreign_journal_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert main([*self.SWEEP, "--journal", str(journal)]) == 0
        capsys.readouterr()
        other = [
            "sweep", "--apps", "cg", "--policies", "shared", "static-equal",
            "--intervals", "5", "--interval-instructions", "2000",
            "--journal", str(journal), "--resume",
        ]
        assert main(other) == 2
        assert "different sweep grid" in capsys.readouterr().err

    def test_faulty_sweep_reports_injections(self, capsys):
        plan = '{"rules": [{"kind": "job-exception", "match": "*", "attempts": [1]}]}'
        assert main([*self.SWEEP, "--faults", plan, "-v"]) == 0
        err = capsys.readouterr().err
        assert "faults-injected=2" in err

    def test_journal_must_not_be_a_directory(self, tmp_path, capsys):
        assert main([*self.SWEEP, "--journal", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "is a directory" in err and "usage:" in err

    def test_resume_without_journal_shows_usage(self, capsys):
        assert main([*self.SWEEP, "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires --journal" in err and "usage:" in err
