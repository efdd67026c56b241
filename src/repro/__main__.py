"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        simulate one application under one policy
compare    run all policies on one or more applications
figure     regenerate a paper figure/table by id (fig3, fig20, ...)
sweep      fan a grid of apps x policies x seeds x thread-counts out
run-spec   execute a checked-in YAML/JSON experiment spec: same grid
           machinery as ``sweep``, declared in a file (DESIGN.md §H)
compare-runs
           diff two sweep result stores cell by cell and exit non-zero
           on regression (the continuous-benchmarking gate)
report     summarize a telemetry trace written by ``--trace``
list       list workloads, policies and experiments

Every simulating command accepts ``--jobs N`` (simulate on a pool of N
worker processes; 1, the default, simulates in-process), ``--cache-dir
DIR`` (persist results in a content-addressed on-disk store, reused by
later invocations), ``--trace PATH`` (write telemetry events to PATH;
``--trace-format chrome`` emits a Chrome ``trace_event`` file loadable
in Perfetto instead of JSONL) and ``-v`` (print execution/cache counters
to stderr).

Examples
--------
    python -m repro run swim --policy model-based --trace swim.jsonl
    python -m repro report swim.jsonl
    python -m repro compare swim cg --intervals 30 --jobs 4
    python -m repro figure fig20 --cache-dir ~/.cache/repro
    python -m repro sweep --apps swim cg --seeds 1 2 3 --jobs 4 -v
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.exec import (
    POLICY_ALIASES,
    FaultPlan,
    GridError,
    JournalMismatchError,
    ProcessPoolEngine,
    ResultStore,
    SerialEngine,
    SweepGrid,
    run_sweep,
    set_fault_plan,
)
from repro.experiments import EXPERIMENTS, speedup_table
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    configure,
    execution_stats,
    get_result,
    reset_execution_stats,
)
from repro.obs import (
    METRICS,
    InterruptEvent,
    JsonlTracer,
    MetricsEvent,
    RecordingTracer,
    get_tracer,
    read_events,
    set_tracer,
    summarize,
    write_chrome_trace,
)
from repro.partition import POLICY_REGISTRY
from repro.prep import configure_prep, get_prep_store
from repro.sim.config import CACHE_BACKEND_NAMES, SystemConfig
from repro.trace.workloads import list_workloads

__all__ = ["build_parser", "main"]


def _positive_int(value: str) -> int:
    """argparse type for counts that must be >= 1 (exit 2 on violation)."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _policy_name(value: str) -> str:
    return POLICY_ALIASES.get(value, value)


def _fault_plan(value: str) -> FaultPlan:
    """argparse type for ``--faults``: inline JSON, or a path to a JSON
    file, describing ``{"seed": ..., "rules": [{"kind": ..., ...}]}``."""
    try:
        if value.lstrip().startswith("{"):
            payload = json.loads(value)
        else:
            payload = json.loads(Path(value).read_text(encoding="utf-8"))
        return FaultPlan.from_dict(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"invalid fault plan: {exc}") from None


class _Interrupted(BaseException):
    """Raised by the sweep signal handlers; BaseException so an
    ``except Exception`` in job code cannot swallow the stop request."""

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(signal.Signals(signum).name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Intra-application cache partitioning simulator (IPDPS 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--threads", type=_positive_int, default=4, help="number of cores/threads"
        )
        p.add_argument(
            "--intervals", type=_positive_int, default=50, help="execution intervals"
        )
        p.add_argument(
            "--interval-instructions", type=_positive_int, default=20_000,
            help="instructions per thread per interval",
        )
        p.add_argument("--seed", type=int, default=1, help="workload seed")

    def add_exec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-backend", default="fast", choices=CACHE_BACKEND_NAMES,
            help="shared-L2 implementation: fast (vectorized replay kernel, "
            "default), reference (readable per-set model), or batch (cells "
            "sharing a prepared program replay together in one pass); "
            "outputs are byte-identical",
        )
        p.add_argument(
            "--jobs", type=_positive_int, default=1, metavar="N",
            help="worker processes for simulations (>= 1; 1 = serial, default)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="persist simulation results in a content-addressed store at DIR",
        )
        p.add_argument(
            "--prep-dir", default=None, metavar="DIR",
            help="cache prepared programs (traces + compiled L2 streams) as "
            "memory-mappable artifact bundles at DIR, shared across "
            "processes and invocations",
        )
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write telemetry events to PATH (summarize with `repro report`)",
        )
        p.add_argument(
            "--trace-format", default="jsonl", choices=("jsonl", "chrome"),
            help="trace file format: jsonl (default; `repro report` input) or "
            "chrome (trace_event JSON for Perfetto / chrome://tracing)",
        )
        p.add_argument(
            "--faults", default=None, metavar="JSON", type=_fault_plan,
            help="inject deterministic faults (chaos testing): inline JSON or a "
            'file, e.g. \'{"seed": 7, "rules": [{"kind": "job-exception", '
            '"rate": 0.3, "attempts": [1]}]}\'; kinds: delay, job-exception, '
            "worker-death, artifact-corruption",
        )
        p.add_argument(
            "-v", "--verbose", action="store_true",
            help="print execution-engine and result-store counters to stderr",
        )

    p_run = sub.add_parser("run", help="simulate one application under one policy")
    p_run.add_argument("app", help="workload name (see `repro list`)")
    p_run.add_argument(
        "--policy", default="model-based", type=_policy_name,
        choices=sorted(POLICY_REGISTRY),
        help="partitioning policy (aliases: %s)"
        % ", ".join(f"{k}={v}" for k, v in sorted(POLICY_ALIASES.items())),
    )
    p_run.add_argument("--json", action="store_true", help="emit the full result as JSON")
    add_config_args(p_run)
    add_exec_args(p_run)

    p_cmp = sub.add_parser("compare", help="all policies side by side")
    p_cmp.add_argument("apps", nargs="*", help="workloads (default: all nine)")
    add_config_args(p_cmp)
    add_exec_args(p_cmp)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    p_fig.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment id")
    p_fig.add_argument("--json", action="store_true", help="emit JSON instead of ASCII")
    add_config_args(p_fig)
    add_exec_args(p_fig)

    p_sw = sub.add_parser(
        "sweep", help="fan a grid of apps x policies x seeds x thread-counts out"
    )
    p_sw.add_argument(
        "--apps", nargs="+", default=None, metavar="APP",
        help="workloads to sweep (default: all)",
    )
    p_sw.add_argument(
        "--policies", nargs="+", default=None, metavar="POLICY",
        type=_policy_name, choices=sorted(POLICY_REGISTRY),
        help="policies to sweep (default: shared, static-equal, throughput, model-based)",
    )
    p_sw.add_argument(
        "--seeds", nargs="+", type=int, default=[1], metavar="SEED",
        help="workload seeds to sweep",
    )
    p_sw.add_argument(
        "--thread-counts", nargs="+", type=int, default=[4], metavar="N",
        help="core/thread counts to sweep",
    )
    p_sw.add_argument(
        "--baseline", default=None,
        help="policy speedups are measured against (default: shared if swept)",
    )
    p_sw.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal every completed cell to PATH (append-only JSONL, fsynced "
        "per cell) so a crashed or interrupted sweep can be resumed",
    )
    p_sw.add_argument(
        "--resume", action="store_true",
        help="resume from --journal: restore cells it records as completed and "
        "fan out only the remainder (requires --journal)",
    )
    p_sw.add_argument("--json", action="store_true", help="emit JSON instead of ASCII")
    p_sw.add_argument("--intervals", type=int, default=50, help="execution intervals")
    p_sw.add_argument(
        "--interval-instructions", type=int, default=20_000,
        help="instructions per thread per interval",
    )
    add_exec_args(p_sw)

    def _validate_sweep(args: argparse.Namespace) -> None:
        # Cross-argument checks argparse cannot express declaratively,
        # surfaced with usage + exit 2 like any other argument error.
        if args.resume and not args.journal:
            p_sw.error("--resume requires --journal PATH to resume from")
        if args.journal and Path(args.journal).is_dir():
            p_sw.error(
                f"--journal {args.journal!r} is a directory; pass a file path "
                "(the journal is one JSONL file per sweep)"
            )
        # The one grid builder validates every axis (field-path errors,
        # exit 2) before any engine, pool worker or store is constructed.
        try:
            args.grid = SweepGrid.build(
                apps=args.apps,
                policies=args.policies,
                seeds=args.seeds,
                thread_counts=args.thread_counts,
                baseline=args.baseline,
                intervals=args.intervals,
                interval_instructions=args.interval_instructions,
                cache_backend=args.cache_backend,
                path="sweep",
            )
        except GridError as exc:
            p_sw.error(str(exc))
        if args.resume and Path(args.journal).is_file():
            # A resume against a foreign journal must fail here too, with
            # the same field-path style a spec validation error would use.
            from repro.exec.journal import SweepJournal

            header, _, _ = SweepJournal.load(args.journal)
            if header is None:
                p_sw.error(
                    f"sweep.resume: {args.journal!r} is not a sweep journal (no header)"
                )
            if header.get("grid_digest") != args.grid.digest:
                p_sw.error(
                    f"sweep.resume: journal {args.journal!r} was written by a "
                    f"different sweep grid "
                    f"(journal {str(header.get('grid_digest'))[:12]}…, these "
                    f"flags {args.grid.digest[:12]}…); pass the grid the journal was "
                    "started with, or drop --resume to restart it"
                )

    p_sw.set_defaults(_validate=_validate_sweep)

    p_rs = sub.add_parser(
        "run-spec",
        help="execute a YAML/JSON experiment spec (specs/*.yaml; DESIGN.md §H)",
    )
    p_rs.add_argument(
        "spec", help="path to the spec file (.yaml/.yml needs PyYAML; .json always works)"
    )
    p_rs.add_argument(
        "--smoke", action="store_true",
        help="shrink the spec to a seconds-scale probe (first value of every "
        "grid axis, capped intervals) — exercises the same pipeline",
    )
    p_rs.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="override the spec's store_dir (results are filed here)",
    )
    p_rs.add_argument(
        "--prep-dir", default=None, metavar="DIR",
        help="override the spec's prep_dir (prepared-program cache)",
    )
    p_rs.add_argument(
        "--journal", default=None, metavar="PATH",
        help="override the spec's journal path",
    )
    p_rs.add_argument(
        "--no-expectations", action="store_true",
        help="run the sweep but skip the spec's expectations block",
    )
    p_rs.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write telemetry events to PATH (summarize with `repro report`)",
    )
    p_rs.add_argument(
        "--trace-format", default="jsonl", choices=("jsonl", "chrome"),
        help="trace file format: jsonl (default) or chrome",
    )
    p_rs.add_argument("--json", action="store_true", help="emit JSON instead of ASCII")
    p_rs.add_argument(
        "-v", "--verbose", action="store_true",
        help="print execution counters and the resolved grid to stderr",
    )

    p_cr = sub.add_parser(
        "compare-runs",
        help="diff two sweep result stores cell by cell (DESIGN.md §H)",
    )
    p_cr.add_argument("store_a", help="reference result store (a --cache-dir of a past run)")
    p_cr.add_argument("store_b", help="candidate result store to compare against it")
    p_cr.add_argument(
        "--spec", default=None, metavar="FILE",
        help="scope the diff to this spec's grid cells and apply its "
        "expectations.tolerances (default: compare every cell both stores hold)",
    )
    p_cr.add_argument(
        "--tolerance", action="append", default=[], metavar="METRIC=REL",
        help="max relative delta per metric before a cell counts as changed, "
        "e.g. --tolerance total_cycles=0.01 (repeatable; overrides the spec)",
    )
    p_cr.add_argument("--json", action="store_true", help="emit JSON instead of ASCII")

    p_rep = sub.add_parser("report", help="summarize a JSONL trace written by --trace")
    p_rep.add_argument("trace", help="path to a .jsonl trace file")
    p_rep.add_argument(
        "--top", type=_positive_int, default=5, metavar="N",
        help="how many slowest jobs to list (default 5)",
    )

    sub.add_parser("list", help="list workloads, policies and experiments")
    return parser


def _config(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig.default().with_(
        n_threads=args.threads,
        n_intervals=args.intervals,
        interval_instructions=args.interval_instructions,
        seed=args.seed,
        cache_backend=args.cache_backend,
    )


def _setup_execution(args: argparse.Namespace) -> None:
    """Install the engine/store/fault-plan selected by ``--jobs`` /
    ``--cache-dir`` / ``--prep-dir`` / ``--faults``: a process pool
    when ``--jobs`` is above 1, otherwise the serial engine."""
    set_fault_plan(args.faults)  # before the engine: pool workers inherit it
    engine = ProcessPoolEngine(args.jobs) if args.jobs > 1 else SerialEngine()
    store = ResultStore(args.cache_dir) if args.cache_dir else None
    configure(engine=engine, store=store)
    configure_prep(args.prep_dir)
    reset_execution_stats()


def _report_execution(args: argparse.Namespace) -> None:
    """One stderr line of counters, so a warm-cache run can be *verified*
    to have simulated nothing (``simulated=0``)."""
    if not args.verbose:
        return
    stats = execution_stats()
    from repro.experiments.runner import current_engine

    line = (
        f"exec: engine={current_engine().name} jobs={args.jobs} "
        f"simulated={stats['simulated']} memo-hits={stats['memo_hits']} "
        f"store-hits={stats['store_hits']}"
    )
    if "store" in stats:
        s = stats["store"]
        line += (
            f" store-misses={s['misses']} store-writes={s['writes']}"
            f" store-corrupt={s['corrupt']}"
        )
        if s.get("stale_swept"):
            line += f" store-stale-swept={s['stale_swept']}"
    line += _prep_suffix()
    line += _batch_suffix()
    line += _crash_suffix()
    print(line, file=sys.stderr)


def _batch_suffix() -> str:
    """`` batches=... batch-lanes=... ...`` fragment for verbose lines —
    only the batch and compiled-kernel fallback counters that are
    non-zero, so non-batched runs stay one short line."""
    counters = METRICS.snapshot().get("counters", {})
    parts = []
    for counter, label in (
        ("batch.batches", "batches"),
        ("batch.lanes", "batch-lanes"),
        ("batch.fallback", "batch-fallback"),
        ("batch.fallback_pure", "batch-fallback-pure"),
        ("batch.failed", "batch-failed"),
        ("l1.fallback_pure", "l1-fallback-pure"),
    ):
        value = counters.get(counter, 0)
        if value:
            parts.append(f" {label}={value}")
    return "".join(parts)


def _prep_suffix() -> str:
    """`` prep-hits=... ...`` fragment for verbose lines (empty when no
    prep store is configured)."""
    prep = get_prep_store()
    if prep is None:
        return ""
    p = prep.stats()
    out = (
        f" prep-hits={p['hits']} prep-misses={p['misses']}"
        f" prep-writes={p['writes']} prep-corrupt={p['corrupt']}"
    )
    if p.get("stale_swept"):
        out += f" prep-stale-swept={p['stale_swept']}"
    return out


def _crash_suffix() -> str:
    """`` degraded-to-serial=... faults-injected=...`` fragment for verbose
    lines — only the counters that are non-zero, so the common healthy
    run stays one short line."""
    counters = METRICS.snapshot().get("counters", {})
    parts = []
    degraded = counters.get("exec.degraded_to_serial", 0)
    if degraded:
        parts.append(f" degraded-to-serial={degraded}")
    faults = sum(v for k, v in counters.items() if k.startswith("faults.injected."))
    if faults:
        parts.append(f" faults-injected={faults}")
    return "".join(parts)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    validate = getattr(args, "_validate", None)
    if validate is not None:
        try:
            validate(args)
        except SystemExit as exc:  # parser.error(); keep main() returning an int
            return int(exc.code or 0)

    if args.command == "run-spec":
        return _trace_wrapped(args, lambda: _run_spec_command(args))

    if args.command == "compare-runs":
        return _compare_runs_command(args)

    if args.command == "list":
        print("workloads:  " + ", ".join(list_workloads()))
        print("policies:   " + ", ".join(sorted(POLICY_REGISTRY)))
        print("experiments:" + " " + ", ".join(EXPERIMENTS))
        return 0

    if args.command == "report":
        try:
            records = read_events(args.trace)
        except (OSError, ValueError) as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        print(summarize(records, top=args.top))
        return 0

    _setup_execution(args)
    return _trace_wrapped(args, lambda: _dispatch(args))


def _trace_wrapped(args: argparse.Namespace, fn) -> int:
    """Run ``fn`` under the ``--trace`` tracer when one was requested.

    Chrome traces need the full event list to assemble counter tracks, so
    they buffer in memory; JSONL streams to disk as events happen.
    """
    if not args.trace:
        return fn()
    tracer = JsonlTracer(args.trace) if args.trace_format == "jsonl" else RecordingTracer()
    previous = set_tracer(tracer)
    try:
        return fn()
    finally:
        tracer.emit(MetricsEvent(snapshot=METRICS.snapshot()))
        tracer.close()
        if args.trace_format == "chrome":
            write_chrome_trace(args.trace, tracer.records)
        set_tracer(previous)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "sweep":
        return _sweep_command(args)

    try:
        config = _config(args)
    except ValueError as exc:  # e.g. more threads than the L2 has ways
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        if args.app not in list_workloads():
            print(
                f"unknown workload {args.app!r}; known: {', '.join(list_workloads())}",
                file=sys.stderr,
            )
            return 2
        if args.trace:
            # A traced run must actually simulate — memo/store hits would
            # replay a stored RunResult and emit no interval events — so it
            # bypasses the lookup layers and drives the simulator directly
            # (the engines pick the tracer up from the process-wide slot).
            from repro.sim.driver import run_application

            result = run_application(args.app, args.policy, config)
        else:
            result = get_result(args.app, args.policy, config)
        if args.json:
            json.dump(result.to_dict(), sys.stdout, indent=2)
            print()
            _report_execution(args)
            return 0
        rows = [
            [f"thread {t}", f"{result.thread_cpi(t):.2f}", result.l2_totals.misses[t],
             f"{result.thread_stall_cycles[t] / result.total_cycles:.1%}"]
            for t in range(result.n_threads)
        ]
        print(format_table(
            ["thread", "busy CPI", "L2 misses", "slack"],
            rows,
            title=f"{args.app} under {args.policy}: {result.total_cycles / 1e6:.2f}M cycles",
        ))
        final = result.intervals[-1].observation if result.intervals else None
        if final is not None:
            print(f"\nfinal way partition: {list(final.targets)}")
        _report_execution(args)
        return 0

    if args.command == "compare":
        apps = args.apps or list_workloads()
        unknown = [a for a in apps if a not in list_workloads()]
        if unknown:
            print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
            return 2
        print(speedup_table(config, apps))
        _report_execution(args)
        return 0

    if args.command == "figure":
        if args.name == "fig22" and config.n_threads < 8:
            config = config.with_(n_threads=8)
        result = EXPERIMENTS[args.name](config)
        if args.json:
            json.dump(result.to_dict(), sys.stdout, indent=2)
            print()
        else:
            print(result.format())
        _report_execution(args)
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _sweep_command(args: argparse.Namespace) -> int:
    grid = args.grid  # built and validated by _validate_sweep
    from repro.experiments.runner import current_engine, current_store

    # Interrupt protocol: SIGINT/SIGTERM stop the sweep *cleanly* — the
    # journal already holds every completed cell (flushed per append), so
    # the handlers only have to drain the warm pool, sweep staged temp
    # dirs, and exit 130 leaving the journal ready for --resume.
    def _stop(signum, frame):
        raise _Interrupted(signum)

    try:
        old_int = signal.signal(signal.SIGINT, _stop)
        old_term = signal.signal(signal.SIGTERM, _stop)
    except ValueError:  # pragma: no cover — not in the main thread
        old_int = old_term = None
    try:
        result = run_sweep(
            grid.apps,
            grid.policies,
            seeds=grid.seeds,
            thread_counts=grid.thread_counts,
            config=grid.config(),
            engine=current_engine(),
            store=current_store(),
            baseline=grid.baseline,
            journal=args.journal,
            resume=args.resume,
        )
    except JournalMismatchError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    except (_Interrupted, KeyboardInterrupt) as exc:
        signame = exc.args[0] if isinstance(exc, _Interrupted) else "SIGINT"
        return _interrupted_sweep(args, signame)
    finally:
        if old_int is not None:
            signal.signal(signal.SIGINT, old_int)
            signal.signal(signal.SIGTERM, old_term)

    if args.json:
        json.dump(result.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(result.format())
    if args.verbose:
        # The sweep drives the engine/store itself, so report its own
        # counters rather than the runner-module ones.
        line = (
            f"exec: engine={result.engine} jobs={args.jobs} "
            f"simulated={result.simulated} store-hits={result.store_hits} "
            f"resumed={result.resumed}"
        )
        if result.store_stats is not None:
            s = result.store_stats
            line += (
                f" store-misses={s['misses']} store-writes={s['writes']}"
                f" store-corrupt={s['corrupt']}"
            )
            if s.get("stale_swept"):
                line += f" store-stale-swept={s['stale_swept']}"
        line += _prep_suffix()
        line += _batch_suffix()
        line += _crash_suffix()
        print(line, file=sys.stderr)
    return 0 if not result.failures else 1


def _run_spec_command(args: argparse.Namespace) -> int:
    """``repro run-spec``: execute a checked-in experiment spec.

    Exit codes: 0 ok, 1 failed cells or unmet expectations, 2 invalid
    spec / journal mismatch (usage-class errors).
    """
    from repro.spec import SpecError, check_expectations, load_spec, run_experiment

    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        for problem in exc.problems:
            print(f"run-spec: {problem}", file=sys.stderr)
        return 2
    if args.verbose:
        grid = spec.grid
        print(
            f"run-spec: {spec.name or Path(args.spec).stem} — {grid.n_cells} cells "
            f"({len(grid.apps)} apps x {len(grid.policies)} policies x "
            f"{len(grid.seeds)} seeds x {len(grid.thread_counts)} thread-counts), "
            f"engine={spec.engine.resolved_kind()} digest={grid.digest[:12]}",
            file=sys.stderr,
        )
    try:
        result = run_experiment(
            spec,
            smoke=args.smoke,
            store_dir=args.cache_dir,
            prep_dir=args.prep_dir,
            journal_path=args.journal,
        )
    except JournalMismatchError as exc:
        print(f"run-spec: {exc}", file=sys.stderr)
        return 2
    violations = [] if args.no_expectations else check_expectations(spec, result)
    if args.json:
        payload = result.to_dict()
        payload["spec"] = {"source": spec.source, "name": spec.name}
        payload["expectation_violations"] = violations
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(result.format())
    for violation in violations:
        print(f"run-spec: expectation not met — {violation}", file=sys.stderr)
    return 1 if result.failures or violations else 0


def _metric_tolerances(args: argparse.Namespace, spec) -> dict | None:
    """Merge ``--tolerance METRIC=REL`` flags over the spec's tolerances
    block.  Returns None (and prints) on a malformed flag."""
    from repro.spec.compare import METRIC_NAMES

    tolerances = dict(spec.expectations.tolerances) if spec is not None else {}
    for item in args.tolerance:
        metric, sep, value = item.partition("=")
        try:
            if not sep or metric not in METRIC_NAMES:
                raise ValueError
            tolerances[metric] = float(value)
            if tolerances[metric] < 0:
                raise ValueError
        except ValueError:
            print(
                f"compare-runs: --tolerance must be METRIC=REL with METRIC one of "
                f"{', '.join(METRIC_NAMES)} and REL a number >= 0, got {item!r}",
                file=sys.stderr,
            )
            return None
    return tolerances


def _compare_runs_command(args: argparse.Namespace) -> int:
    """``repro compare-runs``: the continuous-benchmarking gate.

    Exit codes: 0 clean, 1 regression (a changed or removed cell),
    2 usage/spec errors, 4 incomparable stores.
    """
    from repro.spec import SpecError, compare_runs, load_spec

    spec = None
    if args.spec is not None:
        try:
            spec = load_spec(args.spec)
        except SpecError as exc:
            for problem in exc.problems:
                print(f"compare-runs: {problem}", file=sys.stderr)
            return 2
    tolerances = _metric_tolerances(args, spec)
    if tolerances is None:
        return 2
    comparison = compare_runs(
        args.store_a,
        args.store_b,
        grid=spec.grid if spec is not None else None,
        tolerances=tolerances,
    )
    if args.json:
        json.dump(comparison.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(comparison.format())
    return comparison.exit_code


def _interrupted_sweep(args: argparse.Namespace, signame: str) -> int:
    """Clean stop: drain the pool, sweep staged dirs, report, exit 130."""
    from repro.exec.journal import SweepJournal
    from repro.experiments.runner import current_engine, current_store

    current_engine().close()  # drain the warm pool (workers exit, nothing leaks)
    # Our own writers are stopped, so staged temp dirs younger than any
    # TTL are still orphans — sweep them with ttl 0.
    for store in (current_store(), get_prep_store()):
        if store is not None:
            store.sweep_stale(0.0)
    completed = 0
    if args.journal and Path(args.journal).is_file():
        _, entries, _ = SweepJournal.load(args.journal)
        completed = sum(1 for e in entries.values() if e.ok)
    METRICS.counter("exec.interrupted").inc()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(InterruptEvent(signal=signame, completed=completed))
    hint = (
        f"; {completed} completed cell(s) journaled — resume with --resume"
        if args.journal
        else " (no --journal: completed cells in this run are lost)"
    )
    print(f"sweep: interrupted by {signame}{hint}", file=sys.stderr)
    return 130


if __name__ == "__main__":
    raise SystemExit(main())
