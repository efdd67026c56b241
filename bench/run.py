"""Benchmark runner: end-to-end sweep metrics and a per-layer trace.

Usage (from the repository root)::

    python3 bench/run.py --workload figs19-21.warm --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --reps 5 --out results.json       # all four workloads
    python3 bench/run.py --trace 1 --out traced.json        # per-layer metrics too
    python3 bench/run.py --smoke                            # harness check, < 60 s

Each rep of a workload runs in a fresh interpreter (``rep.py``) that
measures for ``--seconds / --reps`` seconds; with every workload selected
the order rotates from rep to rep.  With ``--trace 1`` even reps run
untraced and odd reps traced, so the end-to-end metrics always come from
untraced reps and the difference is the tracing overhead.

Before the first rep, an untimed pre-pass compiles the C lane kernel and
fills the shared prep store with every program the warm workloads need
(both are paid once per machine, not per sweep; ``prep.cold`` times the
second one).  Everything is built and written under ``.bench_build/``.

Correctness: every sweep must succeed, every pass and rep must produce
the same aggregates, each resweep must agree with its sweep except in
``source``, a sampled cell must match the solo ``fast`` backend, and the
aggregates' digest must match ``goldens.json`` where it holds one.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads as wl
from stats import summary

BENCH = Path(__file__).resolve().parent
BUILD = wl.ROOT / ".bench_build"
GOLDENS = BENCH / "goldens.json"
RUN_LIMIT_S = 170.0

#: End-to-end metrics: (name, unit).  ``failed_frac`` is in the results
#: JSON but not in BENCHMARK.json, whose metrics must never read 0.
END_TO_END = [("sweep_s", "s"), ("resweep_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
RESULT_METRICS = [*END_TO_END, ("failed_frac", "ratio")]
SCHEMA = "bench-results/1"


def _env() -> dict:
    return {
        **os.environ,
        "PYTHONPATH": str(wl.SRC),
        "PYTHONHASHSEED": "0",
        "REPRO_KERNEL_CACHE": str(BUILD / "kernel"),
        "TMPDIR": str(BUILD / "tmp"),
    }


def prepass(names: list[str], args) -> None:
    """Compile the lane kernel and fill the prep stores (untimed), in a
    child so that this process never imports the simulator."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workloads", ",".join(names),
           "--seed", str(args.seed), "--prep-dir", str(BUILD / "prep")]
    if args.smoke:
        cmd.append("--smoke")
    if subprocess.run(cmd, env=_env(), cwd=wl.ROOT, timeout=RUN_LIMIT_S).returncode != 0:
        raise SystemExit("error: the pre-pass failed")


def run_rep(name: str, args, rep: int, traced: bool, deadline: float | None) -> dict:
    """One rep in a fresh interpreter; returns its JSON report."""
    work = BUILD / "work" / f"{name}-{os.getpid()}-{rep}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(BENCH / "rep.py"), "--workload", name, "--seed", str(args.seed),
        "--budget", str(args.seconds / args.reps), "--rep", str(rep),
        "--trace", str(int(traced)), "--work-dir", str(work),
        "--prep-root", str(BUILD / "prep" / wl.resolve(name, args.smoke).config),
        "--trace-file", str(BUILD / "traces" / f"{name}-s{args.seed}-r{rep}.json"),
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            [*cmd, "--started", repr(time.perf_counter())], env=_env(), cwd=wl.ROOT,
            stdout=subprocess.PIPE, text=True,
            timeout=None if deadline is None else max(1.0, deadline - time.perf_counter()),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {name} rep {rep} exited with {proc.returncode}")
    return json.loads(lines[-1])


def aggregate(name: str, reps: list[dict], seed: int, smoke: bool, goldens: dict) -> dict:
    untraced = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    base = untraced or traced
    # A rep's timing is its fastest pass: on a shared host contention only
    # adds time.  Its set-up and peak memory are measured once.
    values = {
        "sweep_s": [min(r["sweep_s"]) for r in base],
        "resweep_s": [min(r["resweep_s"]) for r in base],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in base],
        "failed_frac": [r["failed"] / r["attempted"] for r in reps],
    }
    out = {
        "metrics": {m: summary(values[m], unit) for m, unit in RESULT_METRICS},
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "digest": reps[0]["digest"],
        "headline": reps[0]["headline"],
        "errors": [e for r in reps for e in r["errors"]],
    }
    if len({r["digest"] for r in reps}) != 1:
        out["errors"].append("reps produced different aggregates")
    expected = (goldens.get("smoke", {}).get(name) if smoke
                else goldens.get("full", {}).get(name, {}).get(str(seed)))
    out["golden"] = ("absent" if expected is None
                     else "match" if expected == out["digest"] else "mismatch")
    if out["golden"] == "mismatch":
        out["errors"].append(f"aggregates digest {out['digest']} != golden {expected}")
    if traced:
        units = {n: u for n, u, _ in spans.LAYER_METRICS}
        untraced_sweep = out["metrics"]["sweep_s"]["median"]
        for r in traced:
            r["layers"]["bench.trace_overhead_frac"] = (
                min(r["sweep_s"]) / untraced_sweep - 1.0 if untraced else 0.0
            )
        out["layers"] = {
            n: summary([r["layers"][n] for r in traced], units[n]) for n in units
        }
    out["correct"] = not out["errors"] and out["failed"] == 0
    return out


def print_workload(name: str, res: dict) -> None:
    print(f"== {name}")
    for group in ("metrics", "layers"):
        for metric, s in res.get(group, {}).items():
            print(f"  {metric:38s} {s['unit']:6s} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n {s['n']}")
    others = ", ".join(f"{p} {v:+.2%}" for p, v in res["headline"].items() if v is not None)
    print(f"  headline (mean speedup over shared): {others}")
    print(f"  aggregates {res['digest'][:16]}…  golden: {res['golden']}  "
          f"cells {res['attempted']} attempted, {res['failed']} failed")
    for error in res["errors"]:
        print(f"  ERROR: {error}")


def host_metadata() -> dict:
    def first_line(cmd: list[str]) -> str | None:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=wl.ROOT, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout else None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gcc": first_line(["gcc", "--version"]),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "platform": platform.platform(),
    }


def check_schema(results: dict) -> list[str]:
    """Problems with a results document (empty when it is well formed)."""
    problems = []
    if results.get("schema") != SCHEMA:
        problems.append(f"schema is {results.get('schema')!r}, expected {SCHEMA!r}")
    for name, res in results.get("workloads", {}).items():
        for key, kind in (("correct", bool), ("attempted", int), ("failed", int),
                          ("digest", str), ("golden", str), ("metrics", dict)):
            if not isinstance(res.get(key), kind):
                problems.append(f"{name}.{key} is not a {kind.__name__}")
        for metric, _ in RESULT_METRICS:
            s = res.get("metrics", {}).get(metric) or {}
            if not all(isinstance(s.get(k), (int, float)) for k in ("median", "q1", "q3", "n")):
                problems.append(f"{name}.metrics.{metric} is missing or malformed")
    if not results.get("workloads"):
        problems.append("no workloads")
    return problems


def smoke_problems(results: dict, goldens_required: bool = True) -> list[str]:
    problems = check_schema(results)
    for name, res in results["workloads"].items():
        if goldens_required and res["golden"] != "match":
            problems.append(f"{name}: smoke golden {res['golden']}")
        unaccounted = res.get("layers", {}).get("bench.unaccounted_frac", {}).get("median")
        if unaccounted is None or unaccounted > 0.10:
            problems.append(f"{name}: bench.unaccounted_frac {unaccounted} > 0.10")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="first grid seed S (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--reps", type=int, default=3, help="fresh interpreters per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced reps")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="quick-scale grids, one seed, one untraced and one traced rep")
    parser.add_argument("--out", default=None, help="write the results JSON here")
    parser.add_argument("--update-goldens", action="store_true",
                        help="record this run's aggregates digests in goldens.json")
    args = parser.parse_args(argv)

    if not (wl.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {wl.SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        args.reps, args.trace = 2, 1
        args.seconds = args.seconds if args.seconds is not None else 0.0
    if args.seconds is None:
        args.seconds = float(json.loads((wl.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    started = time.perf_counter()
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    prepass(names, args)
    stored = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    goldens = {} if args.update_goldens else stored  # record, do not check

    deadline = started + RUN_LIMIT_S if args.workload else None
    reps: dict[str, list[dict]] = {n: [] for n in names}
    for rep in range(args.reps):
        traced = bool(args.trace) and (rep % 2 == 1 or args.reps == 1)
        for name in names[rep % len(names):] + names[:rep % len(names)]:
            reps[name].append(run_rep(name, args, rep, traced, deadline))

    results = {
        "schema": SCHEMA,
        "settings": {"seed": args.seed, "reps": args.reps, "seconds": args.seconds,
                     "trace": args.trace, "smoke": args.smoke},
        "workloads": {n: aggregate(n, reps[n], args.seed, args.smoke, goldens) for n in names},
    }
    for name, res in results["workloads"].items():
        print_workload(name, res)
    problems = [f"{n}: {e}" for n, r in results["workloads"].items() for e in r["errors"]]
    if args.smoke:
        problems += smoke_problems(results, goldens_required=not args.update_goldens)
        print("smoke: " + ("ok" if not problems else "FAILED"))
    if args.update_goldens:
        for name, res in results["workloads"].items():
            if args.smoke:
                stored.setdefault("smoke", {})[name] = res["digest"]
            else:
                stored.setdefault("full", {}).setdefault(name, {})[str(args.seed)] = res["digest"]
        GOLDENS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    if args.out:
        results["host"] = host_metadata()
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {args.out}")

    ok = not problems and all(r["correct"] for r in results["workloads"].values())
    if args.workload:
        res = results["workloads"][args.workload]
        source = res.get("layers", {}) if args.trace else res["metrics"]
        wanted = [(n, u) for n, u, _ in spans.LAYER_METRICS] if args.trace else END_TO_END
        print(json.dumps({
            "correct": ok,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": source[n]["median"], "unit": u} for n, u in wanted},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
