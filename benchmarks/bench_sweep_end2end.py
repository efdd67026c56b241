"""End-to-end sweep benchmark: no prep cache vs. cold store vs. warm store.

Unlike ``bench_cache_kernel.py`` (engine-only), this measures the *whole*
job — trace generation, L1 filtering, replay — exactly what a sweep pays
per (app, policy) when every job lands in a worker process without a
compiled-program memo.  In-process caches (the program memo, the fastpath
prep slots) are cleared before every measured run, so each number models
the per-(job x process) cost:

``none``
    No prep store configured — the pre-1.4 behaviour: every job
    regenerates and re-filters its program.
``cold``
    Prep store configured but empty (cleared before each run): the job
    pays generation *plus* artifact publication.  The interesting number
    is the overhead over ``none``.
``warm``
    Prep store populated: the job reconstructs its program from mmapped
    artifacts, skipping generation and the (dominant) L1 filter.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_end2end.py          # BENCH.md table
    PYTHONPATH=src python benchmarks/bench_sweep_end2end.py --smoke  # CI guard

Pass ``--json PATH`` with any mode to persist the measurements (plus
host metadata) as a machine-readable artifact; the checked-in copies
follow the ``BENCH_<version>.json`` naming convention.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.cache import fastpath
from repro.prep import PrepStore, set_prep_store
from repro.sim.config import SystemConfig
from repro.sim.driver import clear_program_cache, run_application

FOUR_CORE_APPS = ("swim", "art", "equake")
FOUR_CORE_POLICIES = ("model-based", "shared", "static-equal", "throughput")
EIGHT_CORE_POLICIES = ("model-based", "fairness", "cpi-proportional")

MODES = ("none", "cold", "warm")


def _clear_inprocess_caches() -> None:
    """Drop every per-process cache so a run models a fresh worker."""
    clear_program_cache()
    fastpath._PREP_CACHE[:] = [None, None, {}]


def _time_job(app: str, policy: str, config: SystemConfig) -> tuple[float, str]:
    _clear_inprocess_caches()
    start = time.perf_counter()
    result = run_application(app, policy, config)
    elapsed = time.perf_counter() - start
    return elapsed, json.dumps(result.to_dict(), sort_keys=True)


def measure(
    config: SystemConfig, apps, policies, root: Path, reps: int = 3
) -> tuple[dict, dict]:
    """Best-of-``reps`` end-to-end seconds per (app, policy, mode).

    Returns ``(times, digests)``; the digests let the caller assert the
    three modes produced byte-identical results.
    """
    times: dict[tuple[str, str], dict[str, float]] = {}
    digests: dict[tuple[str, str], dict[str, str]] = {}
    store = PrepStore(root)
    for app in apps:
        for policy in policies:
            times[app, policy] = {}
            digests[app, policy] = {}
            for mode in MODES:
                best = float("inf")
                for _ in range(reps):
                    if mode == "none":
                        set_prep_store(None)
                    elif mode == "cold":
                        store.clear()
                        set_prep_store(PrepStore(root))
                    else:  # warm: bundles on disk, a fresh store instance
                        set_prep_store(PrepStore(root))
                    elapsed, digest = _time_job(app, policy, config)
                    best = min(best, elapsed)
                times[app, policy][mode] = best
                digests[app, policy][mode] = digest
            # ``warm`` must have found bundles: the cold reps above left
            # the store populated.
    set_prep_store(None)
    return times, digests


def check_equivalence(digests: dict) -> None:
    for combo, by_mode in digests.items():
        if len(set(by_mode.values())) != 1:
            raise SystemExit(f"results diverged across modes for {combo}: {by_mode}")


def report(title: str, times: dict) -> tuple[float, float]:
    totals = {mode: sum(r[mode] for r in times.values()) for mode in MODES}
    print(f"\n{title}")
    for (app, policy), r in times.items():
        print(
            f"  {app:8s} {policy:16s} none={r['none']:.3f}s cold={r['cold']:.3f}s "
            f"warm={r['warm']:.3f}s  warm-speedup={r['none'] / r['warm']:.2f}x"
        )
    speedup = totals["none"] / totals["warm"]
    overhead = totals["cold"] / totals["none"] - 1.0
    print(
        f"  aggregate: none={totals['none']:.2f}s cold={totals['cold']:.2f}s "
        f"warm={totals['warm']:.2f}s  warm-speedup={speedup:.2f}x "
        f"cold-overhead={overhead:+.1%}"
    )
    return speedup, overhead


def _rows_payload(times: dict) -> list[dict]:
    return [
        {
            "app": app,
            "policy": policy,
            **{f"{mode}_s": r[mode] for mode in MODES},
            "warm_speedup": r["none"] / r["warm"],
        }
        for (app, policy), r in times.items()
    ]


def write_json(path: str, payload: dict) -> None:
    """Persist measurements as ``BENCH_<version>.json``-style artifact."""
    import os
    import platform

    from repro import __version__

    payload = {
        "benchmark": "bench_sweep_end2end",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "repro_version": __version__,
        },
        **payload,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")


def run_smoke(root: Path, json_path: str | None = None) -> int:
    """CI guard at quick scale: equivalence across modes, a working warm
    path (>= 1 prep hit), and a warm run that is not slower than no-cache
    by more than noise allows."""
    config = SystemConfig.quick()
    times, digests = measure(
        config, ("swim", "art"), ("model-based", "shared"), root, reps=2
    )
    check_equivalence(digests)
    speedup, overhead = report("smoke (SystemConfig.quick)", times)

    # The warm path must actually hit the store: the first run publishes
    # (cold reps above may have cleared this combo's bundles), the second
    # — a fresh worker, in-process caches dropped — must hit.
    store = PrepStore(root)
    set_prep_store(store)
    _clear_inprocess_caches()
    run_application("swim", "model-based", config)
    _clear_inprocess_caches()
    run_application("swim", "model-based", config)
    set_prep_store(None)
    if json_path:
        write_json(
            json_path,
            {
                "mode": "smoke",
                "config": "quick",
                "combos": _rows_payload(times),
                "aggregate": {"warm_speedup": speedup, "cold_overhead": overhead},
            },
        )
    if store.stats()["hits"] < 1:
        print("smoke FAIL: warm run reported no prep-cache hits", file=sys.stderr)
        return 1
    print(
        f"\nsmoke ok: byte-identical across modes, warm hits={store.stats()['hits']}, "
        f"warm-speedup={speedup:.2f}x"
    )
    return 0


def run_full(root: Path, json_path: str | None = None) -> int:
    four, dig4 = measure(SystemConfig.default(), FOUR_CORE_APPS, FOUR_CORE_POLICIES, root)
    check_equivalence(dig4)
    s4, o4 = report("4-core (SystemConfig.default, Figs. 19-21 slice)", four)
    eight, dig8 = measure(SystemConfig.eight_core(), ("art",), EIGHT_CORE_POLICIES, root)
    check_equivalence(dig8)
    s8, o8 = report("8-core (SystemConfig.eight_core, Fig. 22 slice)", eight)
    print(
        f"\nheadline: warm-store end-to-end speedup 4-core {s4:.2f}x / 8-core {s8:.2f}x, "
        f"cold-store overhead 4-core {o4:+.1%} / 8-core {o8:+.1%} "
        f"(per-job, in-process caches cleared, best of 3)"
    )
    if json_path:
        write_json(
            json_path,
            {
                "mode": "full",
                "four_core": {
                    "combos": _rows_payload(four),
                    "aggregate": {"warm_speedup": s4, "cold_overhead": o4},
                },
                "eight_core": {
                    "combos": _rows_payload(eight),
                    "aggregate": {"warm_speedup": s8, "cold_overhead": o8},
                },
            },
        )
    return 0


def run_from_spec(path: str, root: Path, json_path: str | None = None) -> int:
    """Benchmark the slice a checked-in experiment spec describes:
    every (app x policy) of its grid, per thread count, through the same
    none/cold/warm modes — so BENCH.md tables can cite the spec file that
    produced them instead of flags."""
    from repro.spec import load_spec

    spec = load_spec(path)
    grid = spec.grid
    slices = []
    for n_threads in grid.thread_counts:
        config = grid.config().with_(n_threads=n_threads)
        times, digests = measure(config, grid.apps, grid.policies, root)
        check_equivalence(digests)
        speedup, overhead = report(f"{spec.name or path} (t={n_threads}, spec: {path})", times)
        slices.append(
            {
                "n_threads": n_threads,
                "combos": _rows_payload(times),
                "aggregate": {"warm_speedup": speedup, "cold_overhead": overhead},
            }
        )
    if json_path:
        write_json(json_path, {"mode": "spec", "spec": path, "slices": slices})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI-scale run with correctness assertions",
    )
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="benchmark the grid of an experiment spec (e.g. "
        "specs/fig19_vs_private.yaml) instead of the built-in slices",
    )
    parser.add_argument(
        "--prep-dir", default=None, metavar="DIR",
        help="store root to benchmark against (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="write the measurements as JSON (convention: BENCH_<version>.json)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-bench-prep-") as tmp:
        root = Path(args.prep_dir) if args.prep_dir else Path(tmp)
        if args.smoke:
            return run_smoke(root, args.json_path)
        if args.spec:
            return run_from_spec(args.spec, root, args.json_path)
        return run_full(root, args.json_path)


if __name__ == "__main__":
    raise SystemExit(main())
