"""One rep of one workload, in a fresh interpreter (started by run.py).

The report is one JSON object on the last stdout line.  Set-up is timed
from the moment the parent launched this process (``--started``, on the
system-wide monotonic clock) to the end of imports, the compiled lane
kernel's dlopen and one tiny warm-up unit (through a pool for
``fig22.pool``), so lazy imports are paid before timing starts.

A pass is one sweep of the grid into an empty result store with a fresh
journal, followed by ``RESWEEPS`` resubmissions against the now-full
store, each with a fresh journal.  Passes repeat until ``--budget``
seconds are spent (at least one).  Before each sweep the in-process
program memo is dropped and a new prep-store instance is installed, so
every sweep starts as a fresh ``repro sweep`` invocation would: on a
warm (or, for ``prep.cold``, empty) on-disk prep store.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import spans
import workloads as wl
from stats import median

sys.path.insert(0, str(wl.SRC))

RESWEEPS = 5


def _without_source(aggregates: dict) -> dict:
    return {
        **aggregates,
        "cells": [{k: v for k, v in c.items() if k != "source"} for c in aggregates["cells"]],
    }


def _quiesce() -> None:
    """Untimed, before every timed sweep: write back dirty pages (the
    previous pass's bundles and stores) so their writeback does not
    compete with the next pass's journal fsyncs, and collect garbage so
    every pass starts from the same collector state."""
    os.sync()
    gc.collect()


def _setup(w: wl.Workload) -> None:
    from repro.cache.batchkernel import load_kernel
    from repro.exec.engine import SerialEngine
    from repro.exec.pool import ProcessPoolEngine
    from repro.exec.sweep import expand_grid
    from repro.prep import set_prep_store
    from repro.sim.driver import clear_program_cache

    if load_kernel() is None:
        raise SystemExit("the compiled lane kernel is unavailable (no C compiler?)")
    set_prep_store(None)
    tiny = wl.system_config("quick_eight" if w.pool else "quick").with_(n_intervals=2)
    specs = expand_grid(["ft"], list(w.policies), [1], [tiny.n_threads], tiny)
    if w.pool:
        with ProcessPoolEngine(jobs=wl.POOL_JOBS) as engine:
            engine.run(specs)
    else:
        SerialEngine().run(specs)
    clear_program_cache()


def _spot_check(spec, store) -> str | None:
    """Regenerate one stored cell's program and replay it solo on the
    ``fast`` backend: the batched result must be byte-identical."""
    from repro.prep import set_prep_store
    from repro.sim.driver import run_application

    set_prep_store(None)
    solo = run_application(spec.app, spec.policy, spec.config.with_(cache_backend="fast"))
    batched = store.get(spec)
    if batched is None or json.dumps(batched.to_dict(), sort_keys=True) != json.dumps(
        solo.to_dict(), sort_keys=True
    ):
        return f"{spec.label} seed {spec.config.seed}: batch result differs from the fast backend"
    return None


def run(args) -> dict:
    w = wl.resolve(args.workload, args.smoke)
    work = Path(args.work_dir)
    _setup(w)
    setup_s = time.perf_counter() - args.started

    from repro.exec.engine import SerialEngine
    from repro.exec.pool import ProcessPoolEngine
    from repro.exec.store import ResultStore
    from repro.exec.sweep import expand_grid, run_sweep
    from repro.prep import PrepStore, set_prep_store
    from repro.sim.driver import clear_program_cache

    rec = uninstall = None
    if args.trace:
        spill = work / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        rec = spans.Recorder(spill)
        uninstall = spans.install(rec)

    def timed(name: str, **kwargs):
        root = rec.begin(name) if rec else None
        start = time.perf_counter()
        try:
            return run_sweep(**grid, **kwargs), time.perf_counter() - start, root
        finally:
            if rec:
                rec.end(root)

    grid = wl.grid_kwargs(w, args.seed)
    specs = expand_grid(grid["apps"], grid["policies"], grid["seeds"],
                        grid["thread_counts"], grid["config"])
    out = {"sweep_s": [], "resweep_s": [], "attempted": 0, "failed": 0, "errors": []}
    sweep_roots, resweep_roots = [], []
    digest = headline = None
    deadline = time.perf_counter() + args.budget
    passes = 0
    while True:
        pass_start = time.perf_counter()
        store_dir = work / f"store-{passes}"
        prep_root = Path(args.prep_root) if w.warm_prep else work / f"prep-{passes}"
        clear_program_cache()
        set_prep_store(PrepStore(prep_root))
        engine = ProcessPoolEngine(jobs=wl.POOL_JOBS) if w.pool else SerialEngine()
        store = ResultStore(store_dir)
        _quiesce()
        try:
            result, wall, root = timed(
                "sweep", engine=engine, store=store, journal=work / f"journal-{passes}.jsonl"
            )
        finally:
            if w.pool:
                engine.close()
        sweep_roots.append(root)
        out["sweep_s"].append(wall)
        out["attempted"] += len(result.cells)
        out["failed"] += len(result.failures)
        aggregates = result.aggregates()
        if result.failures:
            out["errors"].append(f"{len(result.failures)} failed cells: "
                                 + "; ".join(str(c.error) for c in result.failures[:3]))
        if len(result.cells) != w.n_cells() or result.simulated != w.n_cells():
            out["errors"].append(f"sweep simulated {result.simulated} of {w.n_cells()} cells")
        if not w.warm_prep:
            # Drop the fresh bundles before their writeback can stall the
            # resubmissions' journal fsyncs; resubmissions never read them.
            shutil.rmtree(prep_root, ignore_errors=True)
        this = wl.digest(aggregates)
        if digest is None:
            digest = this
            headline = {p: result.policy_mean_speedup(p) for p in w.policies
                        if p != result.baseline}
        elif this != digest:
            out["errors"].append(f"pass {passes} aggregates differ from pass 0")
        for r in range(RESWEEPS):
            _quiesce()
            again, wall, root = timed(
                "resweep", engine=SerialEngine(), store=ResultStore(store_dir),
                journal=work / f"journal-{passes}-{r}.jsonl",
            )
            resweep_roots.append(root)
            out["resweep_s"].append(wall)
            out["attempted"] += len(again.cells)
            out["failed"] += len(again.failures)
            if again.store_hits != w.n_cells():
                out["errors"].append(f"resweep hit the store for {again.store_hits} cells")
            if _without_source(again.aggregates()) != _without_source(aggregates):
                out["errors"].append("resweep aggregates differ from the sweep's")
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) / 2 > deadline:  # another pass would mostly overrun
            break
        shutil.rmtree(store_dir, ignore_errors=True)

    if uninstall:
        uninstall()
    # Read the peak before the spot check, whose solo replay is not part
    # of the workload.
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if args.rep == 0:
        problem = _spot_check(specs[args.seed * 7 % len(specs)], store)
        if problem:
            out["errors"].append(problem)
    out.update(setup_s=setup_s, rss_mb=(self_kib + child_kib) / 1024, digest=digest,
               headline=headline)
    if rec:
        out["layers"] = _layers(rec, sweep_roots, resweep_roots, Path(args.trace_file))
    return out


def _layers(rec, sweep_roots, resweep_roots, trace_path: Path) -> dict:
    """Per-layer metrics (the median over passes of each pass's value);
    writes the rep's spans to ``trace_path``."""
    rec.collect()
    selfs = spans.self_times(rec.spans)
    per_pass = [spans.pass_metrics(rec.spans, r, selfs) for r in sweep_roots]
    per_resweep = [spans.resweep_metrics(rec.spans, r, selfs) for r in resweep_roots]
    layers = {
        name: median([m[name] for m in rows])
        for rows in (per_pass, per_resweep)
        for name in rows[0]
    }
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write_chrome(trace_path)
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--prep-root", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="perf_counter() reading when the parent launched this rep")
    args = parser.parse_args(argv)
    out = run(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
