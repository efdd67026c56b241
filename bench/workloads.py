"""The benchmark's four workloads.

Each is a closed loop: one client submits one grid through
``repro.exec.sweep.run_sweep`` and waits for it.  Every grid uses the
production ``"batch"`` cache backend; the grid seeds are ``S, S+1, …``
from the benchmark's ``--seed``.  README.md records why each workload
exists and which layer it exercises or bypasses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every application of the paper's evaluation, in sweep order.
APPS = ("applu", "art", "cg", "equake", "ft", "mg", "mgrid", "swim", "wupwise")
FIGS_POLICIES = ("shared", "static-equal", "throughput", "model-based")
POOL_POLICIES = ("shared", "static-equal", "model-based", "fairness", "cpi-proportional")
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    apps: tuple[str, ...]
    policies: tuple[str, ...]
    n_seeds: int
    config: str  # a system_config() name
    pool: bool  # ProcessPoolEngine(jobs=POOL_JOBS), else SerialEngine
    warm_prep: bool  # prep store filled before timing, else empty per sweep

    def seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.n_seeds)]

    def smoke(self) -> "Workload":
        """The same grid at ``SystemConfig.quick()`` with one seed."""
        return replace(
            self, n_seeds=1, config="quick_eight" if self.config == "eight_core" else "quick"
        )

    def n_cells(self) -> int:
        return len(self.apps) * len(self.policies) * self.n_seeds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figs19-21.warm", APPS, FIGS_POLICIES, 1, "default", False, True),
        Workload("prep.cold", APPS, ("shared", "static-equal"), 1, "default", False, False),
        Workload("fig22.pool", APPS, POOL_POLICIES, 1, "eight_core", True, True),
        Workload("cells.small", ("ft", "cg"), FIGS_POLICIES, 32, "quick", False, True),
    )
}


def system_config(name: str):
    """``SystemConfig`` factory by name (``quick_eight`` is the 8-thread
    quick configuration the smoke run of ``fig22.pool`` uses)."""
    from repro.sim.config import SystemConfig

    if name == "quick_eight":
        return SystemConfig.quick(n_threads=8).with_(cache_backend="batch")
    return getattr(SystemConfig, name)().with_(cache_backend="batch")


def resolve(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    return w.smoke() if smoke else w


def grid_kwargs(w: Workload, seed: int) -> dict:
    """Keyword arguments of ``run_sweep`` for this workload and seed."""
    config = system_config(w.config)
    return {
        "apps": list(w.apps),
        "policies": list(w.policies),
        "seeds": w.seeds(seed),
        "thread_counts": [config.n_threads],
        "config": config,
    }


def digest(aggregates: dict) -> str:
    """SHA-256 of the canonical JSON of ``SweepResult.aggregates()``."""
    canonical = json.dumps(aggregates, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def warm_one(app: str, config, prep_root: Path) -> None:
    """Publish one program's stream bundle (a pool task).  The trace
    bundle a sweep would also publish is skipped to save disk: a warm
    sweep never reads it."""
    from repro.prep import PrepStore, set_prep_store, stream_bundle, stream_key
    from repro.sim.driver import prepare_program
    from repro.trace.workloads import get_workload

    set_prep_store(None)
    compiled = prepare_program(app, config)
    arrays, meta = stream_bundle(compiled, config.timing, config.l2_geometry.offset_bits)
    PrepStore(prep_root).put(stream_key(get_workload(app), config), arrays, meta)


def warm_plan(workloads: list[Workload], seed: int, prep_dir: Path) -> list[tuple]:
    """Prune each warm prep root to the programs these grids need and
    return ``(app, config, root)`` for the ones it lacks.  Roots are
    per configuration, so runs of different workloads keep each other's
    bundles while a new seed replaces the old one's."""
    from repro.prep import PrepStore, stream_key
    from repro.trace.workloads import get_workload

    wanted: dict[Path, dict[Path, tuple]] = {}
    for w in workloads:
        if not w.warm_prep:
            continue
        root = prep_dir / w.config
        store = PrepStore(root)
        config = system_config(w.config)
        for app in w.apps:
            for s in w.seeds(seed):
                cfg = config.with_(seed=s)
                path = store.path_for(stream_key(get_workload(app), cfg))
                wanted.setdefault(root, {})[path] = (app, cfg, root)
    missing = []
    for root, paths in wanted.items():
        for bundle in root.glob("v*/*/*"):
            if bundle not in paths:
                shutil.rmtree(bundle, ignore_errors=True)
        missing += [task for path, task in paths.items() if not (path / "meta.json").is_file()]
    return missing


def main(argv: list[str] | None = None) -> int:
    """The untimed pre-pass: compile the C lane kernel and fill the warm
    prep stores (both paid once per machine, not per sweep)."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--prep-dir", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.cache.batchkernel import load_kernel

    if load_kernel() is None:
        print("error: cannot build the C lane kernel (is a C compiler installed?)",
              file=sys.stderr)
        return 1
    chosen = [resolve(n, args.smoke) for n in args.workloads.split(",")]
    missing = warm_plan(chosen, args.seed, Path(args.prep_dir))
    if missing:
        with ProcessPoolExecutor(POOL_JOBS, mp_context=get_context("spawn")) as pool:
            for future in [pool.submit(warm_one, *task) for task in missing]:
                future.result()
        os.sync()  # the writeback of fresh bundles must not overlap the timed reps
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
