#!/usr/bin/env python
"""Chaos smoke: kill a sweep mid-flight, resume, compare aggregates.

CI runs this as a single end-to-end proof of the crash-safety contract
outside the pytest harness:

1. run a small control sweep to completion, serially (``--jobs 1``, no
   journal), and keep its resume-invariant aggregates; so a ``--jobs 2``
   run is also checked against the serial engine;
2. run the same grid with ``--jobs N`` and ``--journal`` in its own
   process group and SIGKILL the coordinator once at least one cell is
   durably journaled (genuinely mid-flight); then SIGKILL the rest of
   the group — the pool workers of a ``--jobs 2`` sweep outlive their
   coordinator otherwise — and fail if any of it survives;
3. ``--resume`` the journal and check that (a) every journaled cell was
   restored rather than recomputed and (b) the aggregates are
   byte-identical to the control's.

Prints ``resumed=<n>`` and ``aggregates-match=yes`` on success (CI greps
for both); exits non-zero on any violation.

The default grid is built in; ``--spec FILE`` loads it from a checked-in
experiment spec instead (``specs/chaos_sweep.yaml`` is the canonical
one), so the chaos grid and the spec-driven grid are the same document.

Usage: PYTHONPATH=src python scripts/chaos_smoke.py [--jobs N] [--spec FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

AGG_KEYS = (
    "apps",
    "policies",
    "seeds",
    "thread_counts",
    "baseline",
    "n_failures",
    "baseline_missing",
    "cells",
    "mean_speedups",
)

GRID = {
    "apps": ["ft", "cg"],
    "policies": ["shared", "static-equal"],
    "intervals": 30,
    "interval_instructions": 8000,
}


def load_grid_from_spec(path: str) -> None:
    """Replace the built-in GRID with the grid block of a spec file."""
    from repro.spec import load_spec

    grid = load_spec(path).grid
    GRID.clear()
    GRID.update(
        apps=list(grid.apps),
        policies=list(grid.policies),
        seeds=list(grid.seeds),
        thread_counts=list(grid.thread_counts),
        intervals=grid.intervals,
        interval_instructions=grid.interval_instructions,
    )


def sweep_argv(jobs: int, journal: Path | None = None, resume: bool = False) -> list[str]:
    argv = [
        sys.executable, "-m", "repro", "sweep",
        "--apps", *GRID["apps"],
        "--policies", *GRID["policies"],
        "--intervals", str(GRID["intervals"]),
        "--interval-instructions", str(GRID["interval_instructions"]),
        "--jobs", str(jobs), "--json",
    ]
    if "seeds" in GRID:
        argv += ["--seeds", *map(str, GRID["seeds"])]
    if "thread_counts" in GRID:
        argv += ["--thread-counts", *map(str, GRID["thread_counts"])]
    if journal is not None:
        argv += ["--journal", str(journal)]
    if resume:
        argv += ["--resume"]
    return argv


def journal_cells(path: Path) -> int:
    try:
        return path.read_text(encoding="utf-8").count('"kind":"cell"')
    except OSError:
        return 0


def run_control() -> dict:
    """The uninterrupted control: always serial, so a pooled victim's
    aggregates are checked against the serial engine's."""
    return json.loads(
        subprocess.run(
            sweep_argv(1), capture_output=True, text=True, check=True, timeout=300
        ).stdout
    )


def live_group_members(pgid: int) -> list[int]:
    """PIDs of the processes in group ``pgid`` that are not zombies."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        # After the parenthesised command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


def kill_group(pgid: int) -> list[int]:
    """SIGKILL what is left of process group ``pgid``; return the PIDs
    still alive (not zombies) after a grace period."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while (survivors := live_group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return survivors


def compare_aggregates(final: dict, control: dict) -> int:
    mismatched = [
        key
        for key in AGG_KEYS
        if json.dumps(final[key], sort_keys=True) != json.dumps(control[key], sort_keys=True)
    ]
    if mismatched:
        print(f"aggregates-match=no ({', '.join(mismatched)} diverged)", file=sys.stderr)
        return 1
    print("aggregates-match=yes")
    return 0


def sweep_mode(jobs: int) -> int:
    control = run_control()
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        journal = Path(tmp) / "sweep.jsonl"
        # Its own session: the coordinator's pool workers join its group.
        victim = subprocess.Popen(
            sweep_argv(jobs, journal), stdout=subprocess.DEVNULL, start_new_session=True
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if journal_cells(journal) >= 2:
                victim.send_signal(signal.SIGKILL)  # the coordinator alone
                break
            if victim.poll() is not None:
                break
            time.sleep(0.005)
        victim.wait(timeout=60)
        survivors = kill_group(victim.pid)
        if survivors:
            print(
                f"error: processes {survivors} of the killed sweep's group survived",
                file=sys.stderr,
            )
            return 1
        if victim.returncode != -signal.SIGKILL:
            print(
                f"error: sweep finished (rc={victim.returncode}) before the "
                "SIGKILL landed; the grid is too fast to kill mid-flight",
                file=sys.stderr,
            )
            return 1
        completed = journal_cells(journal)
        print(f"killed mid-flight with {completed} cell(s) journaled")

        resumed = json.loads(
            subprocess.run(
                sweep_argv(jobs, journal, resume=True),
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            ).stdout
        )

    print(f"resumed={resumed['resumed']} simulated={resumed['simulated']}")
    if resumed["resumed"] != completed:
        print(
            f"error: {completed} cells were journaled but only "
            f"{resumed['resumed']} restored",
            file=sys.stderr,
        )
        return 1
    return compare_aggregates(resumed, control)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--spec", metavar="FILE", default=None,
        help="load the chaos grid from an experiment spec "
        "(e.g. specs/chaos_sweep.yaml) instead of the built-in grid",
    )
    args = parser.parse_args()
    if args.spec:
        load_grid_from_spec(args.spec)
    return sweep_mode(args.jobs)


if __name__ == "__main__":
    sys.exit(main())
