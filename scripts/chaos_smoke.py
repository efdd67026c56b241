#!/usr/bin/env python
"""Chaos smoke: kill sweep machinery mid-flight, resume, compare aggregates.

CI runs this as a single end-to-end proof of the crash-safety contract
outside the pytest harness, in two modes:

``--mode sweep`` (default) — the batch path:

1. run a small control sweep to completion (no journal) and keep its
   resume-invariant aggregates;
2. run the same grid with ``--journal`` in its own process group and
   SIGKILL the coordinator once at least one cell is durably journaled
   (genuinely mid-flight); then SIGKILL the rest of the group — the pool
   workers of a ``--jobs 2`` sweep outlive their coordinator otherwise —
   and fail if any of it survives;
3. ``--resume`` the journal and check that (a) every journaled cell was
   restored rather than recomputed and (b) the aggregates are
   byte-identical to the control's.

``--mode dist`` — the distributed path (DESIGN.md §G), two phases:

1. *worker death*: start two ``repro worker`` processes, run the grid
   with ``--workers``, SIGKILL one worker once at least one cell is
   journaled; the sweep must still exit 0 (the survivor absorbs the
   dead worker's jobs) with aggregates byte-identical to a serial
   control;
2. *coordinator death*: run the grid again against the surviving
   worker, SIGKILL the *coordinator* mid-sweep, then ``--resume`` the
   journal — journaled cells restore without recomputation and the
   final aggregates match the control byte-for-byte.  The resume is
   pointed at both worker addresses, so it also proves a dead address
   in the fleet is tolerated, not fatal.

Prints ``resumed=<n>`` and ``aggregates-match=yes`` on success (CI greps
for both); exits non-zero on any violation.

The default grid is built in; ``--spec FILE`` loads it from a checked-in
experiment spec instead (``specs/chaos_sweep.yaml`` is the canonical
one), so the chaos grid and the spec-driven grid are the same document.

Usage: PYTHONPATH=src python scripts/chaos_smoke.py [--jobs N] [--mode sweep|dist]
                                                    [--spec FILE]
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


def run_control(jobs: int) -> dict:
    return json.loads(
        subprocess.run(
            sweep_argv(jobs), capture_output=True, text=True, check=True, timeout=300
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
    control = run_control(jobs)
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


def start_worker(tmp: Path, idx: int) -> tuple[subprocess.Popen, int]:
    port_file = tmp / f"worker-port-{idx}-{time.monotonic_ns()}"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--port", "0", "--port-file", str(port_file),
            "--worker-id", f"chaos-w{idx}",
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if port_file.is_file() and port_file.read_text().strip():
            return proc, int(port_file.read_text().strip())
        if proc.poll() is not None:
            raise RuntimeError(f"worker {idx} died at startup (rc={proc.returncode})")
        time.sleep(0.02)
    proc.kill()
    raise RuntimeError(f"worker {idx} did not write its port file in time")


def dist_mode() -> int:
    control = run_control(1)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-dist-") as tmp_str:
        tmp = Path(tmp_str)
        workers = [start_worker(tmp, i) for i in range(2)]
        fleet = ",".join(f"127.0.0.1:{port}" for _proc, port in workers)
        try:
            # Phase 1: kill one worker mid-sweep; the survivor must
            # absorb its jobs and the sweep must still exit 0.
            journal = tmp / "dist-worker-kill.jsonl"
            victim = subprocess.Popen(
                sweep_argv(1, journal) + ["--workers", fleet],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            worker_killed = False
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal_cells(journal) >= 1:
                    workers[0][0].kill()
                    worker_killed = True
                    break
                if victim.poll() is not None:
                    break
                time.sleep(0.005)
            out, _ = victim.communicate(timeout=300)
            if not worker_killed:
                print(
                    "error: sweep finished before a worker could be killed "
                    "mid-flight; the grid is too fast for this host",
                    file=sys.stderr,
                )
                return 1
            if victim.returncode != 0:
                print(
                    f"error: remote sweep exited {victim.returncode} after a "
                    "worker was killed (want 0: the survivor absorbs the jobs)",
                    file=sys.stderr,
                )
                return 1
            survived = json.loads(out)
            print("worker killed mid-sweep; sweep completed on the survivor")
            rc = compare_aggregates(survived, control)
            if rc:
                return rc

            # Phase 2: SIGKILL the coordinator mid-sweep, then resume.
            # The fleet passed to the resume still names the dead
            # worker's address — a dead address must be tolerated.
            journal = tmp / "dist-coord-kill.jsonl"
            victim = subprocess.Popen(
                sweep_argv(1, journal) + ["--workers", fleet],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal_cells(journal) >= 2:
                    victim.send_signal(signal.SIGKILL)
                    break
                if victim.poll() is not None:
                    break
                time.sleep(0.005)
            victim.wait(timeout=60)
            if victim.returncode != -signal.SIGKILL:
                print(
                    f"error: coordinator finished (rc={victim.returncode}) "
                    "before the SIGKILL landed; the grid is too fast to kill "
                    "mid-flight",
                    file=sys.stderr,
                )
                return 1
            completed = journal_cells(journal)
            print(f"coordinator killed mid-flight with {completed} cell(s) journaled")

            resumed = json.loads(
                subprocess.run(
                    sweep_argv(1, journal, resume=True) + ["--workers", fleet],
                    capture_output=True, text=True, check=True, timeout=300,
                ).stdout
            )
        finally:
            for proc, _port in workers:
                if proc.poll() is None:
                    proc.terminate()
            for proc, _port in workers:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()

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
        "--mode", choices=("sweep", "dist"), default="sweep",
        help="kill the batch CLI (sweep, default) or workers and the "
        "coordinator of a distributed sweep (dist)",
    )
    parser.add_argument(
        "--spec", metavar="FILE", default=None,
        help="load the chaos grid from an experiment spec "
        "(e.g. specs/chaos_sweep.yaml) instead of the built-in grid",
    )
    args = parser.parse_args()
    if args.spec:
        load_grid_from_spec(args.spec)
    if args.mode == "sweep":
        return sweep_mode(args.jobs)
    return dist_mode()


if __name__ == "__main__":
    sys.exit(main())
