"""Chaos suite: kill a sweep mid-flight, resume it, and demand the exact
result an uninterrupted run produces.

These tests drive the real CLI in subprocesses (a SIGKILL cannot be
simulated in-process) and pin the crash-safety contract from
``repro.exec.sweep``: ``SweepResult.aggregates()`` is byte-identical
between an uninterrupted sweep and a kill/resume of the same grid — under
the serial and pool engines, with and without injected faults — and a
resume recomputes nothing the journal already holds.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Aggregate keys that must survive a kill/resume byte-for-byte (wall_s,
# simulated, store_hits, resumed legitimately differ across a resume).
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

# Every cell fails its first attempt and succeeds on retry — deterministic,
# so the control and the kill/resume runs inject identically.
FAULT_PLAN = '{"seed": 7, "rules": [{"kind": "job-exception", "match": "*", "attempts": [1]}]}'


def _sweep_argv(journal: Path | None, *, jobs: int, faults: bool, resume: bool = False):
    argv = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "--apps",
        "ft",
        "cg",
        "--policies",
        "shared",
        "static-equal",
        "--intervals",
        "30",
        "--interval-instructions",
        "8000",
        "--jobs",
        str(jobs),
        "--json",
    ]
    if journal is not None:
        argv += ["--journal", str(journal)]
    if faults:
        argv += ["--faults", FAULT_PLAN]
    if resume:
        argv += ["--resume"]
    return argv


def _env():
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return env


def _run_cli(argv) -> dict:
    proc = subprocess.run(argv, capture_output=True, text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _journal_cells(path: Path) -> int:
    if not path.is_file():
        return 0
    try:
        return path.read_text(encoding="utf-8").count('"kind":"cell"')
    except OSError:
        return 0


def _live_group_members(pgid: int) -> list[int]:
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


def _kill_after_cells(argv, journal: Path, n_cells: int, sig=signal.SIGKILL) -> subprocess.Popen:
    """Start the sweep in its own process group and deliver ``sig`` to the
    coordinator alone once ``n_cells`` outcomes are durably journaled
    (i.e. genuinely mid-flight).

    Once the coordinator has exited, SIGKILL whatever is left of its
    group: the pool workers of a SIGKILLed ``--jobs 2`` coordinator
    would otherwise block forever.
    """
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
        start_new_session=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if _journal_cells(journal) >= n_cells:
            proc.send_signal(sig)
            break
        if proc.poll() is not None:  # finished before we could interrupt it
            break
        time.sleep(0.005)
    proc.wait(timeout=60)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while (survivors := _live_group_members(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not survivors, f"processes {survivors} of the killed sweep's group survived"
    return proc


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulty"])
def test_sigkill_then_resume_matches_uninterrupted(tmp_path, jobs, faults):
    control = _run_cli(_sweep_argv(None, jobs=jobs, faults=faults))
    assert control["n_failures"] == 0

    journal = tmp_path / "sweep.jsonl"
    victim = _kill_after_cells(
        _sweep_argv(journal, jobs=jobs, faults=faults), journal, n_cells=2
    )
    assert victim.returncode == -signal.SIGKILL, (
        f"sweep finished (rc={victim.returncode}) before the kill landed — "
        "the grid is too fast for a mid-flight SIGKILL; raise --intervals"
    )
    completed = _journal_cells(journal)
    assert 1 <= completed < 4, "the kill must land mid-sweep"

    resumed = _run_cli(_sweep_argv(journal, jobs=jobs, faults=faults, resume=True))
    # Zero recomputation of journaled cells...
    assert resumed["resumed"] == completed
    assert resumed["simulated"] == 4 - completed
    assert resumed["store_hits"] == 0
    # ...and byte-identical aggregates vs the uninterrupted control.
    for key in AGG_KEYS:
        assert json.dumps(resumed[key], sort_keys=True) == json.dumps(
            control[key], sort_keys=True
        ), f"aggregate {key!r} diverged across kill/resume"


def test_sigint_flushes_journal_and_exits_130(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    victim = _kill_after_cells(
        _sweep_argv(journal, jobs=1, faults=False), journal, n_cells=1, sig=signal.SIGINT
    )
    assert victim.returncode == 130, victim.stderr.read() if victim.stderr else ""
    stderr = victim.stderr.read()
    assert "interrupted by SIGINT" in stderr
    assert "--resume" in stderr
    completed = _journal_cells(journal)
    assert completed >= 1

    resumed = _run_cli(_sweep_argv(journal, jobs=1, faults=False, resume=True))
    assert resumed["resumed"] == completed
    assert resumed["n_failures"] == 0


def test_sigterm_is_handled_like_sigint(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    victim = _kill_after_cells(
        _sweep_argv(journal, jobs=1, faults=False), journal, n_cells=1, sig=signal.SIGTERM
    )
    assert victim.returncode == 130
    assert "interrupted by SIGTERM" in victim.stderr.read()
    assert _run_cli(_sweep_argv(journal, jobs=1, faults=False, resume=True))["n_failures"] == 0
