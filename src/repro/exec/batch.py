"""Batch planner: group sweep cells that share one prepared program.

A sweep grid replays the same prepared program — same app, seed, thread
count, L1 geometry, timing — once per policy/L2-geometry cell.  When the
grid opts in (``cache_backend: "batch"``), the planner groups such cells
into multi-lane *units* so an engine can execute the whole group through
:func:`repro.sim.run_batch` in one pass: one program prep, one stream
materialisation, N byte-identical per-cell results.

The planner is deliberately conservative — batching is a pure
performance transformation, so anything that relies on per-cell
execution keeps it:

* cells whose backend is not ``"batch"`` are untouched;
* an active fault plan disables batching entirely (deterministic fault
  replay is keyed on per-job attempts);
* a custom ``job_runner`` disables batching (the runner contract is
  ``spec -> RunResult``; only the default runner is batch-equivalent);
* a cell whose prep key is unique in the batch stays a 1-lane unit and
  executes through the ordinary per-job path — where the ``"batch"``
  backend falls through to the fastpath kernel (``batch.fallback``
  counter), so an ineligible cell pays zero batching overhead.

Engines fan a unit's results back out into per-cell
:class:`~repro.exec.jobs.JobOutcome`\\ s, and narrate each cell's
``job_start``/``job_end`` whatever its unit, so the journal, result
store, tracer and spec comparator never see batches.  A unit that fails
as a whole, on either engine, is *decomposed*: its cells re-enter the
per-job retry path with their full attempt budget (``batch.failed``
counter; no ``exec.retries``).
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.core.records import RunResult
from repro.exec.jobs import JobSpec
from repro.obs.metrics import METRICS

__all__ = ["batch_key", "execute_batch", "plan_units"]

#: Config fields free to vary between lanes of one batch — everything
#: else shapes the prepared program (or is the program's identity).
_LANE_FIELDS = ("l2_geometry", "min_ways")


def batch_key(spec: JobSpec) -> tuple:
    """Prep-bundle identity of ``spec``: the app plus every config field
    that shapes the prepared program.  Cells with equal keys replay the
    same program and may share a batch."""
    cfg = spec.config.to_dict()
    for field in _LANE_FIELDS:
        cfg.pop(field, None)
    return (spec.app, json.dumps(cfg, sort_keys=True, separators=(",", ":")))


def plan_units(specs: Sequence[JobSpec]) -> list[tuple[int, ...]]:
    """Partition ``specs`` into execution units of spec indices.

    Cells opted into the ``"batch"`` backend group by :func:`batch_key`;
    everything else (and every unique-key cell) stays a 1-length unit.
    Units are ordered by their first cell's position and each unit keeps
    its cells in input order, so a batch-free plan degenerates to the
    identity ordering.
    """
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        key = batch_key(spec) if spec.config.cache_backend == "batch" else ("solo", i)
        groups.setdefault(key, []).append(i)
    units = sorted((tuple(idxs) for idxs in groups.values()), key=lambda u: u[0])
    batched = [u for u in units if len(u) >= 2]
    if batched:
        METRICS.counter("batch.planned").inc(len(batched))
        METRICS.counter("batch.cells_batched").inc(sum(len(u) for u in batched))
    return units


def execute_batch(specs: Sequence[JobSpec]) -> list[RunResult]:
    """Default batch runner: one batched simulation of every spec.

    Module-level (picklable) so pool engines can ship it to workers,
    mirroring :func:`repro.exec.engine.execute_job`.  Results come back
    in spec order, each byte-identical to ``execute_job`` on that spec.
    """
    from repro.sim.driver import run_batch

    specs = list(specs)
    return run_batch(specs[0].app, [(s.policy, s.config) for s in specs])
