"""Trace exporters: JSONL reading, Chrome ``trace_event`` JSON, text report.

Three consumers of the event stream:

* :func:`read_events` — parse a JSONL trace back into the list of dicts
  the tracers wrote (the common input of everything below);
* :func:`chrome_trace` / :func:`write_chrome_trace` — convert to the
  Chrome ``trace_event`` array format, loadable in ``chrome://tracing``
  and https://ui.perfetto.dev: jobs and spans become duration ("X")
  events, per-interval CPI/ways/convergence become counter ("C") tracks
  so the trajectories plot directly, everything else becomes instants;
* :func:`summarize` — the plain-text report behind ``repro report``:
  per-run CPI trajectories, repartition frequency and triggers,
  model-prediction error, convergence, top-N slowest jobs, time-in-phase
  breakdown, store traffic and the metrics snapshot.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from pathlib import Path

__all__ = ["chrome_trace", "read_events", "summarize", "write_chrome_trace"]

_SIM_TID = 1
_EXEC_TID = 2


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file into event dicts (in file order).

    Raises ``ValueError`` for a Chrome-format trace (which is lossy and
    not meant to be read back) or for a malformed line.
    """
    path = Path(path)
    records: list[dict] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1 and line.startswith("["):
                raise ValueError(
                    f"{path} looks like a Chrome trace (JSON array); the report "
                    "reads JSONL traces — re-run with --trace-format jsonl, or "
                    "load this file in chrome://tracing / Perfetto instead"
                )
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})") from None
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError(f"{path}:{lineno}: not a trace event (no 'kind')")
            records.append(record)
    return records


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace(records: list[dict]) -> list[dict]:
    """Convert event dicts to a Chrome ``trace_event`` array."""
    out: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": _SIM_TID,
         "args": {"name": "simulation"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": _EXEC_TID,
         "args": {"name": "execution"}},
    ]
    for rec in records:
        kind = rec.get("kind")
        ts = _us(rec.get("ts", 0.0))
        if kind == "interval":
            run = f"{rec['app']}/{rec['policy']}"
            out.append({
                "name": f"cpi {run}", "cat": "sim", "ph": "C", "ts": ts,
                "pid": 1, "tid": _SIM_TID,
                "args": {f"t{t}": v for t, v in enumerate(rec["cpi"])},
            })
            out.append({
                "name": f"ways {run}", "cat": "sim", "ph": "C", "ts": ts,
                "pid": 1, "tid": _SIM_TID,
                "args": {f"t{t}": v for t, v in enumerate(rec["ways"])},
            })
        elif kind == "convergence":
            out.append({
                "name": f"convergence {rec['app']}/{rec['policy']}", "cat": "sim",
                "ph": "C", "ts": ts, "pid": 1, "tid": _SIM_TID,
                "args": {"mean_distance": rec["mean_distance"],
                         "max_distance": rec["max_distance"]},
            })
        elif kind == "repartition":
            out.append({
                "name": "repartition", "cat": "sim", "ph": "i", "s": "t",
                "ts": ts, "pid": 1, "tid": _SIM_TID,
                "args": {"old": rec["old"], "new": rec["new"],
                         "trigger": rec["trigger"], "moved_ways": rec["moved_ways"]},
            })
        elif kind == "job_end":
            dur = rec.get("duration_s", 0.0)
            out.append({
                "name": rec["label"], "cat": "exec", "ph": "X",
                "ts": _us(max(rec.get("ts", 0.0) - dur, 0.0)), "dur": _us(dur),
                "pid": 1, "tid": _EXEC_TID,
                "args": {"engine": rec["engine"], "ok": rec["ok"],
                         "attempts": rec["attempts"], "error": rec.get("error")},
            })
        elif kind == "span":
            dur = rec.get("duration_s", 0.0)
            out.append({
                "name": rec["name"], "cat": "phase", "ph": "X",
                "ts": _us(max(rec.get("ts", 0.0) - dur, 0.0)), "dur": _us(dur),
                "pid": 1, "tid": _EXEC_TID, "args": {},
            })
        elif kind in (
            "job_start", "retry", "store_hit", "store_miss", "metrics",
            "engine_degraded", "fault_injected", "interrupt",
            "worker_join", "worker_lost", "job_shipped",
        ):
            args = {k: v for k, v in rec.items() if k not in ("kind", "ts")}
            out.append({
                "name": kind, "cat": "exec", "ph": "i", "s": "t", "ts": ts,
                "pid": 1, "tid": _EXEC_TID, "args": args,
            })
    return out


def write_chrome_trace(path: str | Path, records: list[dict]) -> None:
    """Write ``records`` as a ``trace_event`` JSON array to ``path``."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(chrome_trace(records), fh, separators=(",", ":"))
        fh.write("\n")


# ----------------------------------------------------------------------
# Text report
# ----------------------------------------------------------------------
def _series(values: list[float], points: int = 12) -> str:
    """Downsample a numeric series to <= ``points`` evenly spaced samples."""
    if not values:
        return "(empty)"
    if len(values) <= points:
        picked = values
    else:
        step = (len(values) - 1) / (points - 1)
        picked = [values[round(i * step)] for i in range(points)]
    rendered = " ".join(f"{v:.2f}" for v in picked)
    suffix = f"  ({len(values)} intervals)" if len(values) > points else ""
    return rendered + suffix


def _run_section(app: str, policy: str, records: list[dict], lines: list[str]) -> None:
    intervals = [r for r in records
                 if r["kind"] == "interval" and r["app"] == app and r["policy"] == policy]
    repartitions = [r for r in records
                    if r["kind"] == "repartition" and r["app"] == app and r["policy"] == policy]
    convergences = [r for r in records
                    if r["kind"] == "convergence" and r["app"] == app and r["policy"] == policy]
    n_threads = len(intervals[0]["cpi"])
    lines.append(f"run {app}/{policy}: {len(intervals)} intervals")
    lines.append("  per-thread CPI trajectory:")
    for t in range(n_threads):
        series = [r["cpi"][t] for r in intervals]
        lines.append(
            f"    t{t}: {_series(series)}   "
            f"min {min(series):.2f} mean {sum(series) / len(series):.2f} max {max(series):.2f}"
        )
    crit = TallyCounter(r["critical_thread"] for r in intervals)
    crit_str = ", ".join(f"t{t}x{c}" for t, c in crit.most_common())
    lines.append(f"  critical thread by interval: {crit_str}")

    errors = []
    for r in intervals:
        pred = r.get("predicted_cpi")
        if pred is None:
            continue
        for p, o in zip(pred, r["cpi"]):
            if o > 0:
                errors.append(abs(p - o) / o)
    if errors:
        lines.append(
            f"  model prediction error (|predicted-observed|/observed): "
            f"mean {sum(errors) / len(errors):.1%} over {len(errors)} thread-intervals"
        )

    if repartitions:
        triggers = TallyCounter(r["trigger"] for r in repartitions)
        trig_str = ", ".join(f"{k}={v}" for k, v in triggers.most_common())
        moved = sum(r["moved_ways"] for r in repartitions)
        lines.append(
            f"  repartitions: {len(repartitions)} over {len(intervals)} intervals "
            f"({trig_str}), {moved} ways moved, final targets {repartitions[-1]['new']}"
        )
    else:
        lines.append("  repartitions: 0")
    if convergences:
        last = convergences[-1]
        lines.append(
            f"  convergence: final mean distance {last['mean_distance']:.2f} ways/set, "
            f"{last['converged_sets']}/{last['total_sets']} sets at target"
        )


def summarize(records: list[dict], *, top: int = 5) -> str:
    """Render the plain-text report for a list of event dicts."""
    lines: list[str] = []
    kinds = TallyCounter(r["kind"] for r in records)
    span_s = max((r.get("ts", 0.0) for r in records), default=0.0)
    kind_str = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    lines.append(f"trace: {len(records)} events over {span_s:.2f}s  ({kind_str})")

    runs = list(dict.fromkeys(
        (r["app"], r["policy"]) for r in records if r["kind"] == "interval"
    ))
    for app, policy in runs:
        lines.append("")
        _run_section(app, policy, records, lines)

    job_ends = [r for r in records if r["kind"] == "job_end"]
    if job_ends:
        ok = [r for r in job_ends if r["ok"]]
        failed = [r for r in job_ends if not r["ok"]]
        retries = kinds.get("retry", 0)
        lines.append("")
        lines.append(f"jobs: {len(ok)} completed, {len(failed)} failed, {retries} retried attempts")
        slowest = sorted(ok, key=lambda r: r["duration_s"], reverse=True)[:top]
        if slowest:
            lines.append(f"  slowest {len(slowest)} jobs:")
            for i, r in enumerate(slowest, start=1):
                lines.append(
                    f"    {i}. {r['label']:<28} {r['duration_s']:8.3f}s  "
                    f"({r['attempts']} attempt(s), {r['engine']})"
                )
        for r in failed:
            lines.append(f"  FAILED {r['label']}: {r.get('error')}")

    joins = [r for r in records if r["kind"] == "worker_join"]
    losses = [r for r in records if r["kind"] == "worker_lost"]
    shipped = [r for r in records if r["kind"] == "job_shipped"]
    if joins or losses or shipped:
        lines.append("")
        lines.append(
            f"distributed: {len(joins)} worker join(s), {len(losses)} worker "
            f"loss(es), {len(shipped)} job(s) shipped"
        )
        by_worker = TallyCounter(r["worker"] for r in shipped)
        for worker, count in by_worker.most_common():
            lines.append(f"  {worker:<28} {count} job(s)")
        for r in losses:
            lines.append(
                f"  LOST {r['worker']} at {r['address']}: {r['reason']} "
                f"({r.get('requeued', 0)} job(s) requeued)"
            )

    degraded = [r for r in records if r["kind"] == "engine_degraded"]
    if degraded:
        lines.append("")
        lines.append(f"engine degradations: {len(degraded)}")
        for r in degraded:
            lines.append(f"  WARNING {r['engine']} degraded to serial: {r['reason']}")

    faults = [r for r in records if r["kind"] == "fault_injected"]
    if faults:
        by_fault = TallyCounter(r["fault"] for r in faults)
        detail = ", ".join(f"{k}={v}" for k, v in sorted(by_fault.items()))
        lines.append("")
        lines.append(f"injected faults: {len(faults)} ({detail})")

    interrupts = [r for r in records if r["kind"] == "interrupt"]
    for r in interrupts:
        lines.append("")
        lines.append(
            f"interrupted by {r['signal']}: {r['completed']} cell(s) journaled "
            "before the stop (resume with `repro sweep --resume`)"
        )

    spans = [r for r in records if r["kind"] == "span"]
    if spans:
        totals: dict[str, list[float]] = {}
        for r in spans:
            totals.setdefault(r["name"], []).append(r["duration_s"])
        grand = sum(sum(v) for v in totals.values())
        lines.append("")
        lines.append("time in phase:")
        for name, durs in sorted(totals.items(), key=lambda kv: sum(kv[1]), reverse=True):
            total = sum(durs)
            share = total / grand if grand > 0 else 0.0
            lines.append(f"  {name:<24} {total:8.3f}s  {share:5.1%}  ({len(durs)} span(s))")

    hits = kinds.get("store_hit", 0)
    misses = kinds.get("store_miss", 0)
    if hits or misses:
        corrupt = sum(1 for r in records if r["kind"] == "store_miss" and r.get("corrupt"))
        lines.append("")
        lines.append(f"result store: {hits} hits, {misses} misses ({corrupt} corrupt)")

    metrics = [r for r in records if r["kind"] == "metrics"]
    if metrics:
        snap = metrics[-1]["snapshot"]
        counters = snap.get("counters", {})
        store_stale = counters.get("store.stale_swept", 0)
        prep_stale = counters.get("prep.stale_swept", 0)
        if store_stale or prep_stale:
            lines.append("")
            lines.append(
                f"stale artifacts swept: {store_stale} result(s), "
                f"{prep_stale} prepared program(s) — staged temp dirs left by "
                "crashed writers, reclaimed"
            )
        spec_runs = counters.get("spec.runs", 0)
        cmp_runs = counters.get("compare.runs", 0)
        if spec_runs or cmp_runs:
            lines.append("")
            lines.append("declarative experiments:")
            if spec_runs:
                lines.append(
                    f"  spec runs: {spec_runs} "
                    f"({counters.get('spec.smoke_runs', 0)} smoke), "
                    f"{counters.get('spec.expectation_failures', 0)} "
                    "expectation violation(s)"
                )
            if cmp_runs:
                lines.append(
                    f"  comparisons: {cmp_runs} "
                    f"({counters.get('compare.incomparable', 0)} incomparable) — "
                    f"cells equal={counters.get('compare.cells.equal', 0)} "
                    f"changed={counters.get('compare.cells.changed', 0)} "
                    f"added={counters.get('compare.cells.added', 0)} "
                    f"removed={counters.get('compare.cells.removed', 0)}"
                )
        lines.append("")
        lines.append("metrics:")
        for name, value in sorted(snap.get("counters", {}).items()):
            lines.append(f"  {name:<36} {value}")
        for name, value in sorted(snap.get("gauges", {}).items()):
            lines.append(f"  {name:<36} {value:g}")
        for name, agg in sorted(snap.get("timers", {}).items()):
            lines.append(
                f"  {name:<36} n={agg['count']} total={agg['total_s']:.3f}s "
                f"mean={agg['mean_s']:.4f}s max={agg['max_s']:.4f}s"
            )
    return "\n".join(lines)
