"""Outside-in span tracing for the benchmark's traced runs.

The recorder wraps the public entry points of each layer by patching
module and class attributes from the benchmark's own code; nothing in
``src/`` changes.  ``repro.obs``'s tracer is deliberately not used:
enabling it switches batching off, so a traced run would no longer
execute the production path.

* A span is a dict: ``name``, ``pid``, ``id``, ``parent`` (id in the
  same process, or None), ``unit``, ``start``/``end`` (seconds on the
  system-wide monotonic clock, comparable across processes) and
  ``attrs``.
* The root span of a unit wraps ``execute_job`` / ``execute_batch``;
  every span opened inside it carries the unit's id (the digest of its
  first spec).
* Spans stay in memory.  A forked pool worker inherits the wrappers and
  appends its spans to ``spans-<pid>.jsonl`` in the spill directory after
  every unit; :meth:`Recorder.collect` merges those files.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Registry name -> partition layer label.
POLICY_LAYERS = {
    "shared": "static",
    "static-equal": "static",
    "cpi-proportional": "cpi_proportional",
    "model-based": "model_based",
    "throughput": "throughput",
    "fairness": "fairness",
}

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
COUNTED_LAYERS = (
    "trace.build_program",
    "l1.compile_program",
    "prep.get",
    "prep.put",
    "cache.replay_batch",
    "cache.replay_solo",
    "core.on_interval",
    "exec.store.put",
    "exec.store.get",
    "exec.journal.append",
)

#: Every per-layer metric: (name, unit, better).  The traced run prints
#: exactly these; BENCHMARK.json lists the same names.
LAYER_METRICS: list[tuple[str, str, str]] = [
    *(
        (f"{layer}.{kind}", unit, "lower")
        for layer in COUNTED_LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("prep.put.bytes", "bytes", "lower"),
    ("prep.compiled_from_bundle.self_s", "s", "lower"),
    ("prep.hit_ratio", "ratio", "higher"),
    ("sim.prepare_program.calls", "count", "lower"),
    ("sim.program_memo.hit_ratio", "ratio", "higher"),
    ("cache.lanes_per_replay", "count", "higher"),
    ("cache.l2_accesses", "count", "lower"),
    ("cache.ns_per_l2_access", "ns", "lower"),
    *(
        (f"partition.{p}.self_s", "s", "lower")
        for p in ("model_based", "throughput", "fairness", "cpi_proportional", "static")
    ),
    ("partition.model_based.us_per_call", "us", "lower"),
    ("exec.unit.self_s", "s", "lower"),
    ("exec.store.put.bytes", "bytes", "lower"),
    ("exec.batch.units", "count", "lower"),
    ("exec.batch.cells_per_unit", "count", "higher"),
    ("exec.pool.busy_frac", "ratio", "higher"),
    ("exec.pool.wait_s", "s", "lower"),
    ("resweep.exec.store.get.self_s", "s", "lower"),
    ("resweep.exec.store.get.frac", "ratio", "lower"),
    ("resweep.exec.journal.append.self_s", "s", "lower"),
    ("resweep.exec.store.hit_ratio", "ratio", "higher"),
    ("resweep.unaccounted_frac", "ratio", "lower"),
    ("bench.traced_sweep_s", "s", "lower"),
    ("bench.unaccounted_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
]


class Recorder:
    """In-memory span store for one process (and, via spill files, for
    the pool workers forked from it)."""

    def __init__(self, spill_dir: str | Path | None = None) -> None:
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.pid = self.coordinator_pid = os.getpid()
        self.spans: list[dict] = []
        self.unit: str | None = None
        self._stack: list[dict] = []
        self._next_id = 0

    def begin(self, name: str) -> dict:
        if os.getpid() != self.pid:
            # First span in a forked worker: the inherited spans and open
            # stack belong to the coordinator.
            self.pid = os.getpid()
            self.spans, self._stack, self.unit = [], [], None
        self._next_id += 1
        span = {
            "name": name,
            "pid": self.pid,
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "unit": self.unit,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def spill(self) -> None:
        """Append this worker's spans to its pid file and forget them."""
        if self.spill_dir is None or not self.spans:
            return
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> None:
        """Merge (and delete) every worker's spill file."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()

    def write_chrome(self, path: str | Path) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        events = [
            {
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": s["pid"],
                "tid": s["pid"],
                "args": {"id": s["id"], "parent": s["parent"], "unit": s["unit"], **s["attrs"]},
            }
            for s in self.spans
        ]
        Path(path).write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# -- instrumentation ------------------------------------------------------


def _span_wrapper(rec: Recorder, name: str, fn, attrs=None):
    """Wrap ``fn`` in a span; ``attrs(span, args, kwargs, result)`` fills
    the span's attributes after it closed, so its cost is not the layer's."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if attrs is not None:
            attrs(span, args, kwargs, result)
        return result

    return wrapper


def _unit_wrapper(rec: Recorder, fn, batched: bool):
    """Root span of one execution unit (``execute_batch`` or
    ``execute_job``); a forked worker spills after every unit."""

    @functools.wraps(fn)
    def wrapper(arg):
        specs = list(arg) if batched else [arg]
        span = rec.begin("exec.unit")
        rec.unit = span["unit"] = specs[0].digest
        span["attrs"]["cells"] = len(specs)
        try:
            return fn(specs if batched else arg)
        finally:
            rec.end(span)
            rec.unit = None
            if os.getpid() != rec.coordinator_pid:
                rec.spill()

    return wrapper


def _engine_wrapper(rec: Recorder, fn):
    """``ExecutionEngine.run``: records the worker count and the sum of
    ``JobOutcome.duration_s`` it hands to ``on_outcome``."""

    @functools.wraps(fn)
    def wrapper(self, specs, *, on_outcome=None):
        span = rec.begin("exec.engine.run")
        busy = [0.0]

        def counted(outcome):
            busy[0] += outcome.duration_s
            if on_outcome is not None:
                on_outcome(outcome)

        try:
            return fn(self, specs, on_outcome=counted)
        finally:
            rec.end(span)
            span["attrs"].update(jobs=getattr(self, "jobs", 1), busy_s=busy[0])

    return wrapper


def _hit(span, args, kwargs, result):
    span["attrs"]["hit"] = result is not None


def _prep_put_bytes(span, args, kwargs, result):
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    span["attrs"]["bytes"] = int(sum(a.nbytes for a in arrays.values()))


def _store_put_bytes(span, args, kwargs, result):
    try:
        span["attrs"]["bytes"] = os.path.getsize(result)
    except OSError:
        span["attrs"]["bytes"] = 0


def _batch_accesses(span, args, kwargs, result):
    span["attrs"]["lanes"] = len(args[1])
    span["attrs"]["accesses"] = sum(sum(r.l2_totals.accesses) for r in result)


def _solo_accesses(span, args, kwargs, result):
    span["attrs"]["accesses"] = sum(result.l2_totals.accesses)


def install(rec: Recorder):
    """Patch every layer's entry points to record into ``rec``; returns a
    callable that restores the originals.  Install before building an
    engine: engines capture the default job runner when constructed."""
    import repro.cache.batch as cache_batch
    import repro.exec.batch as exec_batch
    import repro.exec.engine as exec_engine
    import repro.prep as prep
    import repro.sim.driver as driver
    from repro.core.runtime import RuntimeSystem
    from repro.cpu.engine import CMPEngine
    from repro.exec.journal import SweepJournal
    from repro.exec.pool import ProcessPoolEngine
    from repro.exec.store import ResultStore
    from repro.partition import POLICY_REGISTRY
    from repro.prep.store import PrepStore

    spanned = [  # (owner, attribute, span name, attributes hook)
        (driver, "prepare_program", "sim.prepare_program", None),
        (driver, "build_program", "trace.build_program", None),
        (driver, "compile_program", "l1.compile_program", None),
        (prep, "compiled_from_bundle", "prep.compiled_from_bundle", None),
        (PrepStore, "get", "prep.get", _hit),
        (PrepStore, "put", "prep.put", _prep_put_bytes),
        (cache_batch, "replay_batch", "cache.replay_batch", _batch_accesses),
        (CMPEngine, "run", "cache.replay_solo", _solo_accesses),
        (RuntimeSystem, "on_interval", "core.on_interval", None),
        (ResultStore, "get", "exec.store.get", _hit),
        (ResultStore, "put", "exec.store.put", _store_put_bytes),
        (SweepJournal, "append", "exec.journal.append", None),
        *(
            (cls, "on_interval", f"partition.{POLICY_LAYERS[name]}", None)
            for name, cls in POLICY_REGISTRY.items()
        ),
    ]
    patches = [
        (owner, attr, _span_wrapper(rec, name, owner.__dict__[attr], attrs))
        for owner, attr, name, attrs in spanned
    ]
    patches += [
        (exec_engine, "execute_job", _unit_wrapper(rec, exec_engine.execute_job, False)),
        (exec_batch, "execute_batch", _unit_wrapper(rec, exec_batch.execute_batch, True)),
        *(
            (cls, "run", _engine_wrapper(rec, cls.__dict__["run"]))
            for cls in (exec_engine.SerialEngine, ProcessPoolEngine)
        ),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall


# -- accounting -----------------------------------------------------------


def _key(span: dict) -> tuple:
    return (span["pid"], span["id"])


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append((s["start"], s["end"]))
    return {
        _key(s): (s["end"] - s["start"]) - _covered(children[_key(s)], s["start"], s["end"])
        for s in spans
    }


def pass_metrics(spans: list[dict], root: dict, selfs: dict[tuple, float]) -> dict:
    """Per-layer metrics of one sweep pass: every span that started inside
    ``root``'s interval, in the coordinator or in a pool worker."""
    inside = [
        s for s in spans if s is not root and root["start"] <= s["start"] < root["end"]
    ]
    calls: Counter = Counter(s["name"] for s in inside)
    own: dict[str, float] = defaultdict(float)
    attr: dict[str, float] = defaultdict(float)
    parents = {(s["pid"], s["parent"]) for s in inside if s["parent"] is not None}
    memo_hits = 0
    for s in inside:
        own[s["name"]] += selfs[_key(s)]
        for k, v in s["attrs"].items():
            if isinstance(v, (int, float)):
                attr[f"{s['name']}.{k}"] += v
        if s["name"] == "sim.prepare_program" and _key(s) not in parents:
            memo_hits += 1  # a memo miss always asks the prep store
    wall = root["end"] - root["start"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in COUNTED_LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = own[layer]
    accesses = attr["cache.replay_batch.accesses"] + attr["cache.replay_solo.accesses"]
    engine_wall = sum(
        s["end"] - s["start"] for s in inside if s["name"] == "exec.engine.run"
    )
    jobs = max((s["attrs"].get("jobs", 1) for s in inside if s["name"] == "exec.engine.run"),
               default=1)
    m.update({
        "prep.put.bytes": attr["prep.put.bytes"],
        "prep.compiled_from_bundle.self_s": own["prep.compiled_from_bundle"],
        "prep.hit_ratio": ratio(attr["prep.get.hit"], calls["prep.get"]),
        "sim.prepare_program.calls": calls["sim.prepare_program"],
        "sim.program_memo.hit_ratio": ratio(memo_hits, calls["sim.prepare_program"]),
        "cache.lanes_per_replay": ratio(attr["cache.replay_batch.lanes"],
                                        calls["cache.replay_batch"]),
        "cache.l2_accesses": accesses,
        "cache.ns_per_l2_access": ratio(
            (own["cache.replay_batch"] + own["cache.replay_solo"]) * 1e9, accesses
        ),
        **{
            f"partition.{p}.self_s": own[f"partition.{p}"]
            for p in ("model_based", "throughput", "fairness", "cpi_proportional", "static")
        },
        "partition.model_based.us_per_call": ratio(
            own["partition.model_based"] * 1e6, calls["partition.model_based"]
        ),
        "exec.unit.self_s": own["exec.unit"],
        "exec.store.put.bytes": attr["exec.store.put.bytes"],
        "exec.batch.units": calls["exec.unit"],
        "exec.batch.cells_per_unit": ratio(attr["exec.unit.cells"], calls["exec.unit"]),
        "exec.pool.busy_frac": ratio(attr["exec.engine.run.busy_s"], jobs * engine_wall),
        "exec.pool.wait_s": own["exec.engine.run"],
        "bench.traced_sweep_s": wall,
        "bench.unaccounted_frac": ratio(selfs[_key(root)], wall),
    })
    return m


def resweep_metrics(spans: list[dict], root: dict, selfs: dict[tuple, float]) -> dict:
    """The store's read path: one resubmission of a completed grid."""
    inside = [s for s in spans if s is not root and root["start"] <= s["start"] < root["end"]]
    wall = root["end"] - root["start"]
    gets = [s for s in inside if s["name"] == "exec.store.get"]
    get_s = sum(selfs[_key(s)] for s in gets)
    return {
        "resweep.exec.store.get.self_s": get_s,
        "resweep.exec.store.get.frac": get_s / wall,
        "resweep.exec.journal.append.self_s": sum(
            selfs[_key(s)] for s in inside if s["name"] == "exec.journal.append"
        ),
        "resweep.exec.store.hit_ratio": (
            sum(1 for s in gets if s["attrs"].get("hit")) / len(gets) if gets else 0.0
        ),
        "resweep.unaccounted_frac": selfs[_key(root)] / wall,
    }
