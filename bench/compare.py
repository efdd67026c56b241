"""Compare two results files of bench/run.py: parent (A) against change (B).

Usage::

    python3 bench/compare.py A.json B.json

For each workload and end-to-end metric it prints both sides' median,
quartiles and sample count, and a verdict:

* ``unresolved`` — either side's interquartile range exceeds the metric's
  tolerance, unless every sample of B beats every sample of A;
* ``worse`` — B's median is worse than A's by more than the tolerance;
* ``better`` — B wins at least 9 of 10 sample pairs (ties count for
  neither) and the medians differ by more than A's interquartile range;
* ``unchanged`` — otherwise.

The tolerance is the metric's ``bound`` in BENCHMARK.json times A's
median, but at least the metric's floor below; ``failed_frac`` tolerates
no increase.  When both files come from traced runs, a table of per-layer
self-time deltas follows.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Absolute tolerance floors (seconds) for metrics whose medians are small.
FLOORS = {"resweep_s": 0.02, "setup_s": 0.1}


def verdict(a: dict, b: dict, bound: float, better: str, floor: float = 0.0) -> str:
    """Verdict for one metric from two summaries (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    tolerance = max(bound * abs(a["median"]), floor)
    worsening = sign * (b["median"] - a["median"])
    pairs = list(zip(a["samples"], b["samples"]))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    b_beats_all = (max(b["samples"]) < min(a["samples"]) if sign > 0
                   else min(b["samples"]) > max(a["samples"]))
    a_iqr = a["q3"] - a["q1"]
    if a_iqr > tolerance or b["q3"] - b["q1"] > tolerance:
        return "better" if b_beats_all else "unresolved"
    if worsening > tolerance:
        return "worse"
    if pairs and wins >= 0.9 * len(pairs) and -worsening > a_iqr:
        return "better"
    return "unchanged"


def _fmt(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"


def compare(a: dict, b: dict, bounds: dict) -> list[tuple[str, str, str]]:
    """Print the verdict table; return (workload, metric, verdict) rows."""
    rows = []
    print(f"{'workload':16s} {'metric':12s} {'A (parent)':40s} {'B (change)':40s} verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (bound, better) in bounds.items():
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                continue
            sa, sb = wa["metrics"][metric], wb["metrics"][metric]
            v = verdict(sa, sb, bound, better, FLOORS.get(metric, 0.0))
            rows.append((name, metric, v))
            print(f"{name:16s} {metric:12s} {_fmt(sa):40s} {_fmt(sb):40s} {v}")
    return rows


def compare_layers(a: dict, b: dict) -> None:
    print(f"\n{'workload':16s} {'layer self time':36s} "
          f"{'A (s)':>10s} {'B (s)':>10s} {'delta (s)':>10s}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        la, lb = a["workloads"][name].get("layers"), b["workloads"][name].get("layers")
        if not la or not lb:
            continue
        for metric in la:
            if metric.endswith(".self_s") and metric in lb:
                ma, mb = la[metric]["median"], lb[metric]["median"]
                if ma or mb:
                    print(f"{name:16s} {metric:36s} {ma:10.4f} {mb:10.4f} {mb - ma:+10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="results JSON of the parent commit")
    parser.add_argument("b", help="results JSON of the change")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds["failed_frac"] = (0.0, "lower")
    if {k: v for k, v in a["settings"].items() if k != "trace"} != {
        k: v for k, v in b["settings"].items() if k != "trace"
    }:
        print(f"warning: settings differ: {a['settings']} vs {b['settings']}", file=sys.stderr)
    rows = compare(a, b, bounds)
    compare_layers(a, b)
    return 1 if any(v == "worse" for _, _, v in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
