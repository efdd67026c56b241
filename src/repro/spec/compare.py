"""``repro compare-runs``: diff two sweep result stores cell by cell.

Both sides are content-addressed :class:`~repro.exec.store.ResultStore`
trees (``<root>/v<version>/<digest[:2]>/<digest>.json``), so comparison
needs no manifest: a cell's key *is* its identity — the SHA-256 of its
``(app, policy, config)`` — and two runs of the same grid file the same
cells under the same keys.  The comparator:

* picks the **namespace** to compare (the version directories the two
  stores share; disjoint versions are *incomparable*, never a false
  "clean");
* classifies every cell key as ``equal`` / ``changed`` (a metric moved
  beyond its relative tolerance) / ``removed`` (in A only) / ``added``
  (in B only), scoping to a grid's keys when a spec is given — a store
  that shares no keys with the spec's grid is *incomparable* (foreign
  grid), not "clean";
* reports per-metric deltas (``total_cycles``, ``l2_misses``) against
  the tolerances, and never crashes on a malformed entry — unreadable
  payloads are counted and skipped.

Verdicts map to exit codes: ``clean`` → 0, ``regression`` (any changed
or removed cell) → 1, ``incomparable`` → 4.  The distinction matters in
CI: 4 means the comparison itself is invalid (wrong version, empty
store, foreign grid) and must not be read as "no regression".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.grid import SweepGrid
from repro.obs.metrics import METRICS

__all__ = ["CellDiff", "RunComparison", "compare_runs"]

METRIC_NAMES = ("total_cycles", "l2_misses")
# ``v<release><suffix>``; group 1 is the dotted integer release.
_NAMESPACE_RE = re.compile(r"^v((?:[0-9]+\.)*[0-9]+)[0-9A-Za-z.+-]*$")

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_INCOMPARABLE = 4


@dataclass(frozen=True)
class CellDiff:
    """One compared cell.  ``metrics`` maps metric name to
    ``{"a", "b", "delta", "rel", "tolerance", "beyond"}``."""

    key: str
    label: str  # "app/policy seed=S t=N" — how humans name the cell
    status: str  # equal | changed | added | removed
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "status": self.status,
            "metrics": self.metrics,
        }


@dataclass(frozen=True)
class RunComparison:
    """The outcome of :func:`compare_runs` (machine-readable throughout:
    ``to_dict()`` is the ``--json`` output, ``exit_code`` the process
    status)."""

    verdict: str  # clean | regression | incomparable
    reason: str | None  # why incomparable (None otherwise)
    namespace: str | None  # version namespace compared (vX.Y.Z)
    store_a: str
    store_b: str
    cells: tuple[CellDiff, ...] = ()
    skipped_a: int = 0  # unreadable entries ignored, per side
    skipped_b: int = 0
    tolerances: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.verdict == "incomparable":
            return EXIT_INCOMPARABLE
        return EXIT_REGRESSION if self.verdict == "regression" else EXIT_CLEAN

    def counts(self) -> dict:
        out = {"equal": 0, "changed": 0, "added": 0, "removed": 0}
        for cell in self.cells:
            out[cell.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "namespace": self.namespace,
            "store_a": self.store_a,
            "store_b": self.store_b,
            "counts": self.counts(),
            "skipped": {"a": self.skipped_a, "b": self.skipped_b},
            "tolerances": dict(self.tolerances),
            "cells": [c.to_dict() for c in self.cells if c.status != "equal"],
        }

    def format(self) -> str:
        """Human rendering: verdict, counts, and every non-equal cell with
        its offending metrics (named, so CI logs point at the exact cell)."""
        if self.verdict == "incomparable":
            return (
                f"compare-runs: incomparable — {self.reason}\n"
                f"  a: {self.store_a}\n  b: {self.store_b}"
            )
        counts = self.counts()
        lines = [
            f"compare-runs: {self.verdict} — "
            f"{counts['equal']} equal, {counts['changed']} changed, "
            f"{counts['added']} added, {counts['removed']} removed "
            f"(namespace {self.namespace})"
        ]
        for cell in self.cells:
            if cell.status == "equal":
                continue
            if cell.status in ("added", "removed"):
                lines.append(f"  {cell.status:<8} {cell.label}  [{cell.key[:12]}]")
                continue
            deltas = ", ".join(
                f"{name} {m['a']:g} -> {m['b']:g} "
                f"({m['rel']:+.3%} vs tol {m['tolerance']:.3%})"
                for name, m in sorted(cell.metrics.items())
                if m["beyond"]
            )
            lines.append(f"  changed  {cell.label}  {deltas}")
        if self.skipped_a or self.skipped_b:
            lines.append(
                f"  skipped unreadable entries: a={self.skipped_a} b={self.skipped_b}"
            )
        return "\n".join(lines)


def _incomparable(reason: str, a: Path, b: Path, namespace: str | None = None):
    METRICS.counter("compare.incomparable").inc()
    return RunComparison(
        verdict="incomparable",
        reason=reason,
        namespace=namespace,
        store_a=str(a),
        store_b=str(b),
    )


def _release_order(namespace: str) -> tuple:
    """Sort key for a namespace: the integers of its dotted release, so
    ``v1.10.0`` sorts after ``v1.9.0``; ties break by name."""
    release = _NAMESPACE_RE.match(namespace).group(1)
    return tuple(int(part) for part in release.split(".")), namespace


def _namespaces(root: Path) -> list[str]:
    if not root.is_dir():
        return []
    return sorted(
        (entry.name for entry in root.iterdir()
         if entry.is_dir() and _NAMESPACE_RE.match(entry.name)),
        key=_release_order,
    )


def _cell_metrics(result: dict) -> dict:
    return {
        "total_cycles": float(result["total_cycles"]),
        "l2_misses": float(sum(result["l2_totals"]["misses"])),
    }


def _read_cells(root: Path, namespace: str) -> tuple[dict, int]:
    """All readable cells under one version namespace:
    ``{digest: {"label", "metrics"}}`` plus the count of entries skipped
    as unreadable (bad JSON, missing fields, mis-keyed digests)."""
    cells: dict[str, dict] = {}
    skipped = 0
    for path in sorted((root / namespace).glob("*/*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            digest = payload["digest"]
            if digest != path.stem:
                raise ValueError("digest does not match file name")
            spec = payload["spec"]
            config = spec["config"]
            label = (
                f"{spec['app']}/{spec['policy']} "
                f"seed={config['seed']} t={config['n_threads']}"
            )
            cells[digest] = {"label": label, "metrics": _cell_metrics(payload["result"])}
        except Exception:  # noqa: BLE001 — any malformed entry is skipped, never fatal
            skipped += 1
    return cells, skipped


def compare_runs(
    store_a: str | Path,
    store_b: str | Path,
    *,
    grid: SweepGrid | None = None,
    tolerances: dict | None = None,
) -> RunComparison:
    """Diff result store ``a`` (the reference) against ``b`` (the
    candidate).  With a ``grid``, comparison is scoped to that grid's
    cell keys; without one, every key either store holds is compared.
    ``tolerances`` maps metric name → max relative delta (default 0.0 —
    byte-identical metrics or it's a change)."""
    a_root, b_root = Path(store_a), Path(store_b)
    tolerances = {name: float(tolerances.get(name, 0.0)) if tolerances else 0.0
                  for name in METRIC_NAMES}
    METRICS.counter("compare.runs").inc()

    for side, root in (("a", a_root), ("b", b_root)):
        if not root.is_dir():
            return _incomparable(f"store {side} does not exist: {root}", a_root, b_root)
    spaces_a, spaces_b = _namespaces(a_root), _namespaces(b_root)
    for side, spaces, root in (("a", spaces_a, a_root), ("b", spaces_b, b_root)):
        if not spaces:
            return _incomparable(
                f"store {side} is empty (no version namespace under {root})",
                a_root, b_root,
            )
    common = sorted(set(spaces_a) & set(spaces_b), key=_release_order)
    if not common:
        return _incomparable(
            "no common version namespace "
            f"(a has {', '.join(spaces_a)}; b has {', '.join(spaces_b)}) — "
            "the runs were produced by different simulator versions",
            a_root, b_root,
        )
    namespace = common[-1]  # newest shared version

    cells_a, skipped_a = _read_cells(a_root, namespace)
    cells_b, skipped_b = _read_cells(b_root, namespace)
    if not cells_a and not cells_b:
        return _incomparable(
            f"namespace {namespace} holds no readable cells in either store "
            f"(skipped a={skipped_a} b={skipped_b})",
            a_root, b_root, namespace,
        )

    if grid is not None:
        wanted = {spec.digest: spec.label for spec in grid.specs()}
        in_scope_a = wanted.keys() & cells_a.keys()
        in_scope_b = wanted.keys() & cells_b.keys()
        if not in_scope_a and not in_scope_b:
            return _incomparable(
                f"neither store holds any of the grid's {len(wanted)} cells — "
                "these stores belong to a different grid (foreign grid)",
                a_root, b_root, namespace,
            )
        keys = sorted(wanted)
    else:
        keys = sorted(cells_a.keys() | cells_b.keys())

    diffs: list[CellDiff] = []
    for key in keys:
        in_a, in_b = cells_a.get(key), cells_b.get(key)
        if in_a is None and in_b is None:
            continue  # grid cell neither run produced (e.g. never executed)
        if in_b is None:
            diffs.append(CellDiff(key=key, label=in_a["label"], status="removed"))
            continue
        if in_a is None:
            diffs.append(CellDiff(key=key, label=in_b["label"], status="added"))
            continue
        metrics = {}
        beyond_any = False
        for name in METRIC_NAMES:
            va, vb = in_a["metrics"][name], in_b["metrics"][name]
            delta = vb - va
            rel = delta / abs(va) if va else (0.0 if not vb else float("inf"))
            beyond = abs(rel) > tolerances[name]
            beyond_any = beyond_any or beyond
            metrics[name] = {
                "a": va, "b": vb, "delta": delta, "rel": rel,
                "tolerance": tolerances[name], "beyond": beyond,
            }
        diffs.append(
            CellDiff(
                key=key,
                label=in_a["label"],
                status="changed" if beyond_any else "equal",
                metrics=metrics,
            )
        )

    counts = {"equal": 0, "changed": 0, "added": 0, "removed": 0}
    for diff in diffs:
        counts[diff.status] += 1
        METRICS.counter(f"compare.cells.{diff.status}").inc()
    verdict = "regression" if counts["changed"] or counts["removed"] else "clean"
    return RunComparison(
        verdict=verdict,
        reason=None,
        namespace=namespace,
        store_a=str(a_root),
        store_b=str(b_root),
        cells=tuple(diffs),
        skipped_a=skipped_a,
        skipped_b=skipped_b,
        tolerances=tolerances,
    )
