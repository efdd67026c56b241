"""Persistent, content-addressed result store.

Layout (one JSON blob per result, fanned out over 256 shard namespaces to
keep directory listings small)::

    <root>/v<repro version>/<digest[:2]>/<digest>.json

``digest`` is :attr:`repro.exec.jobs.JobSpec.digest` — the SHA-256 of the
canonical JSON of ``(app, policy, config)``.  Addressing by content means
there is no index to maintain or corrupt: a lookup is a single read.

The store's *persistence* is a pluggable :class:`repro.exec.backend
.StoreBackend` — the default :class:`~repro.exec.backend.LocalDirBackend`
keeps the historical on-disk layout byte-for-byte, and tests plug in the
in-memory :class:`~repro.exec.backend.MemoryBackend`.  Three rules keep
any backend safe to share between invocations (and between processes
writing concurrently):

* **atomic publish** — the backend's ``write`` is atomic, so a reader
  never sees a half-written payload and concurrent writers of the same
  key simply race to publish identical bytes;
* **invalidation by version** — entries live under a ``v<version>``
  namespace and embed the version; any change to ``repro.__version__``
  orphans the old namespace wholesale (stale results can never leak
  across simulator changes);
* **corruption recovery** — an unreadable, mis-keyed or truncated entry is
  deleted and reported as a miss, never an error: the worst case is one
  recomputation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import repro
from repro.core.records import RunResult
from repro.exec.backend import LocalDirBackend, StoreBackend
from repro.exec.faults import maybe_corrupt_blob
from repro.exec.jobs import JobSpec
from repro.obs.events import StoreHitEvent, StoreMissEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

__all__ = ["DEFAULT_STALE_TTL_S", "ResultStore"]

DEFAULT_STALE_TTL_S = 3600.0
"""Staging files older than this are presumed orphaned by a dead writer.

Generous on purpose: a live ``put`` holds its staging file for
milliseconds, so anything this old can only be the residue of a process
that was SIGKILLed mid-publish."""


class ResultStore:
    """Cache of :class:`~repro.core.records.RunResult` by job digest.

    Counters (``hits``, ``misses``, ``writes``, ``corrupt``) accumulate over
    the store's lifetime; the CLI surfaces them under ``-v`` so a warm run
    can be *verified* to have simulated nothing.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        version: str | None = None,
        stale_ttl_s: float = DEFAULT_STALE_TTL_S,
        backend: StoreBackend | None = None,
    ) -> None:
        self.root = Path(os.fspath(root))
        self.backend = backend if backend is not None else LocalDirBackend(self.root)
        self.version = version if version is not None else repro.__version__
        self.stale_ttl_s = stale_ttl_s
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.stale_swept = 0
        # Startup sweep: repeated hard-killed runs must not fill the disk
        # with orphaned staging files (a put that died between staging
        # and publish leaves one behind).
        self.sweep_stale()

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{self.version}"

    def key_for(self, spec: JobSpec) -> str:
        """The backend key for ``spec`` — relative POSIX path, version-
        namespaced, sharded by the digest's first byte."""
        digest = spec.digest
        return f"v{self.version}/{digest[:2]}/{digest}.json"

    def path_for(self, spec: JobSpec) -> Path:
        """Where a local-dir backend files ``spec`` (path arithmetic only;
        a memory backend has no local file here)."""
        digest = spec.digest
        return self.version_dir / digest[:2] / f"{digest}.json"

    def get(self, spec: JobSpec) -> RunResult | None:
        """Fetch the stored result for ``spec``, or None on miss.

        A corrupt entry (bad JSON, wrong version, digest/spec mismatch) is
        deleted and counted in ``corrupt`` as well as ``misses``.
        """
        key = self.key_for(spec)
        try:
            data = self.backend.read(key)
        except OSError:
            return self._evict_corrupt(key, spec)
        if data is None:
            self.misses += 1
            METRICS.counter("store.misses").inc()
            self._trace_miss(spec)
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
            if payload["version"] != self.version or payload["spec"] != spec.canonical():
                return self._evict_corrupt(key, spec)
            result = RunResult.from_dict(payload["result"])
        except Exception:  # noqa: BLE001 — any malformed payload is corruption
            return self._evict_corrupt(key, spec)
        self.hits += 1
        METRICS.counter("store.hits").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(StoreHitEvent(label=spec.label, digest=spec.digest))
        return result

    @METRICS.timed("store.put")
    def put(self, spec: JobSpec, result: RunResult) -> Path:
        """Persist ``result`` under ``spec``'s digest (atomic publish).

        Safe under concurrent writers of the same key: the backend's
        write is atomic and every writer of one digest carries identical
        bytes, so the entry holds one writer's complete payload whoever
        wins.  Returns where a local backend filed it (nominal for a
        memory backend).
        """
        payload = {
            "version": self.version,
            "spec": spec.canonical(),
            "digest": spec.digest,
            "result": result.to_dict(),
        }
        key = self.key_for(spec)
        self.backend.write(key, json.dumps(payload, separators=(",", ":")).encode("utf-8"))
        self.writes += 1
        maybe_corrupt_blob(self.backend, key, spec.label)
        return self.path_for(spec)

    def sweep_stale(self, ttl_s: float | None = None) -> int:
        """Delete staging files orphaned by writers that died mid-``put``.

        Only files older than ``ttl_s`` (default: the store's
        ``stale_ttl_s``) go — a *live* concurrent writer's staging file
        is at most milliseconds old and is left alone.  Returns the
        count removed (also accumulated in ``stale_swept`` and the
        ``store.stale_swept`` metric).  Backends without staging residue
        (memory) always report zero.
        """
        ttl = self.stale_ttl_s if ttl_s is None else ttl_s
        removed = self.backend.sweep_stale(f"v{self.version}", ttl)
        if removed:
            self.stale_swept += removed
            METRICS.counter("store.stale_swept").inc(removed)
        return removed

    def __contains__(self, spec: JobSpec) -> bool:
        return self.backend.exists(self.key_for(spec))

    def __len__(self) -> int:
        """Number of entries stored for the current version."""
        return sum(
            1 for key in self.backend.list(f"v{self.version}") if key.endswith(".json")
        )

    def clear(self) -> int:
        """Delete every entry for the current version; returns the count.

        Also sweeps staging files abandoned by writers that died mid-put
        (they are invisible to readers but would otherwise accumulate).
        """
        removed = 0
        for key in self.backend.list(f"v{self.version}"):
            name = key.rsplit("/", 1)[-1]
            if key.endswith(".json"):
                if self.backend.delete(key):
                    removed += 1
            elif name.startswith(".put-"):
                self.backend.delete(key)
        return removed

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "stale_swept": self.stale_swept,
        }

    def _trace_miss(self, spec: JobSpec, *, corrupt: bool = False) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(StoreMissEvent(label=spec.label, digest=spec.digest, corrupt=corrupt))

    def _evict_corrupt(self, key: str, spec: JobSpec) -> None:
        self.corrupt += 1
        self.misses += 1
        METRICS.counter("store.misses").inc()
        METRICS.counter("store.corrupt").inc()
        self._trace_miss(spec, corrupt=True)
        self.backend.delete(key)
        return None
