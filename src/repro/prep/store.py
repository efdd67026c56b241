"""Content-addressed, on-disk prepared-program artifact store.

A *bundle* is a directory of memory-mappable ``.npy`` arrays plus a
``meta.json`` manifest, addressed by the SHA-256 of the canonical JSON of
its key (the same content-addressing discipline as
:class:`repro.exec.store.ResultStore`)::

    <root>/v<repro version>/<digest[:2]>/<digest>/
        meta.json
        <array>.npy ...

Three rules make the store safe to share between processes (a sweep's
worker pool all read and write the same root concurrently):

* **atomic publish** — a bundle is staged in a hidden temporary directory
  inside its shard and ``os.rename``-d into place; a reader never sees a
  partial bundle, and when two writers race the loser simply discards its
  staging directory (the bytes are identical by construction);
* **invalidation by version** — bundles live under ``v<version>`` and
  embed both the version and the full key, so a ``repro.__version__``
  bump orphans the namespace wholesale and a key collision can never
  alias distinct preparations;
* **corruption recovery** — an unreadable, mis-keyed or truncated bundle
  is deleted and reported as a miss (``prep.corrupt``), never an error:
  the worst case is one regeneration.

Arrays are opened with ``np.load(mmap_mode="r")`` and handed out as
plain ``ndarray`` views of the mappings (each view's ``.base`` keeps its
mapping alive): the OS page cache backs every mapping, so worker
processes replaying the same program share the clean pages instead of
each materialising a private copy, and slicing a view skips
``np.memmap``'s Python-level ``__getitem__``/``__array_finalize__``.
The store keeps no bundle: a mapping is unmapped when its consumer drops
the last view of it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

DEFAULT_STALE_TTL_S = 3600.0
"""Staging directories older than this are presumed orphaned (a publisher
holds its staging dir for at most the few ms between mkdtemp and rename,
so anything this old belongs to a writer that was hard-killed)."""

__all__ = [
    "PrepBundle",
    "PrepStore",
    "configure_prep",
    "get_prep_store",
    "key_digest",
    "set_prep_store",
]

_META_NAME = "meta.json"


def key_digest(key: dict) -> str:
    """SHA-256 of the canonical JSON form of a bundle key."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class PrepBundle:
    """One materialised artifact bundle: mmapped arrays plus its manifest."""

    __slots__ = ("digest", "meta", "arrays", "nbytes")

    def __init__(self, digest: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        self.digest = digest
        self.meta = meta
        self.arrays = arrays
        self.nbytes = int(sum(a.nbytes for a in arrays.values()))


class PrepStore:
    """On-disk cache of prepared-program bundles.

    Every :meth:`get` maps the bundle from disk and keeps nothing, so a
    mapping lives exactly as long as its consumer; the OS page cache
    serves repeat gets.  Counters (``hits``, ``misses``, ``writes``,
    ``corrupt``, ``races``) accumulate over the store's lifetime; the CLI
    surfaces them under ``-v``.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        version: str | None = None,
        stale_ttl_s: float = DEFAULT_STALE_TTL_S,
    ) -> None:
        self.root = Path(root)
        self.version = version if version is not None else repro.__version__
        self.stale_ttl_s = stale_ttl_s
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.races = 0
        self.stale_swept = 0
        # Startup sweep: staging dirs orphaned by hard-killed publishers
        # must not accumulate across repeatedly crashed runs.
        self.sweep_stale()

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{self.version}"

    def path_for(self, key: dict) -> Path:
        digest = key_digest(key)
        return self.version_dir / digest[:2] / digest

    def get(self, key: dict) -> PrepBundle | None:
        """Fetch the bundle for ``key``, or None on miss.

        A corrupt bundle (bad manifest, wrong version, key mismatch,
        missing or mis-shaped array) is deleted and counted in
        ``corrupt`` as well as ``misses``.
        """
        digest = key_digest(key)
        path = self.version_dir / digest[:2] / digest
        try:
            with (path / _META_NAME).open("r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, json.JSONDecodeError):
            return self._evict_corrupt(path)
        try:
            if meta["version"] != self.version or meta["key"] != key:
                return self._evict_corrupt(path)
            bundle = self._materialize(digest, path, meta)
        except Exception:  # noqa: BLE001 — any malformed bundle is corruption
            return self._evict_corrupt(path)
        self._hit()
        METRICS.counter("prep.bytes_mapped").inc(bundle.nbytes)
        return bundle

    def _materialize(self, digest: str, path: Path, meta: dict) -> PrepBundle:
        """mmap every array the manifest lists, validating dtype/shape."""
        with get_tracer().span("prep.materialize"), METRICS.span("prep.materialize"):
            arrays: dict[str, np.ndarray] = {}
            for name, spec in meta["arrays"].items():
                arr = np.load(path / f"{name}.npy", mmap_mode="r", allow_pickle=False)
                if str(arr.dtype) != spec["dtype"] or list(arr.shape) != spec["shape"]:
                    raise ValueError(f"array {name!r} does not match its manifest")
                arrays[name] = arr.view(np.ndarray)
        return PrepBundle(digest, meta, arrays)

    def reject(self, key: dict) -> None:
        """Evict the bundle for ``key`` after its consumer found its
        contents inconsistent (a check the per-array manifest cannot
        express): deleted from disk and counted in ``corrupt`` and
        ``misses``, like a bundle :meth:`get` finds unreadable."""
        self._evict_corrupt(self.path_for(key))

    def put(self, key: dict, arrays: dict[str, np.ndarray], extra: dict | None = None) -> Path:
        """Publish a bundle atomically; racing writers are benign.

        The bundle is staged in a hidden directory inside the shard and
        renamed into place.  If another process published the same digest
        first, the staging directory is discarded and the existing bundle
        (identical bytes, by content-addressing) wins.
        """
        digest = key_digest(key)
        path = self.version_dir / digest[:2] / digest
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "version": self.version,
            "key": key,
            "digest": digest,
            "arrays": {
                name: {"dtype": str(a.dtype), "shape": list(a.shape)}
                for name, a in arrays.items()
            },
            **(extra or {}),
        }
        tmp = tempfile.mkdtemp(dir=path.parent, prefix=f".stage-{digest[:8]}-")
        try:
            for name, a in arrays.items():
                np.save(os.path.join(tmp, f"{name}.npy"), np.ascontiguousarray(a))
            with open(os.path.join(tmp, _META_NAME), "w", encoding="utf-8") as fh:
                json.dump(meta, fh, separators=(",", ":"))
            os.rename(tmp, path)
        except OSError:
            # Renaming onto an existing non-empty directory fails — someone
            # else published this digest between our existence check and the
            # rename.  Their bytes are ours; stand down.
            shutil.rmtree(tmp, ignore_errors=True)
            if not (path / _META_NAME).is_file():
                raise
            self.races += 1
            return path
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self.writes += 1
        METRICS.counter("prep.writes").inc()
        from repro.exec.faults import maybe_corrupt_artifact

        maybe_corrupt_artifact(path / _META_NAME, digest)
        return path

    def sweep_stale(self, ttl_s: float | None = None) -> int:
        """Delete staging directories orphaned by publishers that died
        mid-``put`` (``.stage-*`` older than ``ttl_s``; default the
        store's ``stale_ttl_s``).  Live writers' staging dirs are
        younger than any sane TTL and survive.  Returns the count
        removed (also in ``stale_swept`` / the ``prep.stale_swept``
        metric)."""
        ttl = self.stale_ttl_s if ttl_s is None else ttl_s
        if not self.version_dir.is_dir():
            return 0
        cutoff = time.time() - ttl
        removed = 0
        for stale in self.version_dir.glob("*/.stage-*"):
            try:
                if stale.stat().st_mtime <= cutoff:
                    shutil.rmtree(stale, ignore_errors=True)
                    removed += 1
            except OSError:
                pass
        if removed:
            self.stale_swept += removed
            METRICS.counter("prep.stale_swept").inc(removed)
        return removed

    def __contains__(self, key: dict) -> bool:
        return (self.path_for(key) / _META_NAME).is_file()

    def __len__(self) -> int:
        """Number of bundles stored for the current version."""
        if not self.version_dir.is_dir():
            return 0
        return sum(1 for _ in self.version_dir.glob(f"*/*/{_META_NAME}"))

    def clear(self) -> int:
        """Delete every bundle for the current version (plus abandoned
        staging directories); returns the bundle count removed."""
        removed = 0
        if not self.version_dir.is_dir():
            return 0
        for shard in self.version_dir.iterdir():
            if not shard.is_dir():
                continue
            for entry in shard.iterdir():
                is_bundle = not entry.name.startswith(".")
                shutil.rmtree(entry, ignore_errors=True)
                removed += is_bundle
        return removed

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "races": self.races,
            "stale_swept": self.stale_swept,
        }

    def _hit(self) -> None:
        self.hits += 1
        METRICS.counter("prep.hit").inc()

    def _miss(self) -> None:
        self.misses += 1
        METRICS.counter("prep.miss").inc()

    def _evict_corrupt(self, path: Path) -> None:
        self.corrupt += 1
        METRICS.counter("prep.corrupt").inc()
        self._miss()
        shutil.rmtree(path, ignore_errors=True)
        return None


# ----------------------------------------------------------------------
# Process-wide active store (the CLI and pool workers configure this).
# ----------------------------------------------------------------------

_ACTIVE: PrepStore | None = None


def get_prep_store() -> PrepStore | None:
    """The process-wide prep store, or None when prep caching is off."""
    return _ACTIVE


def set_prep_store(store: PrepStore | None) -> PrepStore | None:
    """Install ``store`` as the process-wide prep store; returns the
    previous one (tests restore it)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    return previous


def configure_prep(root: str | Path | None, *, version: str | None = None) -> PrepStore | None:
    """Point the process-wide store at ``root`` (None disables caching)."""
    store = PrepStore(root, version=version) if root else None
    set_prep_store(store)
    return store
