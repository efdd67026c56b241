"""Pluggable blob backends for the content-addressed stores.

:class:`~repro.exec.store.ResultStore` historically *was* a directory
layout.  This module is the seam under it: a :class:`StoreBackend` maps
**relative POSIX path keys** (``v<version>/<digest[:2]>/<digest>.json``)
to opaque byte blobs, and the store logic above it (keying, payload
validation, corruption eviction, metrics) is backend-agnostic.

Backends shipped here:

* :class:`LocalDirBackend` — the original on-disk layout, byte-for-byte:
  atomic publish via a ``.put-*.tmp`` staging file + ``os.replace``,
  restage when a concurrent ``clear()`` removes the shard directory
  mid-publish, stale-staging sweep by mtime.
* :class:`MemoryBackend` — a thread-safe dict; the unit-test double.

An object-store backend slots in later behind the same five methods.

Contract notes:

* ``read`` returns ``None`` for a *missing* key and raises ``OSError``
  for an unreadable one — callers treat the latter as corruption, not a
  miss, so the distinction must survive the abstraction.
* ``write`` is an atomic publish: a concurrent reader sees the old blob
  or the new blob, never a torn one.  Writers racing on one key are
  content-addressed, so last-writer-wins is correct.
* ``list`` returns every key under a prefix (including staging residue,
  which callers filter), sorted, so iteration order is deterministic.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path, PurePosixPath

__all__ = ["LocalDirBackend", "MemoryBackend", "StoreBackend"]


def _check_key(key: str) -> str:
    """Reject keys that could escape a backend's namespace.

    Keys come from digests today, but a traversal like
    ``../../etc/cron.d/x`` must die at the boundary, not in a path join.
    """
    pure = PurePosixPath(key)
    if pure.is_absolute() or not key or any(part in ("..", "") for part in pure.parts):
        raise ValueError(f"invalid store key {key!r}")
    return key


class StoreBackend(ABC):
    """Keyed blob storage: the persistence seam under the stores."""

    name = "backend"

    @abstractmethod
    def read(self, key: str) -> bytes | None:
        """The blob at ``key``; ``None`` if missing.  Raises ``OSError``
        for a present-but-unreadable blob (callers evict as corrupt)."""

    @abstractmethod
    def write(self, key: str, data: bytes) -> None:
        """Atomically publish ``data`` at ``key`` (creating parents)."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; True if something was removed."""

    @abstractmethod
    def list(self, prefix: str = "") -> list[str]:
        """Every key under ``prefix`` (a directory-like namespace), sorted."""

    def exists(self, key: str) -> bool:
        return self.read(key) is not None

    def sweep_stale(self, prefix: str, ttl_s: float) -> int:
        """Reclaim staging residue older than ``ttl_s`` under ``prefix``.

        Only meaningful for backends whose atomic publish stages through
        files a dead writer can orphan; others inherit this no-op.
        """
        return 0


class LocalDirBackend(StoreBackend):
    """The on-disk layout the stores have always used.

    Publish is mkstemp-into-the-shard + ``os.replace``: a reader never
    sees a half-written file, and concurrent writers of one key race to
    publish identical bytes.  If a concurrent ``clear()`` rmtree-s the
    shard between staging and publish, the staged file went with it —
    the write restages once into a recreated directory.
    """

    name = "local-dir"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / _check_key(key)

    def read(self, key: str) -> bytes | None:
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            return None

    def write(self, key: str, data: bytes) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".put-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            try:
                os.replace(tmp_name, path)
            except FileNotFoundError:
                # The shard directory vanished (concurrent clear/rmtree);
                # the staged payload is gone with it, so restage.
                path.parent.mkdir(parents=True, exist_ok=True)
                fd2, tmp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=".put-", suffix=".tmp"
                )
                with os.fdopen(fd2, "wb") as fh:
                    fh.write(data)
                os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def exists(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def list(self, prefix: str = "") -> list[str]:
        base = self.root / _check_key(prefix) if prefix else self.root
        if not base.is_dir():
            return []
        return sorted(
            str(p.relative_to(self.root).as_posix())
            for p in base.rglob("*")
            if p.is_file()
        )

    def sweep_stale(self, prefix: str, ttl_s: float) -> int:
        base = self.root / _check_key(prefix) if prefix else self.root
        if not base.is_dir():
            return 0
        cutoff = time.time() - ttl_s
        removed = 0
        for stale in base.glob("*/.put-*.tmp"):
            try:
                if stale.stat().st_mtime <= cutoff:
                    stale.unlink()
                    removed += 1
            except OSError:
                pass
        return removed


class MemoryBackend(StoreBackend):
    """Thread-safe in-memory blobs — the test double."""

    name = "memory"

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def read(self, key: str) -> bytes | None:
        with self._lock:
            return self._blobs.get(_check_key(key))

    def write(self, key: str, data: bytes) -> None:
        with self._lock:
            self._blobs[_check_key(key)] = bytes(data)

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._blobs.pop(_check_key(key), None) is not None

    def list(self, prefix: str = "") -> list[str]:
        if prefix:
            _check_key(prefix)
            head = prefix.rstrip("/") + "/"
        else:
            head = ""
        with self._lock:
            return sorted(k for k in self._blobs if k.startswith(head))

