"""Private L1 caches.

Each core has a private L1 (8 KB, 4-way in the paper's configuration).  Two
interfaces are provided:

* :class:`PrivateCache` — a per-access object API (a single-sharer
  unpartitioned cache), used by tests, examples and any caller that wants
  classic ``access(addr) -> hit`` semantics.

* :func:`simulate_l1_filter` — a batch API that runs a whole address trace
  through an LRU L1 and returns the hit mask as a NumPy array.  Because the
  L1 is private, its behaviour is independent of anything the shared-L2
  partitioning scheme does, so each thread's trace can be filtered **once**
  and the resulting L2 access stream reused across every policy under
  comparison.  This is the single biggest performance lever in the whole
  simulator and is why this function exists separately from the object API.

The batch filter has two implementations with one contract, the same
reference-plus-compiled split as :mod:`repro.cache.batch`: the C routine
``l1_filter`` of :mod:`repro.cache.batchkernel`, used whenever it loads,
and the pure-Python loop :func:`_filter_python`, which is both the oracle
for the C routine and the fallback on hosts without a C compiler (counted
by ``l1.fallback_pure``).  Both produce byte-identical masks.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.cache import batchkernel
from repro.cache.geometry import CacheGeometry
from repro.cache.shared import PartitionedSharedCache
from repro.obs.metrics import METRICS

__all__ = ["PrivateCache", "simulate_l1_filter"]

_INT64_MAX = np.iinfo(np.int64).max
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)


class PrivateCache(PartitionedSharedCache):
    """A private (single-sharer) set-associative LRU cache."""

    def __init__(self, geometry: CacheGeometry) -> None:
        super().__init__(geometry, n_threads=1, enforce_partition=False)

    def access(self, addr: int, thread: int = 0) -> bool:  # type: ignore[override]
        # Argument order flipped relative to the shared cache on purpose:
        # a private cache has exactly one client.
        return super().access(0, addr)


def simulate_l1_filter(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Run ``addrs`` through an LRU cache; return a boolean hit mask.

    Uses the compiled ``l1_filter`` routine when it is available and
    ``addrs`` converts to int64 without loss; otherwise the Python loop.
    The two paths agree exactly on every input the compiled one accepts.
    """
    addrs = np.asarray(addrs)
    if addrs.ndim != 1:
        raise ValueError("addrs must be 1-D")
    exact = _as_int64_exact(addrs)
    if exact is not None:
        kernel = batchkernel.load_l1_filter()
        if kernel is not None:
            return _filter_compiled(kernel, exact, geometry)
        METRICS.counter("l1.fallback_pure").inc()
    return _filter_python(addrs, geometry)


def _as_int64_exact(addrs: np.ndarray) -> np.ndarray | None:
    """``addrs`` as a contiguous int64 array, or ``None`` if that would
    change any value (floats, objects, ``uint64`` at or above 2**63)."""
    if not np.can_cast(addrs.dtype, np.int64, "same_kind"):
        return None
    if addrs.dtype.kind == "u" and addrs.size and int(addrs.max()) > _INT64_MAX:
        return None
    return np.ascontiguousarray(addrs, dtype=np.int64)


def _filter_compiled(kernel, addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    rows = np.empty(geometry.sets * geometry.ways, dtype=np.int64)
    fill = np.zeros(geometry.sets, dtype=np.int64)
    hits = np.empty(addrs.size, dtype=np.uint8)
    kernel(
        addrs.ctypes.data_as(_P_I64), addrs.size,
        geometry.offset_bits, geometry.sets - 1,
        geometry.offset_bits + geometry.index_bits, geometry.ways,
        rows.ctypes.data_as(_P_I64), fill.ctypes.data_as(_P_I64),
        hits.ctypes.data_as(_P_U8),
    )
    return hits.view(bool)


def _filter_python(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """The reference loop.  LRU state is a sequential dependence, so it
    walks the trace one access at a time; the per-set state is a short
    MRU-ordered list of tags, so each step is a few list operations."""
    offset_bits = geometry.offset_bits
    index_mask = geometry.sets - 1
    tag_shift = offset_bits + geometry.index_bits
    ways = geometry.ways

    mru: list[list[int]] = [[] for _ in range(geometry.sets)]
    hits = np.zeros(addrs.size, dtype=bool)

    # Bind hot names locally; convert once to a Python list of ints (NumPy
    # scalar extraction inside the loop is several times slower).
    addr_list = addrs.tolist()
    for i, addr in enumerate(addr_list):
        s = (addr >> offset_bits) & index_mask
        tag = addr >> tag_shift
        row = mru[s]
        if tag in row:
            if row[0] != tag:
                row.remove(tag)
                row.insert(0, tag)
            hits[i] = True
        else:
            row.insert(0, tag)
            if len(row) > ways:
                row.pop()
    return hits
