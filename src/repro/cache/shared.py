"""The shared L2 cache with way partitioning via replacement control.

This implements the hardware mechanism of the paper's Section V: the cache
is *implicitly* partitioned by modifying the replacement decision, never by
reconfiguring the arrays.  Each set keeps, per thread,

* a **current-assignment counter** — how many ways of this set currently
  hold lines inserted by that thread, and
* a **target-assignment** — how many ways the thread is entitled to
  (identical for every set; the partition engine updates it).

On a miss by thread *t*:

* if *t*'s current count in the set is **below** its target, the victim is
  the LRU line among threads that are **over** their targets (some such
  thread must exist once the set is full, because counts and targets both
  sum to the way count);
* otherwise *t* replaces the LRU line among **its own** lines.

Replacement is therefore thread-wise LRU, the partition is approached
*gradually* (no flash reconfiguration, no data loss), and — crucially for
intra-application workloads — any thread may still **hit** on any line, so
constructive data sharing across partitions is preserved while destructive
inter-thread evictions are suppressed.

With ``enforce_partition=False`` the same object behaves as a plain
unpartitioned shared cache under global LRU (the paper's "shared" baseline).
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats

__all__ = ["PartitionedSharedCache", "equal_targets", "partition_distance", "validate_targets"]

_INVALID = -1


def equal_targets(n_threads: int, ways: int) -> list[int]:
    """The equal split the paper's runtime starts from (first interval)."""
    base, extra = divmod(ways, n_threads)
    return [base + (1 if t < extra else 0) for t in range(n_threads)]


def validate_targets(targets, n_threads: int, ways: int) -> list[int]:
    """``targets`` as ints, checked to be ``n_threads`` non-negative way
    counts summing to ``ways``; raises ValueError otherwise."""
    targets = [int(v) for v in targets]
    if len(targets) != n_threads:
        raise ValueError(f"need {n_threads} targets, got {len(targets)}")
    if any(v < 0 for v in targets):
        raise ValueError(f"targets must be non-negative, got {targets}")
    if sum(targets) != ways:
        raise ValueError(
            f"targets must sum to {ways} ways, got {targets} (sum {sum(targets)})"
        )
    return targets


def partition_distance(counts, targets, sets: int) -> dict:
    """How far eviction control still is from the target partition.

    ``counts`` is the flat per-(set, thread) occupancy, set-major.  Per
    set, the distance is the number of *misplaced* ways — ways held
    beyond their owner's target, ``sum_t max(0, count_t - target_t)`` —
    which is the number of future evictions needed to reach the targets
    exactly.  Partially filled sets only count ways actually over target
    (unfilled ways are free to place correctly).  Sets are visited in
    order and the mean is one float division, so every backend reports
    the same bits.

    Returns a dict feeding the ``convergence`` telemetry event:
    ``mean_distance`` (misplaced ways per set), ``max_distance`` (worst
    set), ``converged_sets`` (sets at distance zero) and ``total_sets``.
    """
    n = len(targets)
    total = 0
    worst = 0
    converged = 0
    for cb in range(0, sets * n, n):
        d = 0
        for t in range(n):
            over = counts[cb + t] - targets[t]
            if over > 0:
                d += over
        total += d
        if d > worst:
            worst = d
        if d == 0:
            converged += 1
    return {
        "mean_distance": total / sets,
        "max_distance": worst,
        "converged_sets": converged,
        "total_sets": sets,
    }


class PartitionedSharedCache:
    """Set-associative shared cache with optional way-partition enforcement.

    Parameters
    ----------
    geometry:
        Cache shape.  ``geometry.ways`` is the total way budget that
        partitions must sum to.
    n_threads:
        Number of sharer threads (one per core in our model).
    enforce_partition:
        When False, replacement is global LRU and targets are ignored.
    targets:
        Initial per-thread way targets.  Defaults to an equal split, which
        is also how the paper's runtime starts out (first interval).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        n_threads: int,
        *,
        enforce_partition: bool = True,
        targets: list[int] | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if enforce_partition and geometry.ways < n_threads:
            raise ValueError(
                f"cannot partition {geometry.ways} ways among {n_threads} threads "
                "with at least one way each"
            )
        self.geometry = geometry
        self.n_threads = n_threads
        self.enforce_partition = enforce_partition
        self.stats = CacheStats(n_threads)

        sets, ways = geometry.sets, geometry.ways
        self._map: list[dict[int, int]] = [dict() for _ in range(sets)]
        self._tags: list[list[int]] = [[_INVALID] * ways for _ in range(sets)]
        self._owner: list[list[int]] = [[_INVALID] * ways for _ in range(sets)]
        self._last: list[list[int]] = [[_INVALID] * ways for _ in range(sets)]
        self._stamp: list[list[int]] = [[0] * ways for _ in range(sets)]
        self._count: list[list[int]] = [[0] * n_threads for _ in range(sets)]
        self._filled: list[int] = [0] * sets
        self._clock = 0

        if targets is None:
            targets = equal_targets(n_threads, geometry.ways)
        self.set_targets(targets)

    # ------------------------------------------------------------------
    # Partition control (the "Configuration Unit" applies through here).
    # ------------------------------------------------------------------
    def set_targets(self, targets: list[int]) -> None:
        """Install new target way assignments (takes effect gradually)."""
        self.targets = validate_targets(targets, self.n_threads, self.geometry.ways)

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def access(self, thread: int, addr: int) -> bool:
        """Access one byte address on behalf of ``thread``.

        Returns True on hit.  All statistics (including the inter-thread
        interaction classification) are updated as a side effect.
        """
        geo = self.geometry
        s = (addr >> geo.offset_bits) & (geo.sets - 1)
        tag = addr >> (geo.offset_bits + geo.index_bits)

        stats = self.stats
        stats.accesses[thread] += 1
        self._clock += 1
        smap = self._map[s]
        way = smap.get(tag)
        if way is not None:
            stats.hits[thread] += 1
            last_row = self._last[s]
            if last_row[way] != thread:
                stats.inter_thread_hits[thread] += 1
            else:
                stats.intra_thread_hits[thread] += 1
            last_row[way] = thread
            self._stamp[s][way] = self._clock
            return True

        stats.misses[thread] += 1
        self._fill(thread, s, tag)
        return False

    def _fill(self, thread: int, s: int, tag: int) -> None:
        ways = self.geometry.ways
        tags_row = self._tags[s]
        owner_row = self._owner[s]
        counts = self._count[s]

        if self._filled[s] < ways:
            # Cold fill: take the first invalid way, no eviction.
            way = tags_row.index(_INVALID)
            self._filled[s] += 1
        else:
            way = self._choose_victim(thread, s)
            victim_owner = owner_row[way]
            self.stats.evictions[thread] += 1
            if self._last[s][way] != thread:
                self.stats.inter_thread_evictions[thread] += 1
            counts[victim_owner] -= 1
            del self._map[s][tags_row[way]]

        tags_row[way] = tag
        owner_row[way] = thread
        self._last[s][way] = thread
        self._stamp[s][way] = self._clock
        counts[thread] += 1
        self._map[s][tag] = way

    def _choose_victim(self, thread: int, s: int) -> int:
        stamp_row = self._stamp[s]
        owner_row = self._owner[s]
        ways = self.geometry.ways

        if not self.enforce_partition:
            # Plain global LRU.
            best, best_stamp = 0, stamp_row[0]
            for w in range(1, ways):
                st = stamp_row[w]
                if st < best_stamp:
                    best, best_stamp = w, st
            return best

        counts = self._count[s]
        targets = self.targets
        if counts[thread] < targets[thread]:
            # Under target: evict the LRU line of an over-target thread.
            best, best_stamp = -1, None
            for w in range(ways):
                o = owner_row[w]
                if counts[o] > targets[o]:
                    st = stamp_row[w]
                    if best_stamp is None or st < best_stamp:
                        best, best_stamp = w, st
            if best >= 0:
                return best
            # Unreachable when counts and targets both sum to `ways` on a
            # full set, but fall through to own-LRU defensively.
        # At or over target (or no over-target victim): evict own LRU line.
        best, best_stamp = -1, None
        for w in range(ways):
            if owner_row[w] == thread:
                st = stamp_row[w]
                if best_stamp is None or st < best_stamp:
                    best, best_stamp = w, st
        if best >= 0:
            return best
        # Thread owns nothing here (possible when its target is 0).
        # Eviction control still applies: prefer the LRU line of an
        # over-target thread so under-target threads keep their lines.
        best, best_stamp = -1, None
        for w in range(ways):
            o = owner_row[w]
            if counts[o] > targets[o]:
                st = stamp_row[w]
                if best_stamp is None or st < best_stamp:
                    best, best_stamp = w, st
        if best >= 0:
            return best
        # Nobody over target either: global LRU.
        best, best_stamp = 0, stamp_row[0]
        for w in range(1, ways):
            st = stamp_row[w]
            if st < best_stamp:
                best, best_stamp = w, st
        return best

    # ------------------------------------------------------------------
    # Introspection (tests, experiments)
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        geo = self.geometry
        s = (addr >> geo.offset_bits) & (geo.sets - 1)
        tag = addr >> (geo.offset_bits + geo.index_bits)
        return tag in self._map[s]

    def owner_of(self, addr: int) -> int | None:
        """Thread that inserted the line holding ``addr``, or None."""
        geo = self.geometry
        s = (addr >> geo.offset_bits) & (geo.sets - 1)
        tag = addr >> (geo.offset_bits + geo.index_bits)
        way = self._map[s].get(tag)
        return None if way is None else self._owner[s][way]

    def occupancy(self) -> list[int]:
        """Total lines currently held per thread, across all sets."""
        totals = [0] * self.n_threads
        for counts in self._count:
            for t in range(self.n_threads):
                totals[t] += counts[t]
        return totals

    def set_occupancy(self, s: int) -> list[int]:
        """Per-thread way counts of one set (the Section V counters)."""
        return list(self._count[s])

    def partition_distance(self) -> dict:
        """Misplaced-way distance to the target partition; see
        :func:`partition_distance`."""
        counts = [c for row in self._count for c in row]
        return partition_distance(counts, self.targets, self.geometry.sets)

    def check_invariants(self) -> None:
        """Assert internal consistency; used by property-based tests.

        Verified per set: the tag->way map mirrors the tag array exactly;
        per-thread way counters match the owner array; the filled counter
        matches the number of valid ways; counters sum to the filled count.
        """
        for s in range(self.geometry.sets):
            tags_row = self._tags[s]
            owner_row = self._owner[s]
            counts = self._count[s]
            valid = [w for w, t in enumerate(tags_row) if t != _INVALID]
            assert len(valid) == self._filled[s], f"set {s}: filled counter mismatch"
            assert len(self._map[s]) == len(valid), f"set {s}: map size mismatch"
            for w in valid:
                assert self._map[s].get(tags_row[w]) == w, f"set {s} way {w}: map mismatch"
                assert 0 <= owner_row[w] < self.n_threads, f"set {s} way {w}: bad owner"
            recount = [0] * self.n_threads
            for w in valid:
                recount[owner_row[w]] += 1
            assert recount == counts, f"set {s}: owner counters {counts} != recount {recount}"
            assert sum(counts) == self._filled[s], f"set {s}: counts don't sum to filled"

    def flush(self) -> None:
        """Invalidate all lines (used between independent experiments)."""
        for s in range(self.geometry.sets):
            self._map[s].clear()
            ways = self.geometry.ways
            self._tags[s] = [_INVALID] * ways
            self._owner[s] = [_INVALID] * ways
            self._last[s] = [_INVALID] * ways
            self._stamp[s] = [0] * ways
            self._count[s] = [0] * self.n_threads
            self._filled[s] = 0
