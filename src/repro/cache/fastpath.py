"""Vectorized L2 replay kernel: the ``"fast"`` cache backend.

:class:`~repro.cache.shared.PartitionedSharedCache` is written for
fidelity to the paper's Section V mechanism: nested per-set lists, one
``access()`` method call per L2 reference, per-way Python scans on every
replacement.  Every figure replays hundreds of thousands of accesses
through it, so it dominates the wall-clock of policy sweeps.

This module provides a behavioural twin engineered for speed:

* :class:`FastPartitionedSharedCache` — the same replacement-control
  mechanism on a **struct-of-arrays** layout:

  - flat ``tags`` / ``owner`` / ``last`` / ``lru-stamp`` slot arrays of
    length ``sets x ways`` (slot ``j = set * ways + way``) instead of
    nested per-set lists;
  - one **global line map** ``line -> slot`` where
    ``line = addr >> offset_bits`` already concatenates (tag, set), so a
    lookup costs a single dict probe and the set index is only
    decomposed on misses;
  - per ``(set, owner)`` **recency queues** (`OrderedDict`, oldest
    first) plus a per-slot back-pointer to the queue holding the slot,
    maintained in O(1) per access.  They turn every victim choice —
    own-LRU, over-target-LRU, global-LRU — into a handful of O(1)
    oldest-entry peeks instead of O(ways) Python scans, and the queue
    length doubles as the Section V current-assignment counter.

* :func:`replay` — a fused replay kernel used by
  :class:`repro.cpu.engine.CMPEngine` when the L2 is a fast cache.  It
  batch-precomputes each section stream's line indices, counter bases
  and hit/miss access costs with NumPy (one vector shift/mask/add per
  stream instead of two shifts, a mask and a float add per access), then
  drives a **specialised kernel** generated for the concrete
  ``(n_threads, enforce_partition)`` pair: per-thread clocks, cursors,
  stream lists and statistics counters become scalar fast-locals, the
  thread scheduler becomes an unrolled comparison chain, and the victim
  peeks are unrolled over the thread count.  Generated kernels are
  compiled once and cached for the life of the process.

Equivalence contract
--------------------
The fast backend must be **byte-identical** to the reference: same hits,
same victims, same per-thread :class:`~repro.cache.stats.CacheStats`,
same interval records, same floats in ``RunResult.to_dict()``.  Floating
point makes this stricter than "same algorithm": the kernel performs the
same IEEE-754 operations on the same operands in the same order as the
reference engine.  Elementwise hoists are allowed (``d_cycles[i] +
miss_cycles[i]`` becomes one NumPy vector add because float64 addition
rounds identically), accumulation-order changes are not.  LRU stamps are
unique (one global clock tick per access), so every oldest-entry peek
resolves to exactly the slot the reference's first-minimal-stamp way
scan would pick, and the scheduler chain picks exactly the reference's
lowest-index minimum-clock thread (see :func:`_kernel_source`).
``tests/test_cache_differential.py`` enforces the contract across apps x
policies x seeds x geometries; any observable divergence is a bug in
this module, never an accepted tolerance.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.shared import (
    PartitionedSharedCache,
    equal_targets,
    partition_distance,
    validate_targets,
)
from repro.cache.stats import CacheStats
from repro.core.records import RunResult
from repro.sync.barrier import BarrierLog

__all__ = ["CACHE_BACKENDS", "FastPartitionedSharedCache", "make_shared_cache", "replay"]

_INVALID = -1


class FastPartitionedSharedCache:
    """Struct-of-arrays twin of :class:`PartitionedSharedCache`.

    Drop-in: constructor signature, public attributes and every public
    method match the reference class, and all of them produce identical
    values for identical access histories.  See the module docstring for
    the layout; the paper-facing semantics (Section V replacement
    control, gradual repartitioning, cross-partition hits) are
    documented on the reference class.
    """

    #: Checked by :class:`repro.cpu.engine.CMPEngine` to select :func:`replay`.
    supports_replay_kernel = True
    backend = "fast"

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
        self._offset_bits = geometry.offset_bits
        self._index_bits = geometry.index_bits
        self._set_mask = sets - 1
        # line -> slot, where line = addr >> offset_bits (tag and set
        # concatenated, so one dict serves every set).
        self._lines: dict[int, int] = {}
        self._tags: list[int] = [_INVALID] * (sets * ways)  # holds *lines*
        self._owner: list[int] = [_INVALID] * (sets * ways)
        self._last: list[int] = [_INVALID] * (sets * ways)
        self._stamp: list[int] = [0] * (sets * ways)
        # Recency queues, slot -> None, oldest first.  With partition
        # enforcement there is one queue per (set, owner) — its length
        # doubles as the Section V current-assignment counter and every
        # victim rule reduces to O(1) oldest peeks over the set's queues.
        # Without enforcement (global LRU) a single queue per set is the
        # whole replacement state, and a flat counter array keeps the
        # per-owner occupancy the introspection APIs report.
        if enforce_partition:
            self._lru: list[OrderedDict[int, None]] = [
                OrderedDict() for _ in range(sets * n_threads)
            ]
            self._count: list[int] | None = None
        else:
            self._lru = [OrderedDict() for _ in range(sets)]
            self._count = [0] * (sets * n_threads)
        # Back-pointer: the queue currently holding each valid slot
        # (always lru[set * n + owner[j]]; cached so the hit path does a
        # single list load instead of recomputing the queue index).
        self._queue_of: list[OrderedDict[int, None] | None] = [None] * (sets * ways)
        self._filled: list[int] = [0] * sets
        self._clock = 0

        self.targets: list[int] = [0] * n_threads
        if targets is None:
            targets = equal_targets(n_threads, geometry.ways)
        self.set_targets(targets)

    # ------------------------------------------------------------------
    # Partition control — identical semantics to the reference class.
    # ------------------------------------------------------------------
    def set_targets(self, targets: list[int]) -> None:
        """Install new target way assignments (takes effect gradually).

        Mutates ``self.targets`` in place: the replay kernel holds a
        local reference to the list across the whole run.
        """
        self.targets[:] = validate_targets(targets, self.n_threads, self.geometry.ways)

    # ------------------------------------------------------------------
    # Hot path (standalone form; CMPEngine replays bypass it via `replay`)
    # ------------------------------------------------------------------
    def access(self, thread: int, addr: int) -> bool:
        """Access one byte address on behalf of ``thread``; True on hit.

        Behaviourally identical to the reference ``access``; kept as a
        real method so non-fused drivers (the multi-app engine, property
        tests, interactive use) can treat both backends uniformly.
        """
        line = addr >> self._offset_bits
        stats = self.stats
        stats.accesses[thread] += 1
        self._clock += 1
        j = self._lines.get(line)
        if j is not None:
            stats.hits[thread] += 1
            last = self._last
            if last[j] != thread:
                stats.inter_thread_hits[thread] += 1
                last[j] = thread
            else:
                stats.intra_thread_hits[thread] += 1
            self._stamp[j] = self._clock
            self._queue_of[j].move_to_end(j)
            return True

        stats.misses[thread] += 1
        self._fill(thread, line)
        return False

    def _fill(self, thread: int, line: int) -> None:
        ways = self.geometry.ways
        s = line & self._set_mask
        cb = s * self.n_threads
        tags = self._tags

        count = self._count
        if self._filled[s] < ways:
            # Cold fill: first invalid slot of the set, no eviction.
            base = s * ways
            j = tags.index(_INVALID, base, base + ways)
            self._filled[s] += 1
        else:
            j, victim_queue = self._choose_victim(thread, cb, s)
            self.stats.evictions[thread] += 1
            if self._last[j] != thread:
                self.stats.inter_thread_evictions[thread] += 1
            del self._lines[tags[j]]
            del victim_queue[j]
            if count is not None:
                count[cb + self._owner[j]] -= 1

        tags[j] = line
        self._owner[j] = thread
        self._last[j] = thread
        self._stamp[j] = self._clock
        self._lines[line] = j
        queue = self._lru[cb + thread] if count is None else self._lru[s]
        queue[j] = None
        self._queue_of[j] = queue
        if count is not None:
            count[cb + thread] += 1

    def _choose_victim(self, thread: int, cb: int, s: int) -> tuple[int, OrderedDict]:
        """Victim slot plus the recency queue holding it.

        O(1) oldest-entry peeks.  LRU stamps are globally unique, so the
        minimum-stamp entry among the peeked candidates is exactly the
        slot the reference's way-order scan would return — no tie-break
        cases exist.
        """
        lru = self._lru
        if not self.enforce_partition:
            # Global LRU: the set's single queue is the recency order.
            queue = lru[s]
            return next(iter(queue)), queue
        n = self.n_threads
        stamp = self._stamp
        targets = self.targets
        own = lru[cb + thread]
        if len(own) < targets[thread]:
            # Under target: oldest line among over-target owners.
            best = -1
            best_stamp = None
            best_queue = own
            for o in range(n):
                queue = lru[cb + o]
                if len(queue) > targets[o]:
                    cj = next(iter(queue))
                    st = stamp[cj]
                    if best_stamp is None or st < best_stamp:
                        best, best_stamp, best_queue = cj, st, queue
            if best >= 0:
                return best, best_queue
            # Unreachable when counts and targets both sum to `ways`
            # on a full set, but fall through to own-LRU defensively.
        if own:
            # At or over target (or no over-target victim): own LRU.
            return next(iter(own)), own
        # The thread owns nothing here (possible when its target is 0).
        # Eviction control still applies: prefer the oldest line among
        # over-target owners so under-target threads keep their lines,
        # then fall back to global LRU over every owner's queue.
        for guarded in (True, False):
            best = -1
            best_stamp = None
            best_queue = None
            for o in range(n):
                queue = lru[cb + o]
                if queue and (not guarded or len(queue) > targets[o]):
                    cj = next(iter(queue))
                    st = stamp[cj]
                    if best_stamp is None or st < best_stamp:
                        best, best_stamp, best_queue = cj, st, queue
            if best >= 0:
                return best, best_queue
        return best, best_queue

    # ------------------------------------------------------------------
    # Introspection — same outputs as the reference class.
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        return (addr >> self._offset_bits) in self._lines

    def owner_of(self, addr: int) -> int | None:
        """Thread that inserted the line holding ``addr``, or None."""
        j = self._lines.get(addr >> self._offset_bits)
        return None if j is None else self._owner[j]

    def occupancy(self) -> list[int]:
        """Total lines currently held per thread, across all sets."""
        n = self.n_threads
        totals = [0] * n
        if self._count is None:
            for i, queue in enumerate(self._lru):
                totals[i % n] += len(queue)
        else:
            for i, c in enumerate(self._count):
                totals[i % n] += c
        return totals

    def set_occupancy(self, s: int) -> list[int]:
        """Per-thread way counts of one set (the Section V counters)."""
        n = self.n_threads
        if self._count is None:
            return [len(self._lru[s * n + t]) for t in range(n)]
        return self._count[s * n : s * n + n]

    def partition_distance(self) -> dict:
        """Misplaced-way distance to the target partition; the shared
        :func:`~repro.cache.shared.partition_distance`, so ``convergence``
        events from fast replays are identical to reference ones."""
        counts = [len(q) for q in self._lru] if self._count is None else self._count
        return partition_distance(counts, self.targets, self.geometry.sets)

    def check_invariants(self) -> None:
        """Assert internal consistency; used by property-based tests.

        Beyond the reference checks (line map mirrors the tag array,
        owner counters consistent, filled counters exact), also asserts
        that every recency queue lists exactly its owner's slots in
        strictly increasing stamp order and that every valid slot's
        queue back-pointer names the queue that holds it — the
        properties that make the O(1) victim peeks equivalent to the
        reference's LRU scans.
        """
        sets, ways = self.geometry.sets, self.geometry.ways
        n = self.n_threads
        total_valid = 0
        for s in range(sets):
            base = s * ways
            valid = [j for j in range(base, base + ways) if self._tags[j] != _INVALID]
            total_valid += len(valid)
            assert len(valid) == self._filled[s], f"set {s}: filled counter mismatch"
            recount = [0] * n
            for j in valid:
                line = self._tags[j]
                assert line & self._set_mask == s, f"set {s} slot {j}: line in wrong set"
                assert self._lines.get(line) == j, f"set {s} slot {j}: line map mismatch"
                o = self._owner[j]
                assert 0 <= o < n, f"set {s} slot {j}: bad owner"
                recount[o] += 1
            if self._count is None:
                for t in range(n):
                    queue = self._lru[s * n + t]
                    assert len(queue) == recount[t], f"set {s} thread {t}: queue length mismatch"
                    stamps = [self._stamp[j] for j in queue]
                    assert stamps == sorted(stamps), (
                        f"set {s} thread {t}: queue out of LRU order"
                    )
                    for j in queue:
                        assert self._owner[j] == t, (
                            f"set {s} thread {t}: queue holds foreign slot"
                        )
                        assert self._queue_of[j] is queue, (
                            f"set {s} thread {t}: stale queue back-pointer"
                        )
            else:
                # No stamp-order check: the per-set queue's insertion
                # order IS the recency order (the replay kernel skips
                # stamp upkeep entirely in this mode).
                queue = self._lru[s]
                assert len(queue) == len(valid), f"set {s}: queue length mismatch"
                for j in queue:
                    assert self._queue_of[j] is queue, f"set {s}: stale queue back-pointer"
                for t in range(n):
                    assert self._count[s * n + t] == recount[t], (
                        f"set {s} thread {t}: occupancy counter mismatch"
                    )
        assert len(self._lines) == total_valid, "line map size mismatch"

    def flush(self) -> None:
        """Invalidate all lines (used between independent experiments)."""
        sets, ways = self.geometry.sets, self.geometry.ways
        size = sets * ways
        self._lines.clear()
        self._tags[:] = [_INVALID] * size
        self._owner[:] = [_INVALID] * size
        self._last[:] = [_INVALID] * size
        self._stamp[:] = [0] * size
        self._queue_of[:] = [None] * size
        for queue in self._lru:
            queue.clear()
        if self._count is not None:
            self._count[:] = [0] * (sets * self.n_threads)
        self._filled[:] = [0] * sets


#: Registry of selectable shared-cache implementations
#: (``SystemConfig.cache_backend`` / ``--cache-backend``).  ``"batch"``
#: is only *batched* when the exec-layer planner groups >= 2 cells onto
#: one prepared program (see :mod:`repro.exec.batch`); a solo run with
#: the batch backend is a 1-lane batch, which by design replays through
#: the non-batched fastpath kernel — stacking state for one lane buys
#: nothing — and :func:`repro.sim.run_application` counts it in the
#: ``batch.fallback`` metric.
CACHE_BACKENDS = {
    "reference": PartitionedSharedCache,
    "fast": FastPartitionedSharedCache,
    "batch": FastPartitionedSharedCache,
}


def make_shared_cache(
    geometry: CacheGeometry,
    n_threads: int,
    *,
    backend: str = "fast",
    enforce_partition: bool = True,
    targets: list[int] | None = None,
):
    """Build the shared L2 for the selected backend.

    ``backend`` is ``"fast"`` (struct-of-arrays + fused replay kernel,
    the default), ``"reference"`` (the readable per-set implementation
    the differential harness treats as ground truth), or ``"batch"``
    (multi-lane replay when cells share a prepared program; identical
    to ``"fast"`` for a single cell).
    """
    try:
        cls = CACHE_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown cache backend {backend!r}; known: {', '.join(sorted(CACHE_BACKENDS))}"
        ) from None
    return cls(
        geometry, n_threads, enforce_partition=enforce_partition, targets=targets
    )


# ----------------------------------------------------------------------
# Specialised kernel generation
# ----------------------------------------------------------------------

_KERNELS: dict[tuple[int, bool], object] = {}

#: One-slot memo of prepared replay streams: [key, weak reference to the
#: compiled program, {section index: streams}].  It never keeps its program
#: alive, and empties when the program dies; bounding it to one program
#: keeps memory proportional to a single app even across long sweeps.
_PREP_CACHE: list = [None, None, {}]


def _forget_prep(ref: weakref.ref) -> None:
    """Weak-reference callback: the memoised program died; drop its streams."""
    if _PREP_CACHE[1] is ref:
        _PREP_CACHE[:] = [None, None, {}]


def _peek_block(
    indent: str, t: int, n: int, *, guarded: bool, skip_own: bool, own_alias: bool
) -> list[str]:
    """Unrolled oldest-entry peeks over the per-owner queues of one set.

    ``guarded=True`` emits the Section V over-target filter
    (``len(queue) > targets[o]``); otherwise any non-empty queue is a
    candidate (global LRU).  ``skip_own`` drops owner ``t`` from the
    scan — used by the over-target pass, where the requesting thread is
    under target and therefore can never be over it.  ``own_alias``
    reuses the already-bound ``own`` local for owner ``t``'s queue
    (only available in enforce-partition kernels).
    """
    lines = [f"{indent}bs = None"]
    for o in range(n):
        if skip_own and o == t:
            continue
        if o == t and own_alias:
            q = "own"
        else:
            q = f"lru[cb + {o}]" if o else "lru[cb]"
        cond = f"len(q_) > targets[{o}]" if guarded else "q_"
        lines += [
            f"{indent}q_ = {q}",
            f"{indent}if {cond}:",
            f"{indent}    cj = next(iter(q_))",
            f"{indent}    st = stamp[cj]",
            f"{indent}    if bs is None or st < bs:",
            f"{indent}        j = cj; bs = st; vq = q_",
        ]
    return lines


def _sync_block(indent: str, n: int, clk_expr: str) -> list[str]:
    """Write scalar state back, fire the interval tick, reload clocks.

    Busy cycles are derived, not accumulated: every event charges clock
    and busy identically except barriers, which advance only the clock
    and book the difference as stall — so ``busy == clock - stall`` at
    all times.  All cycle quantities are integer-valued floats (< 2^53),
    making the subtraction exact, so the derived value is bit-identical
    to the reference's accumulated one while the per-access hot path
    saves one float add.

    The tick may install new targets and charge reconfiguration overhead
    to every running thread's clock and busy (stall untouched, so the
    identity is preserved); clocks are reloaded afterwards.  Done
    threads keep their sentinel clock; their real values were written
    when they finished.
    """
    lines = []
    for t in range(n):
        lines.append(f"{indent}if not d{t}: clock[{t}] = c{t}; busy[{t}] = c{t} - st{t}")
    lines.append(
        f"{indent}" + "; ".join(f"instr[{t}] = ib{t} + cum{t}[i{t}]" for t in range(n))
    )
    for t in range(n):
        lines.append(
            f"{indent}miss_l[{t}] = mis{t}; evict_l[{t}] = evt{t}; "
            f"ith_l[{t}] = ith{t}; ite_l[{t}] = ite{t}; inh_l[{t}] = inh{t}"
        )
    running = ", ".join(f"not d{t}" for t in range(n))
    lines.append(f"{indent}next_tick = fire(({running},), {clk_expr})")
    for t in range(n):
        lines.append(f"{indent}if not d{t}: c{t} = clock[{t}]")
    return lines


def _thread_body(t: int, n: int, enforce: bool, clk_expr: str, indent: str) -> list[str]:
    """One scheduler-leaf body: thread ``t`` finishes its section or
    issues exactly one L2 access, mirroring the reference loop step."""
    p = indent
    body = [
        f"{p}if i{t} >= n{t}:",
        f"{p}    c{t} += tc{t}",
        f"{p}    ib{t} += ti{t}",
        f"{p}    tot += ti{t}",
        f"{p}    clock[{t}] = c{t}",
        f"{p}    busy[{t}] = c{t} - st{t}",
        f"{p}    arrivals[{t}] = c{t}",
        f"{p}    d{t} = True",
        f"{p}    active -= 1",
        f"{p}    c{t} = INF",
        f"{p}    if tot >= next_tick:",
        *_sync_block(p + " " * 8, n, clk_expr),
        f"{p}    continue",
        f"{p}line = line{t}[i{t}]",
    ]
    if enforce:
        body.append(f"{p}clk += 1")
    body += [
        f"{p}j = gget(line)",
        f"{p}if j is not None:",
        f"{p}    if last[j] != {t}:",
        f"{p}        ith{t} += 1",
        f"{p}        last[j] = {t}",
        f"{p}    else:",
        f"{p}        inh{t} += 1",
    ]
    if enforce:
        body.append(f"{p}    stamp[j] = clk")
    body += [
        f"{p}    qref[j].move_to_end(j)",
        f"{p}    c{t} += dch{t}[i{t}]",
        f"{p}else:",
        f"{p}    mis{t} += 1",
        f"{p}    s = line & set_mask",
    ]
    v = p + " " * 8
    if enforce:
        body += [
            f"{p}    cb = s * {n}",
            f"{p}    own = lru[cb + {t}]" if t else f"{p}    own = lru[cb]",
            f"{p}    if filled[s] < ways:",
            f"{p}        base = s * ways",
            f"{p}        j = tags.index(INV, base, base + ways)",
            f"{p}        filled[s] += 1",
            f"{p}    else:",
            # Common case first: at/over target with own lines → own LRU.
            f"{v}if own and len(own) >= targets[{t}]:",
            f"{v}    j = next(iter(own)); vq = own",
            f"{v}else:",
            f"{v}    j = -1",
            f"{v}    if len(own) < targets[{t}]:",
            *_peek_block(v + " " * 8, t, n, guarded=True, skip_own=True, own_alias=True),
            f"{v}    if j < 0 and own:",
            f"{v}        j = next(iter(own)); vq = own",
            # Owns nothing (target 0): eviction control still applies —
            # over-target owners first, then global LRU.
            f"{v}    if j < 0:",
            *_peek_block(v + " " * 8, t, n, guarded=True, skip_own=False, own_alias=True),
            f"{v}    if j < 0:",
            *_peek_block(v + " " * 8, t, n, guarded=False, skip_own=False, own_alias=True),
            f"{v}evt{t} += 1",
            f"{v}if last[j] != {t}:",
            f"{v}    ite{t} += 1",
            f"{v}del gmap[tags[j]]",
            f"{v}del vq[j]",
            f"{p}    tags[j] = line",
            f"{p}    owner[j] = {t}",
            f"{p}    last[j] = {t}",
            f"{p}    stamp[j] = clk",
            f"{p}    gmap[line] = j",
            f"{p}    own[j] = None",
            f"{p}    qref[j] = own",
        ]
    else:
        # Plain LRU: one recency queue per set makes the victim an O(1)
        # peek and its insertion order the whole replacement state — no
        # stamps, no global clock (derived at sync points from the
        # access indices).  Occupancy counters are kept for the
        # introspection APIs.
        body += [
            f"{p}    q = lru[s]",
            f"{p}    cb = s * {n}",
            f"{p}    if filled[s] < ways:",
            f"{p}        base = s * ways",
            f"{p}        j = tags.index(INV, base, base + ways)",
            f"{p}        filled[s] += 1",
            f"{p}    else:",
            f"{v}j = next(iter(q))",
            f"{v}evt{t} += 1",
            f"{v}if last[j] != {t}:",
            f"{v}    ite{t} += 1",
            f"{v}del gmap[tags[j]]",
            f"{v}del q[j]",
            f"{v}count[cb + owner[j]] -= 1",
            f"{p}    count[cb + {t}] += 1",
            f"{p}    tags[j] = line",
            f"{p}    owner[j] = {t}",
            f"{p}    last[j] = {t}",
            f"{p}    gmap[line] = j",
            f"{p}    q[j] = None",
            f"{p}    qref[j] = q",
        ]
    body += [
        f"{p}    c{t} += dcm{t}[i{t}]",
        f"{p}tot += dil{t}[i{t}]",
        f"{p}i{t} += 1",
        f"{p}if tot >= next_tick:",
        *_sync_block(p + "    ", n, clk_expr),
    ]
    return body


def _dispatch_tree(
    w: int, rest: tuple[int, ...], indent: str, n: int, enforce: bool, clk_expr: str
) -> list[str]:
    """Left-fold min-clock dispatch as a nested decision tree.

    ``w`` is the running winner; each level compares it against the next
    contender with ``<=`` (keeping the earlier index on ties) and
    branches, so every root-to-leaf path performs exactly ``n - 1``
    comparisons and the leaf thread is the lowest-index minimum-clock
    thread — the reference scheduler's pick, tie-break included.  Thread
    bodies are duplicated across the ``2^(n-1)`` leaves; the kernels are
    compiled once per (n_threads, enforce) and cached, so the code-size
    cost is paid once while the comparison count is paid per access.
    """
    if not rest:
        return _thread_body(w, n, enforce, clk_expr, indent)
    t = rest[0]
    return [
        f"{indent}if c{w} <= c{t}:",
        *_dispatch_tree(w, rest[1:], indent + "    ", n, enforce, clk_expr),
        f"{indent}else:",
        *_dispatch_tree(t, rest[1:], indent + "    ", n, enforce, clk_expr),
    ]


def _kernel_source(n: int, enforce: bool) -> str:
    """Source of the replay kernel specialised for ``n`` threads.

    Everything per-thread is a scalar fast-local; the scheduler is the
    nested comparison tree of :func:`_dispatch_tree` (exactly ``n - 1``
    clock comparisons per dispatch, lowest index winning ties, matching
    the reference scheduler).  Finished threads park their clock at
    ``+inf`` to drop out of the dispatch; their true arrival time lives
    in ``arrivals``/``clock``.
    """
    clk_expr = "clk" if enforce else "clk + " + " + ".join(f"i{t}" for t in range(n))
    L = []
    A = L.append
    A("def _kernel(sections, prep, clock, busy, stall, instr, fire, barrier, tick_len,")
    A("            clk, gmap, tags, owner, last, stamp, lru, qref, filled, targets,")
    A("            count, set_mask, ways, miss_l, evict_l, ith_l, ite_l, inh_l):")
    A("    INF = _INF")
    A("    INV = _INVALID")
    A("    gget = gmap.get")
    A("    tot = 0")
    A("    next_tick = tick_len")
    for t in range(n):
        A(f"    c{t} = clock[{t}]; st{t} = stall[{t}]; ib{t} = instr[{t}]")
        A(
            f"    mis{t} = miss_l[{t}]; evt{t} = evict_l[{t}]; ith{t} = ith_l[{t}]; "
            f"ite{t} = ite_l[{t}]; inh{t} = inh_l[{t}]"
        )
    A("    si = 0")
    A("    for raw in sections:")
    A("        ps = prep(raw)")
    for t in range(n):
        A(f"        line{t}, dch{t}, dcm{t}, dil{t}, cum{t}, n{t}, tc{t}, ti{t} = ps[{t}]")
        A(f"        i{t} = 0")
        A(f"        d{t} = False")
    A(f"        active = {n}")
    A(f"        arrivals = [0.0] * {n}")
    A("        while active:")
    L.extend(_dispatch_tree(0, tuple(range(1, n)), " " * 12, n, enforce, clk_expr))
    # Fold the finished section's instructions into the per-thread bases
    # (tail instructions were folded when each thread finished).
    A("        " + "; ".join(f"ib{t} += cum{t}[n{t}]" for t in range(n)))
    if not enforce:
        A("        clk += " + " + ".join(f"n{t}" for t in range(n)))
    A("        barrier(si, arrivals)")
    A("        si += 1")
    A("        " + "; ".join(f"c{t} = clock[{t}]; st{t} = stall[{t}]" for t in range(n)))
    for t in range(n):
        A(f"    clock[{t}] = c{t}; busy[{t}] = c{t} - st{t}; instr[{t}] = ib{t}")
        A(
            f"    miss_l[{t}] = mis{t}; evict_l[{t}] = evt{t}; ith_l[{t}] = ith{t}; "
            f"ite_l[{t}] = ite{t}; inh_l[{t}] = inh{t}"
        )
    A("    return clk, tot")
    return "\n".join(L) + "\n"


def _get_kernel(n: int, enforce: bool):
    key = (n, enforce)
    fn = _KERNELS.get(key)
    if fn is None:
        tag = "part" if enforce else "lru"
        ns = {"_INF": float("inf"), "_INVALID": _INVALID}
        exec(  # noqa: S102 — own template, parameterised only by two ints
            compile(_kernel_source(n, enforce), f"<fastpath-kernel-{n}-{tag}>", "exec"),
            ns,
        )
        fn = _KERNELS[key] = ns["_kernel"]
    return fn


def replay(engine) -> RunResult:
    """Fused replay of ``engine`` (a :class:`repro.cpu.engine.CMPEngine`)
    against its :class:`FastPartitionedSharedCache`.

    Control flow is a transcription of ``CMPEngine._run_reference`` with
    four mechanical transformations, none of which may change observable
    behaviour:

    1. **Batch precomputation.**  Each section stream's per-access line
       index, counter base, hit cost (``d_cycles + l2_hit_cycles``) and
       miss cost (``d_cycles + miss_cycles``) are NumPy vector ops
       materialised as Python lists once per section.
    2. **Cache inlining.**  The bodies of ``access``/``_fill``/
       ``_choose_victim`` are fused into the replay loop over aliases of
       the cache's own state arrays, so interval snapshots observe
       exactly the state the reference would produce.
    3. **Specialisation.**  The loop itself is generated per
       ``(n_threads, enforce_partition)`` — see :func:`_kernel_source`.
    4. **Derived counters.**  Every access bumps exactly one of
       {inter-hit, intra-hit, miss}; ``hits`` and ``accesses`` are their
       sums and are materialised only when a snapshot is about to be
       taken (interval boundaries and run end).
    """
    l2 = engine.l2
    compiled = engine.compiled
    n = compiled.n_threads
    l2_hit_cycles = engine.timing.l2_hit_cycles

    clock = [0.0] * n
    busy = [0.0] * n
    instr = [0] * n
    stall = [0.0] * n
    barriers = BarrierLog(n)

    off = l2._offset_bits
    set_mask = l2._set_mask
    stats = l2.stats
    # Offsets let `hits`/`accesses` be derived even if the cache already
    # absorbed standalone accesses before this replay.
    ith_c = stats.inter_thread_hits
    inh_c = stats.intra_thread_hits
    miss_c = stats.misses
    hit_base = [stats.hits[t] - ith_c[t] - inh_c[t] for t in range(n)]
    acc_base = [stats.accesses[t] - stats.hits[t] - miss_c[t] for t in range(n)]

    def sync_l2(clk_now: int) -> None:
        """Materialise the derived counters before a snapshot."""
        l2._clock = clk_now
        hits = stats.hits
        accesses = stats.accesses
        for t in range(n):
            h = hit_base[t] + ith_c[t] + inh_c[t]
            hits[t] = h
            accesses[t] = acc_base[t] + h + miss_c[t]

    ticks = engine.interval_protocol(clock, busy, instr)

    def fire(running, clk_now: int) -> int:
        """Interval tick through the shared interval protocol; returns
        the next aggregate-instruction tick for the kernel to watch."""
        sync_l2(clk_now)
        return ticks.tick(running)

    def barrier(section_index: int, arrivals: list[float]) -> None:
        """End-of-section barrier: everyone resumes at the latest arrival."""
        barriers.record(section_index, arrivals)
        release = max(arrivals)
        for t in range(n):
            stall[t] += release - arrivals[t]
            clock[t] = release

    prep_key = (off, l2_hit_cycles)
    ref = _PREP_CACHE[1]
    if _PREP_CACHE[0] != prep_key or ref is None or ref() is not compiled:
        _PREP_CACHE[:] = [prep_key, weakref.ref(compiled, _forget_prep), {}]
    prep_slots = _PREP_CACHE[2]

    def prep(si: int) -> list[tuple]:
        """Vector-precompute one section's per-thread replay streams.

        The streams depend only on the compiled program, the line-offset
        geometry and the L2 hit latency — not on the policy — so they
        are memoised in a one-slot module cache (keyed by section index)
        and reused verbatim when the same program is replayed under
        other policies (the shape of every policy-comparison
        experiment).  The kernel only ever reads them.
        """
        cached = prep_slots.get(si)
        if cached is not None:
            return cached
        out = []
        for s_ in compiled.sections[si]:
            a = s_.addresses
            line_arr = a >> off
            di = s_.d_instructions
            # Exclusive prefix sums: cum[i] = instructions of the first i
            # accesses.  Keeps the source integer dtype so ``ib + cum[i]``
            # stays an exact Python int — the kernel derives a thread's
            # running instruction count at sync points instead of
            # accumulating per access.
            cum = np.empty(di.size + 1, dtype=di.dtype)
            cum[0] = 0
            np.cumsum(di, out=cum[1:])
            out.append((
                line_arr.tolist(),
                (s_.d_cycles + l2_hit_cycles).tolist(),
                (s_.d_cycles + s_.miss_cycles).tolist(),
                di.tolist(),
                cum.tolist(),
                int(a.size),
                s_.tail_cycles,
                s_.tail_instructions,
            ))
        prep_slots[si] = out
        return out

    kernel = _get_kernel(n, l2.enforce_partition)
    clk, tot = kernel(
        range(len(compiled.sections)), prep, clock, busy, stall, instr, fire, barrier,
        ticks.tick_len, l2._clock,
        l2._lines, l2._tags, l2._owner, l2._last, l2._stamp,
        l2._lru, l2._queue_of, l2._filled, l2.targets, l2._count,
        set_mask, l2.geometry.ways,
        stats.misses, stats.evictions, stats.inter_thread_hits,
        stats.inter_thread_evictions, stats.intra_thread_hits,
    )
    sync_l2(clk)
    ticks.finish(tot)
    return ticks.result(clock, stall, barriers)
