"""Runtime-compiled C kernels: the L2 lane replay and the private-L1 filter.

One shared object holds two routines, built and bound together by
:func:`load_kernel`:

* ``replay_lane`` — the inner loop of :mod:`repro.cache.batch` (below);
* ``l1_filter`` — the inner loop of :func:`repro.cache.l1.simulate_l1_filter`,
  a line-for-line transcription of that function's Python loop: one
  MRU-ordered row of ``ways`` int64 tags per set; a hit moves the tag to
  the front, a miss inserts it at the front and drops the last tag when
  the row is full.  It writes a ``uint8`` hit mask that Python views as
  ``bool``.  :func:`load_l1_filter` returns it.

The batched backend replays one prepared program under many policy/L2
lanes.  Lane state is NumPy struct-of-arrays, but the per-access control
flow — min-clock dispatch, set probe, Section V victim selection — is
inherently sequential *within* a lane, and a NumPy formulation of the
lane-parallel step was measured at 2.5 µs of per-operator dispatch x ~20
operators per step on this class of host: it cannot break even against
the fused Python fastpath below ~48 lanes (see BENCH.md v1.9.0).  So the
inner loop is a small C routine instead — ROADMAP item 2's "compiled
kernel with pure-Python fallback" option — compiled once per host with
the system C compiler and loaded through :mod:`ctypes`.

``replay_lane`` replays ``CMPEngine._run_reference`` plus the reference
cache's ``access``/``_fill``/``_choose_victim`` over the fastpath's data
structures (DESIGN.md §C.1), so no per-access step scans a set's ways:

* dispatch scans threads in index order keeping a strictly smaller
  clock, so the lowest-index minimum-clock thread wins ties;
* the hit probe is a line→slot map: an ``int32`` open-addressing table
  of at least 16 x ``sets x ways`` buckets, each holding a slot or -1.
  A line's home bucket is the top bits of ``line * 0x9E3779B97F4A7C15``;
  probes are linear, keys are read back from ``tags[slot]``, and an
  eviction deletes by backward shift, so no tombstones build up;
* each (set, owner) keeps its lines in an LRU list (``int32`` prev/next
  links per slot, head/tail per (set, thread)).  A hit moves the line to
  its owner's tail, a fill appends to the filler's tail, an eviction
  unlinks it from its old owner.  Every access stamps one line with a
  fresh clock, so stamps are unique and each list stays in stamp order.
  The oldest head among some owners is therefore the line the
  reference's way-order scan over those owners' lines picks, and each
  Section V rule compares at most ``n`` heads: over-target LRU (owners
  with ``count > target``), own LRU (the thread's head), global LRU
  (every head; plain-LRU lanes and the last fallback);
* a cold fill takes way ``filled[s]``: nothing invalidates a line during
  a replay, so a set's invalid ways are always the suffix
  ``[filled[s], ways)``, exactly the reference's first invalid way;
* it reads the program's flat streams (:mod:`repro.cpu.streams`) in
  place — mmapped straight from a prep bundle on a warm run — through
  per-(section, thread) ``starts``/``ends``; it shifts each address to
  its line and adds the hit latency or the access's miss penalty to its
  ``d_cycles`` itself, an add computed before the clock add, exactly as
  the reference computes ``d_cycles + l2_hit_cycles`` before adding it;
* all cycle quantities are IEEE-754 doubles accumulated in the
  reference's order (no ``-ffast-math`` or other re-associating flag),
  instruction counts are ``int64`` — byte-identity is the contract,
  enforced by ``tests/test_cache_differential.py``.

The routine runs one lane until the aggregate instruction count crosses
the next interval tick (returns ``1``) or the program completes
(returns ``0``); Python fires the tick — statistics snapshot, runtime
policy consultation, target installation, reconfiguration overhead —
and re-enters.  Barriers and thread completion are handled in C.

Compiled objects are cached on disk keyed by the SHA-256 of the source,
so sibling worker processes share one build.  The cache is trusted only
when neither the directory nor the object is a symlink, both belong to
the current user, and neither is group- or world-writable; otherwise
the kernel is built into a fresh private directory, bound, and the
directory removed — never ``dlopen`` an object someone else could have
planted.  When no compiler is
available (or the build fails) :func:`load_kernel` and
:func:`load_l1_filter` return ``None``: the batch backend falls back to
the pure-Python fastpath per lane (``batch.fallback_pure``) and the L1
filter to its Python loop (``l1.fallback_pure``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

__all__ = ["KERNEL_SOURCE", "kernel_available", "load_kernel", "load_l1_filter"]

KERNEL_SOURCE = r"""
#include <stdint.h>

#define TICK 1
#define DONE 0

/* ctrl slots: persistent scalar lane state across tick pauses. */
#define C_CLK       0   /* cache LRU clock (one tick per access)      */
#define C_TOT       1   /* aggregate instructions retired             */
#define C_NEXT_TICK 2   /* next interval boundary (aggregate instrs)  */
#define C_SEC       3   /* current section index                      */
#define C_ACTIVE    4   /* threads still running this section         */

/* Home bucket of `line` in a 2^(64 - shift)-entry line->slot map:
 * the top bits of a Fibonacci-hash product. */
static inline uint64_t map_home(int64_t line, int64_t shift)
{
    return ((uint64_t)line * UINT64_C(0x9E3779B97F4A7C15)) >> shift;
}

/* Drop the entry at bucket `i` by backward shift: pull each later
 * entry of the probe run back into the hole unless the hole lies
 * before its home bucket.  No tombstones, so probes stay short. */
static void map_delete(int32_t *map, uint64_t mask, int64_t shift,
                       const int64_t *tags, uint64_t i)
{
    uint64_t k = i;
    for (;;) {
        int32_t e;
        k = (k + 1) & mask;
        e = map[k];
        if (e < 0) break;
        if (((k - map_home(tags[e], shift)) & mask) >= ((k - i) & mask)) {
            map[i] = e;
            i = k;
        }
    }
    map[i] = -1;
}

/* Per-(set, owner) LRU lists: slots linked oldest (head) to newest
 * (tail).  Every access stamps one line with a fresh clock and moves
 * it to a tail, so each list stays in stamp order. */
static inline void lru_unlink(int32_t *prev, int32_t *next, int32_t *head,
                              int32_t *tail, int64_t q, int32_t j)
{
    int32_t p = prev[j], x = next[j];
    if (p >= 0) next[p] = x; else head[q] = x;
    if (x >= 0) prev[x] = p; else tail[q] = p;
}

static inline void lru_append(int32_t *prev, int32_t *next, int32_t *head,
                              int32_t *tail, int64_t q, int32_t j)
{
    int32_t p = tail[q];
    prev[j] = p;
    next[j] = -1;
    if (p >= 0) next[p] = j; else head[q] = j;
    tail[q] = j;
}

/* Oldest list head of set `cb / n`, among every owner or (over_only)
 * only owners holding more lines than their target; -1 if none. */
static int32_t oldest_head(const int32_t *head, const int64_t *stamp,
                           const int64_t *count, const int64_t *targets,
                           int64_t cb, int64_t n, int over_only)
{
    int32_t best = -1;
    int64_t o, best_stamp = 0;
    for (o = 0; o < n; o++) {
        int32_t h = head[cb + o];
        if (h < 0 || (over_only && count[cb + o] <= targets[o])) continue;
        if (best < 0 || stamp[h] < best_stamp) { best = h; best_stamp = stamp[h]; }
    }
    return best;
}

/* Section V victim of a full set, for missing thread `t`.  Stamps are
 * unique, so the oldest head among some owners is the line the
 * reference's way-order scan over those owners' lines picks. */
static int32_t choose_victim(
    int64_t t, int64_t cb, int64_t n, const int32_t *head,
    const int64_t *stamp, const int64_t *count, const int64_t *targets,
    int64_t enforce)
{
    int32_t j;
    if (!enforce) return oldest_head(head, stamp, count, targets, cb, n, 0);
    if (count[cb + t] < targets[t]) {
        /* Under target: evict the LRU line of an over-target thread. */
        j = oldest_head(head, stamp, count, targets, cb, n, 1);
        if (j >= 0) return j;
        /* Unreachable on a full set (counts and targets both sum to
         * `ways`), but fall through to own-LRU defensively. */
    }
    /* At or over target (or no over-target victim): own LRU line. */
    if (head[cb + t] >= 0) return head[cb + t];
    /* Thread owns nothing here (possible when its target is 0).
     * Eviction control still applies: prefer the LRU line of an
     * over-target thread so under-target threads keep their lines. */
    j = oldest_head(head, stamp, count, targets, cb, n, 1);
    if (j >= 0) return j;
    /* Nobody over target either: global LRU. */
    return oldest_head(head, stamp, count, targets, cb, n, 0);
}

int64_t replay_lane(
    /* the program's flat streams (repro.cpu.streams), read in place; */
    /* stream k = sec*n + t spans [starts[k], ends[k])                 */
    const int64_t *addr,         /* addresses                              */
    const double  *dcyc,         /* d_cycles                               */
    const double  *mcyc,         /* miss_cycles                            */
    const int64_t *dil,          /* d_instructions                         */
    const int64_t *starts,       /* [n_sections*n] stream start            */
    const int64_t *ends,         /* [n_sections*n] stream end              */
    const double  *tail_c,       /* [n_sections*n] section tail cycles     */
    const int64_t *tail_i,       /* [n_sections*n] section tail instrs     */
    /* per-lane cache state */
    int64_t *tags, int32_t *owner, int32_t *last, int64_t *stamp,
    int32_t *filled, int64_t *count, const int64_t *targets,
    int32_t *map,                /* [2^(64-map_shift)] line -> slot, or -1 */
    int32_t *prev, int32_t *next,      /* [sets*ways] LRU list links       */
    int32_t *head, int32_t *tail,      /* [sets*n] per-(set, owner) ends   */
    /* per-lane statistics counters */
    int64_t *miss, int64_t *evict, int64_t *ith, int64_t *ite, int64_t *inh,
    /* per-lane CPU state */
    double *clock, double *stall, int64_t *instr,
    int64_t *cursor, int32_t *done, double *arrivals,
    int64_t *ctrl,
    /* parameters */
    int64_t n, int64_t n_sections, int64_t ways,
    int64_t set_mask, int64_t map_shift, int64_t enforce,
    int64_t offset_bits, double l2_hit_cycles)
{
    int64_t clk       = ctrl[C_CLK];
    int64_t tot       = ctrl[C_TOT];
    int64_t next_tick = ctrl[C_NEXT_TICK];
    int64_t sec       = ctrl[C_SEC];
    int64_t active    = ctrl[C_ACTIVE];
    uint64_t map_mask = UINT64_MAX >> map_shift;
    int64_t t, k;

    for (; sec < n_sections; ) {
        const int64_t *sec_end = ends + sec * n;
        double *arr = arrivals + sec * n;
        while (active > 0) {
            /* Lowest-index minimum-clock runnable thread (strict <). */
            double best = 0.0;
            t = -1;
            for (k = 0; k < n; k++) {
                if (!done[k]) {
                    double c = clock[k];
                    if (t < 0 || c < best) { best = c; t = k; }
                }
            }
            {
                int64_t i = cursor[t];
                if (i >= sec_end[t]) {
                    /* Stream exhausted: charge the section tail, arrive. */
                    clock[t] += tail_c[sec * n + t];
                    instr[t] += tail_i[sec * n + t];
                    tot      += tail_i[sec * n + t];
                    arr[t] = clock[t];
                    done[t] = 1;
                    active--;
                    if (tot >= next_tick) goto pause;
                    continue;
                }
                {
                    int64_t lv = addr[i] >> offset_bits;
                    int64_t s = lv & set_mask;
                    int64_t cb = s * n;
                    uint64_t h = map_home(lv, map_shift);
                    int32_t j;
                    clk += 1;
                    while ((j = map[h]) >= 0 && tags[j] != lv) h = (h + 1) & map_mask;
                    if (j >= 0) {
                        int64_t q = cb + owner[j];
                        if (last[j] != (int32_t)t) { ith[t] += 1; last[j] = (int32_t)t; }
                        else                       { inh[t] += 1; }
                        stamp[j] = clk;
                        if (tail[q] != j) {
                            lru_unlink(prev, next, head, tail, q, j);
                            lru_append(prev, next, head, tail, q, j);
                        }
                        clock[t] += dcyc[i] + l2_hit_cycles;
                    } else {
                        miss[t] += 1;
                        if (filled[s] < ways) {
                            /* Cold fill: nothing is ever invalidated, so
                             * the invalid ways are the suffix from filled[s]. */
                            j = (int32_t)(s * ways + filled[s]);
                            filled[s] += 1;
                        } else {
                            uint64_t e;
                            j = choose_victim(t, cb, n, head, stamp, count,
                                              targets, enforce);
                            evict[t] += 1;
                            if (last[j] != (int32_t)t) ite[t] += 1;
                            count[cb + owner[j]] -= 1;
                            lru_unlink(prev, next, head, tail, cb + owner[j], j);
                            e = map_home(tags[j], map_shift);
                            while (map[e] != j) e = (e + 1) & map_mask;
                            map_delete(map, map_mask, map_shift, tags, e);
                            /* The shift may have opened a bucket earlier
                             * on this line's probe run. */
                            h = map_home(lv, map_shift);
                            while (map[h] >= 0) h = (h + 1) & map_mask;
                        }
                        map[h] = j;
                        tags[j] = lv;
                        owner[j] = (int32_t)t;
                        last[j] = (int32_t)t;
                        stamp[j] = clk;
                        count[cb + t] += 1;
                        lru_append(prev, next, head, tail, cb + t, j);
                        clock[t] += dcyc[i] + mcyc[i];
                    }
                    instr[t] += dil[i];
                    tot      += dil[i];
                    cursor[t] = i + 1;
                    if (tot >= next_tick) goto pause;
                }
            }
        }
        /* Barrier: everyone resumes at the latest arrival; early
         * threads book the difference as stall (slack). */
        {
            double release = arr[0];
            for (k = 1; k < n; k++) if (arr[k] > release) release = arr[k];
            for (k = 0; k < n; k++) {
                stall[k] += release - arr[k];
                clock[k] = release;
            }
        }
        /* Each thread's cursor moves to its next section's stream. */
        if (sec + 1 < n_sections)
            for (k = 0; k < n; k++) cursor[k] = starts[(sec + 1) * n + k];
        for (k = 0; k < n; k++) done[k] = 0;
        active = n;
        sec++;
    }
    ctrl[C_CLK] = clk; ctrl[C_TOT] = tot; ctrl[C_NEXT_TICK] = next_tick;
    ctrl[C_SEC] = sec; ctrl[C_ACTIVE] = active;
    return DONE;

pause:
    ctrl[C_CLK] = clk; ctrl[C_TOT] = tot; ctrl[C_NEXT_TICK] = next_tick;
    ctrl[C_SEC] = sec; ctrl[C_ACTIVE] = active;
    return TICK;
}

void l1_filter(
    const int64_t *addrs, int64_t n,
    int64_t offset_bits, int64_t index_mask, int64_t tag_shift, int64_t ways,
    int64_t *rows,      /* [sets*ways] MRU-ordered tags, row[0] = MRU     */
    int64_t *fill,      /* [sets] valid tags per row (zero on entry)      */
    uint8_t *hits)      /* [n] out: 1 = L1 hit                            */
{
    int64_t i, k;
    for (i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t s = (a >> offset_bits) & index_mask;
        int64_t tag = a >> tag_shift;
        int64_t *row = rows + s * ways;
        int64_t len = fill[s];
        for (k = 0; k < len; k++) {
            if (row[k] == tag) break;
        }
        if (k < len) {
            /* Hit: move the tag to the front. */
            for (; k > 0; k--) row[k] = row[k - 1];
            row[0] = tag;
            hits[i] = 1;
        } else {
            /* Miss: insert at the front; a full row drops its last tag. */
            if (len < ways) fill[s] = ++len;
            for (k = len - 1; k > 0; k--) row[k] = row[k - 1];
            row[0] = tag;
            hits[i] = 0;
        }
    }
}
"""

#: Result codes of ``replay_lane``.
RC_DONE = 0
RC_TICK = 1

_LOADED: list = [False, None, None]  # [attempted, replay_lane, l1_filter]


def _source_digest() -> str:
    return hashlib.sha256(KERNEL_SOURCE.encode("utf-8")).hexdigest()[:16]


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if root:
        return Path(root)
    return Path(tempfile.gettempdir()) / f"repro-batchkernel-{os.getuid()}"


def _private(path: Path) -> bool:
    """True when ``path`` is not a symlink, is owned by the current user,
    and has no group or other write bit — nobody else can swap it."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return (
        not stat.S_ISLNK(st.st_mode)
        and st.st_uid == os.getuid()
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _compile(out_path: Path) -> bool:
    """Build the shared object next to ``out_path`` and rename into place.

    The rename is atomic on POSIX, so concurrent workers racing to build
    the same digest all end up loading one complete object.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return False
    src = out_path.with_suffix(f".{os.getpid()}.c")
    tmp = out_path.with_suffix(f".{os.getpid()}.so")
    try:
        src.write_text(KERNEL_SOURCE)
        proc = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp), str(src)],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return False
        os.chmod(tmp, 0o755)  # whatever the umask, a later run must trust it
        os.replace(tmp, out_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        for leftover in (src, tmp):
            try:
                leftover.unlink()
            except OSError:
                pass


def _bind(path: Path):
    """Bind both routines of the shared object: ``(replay_lane, l1_filter)``."""
    lib = ctypes.CDLL(str(path))
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_i32 = ctypes.POINTER(ctypes.c_int32)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    fn = lib.replay_lane
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        p_i64, p_f64, p_f64, p_i64, p_i64, p_i64, p_f64, p_i64,  # streams
        p_i64, p_i32, p_i32, p_i64, p_i32, p_i64, p_i64,  # cache state
        p_i32, p_i32, p_i32, p_i32, p_i32,  # map, prev, next, head, tail
        p_i64, p_i64, p_i64, p_i64, p_i64,  # counters
        p_f64, p_f64, p_i64, p_i64, p_i32, p_f64, p_i64,  # cpu state
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # n, n_sections, ways
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # set_mask, map_shift, enforce
        ctypes.c_int64, ctypes.c_double,  # offset_bits, l2_hit_cycles
    ]
    i64 = ctypes.c_int64
    l1 = lib.l1_filter
    l1.restype = None
    l1.argtypes = [
        p_i64, i64,  # addrs, n
        i64, i64, i64, i64,  # offset_bits, index_mask, tag_shift, ways
        p_i64, p_i64, ctypes.POINTER(ctypes.c_uint8),  # rows, fill, hits
    ]
    return fn, l1


def load_kernel():
    """The bound ``replay_lane`` routine, or ``None`` when unavailable.

    One build/load attempt per process builds and binds both routines;
    the outcome (including failure) is memoised so a compiler-less host
    pays the probe exactly once.  The on-disk cache is read or written
    only while both it and the object pass :func:`_private`; otherwise
    the object is built into a throwaway private directory.
    """
    if _LOADED[0]:
        return _LOADED[1]
    _LOADED[0] = True
    cache = _cache_dir()
    so_path = cache / f"batchkernel-{_source_digest()}.so"
    scratch = None
    try:
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            pass  # unusable cache: the private-build path below still works
        if not _private(cache) or (os.path.lexists(so_path) and not _private(so_path)):
            scratch = Path(tempfile.mkdtemp(prefix="repro-batchkernel-"))
            so_path = scratch / so_path.name
        if not os.path.lexists(so_path) and not _compile(so_path):
            return None
        _LOADED[1], _LOADED[2] = _bind(so_path)
    except OSError:
        _LOADED[1] = _LOADED[2] = None
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return _LOADED[1]


def load_l1_filter():
    """The bound ``l1_filter`` routine, or ``None`` when unavailable.

    Shares :func:`load_kernel`'s single build/load attempt.
    """
    load_kernel()
    return _LOADED[2]


def kernel_available() -> bool:
    """True when the compiled lane kernel can be (or has been) loaded."""
    return load_kernel() is not None
