"""Encode/decode prepared-program artifacts for :mod:`repro.prep.store`.

Two bundle kinds, one per preparation level:

``trace``
    The generated per-(section, thread) ``(addrs, gaps)`` arrays of a
    :class:`~repro.sync.program.SyntheticProgram`, concatenated
    section-major/thread-minor with a ``(sections, threads)`` length
    table.  Keyed by the workload identity and every
    :func:`~repro.trace.builder.build_program` parameter; independent of
    the machine model, so one trace serves every L1/timing variant.

``streams``
    The L1-filtered streams of a
    :class:`~repro.cpu.streams.CompiledProgram` in the flat layout
    (:mod:`repro.cpu.streams`): four per-access arrays, ``lens`` and five
    per-stream scalar tables — the L1 filter's outputs and nothing
    derived from them.  Keyed by the trace key plus the L1 geometry, the
    timing model and the layout version, because the L1 filter depends
    on the first two and readers on the third.  A hit skips trace
    generation *and* the (dominant) L1 filtering cost, and the lane
    kernel replays the mapped arrays in place.

Equivalence argument: every array round-trips ``.npy`` bit-exactly
(int64/int32/float64 are stored verbatim), reconstruction slices the
concatenated arrays back into views with the original lengths, and every
scalar is recovered as the same Python ``int``/``float`` — so a rebuilt
program or compiled stream is value-identical to the one that was
stored.  The differential suite pins this byte-for-byte.  Before any
view is built, either bundle's manifest fields and array structure are
checked (:func:`repro.cpu.streams.check_flat`); a bundle that fails is
corrupt, and its consumer evicts and regenerates it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cpu.streams import CompiledProgram, check_flat, flat_arrays, flat_program
from repro.cpu.timing import TimingModel
from repro.prep.store import PrepBundle
from repro.sync.program import Section, SyntheticProgram, ThreadWork
from repro.trace.workloads import WorkloadProfile

__all__ = [
    "compiled_from_bundle",
    "program_from_bundle",
    "stream_bundle",
    "stream_key",
    "trace_bundle",
    "trace_key",
]


def _profile_fingerprint(profile: WorkloadProfile) -> str:
    """Content hash of a profile's behaviours/phases.

    The key must identify the *workload*, not just its name: a
    user-constructed profile reusing a registered name must not alias the
    registered traces.  Dataclass reprs of ints/floats are deterministic
    across processes, unlike ``hash(str)``.
    """
    body = repr((profile.base_behaviors, profile.phases))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def trace_key(
    profile: WorkloadProfile,
    *,
    n_threads: int,
    n_intervals: int,
    interval_instructions: int,
    sections_per_interval: int,
    seed: int,
    line_bytes: int,
    work_jitter: float,
) -> dict:
    """Content-address key for a generated (pre-L1) trace bundle."""
    return {
        "kind": "trace",
        "app": profile.name,
        "profile_fp": _profile_fingerprint(profile),
        "n_threads": n_threads,
        "n_intervals": n_intervals,
        "interval_instructions": interval_instructions,
        "sections_per_interval": sections_per_interval,
        "seed": seed,
        "line_bytes": line_bytes,
        "work_jitter": work_jitter,
    }


#: Names the arrays a stream bundle holds.  It is part of the stream key,
#: so code that writes another set of arrays never reads these bundles
#: and this code never reads theirs.
STREAM_LAYOUT = "flat-l1"


def stream_key(profile: WorkloadProfile, config) -> dict:
    """Content-address key for a compiled (post-L1) stream bundle.

    ``config`` is a :class:`repro.sim.SystemConfig`; only the fields that
    shape the compiled streams participate — the L2 geometry, ``min_ways``
    and backend select *replay* behaviour, not preparation, and keying on
    them would shatter the cache across a policy/geometry sweep.
    """
    key = trace_key(
        profile,
        n_threads=config.n_threads,
        n_intervals=config.n_intervals,
        interval_instructions=config.interval_instructions,
        sections_per_interval=config.sections_per_interval,
        seed=config.seed,
        line_bytes=config.line_bytes,
        work_jitter=0.05,  # build_program default; the builder owns traces
    )
    key["kind"] = "streams"
    key["l1_geometry"] = config.l1_geometry.to_dict()
    key["timing"] = config.timing.to_dict()
    key["layout"] = STREAM_LAYOUT
    return key


def _manifest(meta: dict) -> tuple[str, int, int, dict]:
    """A bundle manifest's ``name``, ``n_sections``, ``n_threads`` and
    ``program_meta``; ValueError if one is missing or mistyped (corrupt)."""
    try:
        shape = int(meta["n_sections"]), int(meta["n_threads"])
        return meta["name"], *shape, dict(meta["program_meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bundle manifest is malformed: {exc!r}") from None


# ----------------------------------------------------------------------
# Trace bundles
# ----------------------------------------------------------------------


def trace_bundle(program: SyntheticProgram) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a program's traces into concatenated arrays + manifest."""
    works = [w for sec in program.sections for w in sec.works]
    lens = np.array(
        [[w.addrs.size for w in sec.works] for sec in program.sections], dtype=np.int64
    )
    arrays = {
        "addrs": np.concatenate([w.addrs for w in works]),
        "gaps": np.concatenate([w.gaps for w in works]),
        "lens": lens,
    }
    meta = {
        "name": program.name,
        "n_sections": len(program.sections),
        "n_threads": program.n_threads,
        "program_meta": dict(program.meta),
    }
    return arrays, meta


def program_from_bundle(bundle: PrepBundle) -> SyntheticProgram:
    """Rebuild a :class:`SyntheticProgram` from a trace bundle.

    Thread works are zero-copy views into the mmapped concatenations, so
    a warm program costs page mappings, not allocation or generation.
    Raises ValueError when the manifest is malformed or the arrays do not
    match its ``(n_sections, n_threads)`` shape (:func:`repro.cpu.streams.
    check_flat`; slicing would clamp and rebuild another program): the
    bundle is corrupt.
    """
    name, n_sections, n_threads, program_meta = _manifest(bundle.meta)
    # A trace bundle's per-access arrays; it has no per-work tables.
    check_flat(bundle.arrays, n_sections, n_threads, (("addrs", np.int64), ("gaps", np.int32)), ())
    addrs, gaps = bundle.arrays["addrs"], bundle.arrays["gaps"]
    bounds = [0, *np.cumsum(bundle.arrays["lens"].ravel()).tolist()]
    works = [ThreadWork(addrs=addrs[a:b], gaps=gaps[a:b]) for a, b in zip(bounds, bounds[1:])]
    sections = tuple(
        Section(works=tuple(works[s * n_threads : (s + 1) * n_threads])) for s in range(n_sections)
    )
    return SyntheticProgram(name=name, sections=sections, meta=program_meta)


# ----------------------------------------------------------------------
# Stream bundles
# ----------------------------------------------------------------------


def stream_bundle(
    compiled: CompiledProgram, timing: TimingModel, offset_bits: int
) -> tuple[dict[str, np.ndarray], dict]:
    """A program's flat stream arrays plus manifest, ready to publish.

    A program from :func:`~repro.cpu.streams.compile_program` or
    :func:`compiled_from_bundle` already holds them, so nothing is
    copied.  The bundle holds only the L1 filter's outputs, so neither
    ``timing`` nor the L2 line offset ``offset_bits`` shapes it; the
    stream key already names the timing model.
    """
    arrays = compiled.flat if compiled.flat is not None else flat_arrays(compiled.sections)
    meta = {
        "name": compiled.name,
        "n_sections": len(compiled.sections),
        "n_threads": compiled.n_threads,
        "program_meta": dict(compiled.meta),
    }
    return dict(arrays), meta


def compiled_from_bundle(bundle: PrepBundle) -> CompiledProgram:
    """Rebuild a :class:`CompiledProgram` from a stream bundle.

    The program's flat arrays are the bundle's mapped arrays and its
    streams are zero-copy views into them.  Raises ValueError when the
    manifest is malformed or the arrays do not match its ``(n_sections,
    n_threads)`` shape (see :func:`repro.cpu.streams.flat_program`): the
    bundle is corrupt.
    """
    name, n_sections, n_threads, program_meta = _manifest(bundle.meta)
    return flat_program(
        bundle.arrays, name=name, n_sections=n_sections, n_threads=n_threads, meta=program_meta
    )
