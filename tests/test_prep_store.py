"""Tests for :mod:`repro.prep` — the prepared-program artifact cache.

Covers the store mechanics (roundtrip, LRU, atomic publish, corruption
recovery), key invalidation (parameter bump, version bump), the
trace/stream bundle encodings and the stream bundle's structure check,
and the headline correctness bar: replay results are byte-identical
across {no cache, cold cache, warm cache} on both execution engines and
on the batch lane kernel, which replays a warm bundle's mapped arrays in
place.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

import repro
from repro.cache.geometry import CacheGeometry
from repro.exec.jobs import JobSpec
from repro.exec.pool import ProcessPoolEngine
from repro.obs.metrics import METRICS
from repro.prep import (
    PrepBundle,
    PrepStore,
    compiled_from_bundle,
    configure_prep,
    get_prep_store,
    key_digest,
    program_from_bundle,
    set_prep_store,
    stream_bundle,
    stream_key,
    trace_bundle,
    trace_key,
)
from repro.sim.config import SystemConfig
from repro.sim.driver import clear_program_cache, prepare_program, run_application, run_batch
from repro.trace.builder import build_program
from repro.trace.workloads import get_workload


@pytest.fixture(autouse=True)
def _no_ambient_prep_store():
    """Prep caching must be opt-in per test; restore whatever was active."""
    previous = set_prep_store(None)
    try:
        yield
    finally:
        set_prep_store(previous)


def _result_bytes(app: str, policy: str, config: SystemConfig) -> str:
    clear_program_cache()
    result = run_application(app, policy, config)
    return json.dumps(result.to_dict(), sort_keys=True)


def _sample_key(tag: str = "a") -> dict:
    return {"kind": "test", "tag": tag, "n": 3}


def _sample_arrays() -> dict[str, np.ndarray]:
    return {
        "x": np.arange(12, dtype=np.int64),
        "y": np.linspace(0.0, 1.0, 5),
    }


class TestPrepStore:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        store = PrepStore(tmp_path)
        key = _sample_key()
        assert store.get(key) is None
        store.put(key, _sample_arrays(), {"note": "hello"})
        bundle = store.get(key)
        assert bundle is not None
        assert bundle.meta["note"] == "hello"
        assert bundle.meta["key"] == key
        np.testing.assert_array_equal(bundle.arrays["x"], np.arange(12, dtype=np.int64))
        np.testing.assert_array_equal(bundle.arrays["y"], np.linspace(0.0, 1.0, 5))
        assert store.stats() == {
            "hits": 1, "misses": 1, "writes": 1, "corrupt": 0, "races": 0,
            "stale_swept": 0, "fetched": 0,
        }
        assert key in store
        assert len(store) == 1

    def test_arrays_are_memory_mapped(self, tmp_path):
        store = PrepStore(tmp_path)
        store.put(_sample_key(), _sample_arrays())
        bundle = store.get(_sample_key())
        # A plain ndarray view whose base is the mapping (and keeps it alive).
        assert isinstance(bundle.arrays["x"].base, np.memmap)
        assert METRICS.counter("prep.bytes_mapped").value == bundle.nbytes

    def test_lru_serves_repeat_gets_in_process(self, tmp_path):
        store = PrepStore(tmp_path)
        store.put(_sample_key(), _sample_arrays())
        first = store.get(_sample_key())
        second = store.get(_sample_key())
        assert first is second  # same materialisation, not a re-mmap
        assert store.hits == 2

    def test_lru_evicts_beyond_limit(self, tmp_path):
        store = PrepStore(tmp_path, lru_limit=2)
        for tag in ("a", "b", "c"):
            store.put(_sample_key(tag), _sample_arrays())
            assert store.get(_sample_key(tag)) is not None
        assert len(store._lru) == 2
        # "a" was evicted from the LRU but still lives on disk.
        assert store.get(_sample_key("a")) is not None

    def test_distinct_keys_do_not_alias(self, tmp_path):
        store = PrepStore(tmp_path)
        store.put(_sample_key("a"), {"x": np.zeros(3, dtype=np.int64)})
        store.put(_sample_key("b"), {"x": np.ones(3, dtype=np.int64)})
        assert key_digest(_sample_key("a")) != key_digest(_sample_key("b"))
        np.testing.assert_array_equal(
            store.get(_sample_key("b")).arrays["x"], np.ones(3, dtype=np.int64)
        )

    def test_version_namespaces_are_disjoint(self, tmp_path):
        old = PrepStore(tmp_path, version="1.0.0")
        old.put(_sample_key(), _sample_arrays())
        new = PrepStore(tmp_path, version="2.0.0")
        assert new.get(_sample_key()) is None
        assert new.misses == 1
        assert PrepStore(tmp_path, version="1.0.0").get(_sample_key()) is not None

    def test_default_version_tracks_package(self, tmp_path):
        assert PrepStore(tmp_path).version == repro.__version__

    def test_corrupt_manifest_recovers_as_miss(self, tmp_path):
        store = PrepStore(tmp_path)
        path = store.put(_sample_key(), _sample_arrays())
        (path / "meta.json").write_text("{not json", encoding="utf-8")
        store._lru.clear()
        assert store.get(_sample_key()) is None
        assert store.corrupt == 1
        assert METRICS.counter("prep.corrupt").value == 1
        assert not path.exists()  # evicted wholesale
        # Regeneration re-publishes cleanly.
        store.put(_sample_key(), _sample_arrays())
        assert store.get(_sample_key()) is not None

    def test_truncated_array_recovers_as_miss(self, tmp_path):
        store = PrepStore(tmp_path)
        path = store.put(_sample_key(), _sample_arrays())
        with open(path / "x.npy", "r+b") as fh:
            fh.truncate(16)
        store._lru.clear()
        assert store.get(_sample_key()) is None
        assert store.corrupt == 1
        assert not path.exists()

    def test_mis_keyed_bundle_is_corruption(self, tmp_path):
        store = PrepStore(tmp_path)
        path = store.put(_sample_key(), _sample_arrays())
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        meta["key"] = {"kind": "other"}
        (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        store._lru.clear()
        assert store.get(_sample_key()) is None
        assert store.corrupt == 1

    def test_racing_put_stands_down(self, tmp_path):
        a = PrepStore(tmp_path)
        b = PrepStore(tmp_path)
        a.put(_sample_key(), _sample_arrays())
        b.put(_sample_key(), _sample_arrays())  # loses the rename race
        assert b.races == 1
        assert b.writes == 0
        assert len(a) == 1
        assert a.get(_sample_key()) is not None

    def test_clear_removes_bundles_and_staging(self, tmp_path):
        store = PrepStore(tmp_path)
        store.put(_sample_key("a"), _sample_arrays())
        path = store.put(_sample_key("b"), _sample_arrays())
        stage = path.parent / ".stage-dead-xyz"
        stage.mkdir()
        (stage / "x.npy").write_bytes(b"junk")
        assert store.clear() == 2
        assert len(store) == 0
        assert not stage.exists()
        assert store.get(_sample_key("a")) is None

    def test_invalid_lru_limit_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PrepStore(tmp_path, lru_limit=0)

    def test_configure_prep_installs_and_disables(self, tmp_path):
        store = configure_prep(tmp_path)
        assert get_prep_store() is store
        assert configure_prep(None) is None
        assert get_prep_store() is None


class TestKeys:
    def test_trace_key_changes_with_every_parameter(self):
        profile = get_workload("swim")
        base = dict(
            n_threads=4, n_intervals=6, interval_instructions=1500,
            sections_per_interval=2, seed=1, line_bytes=64, work_jitter=0.05,
        )
        digests = {key_digest(trace_key(profile, **base))}
        for field, bump in [
            ("n_threads", 8), ("n_intervals", 7), ("interval_instructions", 1501),
            ("sections_per_interval", 3), ("seed", 2), ("line_bytes", 32),
            ("work_jitter", 0.1),
        ]:
            digests.add(key_digest(trace_key(profile, **{**base, field: bump})))
        assert len(digests) == 8

    def test_trace_key_depends_on_profile_content_not_just_name(self):
        swim = get_workload("swim")
        art = get_workload("art")
        fake = type(swim)(
            name="swim", suite=swim.suite, description=swim.description,
            base_behaviors=art.base_behaviors, phases=art.phases,
        )
        kw = dict(
            n_threads=4, n_intervals=6, interval_instructions=1500,
            sections_per_interval=2, seed=1, line_bytes=64, work_jitter=0.05,
        )
        assert trace_key(swim, **kw) != trace_key(fake, **kw)

    def test_stream_key_ignores_l2_and_backend(self, tiny_config):
        import dataclasses

        from repro.cache.geometry import CacheGeometry

        profile = get_workload("swim")
        k1 = stream_key(profile, tiny_config)
        bigger_l2 = dataclasses.replace(
            tiny_config, l2_geometry=CacheGeometry(sets=32, ways=16)
        )
        assert stream_key(profile, bigger_l2) == k1
        other_seed = dataclasses.replace(tiny_config, seed=tiny_config.seed + 1)
        assert stream_key(profile, other_seed) != k1


class TestBundles:
    def test_trace_bundle_roundtrip(self, tmp_path):
        profile = get_workload("equake")
        program = build_program(profile, n_intervals=4, interval_instructions=1200, seed=3)
        store = PrepStore(tmp_path)
        arrays, meta = trace_bundle(program)
        store.put({"k": "t"}, arrays, meta)
        rebuilt = program_from_bundle(store.get({"k": "t"}))
        assert rebuilt.name == program.name
        assert rebuilt.meta == program.meta
        assert len(rebuilt.sections) == len(program.sections)
        for sec_a, sec_b in zip(program.sections, rebuilt.sections):
            for w_a, w_b in zip(sec_a.works, sec_b.works):
                np.testing.assert_array_equal(w_a.addrs, w_b.addrs)
                np.testing.assert_array_equal(w_a.gaps, w_b.gaps)

    def test_stream_bundle_roundtrip(self, tmp_path, tiny_config):
        profile = get_workload("art")
        compiled = prepare_program(profile, tiny_config)
        store = PrepStore(tmp_path)
        arrays, meta = stream_bundle(
            compiled, tiny_config.timing, tiny_config.l2_geometry.offset_bits
        )
        assert set(arrays) == {
            "addresses", "d_instructions", "d_cycles", "miss_cycles", "lens",
            "tail_instructions", "tail_cycles", "total_instructions", "l1_accesses", "l1_hits",
        }
        store.put({"k": "s"}, arrays, meta)
        rebuilt = compiled_from_bundle(store.get({"k": "s"}))
        assert rebuilt.name == compiled.name
        assert rebuilt.n_threads == compiled.n_threads
        for sec_a, sec_b in zip(compiled.sections, rebuilt.sections):
            for s_a, s_b in zip(sec_a, sec_b):
                np.testing.assert_array_equal(s_a.addresses, s_b.addresses)
                np.testing.assert_array_equal(s_a.d_instructions, s_b.d_instructions)
                np.testing.assert_array_equal(s_a.d_cycles, s_b.d_cycles)
                np.testing.assert_array_equal(s_a.miss_cycles, s_b.miss_cycles)
                assert s_a.tail_cycles == s_b.tail_cycles
                assert s_a.tail_instructions == s_b.tail_instructions
                assert s_a.total_instructions == s_b.total_instructions
                assert s_a.l1_accesses == s_b.l1_accesses
                assert s_a.l1_hits == s_b.l1_hits

    def test_builder_trace_hit_skips_generation(self, tmp_path):
        profile = get_workload("mgrid")
        kw = dict(n_intervals=4, interval_instructions=1200, seed=5)
        cold = build_program(profile, **kw)
        set_prep_store(PrepStore(tmp_path))
        store = get_prep_store()
        built = build_program(profile, **kw)  # miss + publish
        warm = build_program(profile, **kw)  # hit
        assert store.stats()["writes"] == 1
        assert store.stats()["hits"] == 1
        for prog in (built, warm):
            for sec_a, sec_b in zip(cold.sections, prog.sections):
                for w_a, w_b in zip(sec_a.works, sec_b.works):
                    np.testing.assert_array_equal(w_a.addrs, w_b.addrs)


class TestEndToEndEquivalence:
    APPS = ("swim", "art")
    POLICIES = ("model-based", "shared", "throughput")

    @pytest.mark.parametrize(
        "geometry",
        (CacheGeometry(sets=32, ways=16), CacheGeometry(sets=16, ways=8)),
        ids=("l2-32x16", "l2-16x8"),
    )
    @pytest.mark.parametrize("seed", (1, 7))
    def test_full_differential_matrix(self, tmp_path, geometry, seed):
        """The PR-3 differential matrix (4 apps x 6 policies x 2 seeds x
        2 geometries) must stay byte-identical across {no cache, cold
        cache, warm cache}."""
        import dataclasses

        from repro.partition import POLICY_REGISTRY

        config = SystemConfig.quick().with_(l2_geometry=geometry, seed=seed)
        for app in ("swim", "art", "equake", "mgrid"):
            set_prep_store(None)
            baselines = {
                policy: _result_bytes(app, policy, config)
                for policy in sorted(POLICY_REGISTRY)
            }
            store = PrepStore(tmp_path)
            store.clear()
            set_prep_store(store)
            for label in ("cold", "warm"):
                if label == "warm":
                    store._lru.clear()  # force the mmap path, not the LRU
                for policy in sorted(POLICY_REGISTRY):
                    assert _result_bytes(app, policy, config) == baselines[policy], (
                        app, policy, seed, dataclasses.astuple(geometry)[:2], label,
                    )
            assert store.stats()["writes"] == 2  # one trace + one stream bundle
            assert store.stats()["corrupt"] == 0

    def test_byte_identical_no_cold_warm(self, tmp_path, quick_config):
        """The acceptance bar: RunResult.to_dict() is byte-identical across
        {no cache, cold cache, warm cache} for every app x policy."""
        for app in self.APPS:
            for policy in self.POLICIES:
                set_prep_store(None)
                baseline = _result_bytes(app, policy, quick_config)
                set_prep_store(PrepStore(tmp_path))
                cold = _result_bytes(app, policy, quick_config)
                warm = _result_bytes(app, policy, quick_config)
                assert cold == baseline, (app, policy, "cold")
                assert warm == baseline, (app, policy, "warm")

    def test_param_bump_misses_version_bump_misses(self, tmp_path, quick_config):
        import dataclasses

        store = PrepStore(tmp_path)
        set_prep_store(store)
        _result_bytes("swim", "shared", quick_config)
        writes = store.stats()["writes"]
        assert writes == 2  # one trace + one stream bundle
        # Warm: no new writes.
        _result_bytes("swim", "shared", quick_config)
        assert store.stats()["writes"] == writes
        # Trace-parameter bump: full re-preparation.
        bumped = dataclasses.replace(quick_config, seed=quick_config.seed + 1)
        _result_bytes("swim", "shared", bumped)
        assert store.stats()["writes"] == writes + 2
        # Version bump orphans the namespace: cold again.
        set_prep_store(PrepStore(tmp_path, version="999.0.0"))
        _result_bytes("swim", "shared", quick_config)
        assert get_prep_store().stats() == {
            "hits": 0, "misses": 2, "writes": 2, "corrupt": 0, "races": 0,
            "stale_swept": 0, "fetched": 0,
        }

    def test_corrupted_artifact_regenerates_correctly(self, tmp_path, quick_config):
        store = PrepStore(tmp_path)
        set_prep_store(store)
        baseline = _result_bytes("equake", "model-based", quick_config)
        # Corrupt every bundle on disk, drop the in-process LRU.
        for meta_path in store.version_dir.glob("*/*/meta.json"):
            meta_path.write_text("garbage", encoding="utf-8")
        store._lru.clear()
        recovered = _result_bytes("equake", "model-based", quick_config)
        assert recovered == baseline
        assert store.stats()["corrupt"] == 2
        assert METRICS.counter("prep.corrupt").value == 2

    def test_batch_replay_byte_identical_no_cold_warm(self, tmp_path, quick_config):
        """The lane kernel reads a warm program's mmapped stream arrays in
        place: every lane of an all-policies batch over two L2 geometries
        must match a solo reference run, with no store, a cold store and
        a warm store read through its mappings."""
        from repro.partition import POLICY_REGISTRY

        geometries = (CacheGeometry(sets=32, ways=16), CacheGeometry(sets=16, ways=8))
        cells = [
            (policy, quick_config.with_(l2_geometry=geometry))
            for geometry in geometries
            for policy in sorted(POLICY_REGISTRY)
        ]
        store = PrepStore(tmp_path)
        for app in self.APPS:
            set_prep_store(None)
            clear_program_cache()
            reference = [
                json.dumps(
                    run_application(app, policy, cfg.with_(cache_backend="reference")).to_dict(),
                    sort_keys=True,
                )
                for policy, cfg in cells
            ]
            for label in ("none", "cold", "warm"):
                set_prep_store(None if label == "none" else store)
                store._lru.clear()  # a warm run maps the bundle from disk
                clear_program_cache()
                results = run_batch(app, cells)
                for (policy, cfg), result, ref in zip(cells, results, reference):
                    assert json.dumps(result.to_dict(), sort_keys=True) == ref, (
                        app, policy, cfg.l2_geometry.sets, label,
                    )
            warm = prepare_program(app, quick_config)
            assert isinstance(warm.flat["addresses"].base, np.memmap), app
        assert store.stats()["writes"] == 2 * len(self.APPS)  # a trace + a stream bundle each
        assert store.stats()["corrupt"] == 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="predictable worker startup needs fork",
    )
    def test_pool_matches_serial_with_warm_store(self, tmp_path, quick_config):
        specs = [
            JobSpec(app=app, policy=policy, config=quick_config)
            for app in self.APPS
            for policy in ("model-based", "shared")
        ]
        set_prep_store(None)
        clear_program_cache()
        baseline = {
            s.digest: json.dumps(
                run_application(s.app, s.policy, s.config).to_dict(), sort_keys=True
            )
            for s in specs
        }
        set_prep_store(PrepStore(tmp_path))
        clear_program_cache()
        engine = ProcessPoolEngine(jobs=2, mp_context=multiprocessing.get_context("fork"))
        try:
            for label in ("cold", "warm"):
                outcomes = engine.run(specs)
                for spec, outcome in zip(specs, outcomes):
                    assert outcome.error is None, (label, spec.label, outcome.error)
                    got = json.dumps(outcome.result.to_dict(), sort_keys=True)
                    assert got == baseline[spec.digest], (label, spec.label)
        finally:
            engine.close()
        # The pooled workers published bundles into the shared store.
        assert len(get_prep_store()) > 0


class TestStreamBundleValidation:
    """The lane kernel indexes a stream bundle's arrays by offsets derived
    from its ``lens``; a bundle whose structure is inconsistent must be
    treated as corrupt before any view of it is built."""

    def test_when_lens_overruns_the_arrays_then_bundle_evicted_and_regenerated(
        self, tmp_path, quick_config
    ):
        # GIVEN a warm store holding the stream bundle of a batch's program
        store = PrepStore(tmp_path)
        set_prep_store(store)
        clear_program_cache()
        cells = [("model-based", quick_config), ("shared", quick_config)]
        cold = [json.dumps(r.to_dict(), sort_keys=True) for r in run_batch("swim", cells)]
        path = store.path_for(stream_key(get_workload("swim"), quick_config))
        good_lens = np.load(path / "lens.npy")
        # WHEN its lens.npy is rewritten with the same shape and dtype (so
        # the manifest still matches) but one stream length raised
        bad = good_lens.copy()
        bad[0, 0] += 1
        np.save(path / "lens.npy", bad)
        store._lru.clear()
        clear_program_cache()
        warm = [json.dumps(r.to_dict(), sort_keys=True) for r in run_batch("swim", cells)]
        # THEN the bundle counts as corrupt, is regenerated, and the replay
        # matches the cold one
        assert warm == cold
        assert store.stats()["corrupt"] == 1
        assert METRICS.counter("prep.corrupt").value == 1
        np.testing.assert_array_equal(np.load(path / "lens.npy"), good_lens)

    @staticmethod
    def _mangle(arrays: dict, how: str) -> None:
        lens = arrays["lens"]
        if how == "lens-overrun":
            lens[0, 0] += 1
        elif how == "lens-negative":
            lens[0, 1] += lens[0, 0] + 1  # keeps the sum
            lens[0, 0] = -1
        elif how == "lens-shape":
            arrays["lens"] = lens.ravel().copy()
        elif how == "table-shape":
            arrays["tail_cycles"] = arrays["tail_cycles"][:-1].copy()
        elif how == "dtype":
            arrays["d_cycles"] = arrays["d_cycles"].astype(np.float32)
        elif how == "not-contiguous":
            arrays["lens"] = np.asfortranarray(lens)
        elif how == "missing":
            del arrays["miss_cycles"]

    @pytest.mark.parametrize(
        "how",
        ("lens-overrun", "lens-negative", "lens-shape", "table-shape", "dtype",
         "not-contiguous", "missing"),
    )
    def test_when_structure_is_inconsistent_then_compiled_from_bundle_raises(
        self, tiny_config, how
    ):
        compiled = prepare_program("art", tiny_config)
        arrays, meta = stream_bundle(
            compiled, tiny_config.timing, tiny_config.l2_geometry.offset_bits
        )
        arrays = {name: a.copy() for name, a in arrays.items()}
        self._mangle(arrays, how)
        with pytest.raises(ValueError):
            compiled_from_bundle(PrepBundle("digest", meta, arrays))


def _hammer_prep(root: str, barrier, out) -> None:
    store = PrepStore(root, version="race")
    key = {"kind": "hammer"}
    arrays = {"x": np.arange(64, dtype=np.int64)}
    barrier.wait()
    store.put(key, arrays)
    bundle = store.get(key)
    ok = bundle is not None and bool(
        np.array_equal(bundle.arrays["x"], np.arange(64, dtype=np.int64))
    )
    out.put((os.getpid(), ok, store.stats()))


class TestConcurrentPublish:
    def test_eight_processes_one_key_single_bundle_survives(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(8)
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer_prep, args=(str(tmp_path), barrier, out))
            for _ in range(8)
        ]
        for p in procs:
            p.start()
        results = [out.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert all(ok for _, ok, _ in results)
        store = PrepStore(tmp_path, version="race")
        assert len(store) == 1
        bundle = store.get({"kind": "hammer"})
        np.testing.assert_array_equal(bundle.arrays["x"], np.arange(64, dtype=np.int64))
        # Exactly one writer won; every loser either saw the rename fail
        # (counted a race) or won nothing silently — and no staging
        # directories leak.
        total_writes = sum(stats["writes"] for _, _, stats in results)
        assert total_writes >= 1
        shards = [d for d in store.version_dir.iterdir() if d.is_dir()]
        for shard in shards:
            assert not any(e.name.startswith(".stage-") for e in shard.iterdir())


class TestStaleStagingSweep:
    """Hard-killed publishers leave ``.stage-*`` directories behind; the
    startup sweep reclaims them once they age past the TTL."""

    def _orphan_stage(self, store: PrepStore, age_s: float) -> str:
        import tempfile
        import time

        shard = store.version_dir / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=shard, prefix=".stage-dead-")
        stamp = time.time() - age_s
        os.utime(tmp, (stamp, stamp))
        return tmp

    def test_old_stage_dirs_swept_at_startup(self, tmp_path):
        first = PrepStore(tmp_path, stale_ttl_s=100.0)
        orphan = self._orphan_stage(first, age_s=500.0)
        reopened = PrepStore(tmp_path, stale_ttl_s=100.0)
        assert not os.path.exists(orphan)
        assert reopened.stale_swept == 1
        assert reopened.stats()["stale_swept"] == 1
        assert METRICS.snapshot()["counters"]["prep.stale_swept"] == 1

    def test_fresh_stage_dirs_survive(self, tmp_path):
        first = PrepStore(tmp_path, stale_ttl_s=100.0)
        live = self._orphan_stage(first, age_s=0.0)
        reopened = PrepStore(tmp_path, stale_ttl_s=100.0)
        assert os.path.exists(live)
        assert reopened.stale_swept == 0
        assert reopened.sweep_stale(0.0) == 1
