"""Tests for :mod:`repro.prep` — the prepared-program artifact cache.

Covers the store mechanics (roundtrip, fresh mappings per get, atomic
publish, corruption recovery), key invalidation (parameter bump, version
bump), the trace/stream bundle encodings and both bundles' structure
checks, the lifetime of a prepared program, and the headline correctness
bar: replay results are byte-identical across {no cache, cold cache, warm
cache} on both execution engines and on the batch lane kernel, which
replays a warm bundle's mapped arrays in place.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import shutil
import weakref

import numpy as np
import pytest

import repro
from repro.cache import fastpath
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
from repro.sim import driver
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

    def test_every_get_maps_from_disk(self, tmp_path):
        store = PrepStore(tmp_path)
        store.put(_sample_key(), _sample_arrays())
        first = store.get(_sample_key())
        second = store.get(_sample_key())
        assert first is not second  # a fresh materialisation each time
        assert first.arrays["x"].base is not second.arrays["x"].base
        for name, arr in first.arrays.items():
            np.testing.assert_array_equal(arr, second.arrays[name])
        assert store.hits == 2

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
        assert store.get(_sample_key()) is None
        assert store.corrupt == 1
        assert not path.exists()

    def test_mis_keyed_bundle_is_corruption(self, tmp_path):
        store = PrepStore(tmp_path)
        path = store.put(_sample_key(), _sample_arrays())
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        meta["key"] = {"kind": "other"}
        (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
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
        # Corrupt every bundle on disk.
        for meta_path in store.version_dir.glob("*/*/meta.json"):
            meta_path.write_text("garbage", encoding="utf-8")
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


class TestTraceBundleValidation:
    """Thread works are sliced out of a trace bundle by offsets derived
    from its ``lens``, and NumPy slicing clamps: a ``lens`` that disagrees
    with the arrays must count as corruption, not rebuild a different
    program."""

    @staticmethod
    def _trace_params(config: SystemConfig) -> dict:
        return dict(
            n_threads=config.n_threads,
            n_intervals=config.n_intervals,
            interval_instructions=config.interval_instructions,
            sections_per_interval=config.sections_per_interval,
            seed=config.seed,
            line_bytes=config.line_bytes,
        )

    @staticmethod
    def _assert_same_program(got, want) -> None:
        assert got.name == want.name
        assert got.meta == want.meta
        assert len(got.sections) == len(want.sections)
        for sec_a, sec_b in zip(got.sections, want.sections):
            assert len(sec_a.works) == len(sec_b.works)
            for w_a, w_b in zip(sec_a.works, sec_b.works):
                np.testing.assert_array_equal(w_a.addrs, w_b.addrs)
                np.testing.assert_array_equal(w_a.gaps, w_b.gaps)

    @pytest.mark.parametrize("how", ("entry-raised", "entry-negative"))
    def test_when_lens_disagrees_with_the_arrays_then_bundle_evicted_and_regenerated(
        self, tmp_path, quick_config, how
    ):
        # GIVEN a store holding ft's trace bundle
        profile = get_workload("ft")
        params = self._trace_params(quick_config)
        reference = build_program(profile, **params)  # no store
        store = PrepStore(tmp_path)
        set_prep_store(store)
        build_program(profile, **params)  # cold: publishes the bundle
        path = store.path_for(trace_key(profile, **params, work_jitter=0.05))
        good_lens = np.load(path / "lens.npy")
        # WHEN its lens.npy is rewritten with the same shape and dtype (so
        # the manifest still matches) but one entry raised by 5 or set to -3
        bad = good_lens.copy()
        if how == "entry-raised":
            bad[0, 0] += 5
        else:
            bad[0, 0] = -3
        np.save(path / "lens.npy", bad)
        rebuilt = build_program(profile, **params)
        # THEN the bundle counts as corrupt, the program equals a
        # store-less build, and the republished bundle is sound again
        self._assert_same_program(rebuilt, reference)
        assert store.stats()["corrupt"] == 1
        assert METRICS.counter("prep.corrupt").value == 1
        np.testing.assert_array_equal(np.load(path / "lens.npy"), good_lens)

    @pytest.mark.parametrize(
        "how",
        ("lens-shape", "addrs-dtype", "gaps-short", "not-contiguous", "missing",
         "no-n_sections"),
    )
    def test_when_structure_is_inconsistent_then_program_from_bundle_raises(
        self, quick_config, how
    ):
        program = build_program(get_workload("ft"), **self._trace_params(quick_config))
        arrays, meta = trace_bundle(program)
        if how == "no-n_sections":
            del meta["n_sections"]
        elif how == "lens-shape":
            arrays["lens"] = arrays["lens"].ravel().copy()
        elif how == "addrs-dtype":
            arrays["addrs"] = arrays["addrs"].astype(np.int32)
        elif how == "gaps-short":
            arrays["gaps"] = arrays["gaps"][:-1].copy()
        elif how == "not-contiguous":
            arrays["lens"] = np.asfortranarray(arrays["lens"])
        else:
            del arrays["gaps"]
        with pytest.raises(ValueError):
            program_from_bundle(PrepBundle("digest", meta, arrays))


class TestBundleManifestValidation:
    """A program is rebuilt from its bundle's manifest fields as well as
    its arrays: a manifest that lacks one is corruption, evicted and
    regenerated, never a failed cell."""

    @pytest.mark.parametrize("kind", ("trace", "streams"))
    def test_when_manifest_lacks_n_sections_then_bundle_evicted_and_regenerated(
        self, tmp_path, quick_config, kind
    ):
        # GIVEN a store holding swim's trace and stream bundles
        profile = get_workload("swim")
        params = TestTraceBundleValidation._trace_params(quick_config)
        cells = [("model-based", quick_config), ("shared", quick_config)]
        clear_program_cache()
        want = [json.dumps(r.to_dict(), sort_keys=True) for r in run_batch("swim", cells)]
        store = PrepStore(tmp_path)
        set_prep_store(store)
        run_batch("swim", cells)  # cold: publishes both bundles
        key = stream_key(profile, quick_config)
        if kind == "trace":
            # without its stream bundle the replay must rebuild from the trace
            shutil.rmtree(store.path_for(key))
            key = trace_key(profile, **params, work_jitter=0.05)
        # WHEN that bundle's meta.json loses its n_sections field
        meta_path = store.path_for(key) / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["n_sections"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        clear_program_cache()
        got = [json.dumps(r.to_dict(), sort_keys=True) for r in run_batch("swim", cells)]
        # THEN the bundle counts as corrupt, is republished whole, and the
        # replay matches a store-less one
        assert got == want
        assert store.stats()["corrupt"] == 1
        assert "n_sections" in json.loads(meta_path.read_text(encoding="utf-8"))


class TestProgramLifetime:
    """A batch unit is its program's only consumer, so the program and
    the prep bundle mapping it reads must die with the unit, by
    reference counting alone; solo cells keep the memo."""

    def test_when_run_batch_replays_a_warm_bundle_then_program_and_mapping_die_with_it(
        self, tmp_path, quick_config, monkeypatch
    ):
        # GIVEN a warm store holding a batch's stream bundle, and a get
        # that records weak references to each mapped array's mapping
        store = PrepStore(tmp_path)
        set_prep_store(store)
        clear_program_cache()
        cells = [("model-based", quick_config), ("shared", quick_config)]
        run_batch("swim", cells)
        clear_program_cache()
        mappings = []
        get = PrepStore.get

        def recording_get(self, key):
            bundle = get(self, key)
            if bundle is not None:
                mappings.extend(weakref.ref(a.base) for a in bundle.arrays.values())
            return bundle

        monkeypatch.setattr(PrepStore, "get", recording_get)
        # WHEN run_batch replays it with the cyclic GC disabled
        gc.disable()
        try:
            results = run_batch("swim", cells)
            alive = [ref() is not None for ref in mappings]
        finally:
            gc.enable()
        # THEN the memo holds no entry for the program and every mapping is gone
        assert len(results) == len(cells)
        assert store.stats()["hits"] == 1
        assert mappings and not any(alive)
        assert driver._cache_key(get_workload("swim"), quick_config) not in driver._PROGRAM_CACHE

    def test_when_keep_false_misses_then_memo_size_unchanged(self, quick_config):
        clear_program_cache()
        prepare_program("art", quick_config)
        size = len(driver._PROGRAM_CACHE)
        prepare_program("swim", quick_config, keep=False)
        assert len(driver._PROGRAM_CACHE) == size
        assert METRICS.counter("sim.program_cache.misses").value == 2

    def test_when_memo_holds_the_program_then_keep_false_returns_it_and_counts_a_hit(
        self, quick_config
    ):
        clear_program_cache()
        kept = prepare_program("swim", quick_config)
        assert prepare_program("swim", quick_config, keep=False) is kept
        assert METRICS.counter("sim.program_cache.hits").value == 1

    def test_when_program_cache_cleared_then_fast_backend_releases_its_program(
        self, quick_config
    ):
        # GIVEN a program replayed twice in a row on the fast backend
        config = quick_config.with_(cache_backend="fast")
        clear_program_cache()
        run_application("swim", "shared", config)
        slots = fastpath._PREP_CACHE[2]
        run_application("swim", "model-based", config)
        assert slots and fastpath._PREP_CACHE[2] is slots  # a live program's prep is reused
        program = weakref.ref(prepare_program("swim", config))
        # WHEN the program memo is cleared
        clear_program_cache()
        gc.collect()
        # THEN nothing holds the program, nor its prepared replay streams
        assert program() is None
        assert fastpath._PREP_CACHE[2] == {}


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
