"""The grid-construction refactor's contract: one pure builder everywhere.

:class:`repro.exec.grid.SweepGrid` is the single place a sweep grid is
defaulted, validated and compiled; the CLI and the spec schema both
flow through it.  Pinned here:

* **purity** (hypothesis) — the same grid fields always compile to the
  same :attr:`JobSpec.digest` list, *order included*, across rebuilds;
* **cross-entry-point identity** — a grid's key carries the simulator
  version, and its ``to_dict`` form rebuilds the same grid and digest;
* **golden fixture** — the full compilation of ``specs/smoke.json``
  (grid digest + per-cell digests in order) is frozen in
  ``tests/golden/``; regenerate with ``REPRO_REGEN_GOLDEN=1`` and review
  the diff (a change means every store key and journal id moves).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.exec.grid import GridError, SweepGrid
from repro.spec import load_spec

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
SPECS_DIR = Path(__file__).parent.parent / "specs"

_apps = st.lists(
    st.sampled_from(["ft", "cg", "swim", "art", "mg"]), min_size=1, max_size=3, unique=True
)
_policies = st.lists(
    st.sampled_from(["shared", "static-equal", "throughput", "model-based"]),
    min_size=1, max_size=3, unique=True,
)
_grid_fields = st.fixed_dictionaries(
    {
        "apps": _apps,
        "policies": _policies,
        "seeds": st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True),
        "thread_counts": st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=2,
                                  unique=True),
        "intervals": st.integers(1, 60),
        "interval_instructions": st.integers(1000, 30_000),
    }
)


class TestPurity:
    @given(fields=_grid_fields)
    @settings(max_examples=60, deadline=None)
    def test_same_fields_compile_to_same_digests_in_order(self, fields):
        first = SweepGrid.build(**fields)
        second = SweepGrid.build(**fields)
        assert first == second
        assert first.digest == second.digest
        assert [s.digest for s in first.specs()] == [s.digest for s in second.specs()]

    @given(fields=_grid_fields)
    @settings(max_examples=60, deadline=None)
    def test_canonical_order_is_apps_policies_seeds_threads(self, fields):
        grid = SweepGrid.build(**fields)
        specs = grid.specs()
        assert len(specs) == grid.n_cells
        expected = [
            (app, policy, seed, threads)
            for app in grid.apps
            for policy in grid.policies
            for seed in grid.seeds
            for threads in grid.thread_counts
        ]
        actual = [(s.app, s.policy, s.config.seed, s.config.n_threads) for s in specs]
        assert actual == expected

    @given(fields=_grid_fields)
    @settings(max_examples=40, deadline=None)
    def test_digest_is_a_function_of_the_fields_only(self, fields):
        grid = SweepGrid.build(**fields)
        rebuilt = SweepGrid.build(**json.loads(json.dumps(fields)))
        assert rebuilt.grid_key() == grid.grid_key()
        assert rebuilt.digest == grid.digest


class TestCrossEntryPointIdentity:
    def test_grid_key_includes_the_simulator_version(self):
        grid = SweepGrid.build(apps=["ft"], policies=["shared"])
        assert grid.grid_key()["version"] == repro.__version__

    def test_to_dict_build_round_trip_preserves_identity(self):
        grid = SweepGrid.build(apps=["ft"], policies=["model", "shared"], seeds=[3])
        again = SweepGrid.build(**grid.to_dict())
        assert again == grid and again.digest == grid.digest


class TestValidation:
    def test_error_carries_the_field_path(self):
        with pytest.raises(GridError) as excinfo:
            SweepGrid.build(apps=["ft"], policies=["shared"], seeds=[1, "x"],
                            path="anything.grid")
        assert excinfo.value.path == "anything.grid.seeds[1]"
        assert str(excinfo.value).startswith("anything.grid.seeds[1]: ")

    def test_bool_is_not_an_int(self):
        with pytest.raises(GridError, match=r"thread_counts\[0\]"):
            SweepGrid.build(apps=["ft"], policies=["shared"], thread_counts=[True])

    def test_direct_constructor_skips_validation(self):
        # Documented escape hatch for already-validated callers.
        grid = SweepGrid(apps=("zz",), policies=("nope",))
        assert grid.apps == ("zz",)


class TestGoldenCompiledSpec:
    """The full compilation of the checked-in smoke spec, frozen."""

    def _compile(self) -> dict:
        spec = load_spec(SPECS_DIR / "smoke.json")
        grid = spec.grid
        return {
            "source": "specs/smoke.json",
            "version": repro.__version__,
            "grid": grid.to_dict(),
            "grid_digest": grid.digest,
            "cells": [
                {"app": s.app, "policy": s.policy, "seed": s.config.seed,
                 "n_threads": s.config.n_threads, "digest": s.digest,
                 "store_key": f"v{repro.__version__}/{s.digest[:2]}/{s.digest}.json"}
                for s in grid.specs()
            ],
        }

    def test_compiled_smoke_spec_matches_golden(self):
        compiled = self._compile()
        fixture = GOLDEN_DIR / "compiled_spec__smoke.json"
        if REGEN:
            fixture.write_text(json.dumps(compiled, indent=2, sort_keys=True) + "\n")
            pytest.skip("golden fixture regenerated")
        assert fixture.is_file(), (
            "golden fixture missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        golden = json.loads(fixture.read_text())
        assert compiled == golden

    def test_golden_store_keys_match_the_result_store(self, tmp_path):
        from repro.exec.store import ResultStore

        spec = load_spec(SPECS_DIR / "smoke.json")
        store = ResultStore(tmp_path)
        compiled = self._compile()
        for cell, job in zip(compiled["cells"], spec.grid.specs()):
            assert store.key_for(job) == cell["store_key"]
