"""Conformance tests for the experiment-spec schema (DESIGN.md §H).

Three contracts pinned here:

* **defaulting** — a minimal spec parses to the same fully-defaulted
  grid/engine/expectations a maximal spec spells out, and
  ``parse_spec(spec.to_dict())`` round-trips exactly;
* **actionable errors** — every malformed field is reported with a field
  path (``spec.grid.thread_counts[2]: expected int >= 1``), all problems
  collected into one :class:`SpecError`, and the CLI surfaces them with
  exit 2;
* **robustness** — hypothesis-fuzzed junk documents either parse or raise
  :class:`SpecError`; nothing else ever escapes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.exec.engine import EngineOptions
from repro.exec.grid import DEFAULT_POLICIES
from repro.spec import ExperimentSpec, SpecError, load_spec, parse_spec
from repro.trace.workloads import list_workloads

MINIMAL = {"spec_version": 1, "grid": {"apps": ["ft"], "policies": ["shared"]}}


def _spec(**overrides) -> dict:
    doc = {
        "spec_version": 1,
        "grid": {"apps": ["ft", "cg"], "policies": ["shared", "static-equal"]},
        "config": {"intervals": 3, "interval_instructions": 2000},
    }
    doc.update(overrides)
    return doc


def _problems(doc) -> list[str]:
    with pytest.raises(SpecError) as excinfo:
        parse_spec(doc)
    return excinfo.value.problems


class TestDefaulting:
    def test_minimal_spec_fills_every_default(self):
        spec = parse_spec(MINIMAL)
        assert spec.grid.apps == ("ft",)
        assert spec.grid.seeds == (1,)
        assert spec.grid.thread_counts == (4,)
        assert spec.grid.baseline == "shared"
        assert spec.grid.intervals == 50
        assert spec.grid.interval_instructions == 20_000
        assert spec.grid.cache_backend == "fast"
        assert spec.engine.resolved_kind() == "serial"
        assert spec.engine.options == EngineOptions()
        assert spec.journal is None and spec.faults is None
        assert spec.expectations.max_failures == 0
        assert spec.expectations.tolerances == {}

    def test_omitted_axes_default_like_the_cli(self):
        spec = parse_spec({"spec_version": 1, "grid": {}})
        assert spec.grid.apps == tuple(list_workloads())
        assert spec.grid.policies == DEFAULT_POLICIES

    def test_policy_aliases_normalise(self):
        spec = parse_spec(_spec(grid={"apps": ["ft"], "policies": ["model", "equal"]}))
        assert spec.grid.policies == ("model-based", "static-equal")
        assert spec.grid.baseline == "model-based"  # first policy: shared not swept

    def test_baseline_alias_normalises(self):
        doc = _spec(grid={"apps": ["ft"], "policies": ["shared", "equal"],
                          "baseline": "equal"})
        assert parse_spec(doc).grid.baseline == "static-equal"

    def test_full_spec_parses(self):
        doc = _spec(
            name="full",
            description="all blocks populated",
            engine={"jobs": 3, "max_retries": 1, "backoff_s": 0.0},
            journal={"path": "runs/full.journal", "resume": False},
            store_dir="runs/store",
            prep_dir="runs/prep",
            faults={"seed": 7, "rules": [{"kind": "job-exception", "rate": 0.5,
                                          "attempts": [1]}]},
            expectations={"max_failures": 2, "max_baseline_missing": 0,
                          "tolerances": {"total_cycles": 0.01},
                          "min_mean_speedup": {"static-equal": -0.5}},
        )
        spec = parse_spec(doc)
        assert spec.engine.resolved_kind() == "pool" and spec.engine.jobs == 3
        assert spec.engine.options.max_retries == 1
        assert spec.journal.path == "runs/full.journal" and not spec.journal.resume
        assert spec.store_dir == "runs/store" and spec.prep_dir == "runs/prep"
        assert spec.faults is not None and spec.faults.seed == 7
        assert spec.expectations.max_failures == 2
        assert spec.expectations.tolerances == {"total_cycles": 0.01}
        assert spec.expectations.min_mean_speedup == {"static-equal": -0.5}

    def test_engine_kind_inference_matches_cli_rule(self):
        assert parse_spec(_spec(engine={"jobs": 4})).engine.resolved_kind() == "pool"
        assert parse_spec(_spec(engine={"jobs": 1})).engine.resolved_kind() == "serial"


class TestRoundTrip:
    def test_to_dict_round_trips(self):
        doc = _spec(
            name="rt",
            engine={"jobs": 2},
            journal={"path": "j.jsonl"},
            expectations={"tolerances": {"l2_misses": 0.05}},
        )
        spec = parse_spec(doc)
        again = parse_spec(spec.to_dict())
        assert again.grid == spec.grid
        assert again.engine == spec.engine
        assert again.journal == spec.journal
        assert again.expectations == spec.expectations

    def test_to_dict_is_json_serialisable_and_fully_defaulted(self):
        doc = json.loads(json.dumps(parse_spec(MINIMAL).to_dict()))
        assert doc["config"] == {
            "intervals": 50, "interval_instructions": 20_000, "cache_backend": "fast",
        }
        assert doc["grid"]["seeds"] == [1] and doc["grid"]["baseline"] == "shared"

    def test_round_trip_preserves_grid_digest(self):
        spec = parse_spec(_spec())
        assert parse_spec(spec.to_dict()).grid.digest == spec.grid.digest


class TestFieldPathErrors:
    def test_thread_counts_path_matches_the_documented_example(self):
        doc = _spec(grid={"apps": ["ft"], "policies": ["shared"],
                          "thread_counts": [4, 8, 0]})
        assert _problems(doc) == ["spec.grid.thread_counts[2]: expected int >= 1"]

    @pytest.mark.parametrize(
        ("doc", "path"),
        [
            (_spec(grid={"apps": ["nope"], "policies": ["shared"]}), "spec.grid.apps[0]"),
            (_spec(grid={"apps": ["ft"], "policies": ["bogus"]}), "spec.grid.policies[0]"),
            (_spec(grid={"apps": ["ft"], "policies": ["shared"], "seeds": ["x"]}),
             "spec.grid.seeds[0]"),
            (_spec(grid={"apps": [], "policies": ["shared"]}), "spec.grid.apps"),
            (_spec(grid={"apps": ["ft"], "policies": ["shared"],
                         "baseline": "model-based"}), "spec.grid.baseline"),
            (_spec(grid={"apps": ["ft"], "policies": ["shared"], "extra": 1}),
             "spec.grid.extra"),
            (_spec(config={"intervals": 0}), "spec.config.intervals"),
            (_spec(config={"interval_instructions": -5}),
             "spec.config.interval_instructions"),
            (_spec(config={"cache_backend": "turbo"}), "spec.config.cache_backend"),
            (_spec(engine={"kind": "gpu"}), "spec.engine.kind"),
            (_spec(engine={"jobs": 0}), "spec.engine.jobs"),
            # The engine block has no kind or workers: --jobs alone picks
            # the engine, and both keys are refused as unknown.
            (_spec(engine={"workers": ["127.0.0.1:9999"]}), "spec.engine.workers"),
            (_spec(engine={"kind": "remote"}), "spec.engine.kind"),
            (_spec(journal={"resume": True}), "spec.journal.path"),
            (_spec(journal={"path": "j", "resume": "yes"}), "spec.journal.resume"),
            (_spec(faults={"rules": [{"kind": "martian"}]}), "spec.faults"),
            (_spec(expectations={"max_failures": -1}),
             "spec.expectations.max_failures"),
            (_spec(expectations={"tolerances": {"wat": 0.1}}),
             "spec.expectations.tolerances.wat"),
            (_spec(expectations={"tolerances": {"total_cycles": -0.1}}),
             "spec.expectations.tolerances.total_cycles"),
            (_spec(expectations={"min_mean_speedup": {"throughput": 0.0}}),
             "spec.expectations.min_mean_speedup.throughput"),
            (_spec(expectations={"min_mean_speedup": {"shared": 0.0}}),
             "spec.expectations.min_mean_speedup.shared"),
            (_spec(surprise=1), "spec.surprise"),
            ({"grid": {"apps": ["ft"], "policies": ["shared"]}}, "spec.spec_version"),
            ({"spec_version": 99, "grid": {}}, "spec.spec_version"),
            ({"spec_version": 1}, "spec.grid"),
            # Explicit ``grid: null`` is missing too, not a silent pass
            # (hypothesis-found: parse used to succeed with no grid).
            ({"spec_version": 1, "grid": None}, "spec.grid"),
        ],
    )
    def test_each_bad_field_is_named(self, doc, path):
        problems = _problems(doc)
        assert any(p.startswith(f"{path}:") for p in problems), problems

    def test_when_engine_names_kind_or_workers_then_both_are_unknown_keys(self):
        problems = _problems(_spec(engine={"kind": "pool", "workers": ["127.0.0.1:9"]}))
        assert [p.split(" (")[0] for p in problems] == [
            "spec.engine.kind: unknown key",
            "spec.engine.workers: unknown key",
        ]

    def test_all_problems_collected_at_once(self):
        doc = {
            "spec_version": 2,
            "grid": {"apps": ["nope"], "policies": ["shared"]},
            "engine": {"jobs": 0},
            "journal": {"resume": True},
            "junk": None,
        }
        paths = {p.split(":")[0] for p in _problems(doc)}
        assert paths == {
            "spec.spec_version", "spec.grid.apps[0]", "spec.engine.jobs",
            "spec.journal.path", "spec.junk",
        }

    def test_non_mapping_document_rejected(self):
        assert _problems([1, 2, 3])[0].startswith("spec:")
        assert _problems("grid: yes")[0].startswith("spec:")


class TestLoadSpec:
    def test_json_spec_loads(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_spec(name="from-json")))
        spec = load_spec(path)
        assert spec.name == "from-json" and spec.source == str(path)

    def test_yaml_spec_loads(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(_spec(name="from-yaml")))
        assert load_spec(path).name == "from-yaml"

    def test_missing_file_is_a_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "absent.json")

    def test_invalid_json_is_a_spec_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_spec(path)

    def test_checked_in_specs_all_parse(self):
        from pathlib import Path

        specs_dir = Path(__file__).parent.parent / "specs"
        paths = sorted(specs_dir.glob("*.json"))
        try:
            import yaml  # noqa: F401
        except ImportError:
            pass
        else:
            paths += sorted(specs_dir.glob("*.yaml"))
        assert paths, "specs/ must hold checked-in spec files"
        for path in paths:
            spec = load_spec(path)
            assert spec.grid.n_cells >= 1, path


class TestCliExit2:
    """Every malformed spec reaching the CLI exits 2 with the field path."""

    def test_run_spec_reports_field_paths(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_spec(
            grid={"apps": ["ft"], "policies": ["shared"], "thread_counts": [4, 0]},
            engine={"jobs": 0},
        )))
        assert main(["run-spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "spec.grid.thread_counts[1]: expected int >= 1" in err
        assert "spec.engine.jobs" in err

    def test_compare_runs_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spec_version": 1}))
        assert main(["compare-runs", str(tmp_path), str(tmp_path),
                     "--spec", str(path)]) == 2
        assert "spec.grid" in capsys.readouterr().err

    def test_when_l2_cannot_hold_the_thread_count_then_run_spec_exits_2(
        self, tmp_path, capsys
    ):
        """WHEN a spec sweeps more threads than the L2 has ways THEN
        ``run-spec`` exits 2 naming the field, before any work starts."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_spec(
            grid={"apps": ["ft"], "policies": ["shared"], "thread_counts": [40]},
        )))
        assert main(["run-spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "spec.grid.thread_counts[0]: L2 has 32 ways; too few for 40 threads" in err


# A generator of adversarial documents: structurally spec-shaped but with
# junk leaves, so the fuzz actually reaches the per-field validators
# instead of dying at the top-level type check every time.
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.floats(allow_nan=False),
    st.text(max_size=8), st.lists(st.integers(-2, 9), max_size=3),
    st.lists(st.text(max_size=6), max_size=3),
)
_fuzzed_doc = st.fixed_dictionaries(
    {},
    optional={
        "spec_version": st.one_of(st.just(1), _junk),
        "name": _junk,
        "grid": st.one_of(
            _junk,
            st.fixed_dictionaries({}, optional={
                "apps": st.one_of(st.just(["ft"]), _junk),
                "policies": st.one_of(st.just(["shared"]), _junk),
                "seeds": _junk,
                "thread_counts": _junk,
                "baseline": _junk,
            }),
        ),
        "config": st.one_of(_junk, st.dictionaries(st.text(max_size=25), _junk, max_size=3)),
        "engine": st.one_of(_junk, st.dictionaries(st.text(max_size=25), _junk, max_size=3)),
        "journal": st.one_of(_junk, st.dictionaries(st.text(max_size=25), _junk, max_size=2)),
        "faults": _junk,
        "expectations": st.one_of(
            _junk, st.dictionaries(st.text(max_size=25), _junk, max_size=3)
        ),
    },
)


class TestFuzz:
    @given(doc=_fuzzed_doc)
    @settings(max_examples=150, deadline=None)
    def test_parse_never_raises_anything_but_spec_error(self, doc):
        try:
            spec = parse_spec(doc)
        except SpecError as exc:
            assert exc.problems, "SpecError must carry at least one problem"
            for problem in exc.problems:
                assert problem.startswith("spec"), problem
                assert ": " in problem, problem
        else:
            assert isinstance(spec, ExperimentSpec)
            # Anything that parses must round-trip through its own dump.
            assert parse_spec(spec.to_dict()).grid == spec.grid
