"""Tests for the artifact store, the sharded runner and the report renderers.

The headline contracts:

* **Serial/sharded parity** -- ``run_shards(jobs=2)`` produces payloads
  bit-identical to the serial engine (and to the CLI's serial ``--json``).
* **Resumability** -- re-running against a populated store executes nothing.
* **Content addressing** -- keys depend only on ``(experiment, profile,
  params)``, with stable ordering of the params mapping.
"""

import json

import pytest

from repro.analysis.stored import claim_summary, load_results, stored_result, stored_rows
from repro.exceptions import (
    ArtifactCorruptError,
    ArtifactError,
    InvalidParameterError,
)
from repro.experiments.artifacts import (
    ArtifactSchema,
    ArtifactStore,
    artifact_key,
    build_payload,
    build_record,
    canonical_json,
    environment_stamp,
    validate_payload,
    validate_record,
)
from repro.experiments.registry import EXPERIMENTS, get_spec, list_experiments, run_experiment
from repro.experiments.report import (
    ExperimentResult,
    render_html_report,
    render_markdown_report,
    result_from_payload,
)
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    Shard,
    execute_shard,
    plan_shards,
    registry_sorted,
    run_shards,
)

#: Cheap experiments used where the whole registry would be overkill.
CHEAP_IDS = ["FIG4", "FIG7", "TAB1", "LEM1"]


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once: these tests exercise the retry budget, not its delay."""
    monkeypatch.setattr(runner_module, "RETRY_BACKOFF_S", 0.0)


class TestArtifactKey:
    def test_stable_across_param_order(self):
        a = artifact_key("THM4", "fast", {"degrees": (3, 4), "x": 1})
        b = artifact_key("THM4", "fast", {"x": 1, "degrees": (3, 4)})
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0

    def test_distinct_inputs_distinct_keys(self):
        base = artifact_key("THM4", "fast", {"degrees": [3, 4]})
        assert artifact_key("THM4", "heavy", {"degrees": [3, 4]}) != base
        assert artifact_key("THM6", "fast", {"degrees": [3, 4]}) != base
        assert artifact_key("THM4", "fast", {"degrees": [3, 5]}) != base

    def test_tuple_and_list_params_agree(self):
        # Params pass through json_safe, so tuples and lists address equally.
        assert artifact_key("X", "default", {"d": (3, 4)}) == artifact_key(
            "X", "default", {"d": [3, 4]}
        )

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestArtifactSchema:
    def test_every_spec_declares_a_schema(self):
        for experiment_id, spec in EXPERIMENTS.items():
            assert spec.schema is not None, experiment_id
            assert spec.schema.columns, experiment_id
            assert "claim_holds" in spec.schema.summary_keys, experiment_id

    def test_declared_columns_match_emitted_headers(self):
        for experiment_id in CHEAP_IDS:
            spec = get_spec(experiment_id)
            result = run_experiment(experiment_id, profile="fast")
            assert tuple(result.headers) == tuple(spec.schema.columns)

    def test_claim_holds_injected_when_missing(self):
        schema = ArtifactSchema(columns=("a",), summary_keys=("extra",))
        assert schema.summary_keys == ("claim_holds", "extra")

    def test_validate_payload_rejects_header_drift(self):
        spec = get_spec("FIG4")
        result = run_experiment("FIG4")
        payload = build_payload("default", {}, result)
        validate_payload(payload, spec.schema)  # the real payload passes
        bad = dict(payload, headers=["wrong"])
        with pytest.raises(ArtifactError):
            validate_payload(bad, spec.schema)

    def test_validate_payload_rejects_missing_summary_key(self):
        spec = get_spec("FIG4")
        payload = build_payload("default", {}, run_experiment("FIG4"))
        bad = dict(payload, summary={"claim_holds": True})  # drops dilation etc.
        with pytest.raises(ArtifactError):
            validate_payload(bad, spec.schema)

    def test_validate_payload_rejects_ragged_rows(self):
        spec = get_spec("FIG4")
        payload = build_payload("default", {}, run_experiment("FIG4"))
        bad = dict(payload, rows=[["only one cell"]])
        with pytest.raises(ArtifactError):
            validate_payload(bad, spec.schema)

    def test_validate_payload_envelope(self):
        with pytest.raises(ArtifactError):
            validate_payload({"experiment_id": "X"}, None)


class TestArtifactStore:
    def _record(self, experiment_id="FIG4", profile="default"):
        result = run_experiment(experiment_id, profile=profile)
        payload = build_payload(profile, {}, result)
        key = artifact_key(experiment_id, profile, {})
        return build_record(key, payload, 0.25)

    def test_write_read_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        record = self._record()
        path = store.write(record)
        assert path.name == "FIG4__default__" + record["key"] + ".json"
        loaded = store.read("FIG4", "default", record["key"])
        assert loaded == json.loads(json.dumps(record))  # JSON round-trip equal
        assert store.exists("FIG4", "default", record["key"])
        assert len(store) == 1

    def test_environment_stamp_recorded(self, tmp_path):
        record = self._record()
        env = record["environment"]
        assert env["python"] and env["platform"]
        assert set(environment_stamp()) == set(env)

    def test_read_missing_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactError):
            store.read("FIG4", "default", "0" * 16)

    def test_read_corrupt_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        record = self._record()
        path = store.write(record)
        path.write_text("{ not json")
        with pytest.raises(ArtifactError):
            store.read("FIG4", "default", record["key"])

    def test_validate_record_envelope(self):
        with pytest.raises(ArtifactError):
            validate_record({"key": "abc"})

    def test_stale_schema_version_rejected(self, tmp_path):
        """A store written under an older record layout must not be reused."""
        store = ArtifactStore(tmp_path)
        record = self._record()
        path = store.write(record)
        stale = json.loads(path.read_text())
        stale["schema_version"] = 0
        path.write_text(json.dumps(stale))
        with pytest.raises(ArtifactError, match="schema_version"):
            store.read("FIG4", "default", record["key"])

    def test_entries_sorted_and_temp_files_ignored(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for experiment_id in ("TAB1", "FIG4"):
            result = run_experiment(experiment_id, profile="fast")
            params = get_spec(experiment_id).params("fast")
            payload = build_payload("fast", params, result)
            store.write(
                build_record(artifact_key(experiment_id, "fast", params), payload, 0.0)
            )
        (tmp_path / ".tmp-leftover.json").write_text("junk")
        entries = store.entries()
        assert [e["payload"]["experiment_id"] for e in entries] == ["FIG4", "TAB1"]

    def test_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        assert store.entries() == [] and len(store) == 0


class TestPlanShards:
    def test_all_resolves_registry_order(self):
        shards = plan_shards(["all"], profile="fast")
        assert [s.experiment_id for s in shards] == list_experiments()
        assert all(s.profile == "fast" for s in shards)

    def test_none_means_all(self):
        assert [s.experiment_id for s in plan_shards(None)] == list_experiments()

    def test_params_sorted_and_key_attached(self):
        (shard,) = plan_shards(["CMP"], profile="fast")
        names = [name for name, _ in shard.params]
        assert names == sorted(names)
        assert shard.key == artifact_key("CMP", "fast", dict(shard.params))

    def test_case_insensitive_and_overrides(self):
        (shard,) = plan_shards(["lem1"], profile="fast", overrides={"max_n": 4})
        assert shard.experiment_id == "LEM1"
        assert dict(shard.params) == {"max_n": 4}

    def test_unknown_experiment_raises(self):
        with pytest.raises(InvalidParameterError):
            plan_shards(["NOPE"])


class TestRunShards:
    def test_serial_matches_direct_run(self):
        shards = plan_shards(CHEAP_IDS, profile="fast")
        report = run_shards(shards)
        assert len(report.records) == len(CHEAP_IDS)
        assert report.executed and not report.cached
        for shard, payload in zip(shards, report.payloads()):
            direct = run_experiment(shard.experiment_id, profile="fast")
            expected = build_payload("fast", dict(shard.params), direct)
            assert payload == json.loads(json.dumps(expected))
        assert report.claims_hold()

    def test_parallel_rows_equal_serial_rows_exactly(self):
        """The PR's core parity claim: --jobs 2 rows == serial rows, bit for bit."""
        shards = plan_shards(["all"], profile="fast")
        serial = run_shards(shards, jobs=1)
        parallel = run_shards(shards, jobs=2)
        assert json.dumps(serial.payloads(), sort_keys=True) == json.dumps(
            parallel.payloads(), sort_keys=True
        )
        # Ordering too: payload lists aggregate in shard order on both engines.
        assert json.dumps(serial.payloads()) == json.dumps(parallel.payloads())

    def test_store_resume_is_noop(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        shards = plan_shards(CHEAP_IDS, profile="fast")
        first = run_shards(shards, store=store)
        assert len(first.executed) == len(CHEAP_IDS)
        second = run_shards(shards, store=store)
        assert second.executed == [] and len(second.cached) == len(CHEAP_IDS)
        assert second.payloads() == first.payloads()

    def test_partial_store_runs_only_missing(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        shards = plan_shards(CHEAP_IDS, profile="fast")
        run_shards(shards[:2], store=store)
        report = run_shards(shards, store=store)
        assert sorted(report.cached) == sorted(s.key for s in shards[:2])
        assert sorted(report.executed) == sorted(s.key for s in shards[2:])

    def test_force_reruns_everything(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        shards = plan_shards(["FIG4"], profile="fast")
        run_shards(shards, store=store)
        report = run_shards(shards, store=store, force=True)
        assert len(report.executed) == 1 and not report.cached

    def test_different_profiles_do_not_collide(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        run_shards(plan_shards(["LEM1"], profile="fast"), store=store)
        report = run_shards(plan_shards(["LEM1"], profile="default"), store=store)
        assert report.executed  # the default profile is a different key
        assert len(store) == 2

    def test_progress_callback_streams_records_in_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        events = []

        def on_progress(shard, status, elapsed, record):
            assert record["payload"]["experiment_id"] == shard.experiment_id
            events.append((shard.experiment_id, status))

        shards = plan_shards(["FIG4", "TAB1"], profile="fast")
        run_shards(shards, store=store, progress=on_progress)
        run_shards(shards, store=store, progress=on_progress)
        # jobs=1 resolves strictly in shard order, cached or not.
        assert events == [
            ("FIG4", "ran"), ("TAB1", "ran"),
            ("FIG4", "cached"), ("TAB1", "cached"),
        ]

    def test_stale_cached_payload_reruns(self, tmp_path):
        """A stored artifact whose shape no longer matches the declared schema
        is treated as a miss and re-run, not served (the key covers only
        params, not code identity)."""
        store = ArtifactStore(tmp_path / "results")
        (shard,) = plan_shards(["FIG4"])
        run_shards([shard], store=store)
        path = store.path_for(shard.experiment_id, shard.profile, shard.key)
        stale = json.loads(path.read_text())
        stale["payload"]["headers"] = ["an", "old", "layout"]
        path.write_text(json.dumps(stale))
        report = run_shards([shard], store=store)
        assert report.executed == [shard.key] and not report.cached
        # The store is healed: the fresh record passes validation again.
        healed = run_shards([shard], store=store)
        assert healed.cached == [shard.key]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_shards([], jobs=0)

    def test_execute_shard_validates_schema(self):
        (shard,) = plan_shards(["FIG4"])
        record = execute_shard(shard)
        assert record["key"] == shard.key
        assert record["elapsed_seconds"] >= 0
        assert record["payload"]["experiment_id"] == "FIG4"


class TestRegistrySorted:
    def test_registry_order_restored_from_alphabetical(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_shards(plan_shards(["TAB1", "FIG4", "LEM1"], profile="fast"), store=store)
        ordered = registry_sorted(store.entries())
        assert [r["payload"]["experiment_id"] for r in ordered] == ["FIG4", "TAB1", "LEM1"]


class TestStoredAnalysis:
    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("store"))
        run_shards(plan_shards(CHEAP_IDS, profile="fast"), store=store)
        return store

    def test_load_results_keys_and_order(self, populated):
        results = load_results(populated)
        assert list(results) == [(i, "fast") for i in ["FIG4", "FIG7", "TAB1", "LEM1"]]

    def test_stored_result_round_trips_direct_run(self, populated):
        stored = stored_result(populated, "lem1", "fast")
        direct = run_experiment("LEM1", profile="fast")
        # JSON round-trip normalises tuples to lists; compare via to_dict.
        assert stored.to_dict() == json.loads(json.dumps(direct.to_dict()))

    def test_stored_rows(self, populated):
        headers, rows = stored_rows(populated, "LEM1")
        assert headers[0] == "n" and rows[-1][0] == 6  # fast profile caps at 6

    def test_stored_result_missing(self, populated):
        with pytest.raises(ArtifactError):
            stored_result(populated, "THM4")
        with pytest.raises(ArtifactError):
            stored_result(populated, "LEM1", "heavy")

    def test_claim_summary(self, populated):
        verdicts = claim_summary(populated)
        assert set(verdicts) == set(CHEAP_IDS)
        assert all(verdicts.values())


class TestReportRenderers:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("report-store"))
        run_shards(plan_shards(CHEAP_IDS, profile="fast"), store=store)
        return registry_sorted(store.entries())

    def test_result_from_payload_inverts_to_dict(self):
        result = ExperimentResult(
            "X", "t", ["h1", "h2"], [[1, "a"]], notes=["n"], summary={"claim_holds": True}
        )
        rebuilt = result_from_payload(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()

    def test_markdown_report_sections(self, records):
        text = render_markdown_report(records, title="Store report")
        assert text.startswith("# Store report")
        assert "## Environment" in text
        for experiment_id in CHEAP_IDS:
            assert f"[{experiment_id}]" in text
        assert "| experiment | profile | claim | rows | wall-clock (s) |" in text
        assert "FAILS" not in text

    def testmarkdown_escapes_pipes_and_stars(self):
        record = build_record(
            "0" * 16,
            build_payload(
                "default",
                {},
                ExperimentResult(
                    "X", "the 2*3*4 mesh", ["a|b"], [["c|d"]],
                    summary={"claim_holds": True},
                ),
            ),
            0.0,
        )
        text = render_markdown_report([record])
        assert "a\\|b" in text and "c\\|d" in text
        # Titles with stars must not italicise ("2*3*4" -> "2<em>3</em>4").
        assert "the 2\\*3\\*4 mesh" in text

    def test_html_report_standalone_and_escaped(self, records):
        text = render_html_report(records, title="Store <report>")
        assert text.startswith("<!DOCTYPE html>")
        assert "Store &lt;report&gt;" in text
        assert "<style>" in text  # no external assets
        for experiment_id in CHEAP_IDS:
            assert experiment_id in text

    def test_mixed_environment_stamps_render(self):
        """Stamps mixing str and None values (with/without NumPy) must sort."""
        payload = build_payload(
            "default",
            {},
            ExperimentResult("X", "t", ["h"], [[1]], summary={"claim_holds": True}),
        )
        with_numpy = build_record("0" * 16, payload, 0.0, {"python": "3.11", "numpy": "1.26"})
        without_numpy = build_record("1" * 16, payload, 0.0, {"python": "3.11", "numpy": None})
        for renderer in (render_markdown_report, render_html_report):
            text = renderer([with_numpy, without_numpy])
            assert "numpy: 1.26" in text

    def test_failing_claim_flagged(self):
        record = build_record(
            "0" * 16,
            build_payload(
                "default",
                {},
                ExperimentResult("X", "t", ["h"], [[1]], summary={"claim_holds": False}),
            ),
            0.0,
        )
        assert "FAILS" in render_markdown_report([record])
        assert "fails" in render_html_report([record])

    def test_missing_claim_counts_as_failed(self, tmp_path):
        """A summary without ``claim_holds`` is a failed claim, never a pass."""
        record = build_record(
            "0" * 16,
            build_payload("default", {}, ExperimentResult("X", "t", ["h"], [[1]])),
            0.0,
        )
        store = ArtifactStore(tmp_path)
        store.write(record)
        assert claim_summary(store) == {"X": False}
        assert "| X | default | FAILS |" in render_markdown_report([record])


class TestCorruptVsStale:
    """Corrupt entries are quarantined (evidence kept); stale ones re-run."""

    def _write_cheap(self, store, experiment_id="FIG4", profile="fast"):
        result = run_experiment(experiment_id, profile=profile)
        params = get_spec(experiment_id).params(profile)
        payload = build_payload(profile, params, result)
        key = artifact_key(experiment_id, profile, params)
        return store.write(build_record(key, payload, 0.0)), key

    def test_corrupt_json_raises_corrupt_error(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path, key = self._write_cheap(store)
        path.write_text("{ truncated")
        with pytest.raises(ArtifactCorruptError):
            store.read("FIG4", "fast", key)

    def test_missing_envelope_keys_are_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path, key = self._write_cheap(store)
        path.write_text(json.dumps({"key": key}))
        with pytest.raises(ArtifactCorruptError):
            store.read("FIG4", "fast", key)

    def test_stale_schema_version_is_not_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path, key = self._write_cheap(store)
        stale = json.loads(path.read_text())
        stale["schema_version"] = 0
        path.write_text(json.dumps(stale))
        with pytest.raises(ArtifactError) as excinfo:
            store.read("FIG4", "fast", key)
        assert not isinstance(excinfo.value, ArtifactCorruptError)

    def test_quarantine_renames_with_reason_sidecar(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path, key = self._write_cheap(store)
        path.write_text("garbage")
        moved = store.quarantine("FIG4", "fast", key, reason="not json")
        assert moved is not None and moved.name == path.name + ".corrupt"
        assert not path.exists() and moved.read_text() == "garbage"
        assert moved.with_name(moved.name + ".reason").read_text().strip() == "not json"
        # Quarantined files are invisible to the store's normal listing...
        assert store.entries() == [] and not store.exists("FIG4", "fast", key)
        # ...but enumerable for diagnostics.
        assert store.corrupt_files() == [moved]
        # Quarantining an absent entry is a no-op, not an error.
        assert store.quarantine("FIG4", "fast", key) is None

    def test_runner_quarantines_corrupt_and_reruns(self, tmp_path):
        store = ArtifactStore(tmp_path)
        shards = plan_shards(["FIG4", "TAB1"], profile="fast")
        baseline = run_shards(shards, store=store)
        victim = tmp_path / store.filename("FIG4", "fast", shards[0].key)
        victim.write_text("{ not json")
        warnings = []
        report = run_shards(shards, store=store, warn=warnings.append)
        # The corrupt shard re-ran, the healthy one cache-hit.
        assert report.executed == [shards[0].key]
        assert report.cached == [shards[1].key]
        assert report.payloads() == baseline.payloads()
        assert any("quarantined" in w for w in warnings)
        assert len(store.corrupt_files()) == 1
        # The store healed: a fresh run is a full cache hit.
        healed = run_shards(shards, store=store)
        assert healed.executed == [] and len(healed.cached) == 2

    def test_runner_reruns_stale_without_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path)
        shards = plan_shards(["FIG4"], profile="fast")
        run_shards(shards, store=store)
        path = tmp_path / store.filename("FIG4", "fast", shards[0].key)
        stale = json.loads(path.read_text())
        stale["schema_version"] = 0
        path.write_text(json.dumps(stale))
        report = run_shards(shards, store=store)
        assert report.executed == [shards[0].key]
        assert report.warnings == [] and store.corrupt_files() == []

    def test_scan_reports_unreadable_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path, _ = self._write_cheap(store)
        bad = tmp_path / "TAB1__fast__0000000000000000.json"
        bad.write_text("}{")
        readable, unreadable = store.scan()
        assert [r["payload"]["experiment_id"] for r in readable] == ["FIG4"]
        assert len(unreadable) == 1 and unreadable[0][0] == bad


class TestRunnerRetries:
    """Bounded retry with backoff; permanent failures degrade gracefully."""

    def test_forced_failure_exhausts_budget_serial(
        self, tmp_path, monkeypatch, no_backoff
    ):
        monkeypatch.setenv("REPRO_CHAOS_FAIL", "TAB1")
        store = ArtifactStore(tmp_path)
        shards = plan_shards(CHEAP_IDS, profile="fast")
        events = []
        report = run_shards(
            shards,
            store=store,
            max_retries=1,
            progress=lambda s, status, e, r: events.append((s.experiment_id, status)),
        )
        assert not report.ok
        assert [f.shard.experiment_id for f in report.failed] == ["TAB1"]
        assert report.failed[0].attempts == 2  # initial try + 1 retry
        assert "chaos hook" in report.failed[0].error
        # Siblings completed and persisted despite the failure.
        assert len(report.records) == len(CHEAP_IDS) - 1
        assert ("TAB1", "retry") in events and ("TAB1", "failed") in events
        # The failed shard left nothing behind; healing run completes it.
        monkeypatch.delenv("REPRO_CHAOS_FAIL")
        healed = run_shards(shards, store=store)
        assert healed.ok and healed.executed == [
            s.key for s in shards if s.experiment_id == "TAB1"
        ]

    def test_forced_failure_degrades_parallel(self, tmp_path, monkeypatch, no_backoff):
        monkeypatch.setenv("REPRO_CHAOS_FAIL", "LEM1")
        store = ArtifactStore(tmp_path)
        shards = plan_shards(CHEAP_IDS, profile="fast")
        report = run_shards(shards, jobs=2, store=store, max_retries=0)
        assert [f.shard.experiment_id for f in report.failed] == ["LEM1"]
        assert len(report.records) == len(CHEAP_IDS) - 1
        assert len(report.records) + len(report.failed) == len(shards)

    def test_retry_succeeds_within_budget(self, tmp_path, monkeypatch, no_backoff):
        # The hang hook with a flag file fires exactly once; with zero hang
        # seconds it is a benign no-op marker, so use FAIL semantics instead:
        # a shard that fails once then succeeds must not surface as failed.
        calls = {"n": 0}
        from repro.experiments import runner as runner_mod

        original = runner_mod.execute_shard

        def flaky(shard, environment=None):
            if shard.experiment_id == "FIG4" and calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("transient")
            return original(shard, environment)

        monkeypatch.setattr(runner_mod, "execute_shard", flaky)
        shards = plan_shards(["FIG4"], profile="fast")
        report = runner_mod.run_shards(shards, max_retries=1)
        assert report.ok and len(report.records) == 1
        assert any("retrying" in w for w in report.warnings)

    def test_invalid_arguments_rejected(self):
        shards = plan_shards(["FIG4"], profile="fast")
        with pytest.raises(InvalidParameterError):
            run_shards(shards, max_retries=-1)
        with pytest.raises(InvalidParameterError):
            run_shards(shards, shard_timeout=0.0)


class TestRunnerChaos:
    """Worker death and hangs: the campaign survives and stays bit-exact."""

    def test_sigkill_mid_campaign_resumes_bit_identical(
        self, tmp_path, monkeypatch, no_backoff
    ):
        """Acceptance: a SIGKILLed worker neither loses completed shards nor
        corrupts the store; the victim retries and the final aggregate equals
        the all-serial run bit for bit."""
        shards = plan_shards(CHEAP_IDS, profile="fast")
        serial = run_shards(shards, store=ArtifactStore(tmp_path / "serial"))
        assert serial.ok

        flag = tmp_path / "kill-once"
        monkeypatch.setenv("REPRO_CHAOS_KILL", "TAB1")
        monkeypatch.setenv("REPRO_CHAOS_KILL_FLAG", str(flag))
        store = ArtifactStore(tmp_path / "chaos")
        report = run_shards(shards, jobs=2, store=store)
        assert flag.exists()  # the kill actually fired
        assert report.ok, [f.error for f in report.failed]
        assert any("worker process died" in w for w in report.warnings)
        assert json.dumps(report.payloads()) == json.dumps(serial.payloads())
        assert store.corrupt_files() == []
        # Resume: everything is cached, still bit-identical to serial.
        resumed = run_shards(shards, jobs=2, store=store)
        assert resumed.executed == [] and len(resumed.cached) == len(shards)
        assert json.dumps(resumed.payloads()) == json.dumps(serial.payloads())

    def test_repeated_worker_death_bounded(self, tmp_path, monkeypatch, no_backoff):
        """A shard that reliably kills its worker fails after the death
        budget instead of respawning pools forever."""
        monkeypatch.setenv("REPRO_CHAOS_KILL", "TAB1")  # no flag: every time
        shards = plan_shards(["TAB1", "FIG4"], profile="fast")
        report = run_shards(shards, jobs=2)
        assert [f.shard.experiment_id for f in report.failed] == ["TAB1"]
        assert "worker process died" in report.failed[0].error
        assert [r["payload"]["experiment_id"] for r in report.records] == ["FIG4"]

    def test_hang_times_out_and_fails(self, tmp_path, monkeypatch, no_backoff):
        monkeypatch.setenv("REPRO_CHAOS_HANG", "TAB1")
        monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", "30")
        shards = plan_shards(["TAB1", "FIG4"], profile="fast")
        report = run_shards(shards, jobs=2, max_retries=0, shard_timeout=1.0)
        assert [f.shard.experiment_id for f in report.failed] == ["TAB1"]
        assert "timed out" in report.failed[0].error
        assert [r["payload"]["experiment_id"] for r in report.records] == ["FIG4"]
        # A lone pending shard must still run in a worker the timeout can
        # kill, not on the in-process fast path that cannot preempt itself.
        lone = run_shards(
            plan_shards(["TAB1"], profile="fast"),
            jobs=2,
            max_retries=0,
            shard_timeout=1.0,
        )
        assert [f.shard.experiment_id for f in lone.failed] == ["TAB1"]
        assert "timed out" in lone.failed[0].error
        assert lone.records == []

    def test_serial_engine_ignores_kill_hook(self, monkeypatch):
        """The kill hook is worker-only: the in-process engine must survive."""
        monkeypatch.setenv("REPRO_CHAOS_KILL", "FIG4")
        shards = plan_shards(["FIG4"], profile="fast")
        report = run_shards(shards)
        assert report.ok and len(report.records) == 1


class TestSampledCampaignChaos:
    """The S_13 sampled campaigns under the same chaos and schema discipline.

    The campaigns are pure functions of ``(seed, label, point, trial)``
    coordinates, so a SIGKILLed worker must replay to the bit-identical
    aggregate -- including the ``truncated`` accounting channel, which the
    schema validation below pins as a first-class payload field.
    """

    SAMPLED_IDS = ["SAMPLED-FAULT", "SAMPLED-STRETCH"]

    def test_sigkill_mid_sampled_fault_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        shards = plan_shards(self.SAMPLED_IDS, profile="fast")
        serial = run_shards(shards, store=ArtifactStore(tmp_path / "serial"))
        assert serial.ok

        flag = tmp_path / "kill-once"
        monkeypatch.setenv("REPRO_CHAOS_KILL", "SAMPLED-FAULT")
        monkeypatch.setenv("REPRO_CHAOS_KILL_FLAG", str(flag))
        store = ArtifactStore(tmp_path / "chaos")
        report = run_shards(shards, jobs=2, store=store)
        assert flag.exists()
        assert report.ok, [f.error for f in report.failed]
        assert any("worker process died" in w for w in report.warnings)
        assert json.dumps(report.payloads()) == json.dumps(serial.payloads())
        assert store.corrupt_files() == []
        # Resume: every shard cached, aggregate still bit-identical.
        resumed = run_shards(shards, jobs=2, store=store)
        assert resumed.executed == [] and len(resumed.cached) == len(shards)
        assert json.dumps(resumed.payloads()) == json.dumps(serial.payloads())

    @pytest.mark.parametrize("experiment_id", SAMPLED_IDS)
    def test_payload_validates_with_truncation_fields(self, experiment_id):
        spec = get_spec(experiment_id)
        result = run_experiment(experiment_id, profile="fast")
        payload = build_payload("fast", spec.params("fast"), result)
        validate_payload(payload, spec.schema)

        # The truncated channel is part of the declared contract, not an
        # optional extra: it appears both per row and in the summary.
        assert "truncated" in spec.schema.columns
        assert "total_truncated" in spec.schema.summary_keys
        truncated = payload["headers"].index("truncated")
        pairs = payload["headers"].index("pairs")
        total_truncated = 0
        for row in payload["rows"]:
            assert 0 <= row[truncated] <= row[pairs]
            total_truncated += row[truncated]
        assert payload["summary"]["total_truncated"] == total_truncated

        # Dropping the accounting key must fail validation outright.
        stripped = {
            key: value
            for key, value in payload["summary"].items()
            if key != "total_truncated"
        }
        with pytest.raises(ArtifactError):
            validate_payload(dict(payload, summary=stripped), spec.schema)
