"""Tests for the experiment result container, table rendering, registry and CLI."""

import json

import numpy
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.artifacts import claim_verdict
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import (
    EXPERIMENTS,
    PROFILES,
    ExperimentSpec,
    get_experiment,
    get_spec,
    list_experiments,
    run_experiment,
)
from repro.experiments.report import ExperimentResult, format_table, json_safe, render_result


class TestFormatTable:
    def test_column_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_float_formatting(self):
        table = format_table(["x"], [[1.23456], [1e-7], [2.5e9], [0.0]])
        assert "1.235" in table
        assert "1.000e-07" in table
        assert "2.500e+09" in table

    def test_empty_rows(self):
        assert format_table(["only", "headers"], []).count("\n") == 1


class TestExperimentResult:
    def test_assert_claim_passes(self):
        result = ExperimentResult("X", "t", ["h"], [[1]], summary={"claim_holds": True})
        result.assert_claim()

    def test_assert_claim_fails(self):
        result = ExperimentResult("X", "t", ["h"], [[1]], summary={"claim_holds": False})
        with pytest.raises(AssertionError):
            result.assert_claim()

    def test_assert_claim_fails_when_missing(self):
        result = ExperimentResult("X", "t", ["h"], [[1]])
        with pytest.raises(AssertionError):
            result.assert_claim()

    def test_render_contains_sections(self):
        result = ExperimentResult(
            "FIGX",
            "a title",
            ["col"],
            [[42]],
            notes=["a note"],
            summary={"claim_holds": True, "value": 7},
        )
        text = render_result(result)
        assert "[FIGX] a title" in text
        assert "42" in text
        assert "claim_holds: True" in text
        assert "note: a note" in text


class TestRegistry:
    def test_twenty_four_experiments_registered(self):
        assert len(EXPERIMENTS) == 24
        assert set(list_experiments()) == set(EXPERIMENTS)

    def test_specs_have_titles_and_matching_ids(self):
        for experiment_id, spec in EXPERIMENTS.items():
            assert isinstance(spec, ExperimentSpec)
            assert spec.experiment_id == experiment_id
            assert spec.title and not spec.title.startswith("exp_")

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("fig7") is EXPERIMENTS["FIG7"].run
        assert get_spec("fig7") is EXPERIMENTS["FIG7"]

    def test_get_experiment_unknown(self):
        with pytest.raises(InvalidParameterError):
            get_experiment("NOPE")

    def test_profiles_resolve(self):
        spec = get_spec("THM4")
        assert spec.params("default") == {}
        assert spec.params("fast") == {"degrees": (3, 4, 5)}
        with pytest.raises(InvalidParameterError):
            spec.params("warp")
        assert set(spec.profiles) <= set(PROFILES)

    def test_run_experiment_by_id(self):
        result = run_experiment("FIG4")
        assert result.experiment_id == "FIG4"
        result.assert_claim()

    def test_run_experiment_profile_and_overrides(self):
        result = run_experiment("LEM1", profile="fast")
        assert result.rows[-1][0] == 6  # fast profile caps max_n at 6
        result = run_experiment("LEM1", profile="fast", max_n=4)
        assert result.rows[-1][0] == 4  # explicit kwargs win over the profile

    def test_experiment_ids_match_result_ids(self):
        # Spot-check a few cheap ones; ids in results must match registry keys
        # (FIG5 covers Figures 5 and 6 together).
        for experiment_id in ("FIG2", "FIG3", "TAB1"):
            assert run_experiment(experiment_id).experiment_id == experiment_id


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_prints_titles(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "FIG7" in output and "THM4" in output
        assert "Figure 7: mapping of V(D_4) into V(S_4)" in output
        assert "Theorem 4" in output

    def test_list_json_catalogue(self, capsys):
        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert [entry["experiment_id"] for entry in catalogue] == list_experiments()
        by_id = {entry["experiment_id"]: entry for entry in catalogue}
        assert by_id["THM4"]["title"].startswith("Theorem 4")
        assert by_id["THM4"]["profiles"] == ["default", "fast", "heavy"]
        # FIG4 has no named overrides: only the default profile is listed.
        assert by_id["FIG4"]["profiles"] == ["default"]
        for entry in catalogue:
            assert entry["profiles"][0] == "default"
            assert set(entry["profiles"]) <= set(PROFILES)

    def test_run_network_family_fast(self, capsys):
        assert main(["run", "network-family", "--fast"]) == 0
        output = capsys.readouterr().out
        # Comparison rows for all four networks at the fast degrees.
        for network in ("S_4", "P_4", "B_4", "Q_3", "S_5", "P_5", "B_5", "Q_4"):
            assert network in output
        assert "claim_holds: True" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "FIG4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "claim_holds: True" in output

    def test_run_fast_subset(self, capsys):
        assert main(["run", "LEM1", "TAB1", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "Lemma 1" in output and "Table 1" in output

    def test_profile_flag_matches_fast(self, capsys):
        assert main(["run", "LEM1", "--profile", "fast"]) == 0
        with_profile = capsys.readouterr().out
        assert main(["run", "LEM1", "--fast"]) == 0
        with_shorthand = capsys.readouterr().out
        assert with_profile == with_shorthand

    def test_fast_conflicts_with_other_profile(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "LEM1", "--fast", "--profile", "heavy"])

    def test_json_artifact_file(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["run", "LEM1", "TAB1", "--fast", "--json", str(out)]) == 0
        artifacts = json.loads(out.read_text())
        assert [a["experiment_id"] for a in artifacts] == ["LEM1", "TAB1"]
        for artifact in artifacts:
            assert artifact["profile"] == "fast"
            assert artifact["summary"]["claim_holds"] is True
            assert artifact["headers"] and artifact["rows"]
        assert artifacts[0]["params"] == {"max_n": 6}

    def test_json_to_stdout_replaces_tables(self, capsys):
        assert main(["run", "FIG4", "--json", "-"]) == 0
        output = capsys.readouterr().out
        artifacts = json.loads(output)
        assert artifacts[0]["experiment_id"] == "FIG4"

    def test_run_all_fast_smoke(self, tmp_path):
        """The CLI smoke test: every experiment passes at the fast profile."""
        out = tmp_path / "all.json"
        assert main(["run", "all", "--fast", "--json", str(out)]) == 0
        artifacts = json.loads(out.read_text())
        assert len(artifacts) == len(EXPERIMENTS)
        assert all(claim_verdict(a["summary"]) for a in artifacts)

    @pytest.mark.parametrize("args", [["build", "8"], ["list"], ["clear"]])
    def test_retired_tables_subcommand_is_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", *args])
        assert excinfo.value.code == 2
        assert "invalid choice: 'tables'" in capsys.readouterr().err

    def test_run_unknown_experiment_exits_2_readably(self, capsys):
        """Library errors become one readable stderr line, not a traceback."""
        assert main(["run", "UNKNOWN"]) == 2
        err = capsys.readouterr().err
        assert "repro-star: error:" in err
        assert "unknown experiment 'UNKNOWN'" in err


class TestCliSharded:
    """CLI-level tests of --jobs / --out / --force and the report subcommand."""

    def test_jobs_2_json_identical_to_serial(self, tmp_path):
        """Acceptance: `run all --jobs 2` rows equal the serial rows exactly."""
        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert main(["run", "all", "--fast", "--json", str(serial)]) == 0
        assert main(["run", "all", "--fast", "--jobs", "2", "--json", str(sharded)]) == 0
        assert serial.read_text() == sharded.read_text()

    def test_out_store_populated_and_resumable(self, tmp_path, capsys):
        store = tmp_path / "results"
        args = ["run", "LEM1", "TAB1", "--fast", "--out", str(store)]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "2 ran, 0 cached" in err
        files = sorted(p.name for p in store.glob("*.json"))
        assert len(files) == 2 and files[0].startswith("LEM1__fast__")
        # Second run: all shards cache-hit, artifacts untouched.
        before = {p.name: p.read_text() for p in store.glob("*.json")}
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 ran, 2 cached" in err
        assert {p.name: p.read_text() for p in store.glob("*.json")} == before

    def test_force_reruns(self, tmp_path, capsys):
        store = tmp_path / "results"
        assert main(["run", "FIG4", "--out", str(store)]) == 0
        capsys.readouterr()
        assert main(["run", "FIG4", "--out", str(store), "--force"]) == 0
        assert "1 ran, 0 cached" in capsys.readouterr().err

    def test_force_without_out_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "FIG4", "--force"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "FIG4", "--jobs", "0"])

    def test_shard_timeout_without_workers_rejected(self, capsys):
        # The in-process engine cannot preempt itself, so the timeout could
        # never fire; refuse it instead of silently ignoring it.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "FIG4", "--shard-timeout", "5"])
        assert excinfo.value.code == 2
        assert "--shard-timeout requires --jobs >= 2" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["run", "FIG4", "--jobs", "1", "--shard-timeout", "5"])

    def test_out_with_json_aggregate_matches_serial(self, tmp_path, capsys):
        store = tmp_path / "results"
        out = tmp_path / "agg.json"
        assert main(
            ["run", "LEM1", "TAB1", "--fast", "--jobs", "2", "--out", str(store), "--json", str(out)]
        ) == 0
        capsys.readouterr()
        serial = tmp_path / "serial.json"
        assert main(["run", "LEM1", "TAB1", "--fast", "--json", str(serial)]) == 0
        assert out.read_text() == serial.read_text()

    def test_report_markdown_to_stdout(self, tmp_path, capsys):
        store = tmp_path / "results"
        assert main(["run", "LEM1", "TAB1", "--fast", "--out", str(store)]) == 0
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("# Experiment results")
        assert "[TAB1]" in output and "[LEM1]" in output
        # Registry presentation order: TAB1 (a figure) before LEM1 (a claim).
        assert output.index("[TAB1]") < output.index("[LEM1]")

    def test_report_writes_md_and_html(self, tmp_path, capsys):
        store = tmp_path / "results"
        assert main(["run", "FIG4", "--out", str(store)]) == 0
        md = tmp_path / "report.md"
        html = tmp_path / "report.html"
        assert main(["report", str(store), "--md", str(md), "--html", str(html), "--title", "T"]) == 0
        assert md.read_text().startswith("# T")
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_serial_tables_stream_in_order_with_partial_cache(self, tmp_path, capsys):
        """jobs=1 prints each table as its shard resolves, in request order,
        even when the store already holds a subset."""
        store = tmp_path / "results"
        assert main(["run", "TAB1", "--fast", "--out", str(store)]) == 0
        capsys.readouterr()
        assert main(["run", "LEM1", "TAB1", "FIG4", "--fast", "--out", str(store)]) == 0
        out = capsys.readouterr().out
        assert out.index("[LEM1]") < out.index("[TAB1]") < out.index("[FIG4]")

    def test_report_empty_store_exits_2_readably(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == 2
        err = capsys.readouterr().err
        assert "repro-star: error:" in err and "no artifacts found" in err


class TestJsonSafe:
    def test_plain_types_pass_through(self):
        assert json_safe({"a": (1, 2.5, "x", None, True)}) == {"a": [1, 2.5, "x", None, True]}

    def test_numpy_scalars_unwrap(self):
        assert json_safe(numpy.int64(7)) == 7
        assert json_safe([numpy.float64(0.5)]) == [0.5]

    def test_objects_fall_back_to_str(self):
        class Odd:
            def __repr__(self):
                return "odd!"

        assert json_safe(Odd()) == "odd!"
