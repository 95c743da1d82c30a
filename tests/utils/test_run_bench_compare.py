"""Unit tests for the perf-CI compare mode of benchmarks/run_bench.py."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "run_bench", REPO_ROOT / "benchmarks" / "run_bench.py"
)
run_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_bench)


def snapshot(medians):
    return {
        "date": "2026-01-01",
        "commit": "abc1234",
        "medians": {
            name: {"median_seconds": seconds, "rounds": 3}
            for name, seconds in medians.items()
        },
    }


class TestCompare:
    def test_no_regression(self, capsys):
        baseline = snapshot({"a": 1.0, "b": 0.5})
        current = snapshot({"a": 0.9, "b": 0.55})
        regressions = run_bench.compare(baseline, current, threshold=0.20)
        assert regressions == []
        out = capsys.readouterr().out
        assert "1.11x" in out and "REGRESSION" not in out

    def test_flags_regressions_beyond_threshold(self, capsys):
        baseline = snapshot({"a": 1.0, "b": 1.0})
        current = snapshot({"a": 1.25, "b": 1.15})
        regressions = run_bench.compare(baseline, current, threshold=0.20)
        assert regressions == ["a"]
        assert "REGRESSION" in capsys.readouterr().out

    def test_new_and_gone_benchmarks_never_fail(self, capsys):
        baseline = snapshot({"a": 1.0, "gone": 1.0})
        current = snapshot({"a": 1.0, "new": 9.9})
        assert run_bench.compare(baseline, current, threshold=0.20) == []
        out = capsys.readouterr().out
        assert "(new)" in out and "(gone)" in out

    def test_disjoint_snapshots(self, capsys):
        assert run_bench.compare(snapshot({"a": 1.0}), snapshot({"b": 1.0}), 0.2) == []
        assert "no shared benchmarks" in capsys.readouterr().out

    def test_sub_floor_slowdowns_do_not_gate(self, capsys):
        # A 100 us benchmark jitters by double without meaning anything.
        baseline = snapshot({"micro": 0.0001, "macro": 1.0})
        current = snapshot({"micro": 0.0002, "macro": 1.0})
        regressions = run_bench.compare(baseline, current, 0.20, min_median=0.0005)
        assert regressions == []
        assert "below noise floor" in capsys.readouterr().out


class TestLatestSnapshot:
    def test_picks_newest_by_name(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        for name in ("BENCH_2026-07-01.json", "BENCH_2026-07-28.json"):
            (tmp_path / name).write_text(json.dumps({"medians": {}}))
        assert run_bench.latest_snapshot_path().name == "BENCH_2026-07-28.json"

    def test_exclude(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        newest = tmp_path / "BENCH_2026-07-28.json"
        older = tmp_path / "BENCH_2026-07-01.json"
        for path in (newest, older):
            path.write_text(json.dumps({"medians": {}}))
        assert run_bench.latest_snapshot_path(exclude=newest) == older

    def test_empty(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        assert run_bench.latest_snapshot_path() is None

    def test_orders_by_date_then_index(self, tmp_path, monkeypatch):
        # Plain name order would put ".1" before the unsuffixed file and
        # ".10" before ".2".
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        names = (
            "BENCH_2026-07-28.json",
            "BENCH_2026-07-28.1.json",
            "BENCH_2026-07-28.2.json",
            "BENCH_2026-07-28.10.json",
            "BENCH_2026-07-01.30.json",
            "BENCH_notes.json",
        )
        for name in names:
            (tmp_path / name).write_text(json.dumps({"medians": {}}))
        assert run_bench.latest_snapshot_path().name == "BENCH_2026-07-28.10.json"
        newest = tmp_path / "BENCH_2026-07-28.10.json"
        assert run_bench.latest_snapshot_path(exclude=newest).name == (
            "BENCH_2026-07-28.2.json"
        )

    def test_unsuffixed_snapshot_is_index_zero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        for name in ("BENCH_2026-07-28.json", "BENCH_2026-07-27.4.json"):
            (tmp_path / name).write_text(json.dumps({"medians": {}}))
        assert run_bench.latest_snapshot_path().name == "BENCH_2026-07-28.json"


class TestSnapshotPath:
    def stamped(self, tree):
        return {"date": "2026-10-19", "src_sha256": tree, "medians": {}}

    def test_free_date_gets_the_plain_name(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        assert run_bench.snapshot_path(self.stamped("a")).name == "BENCH_2026-10-19.json"

    def test_same_tree_replaces_its_own_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        (tmp_path / "BENCH_2026-10-19.json").write_text(json.dumps(self.stamped("a")))
        assert run_bench.snapshot_path(self.stamped("a")).name == "BENCH_2026-10-19.json"

    def test_another_tree_is_never_overwritten(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        (tmp_path / "BENCH_2026-10-19.json").write_text(json.dumps(self.stamped("a")))
        assert run_bench.snapshot_path(self.stamped("b")).name == "BENCH_2026-10-19.1.json"
        (tmp_path / "BENCH_2026-10-19.1.json").write_text(json.dumps(self.stamped("b")))
        assert run_bench.snapshot_path(self.stamped("b")).name == "BENCH_2026-10-19.1.json"
        assert run_bench.snapshot_path(self.stamped("c")).name == "BENCH_2026-10-19.2.json"

    def test_unstamped_snapshot_counts_as_another_tree(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_bench, "REPO_ROOT", tmp_path)
        legacy = {"date": "2026-10-19", "commit": "d20288d", "medians": {}}
        (tmp_path / "BENCH_2026-10-19.json").write_text(json.dumps(legacy))
        assert run_bench.snapshot_path(self.stamped("a")).name == "BENCH_2026-10-19.1.json"


class TestSourceStamp:
    def test_trim_stamps_the_source_tree(self):
        snapshot = run_bench.trim({"benchmarks": []})
        stamp = snapshot["src_sha256"]
        assert len(stamp) == 16 and int(stamp, 16) >= 0
        assert list(snapshot)[:3] == ["date", "commit", "src_sha256"]

    def test_matches_the_benchmark_environment_stamp(self, monkeypatch):
        # perfbench/run.py imports its sibling modules by their bare names.
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
        for sibling in ("tracer", "calibration", "workloads"):
            monkeypatch.delitem(sys.modules, sibling, raising=False)
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", REPO_ROOT / "perfbench" / "run.py"
        )
        perfbench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perfbench_run)
        assert run_bench.source_digest() == perfbench_run.environment_stamp()["src_sha256"]
