#!/usr/bin/env python
"""Run the benchmark suite and record a trimmed perf snapshot.

Runs ``pytest benchmarks/ --benchmark-json`` and trims the result to the
median wall-clock per benchmark, written as ``BENCH_<date>.json`` in the
repository root.  Committing one snapshot per perf-relevant PR gives a
queryable trajectory of the hot paths across the repository's history::

    python benchmarks/run_bench.py                  # full suite
    python benchmarks/run_bench.py -k fast_core     # one module / selection
    python benchmarks/run_bench.py --output /tmp/b.json
    python benchmarks/run_bench.py --compare        # vs latest committed snapshot
    python benchmarks/run_bench.py --compare BENCH_2026-07-28.json
    python benchmarks/run_bench.py --compare --json compare.json

``--compare`` prints the per-benchmark delta table (old/new medians, speedup,
signed delta %) against a baseline snapshot (by default the most recent
committed ``BENCH_*.json``) and exits non-zero when any shared benchmark
regressed by more than ``--regression-threshold`` (default 20%) -- the start
of perf CI.  ``--json PATH`` additionally archives the structured comparison
(per-row old/new/delta and the regression list) for CI artifacts.

``--runs N`` executes the whole suite N times and keeps, per benchmark, the
*minimum* of the per-run medians.  On shared or virtualised hosts a single
pass rides whatever contention window it lands in -- minutes-long noisy-
neighbour episodes inflate entire modules by 20-50% and single-shot
(``pedantic``) rows by more -- while the per-row minimum across a few runs
approaches the machine's actual floor and makes snapshots from different
days comparable again.  The snapshot records ``runs`` so the methodology is
visible in the trajectory.

A snapshot records the ``commit`` and the ``src_sha256`` of the ``src/``
tree it measured (the stamp ``perfbench/run.py`` prints).  It never
overwrites a snapshot of a different tree: when ``BENCH_<date>.json`` holds
another tree's medians the new one goes to ``BENCH_<date>.<k>.json`` (the
first free ``k``, or the one that holds this tree), and
:func:`latest_snapshot_path` orders snapshots by date and then ``k``.

Any extra arguments are forwarded to pytest (e.g. ``-k``, ``-x``).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_SNAPSHOT_NAME = re.compile(r"BENCH_(\d{4}-\d{2}-\d{2})(?:\.(\d+))?\.json")


def _run_pass(pytest_args: list, marker: str) -> dict:
    """One pytest-benchmark pass restricted to *marker*; {} when none match."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        command = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/",
            "--benchmark-only",
            f"--benchmark-json={raw_path}",
            "-m",
            marker,
            *pytest_args,
        ]
        completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if completed.returncode == 5:  # no tests collected for this marker
            return {}
        if completed.returncode != 0:
            raise SystemExit(completed.returncode)
        with open(raw_path) as handle:
            return json.load(handle)


def run_benchmarks(pytest_args: list) -> dict:
    """Execute the benchmark suite, returning pytest-benchmark's raw JSON.

    Two passes in separate interpreter processes: the standing suite first,
    then the ``heavy_bench`` ablations.  The multi-second program workloads
    fragment the heap enough to inflate the microsecond benchmarks that would
    otherwise run after them in file order; isolating the processes keeps the
    micro medians comparable across snapshots.
    """
    raw = _run_pass(pytest_args, "not heavy_bench")
    heavy = _run_pass(pytest_args, "heavy_bench")
    if not raw:
        return heavy or {"benchmarks": []}
    raw.setdefault("benchmarks", []).extend(heavy.get("benchmarks", []))
    return raw


def source_digest() -> str:
    """16 hex digits of the sha256 of every ``src/**/*.py`` path and its bytes.

    Computed exactly as ``perfbench/run.py``'s ``environment_stamp`` does, so
    a snapshot and a benchmark run of the same tree carry the same stamp.
    """
    source = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(REPO_ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return source.hexdigest()[:16]


def trim(raw: dict) -> dict:
    """Keep only what the perf trajectory needs: the median per benchmark."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        commit = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    medians = {
        bench["fullname"].replace("benchmarks/", "", 1): {
            "median_seconds": bench["stats"]["median"],
            "rounds": bench["stats"]["rounds"],
        }
        for bench in raw.get("benchmarks", [])
    }
    return {
        "date": _dt.date.today().isoformat(),
        "commit": commit,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "medians": dict(sorted(medians.items())),
    }


def merge_min(snapshots: list) -> dict:
    """Fold N same-suite snapshots into one, keeping the per-row minimum median.

    The minimum -- not the mean -- because benchmark noise on shared hosts is
    strictly additive: contention can only make a measurement slower, so the
    smallest observed median is the best estimate of the machine's floor.
    Rows missing from some runs (e.g. a skipped optional backend) keep the
    minimum over the runs that have them.
    """
    merged = dict(snapshots[0])
    medians = {}
    for snapshot in snapshots:
        for name, entry in snapshot["medians"].items():
            best = medians.get(name)
            if best is None or entry["median_seconds"] < best["median_seconds"]:
                medians[name] = entry
    merged["medians"] = dict(sorted(medians.items()))
    merged["runs"] = len(snapshots)
    return merged


def _snapshot_order(path: Path):
    """``(date, k)`` of ``BENCH_<date>[.<k>].json`` (``k = 0`` unsuffixed), else None."""
    match = _SNAPSHOT_NAME.fullmatch(path.name)
    if match is None:
        return None
    return match.group(1), int(match.group(2) or 0)


def latest_snapshot_path(exclude: Path = None) -> Path:
    """The most recent committed ``BENCH_*.json``, by its date and then ``k``."""
    candidates = [
        path
        for path in REPO_ROOT.glob("BENCH_*.json")
        if _snapshot_order(path) is not None
        and (exclude is None or path.resolve() != exclude.resolve())
    ]
    return max(candidates, key=_snapshot_order, default=None)


def snapshot_path(snapshot: dict) -> Path:
    """Where *snapshot* is written: ``BENCH_<date>.json`` or ``BENCH_<date>.<k>.json``.

    The first of those names that is free or already holds a snapshot of the
    same ``src_sha256``; a snapshot of another tree, or one that records no
    tree, is never overwritten.
    """
    for k in itertools.count():
        suffix = f".{k}" if k else ""
        path = REPO_ROOT / f"BENCH_{snapshot['date']}{suffix}.json"
        if not path.exists():
            return path
        with open(path) as handle:
            if json.load(handle).get("src_sha256") == snapshot["src_sha256"]:
                return path


def build_comparison(
    baseline: dict, current: dict, threshold: float, min_median: float = 0.0005
) -> dict:
    """The structured comparison of two snapshots (what ``--json`` archives).

    One row per benchmark name across both snapshots: shared rows carry the
    old/new medians, the speedup, the signed delta percentage and a status
    (``ok`` / ``regression`` / ``noise`` -- a slowdown past *threshold* whose
    medians both sit below the *min_median* noise floor); rows present in
    only one snapshot get status ``new`` / ``gone`` and ``None`` for the
    missing side.  ``regressions`` lists the gating names in row order.
    """
    old_medians = baseline.get("medians", {})
    new_medians = current.get("medians", {})
    rows = []
    regressions = []
    for name in sorted(set(old_medians) | set(new_medians)):
        old_entry = old_medians.get(name)
        new_entry = new_medians.get(name)
        old = old_entry["median_seconds"] if old_entry else None
        new = new_entry["median_seconds"] if new_entry else None
        if old is None or new is None:
            rows.append(
                {
                    "benchmark": name,
                    "old_seconds": old,
                    "new_seconds": new,
                    "speedup": None,
                    "delta_pct": None,
                    "status": "new" if old is None else "gone",
                }
            )
            continue
        speedup = old / new if new else float("inf")
        delta_pct = (new - old) / old * 100.0 if old else 0.0
        status = "ok"
        if new > old * (1.0 + threshold):
            if max(old, new) >= min_median:
                status = "regression"
                regressions.append(name)
            else:
                status = "noise"
        rows.append(
            {
                "benchmark": name,
                "old_seconds": old,
                "new_seconds": new,
                "speedup": round(speedup, 4),
                "delta_pct": round(delta_pct, 2),
                "status": status,
            }
        )
    return {
        "baseline": {"date": baseline.get("date"), "commit": baseline.get("commit")},
        "current": {"date": current.get("date"), "commit": current.get("commit")},
        "threshold": threshold,
        "min_median_seconds": min_median,
        "rows": rows,
        "regressions": regressions,
    }


def compare(baseline: dict, current: dict, threshold: float, min_median: float = 0.0005) -> list:
    """Print the per-benchmark delta table vs *baseline*; return regressed names.

    A benchmark regresses when its median exceeds the baseline median by more
    than *threshold* (a fraction, e.g. 0.2 for 20%) *and* either median is at
    least *min_median* seconds -- sub-floor benchmarks jitter by tens of
    percent from heap/cache state alone, so they are reported as noise rather
    than gating the run.  Benchmarks present in only one snapshot are listed
    but never fail the run.
    """
    comparison = build_comparison(baseline, current, threshold, min_median)
    shared = [
        row for row in comparison["rows"] if row["status"] not in ("new", "gone")
    ]
    regressions = comparison["regressions"]
    if not shared:
        print("no shared benchmarks to compare")
        return regressions
    width = max(len(row["benchmark"]) for row in comparison["rows"])
    print(
        f"\ncomparing against {baseline.get('date')} "
        f"(commit {baseline.get('commit')}):"
    )
    print(
        f"{'benchmark'.ljust(width)}  {'old (s)':>12}  {'new (s)':>12}  "
        f"speedup  {'delta':>8}"
    )
    for row in shared:
        flag = ""
        if row["status"] == "regression":
            flag = "  << REGRESSION"
        elif row["status"] == "noise":
            flag = "  (slower, below noise floor)"
        print(
            f"{row['benchmark'].ljust(width)}  {row['old_seconds']:12.6f}  "
            f"{row['new_seconds']:12.6f}  {row['speedup']:6.2f}x  "
            f"{row['delta_pct']:+7.1f}%{flag}"
        )
    for row in comparison["rows"]:
        if row["status"] == "new":
            print(
                f"{row['benchmark'].ljust(width)}  {'-':>12}  "
                f"{row['new_seconds']:12.6f}  (new)"
            )
    for row in comparison["rows"]:
        if row["status"] == "gone":
            print(
                f"{row['benchmark'].ljust(width)}  {row['old_seconds']:12.6f}  "
                f"{'-':>12}  (gone)"
            )
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than {threshold:.0%}")
    return regressions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="destination file (default: BENCH_<date>.json in the repo root, "
        "or BENCH_<date>.<k>.json when that one holds another source tree)",
    )
    parser.add_argument(
        "--compare",
        nargs="?",
        const="latest",
        default=None,
        metavar="BASELINE",
        help="compare against a BENCH_*.json (default: the most recent committed "
        "snapshot); exit non-zero on >threshold regressions",
    )
    parser.add_argument(
        "--regression-threshold",
        type=float,
        default=0.20,
        help="fractional slowdown that counts as a regression (default 0.20)",
    )
    parser.add_argument(
        "--min-median",
        type=float,
        default=0.0005,
        help="noise floor in seconds: slower-but-faster-than-this benchmarks "
        "are reported but do not fail the run (default 0.0005)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="with --compare: also write the structured comparison (per-row "
        "old/new/delta%% and the regression list) as JSON to PATH, so CI "
        "can archive it",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="execute the suite this many times and keep the per-benchmark "
        "minimum median (noise-floor estimate on shared hosts; default 1)",
    )
    args, pytest_args = parser.parse_known_args()
    if args.json is not None and args.compare is None:
        parser.error("--json requires --compare")

    baseline = None
    if args.compare is not None:
        # Resolve and load the baseline *before* writing the new snapshot, so
        # a same-day rerun can compare against the file it overwrites.
        if args.compare == "latest":
            baseline_path = latest_snapshot_path()
        else:
            baseline_path = Path(args.compare)
        if baseline_path is None or not baseline_path.exists():
            raise SystemExit(f"no baseline snapshot found ({baseline_path})")
        with open(baseline_path) as handle:
            baseline = json.load(handle)

    if args.runs < 1:
        parser.error("--runs must be >= 1")
    passes = []
    for index in range(args.runs):
        if args.runs > 1:
            print(f"benchmark pass {index + 1}/{args.runs}")
        passes.append(trim(run_benchmarks(pytest_args)))
    snapshot = passes[0] if args.runs == 1 else merge_min(passes)
    output = args.output or snapshot_path(snapshot)
    with open(output, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {output} ({len(snapshot['medians'])} benchmarks)")

    if baseline is not None:
        regressions = compare(
            baseline, snapshot, args.regression_threshold, args.min_median
        )
        if args.json is not None:
            comparison = build_comparison(
                baseline, snapshot, args.regression_threshold, args.min_median
            )
            with open(args.json, "w") as handle:
                json.dump(comparison, handle, indent=2)
                handle.write("\n")
            print(f"wrote comparison to {args.json}")
        if regressions:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
