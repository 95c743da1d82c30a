"""Command-line entry point: ``repro-star``.

Usage
-----
``repro-star list``
    Print the available experiment identifiers with their titles.
``repro-star list --json``
    The same as machine-readable JSON on stdout: one object per experiment
    (id, title, profile names) -- for tooling that drives the runner (the
    docs catalogue page is generated from this output).
``repro-star run FIG7 THM4 ...``
    Run the named experiments and print their tables; ``run all`` runs the
    whole registry (this is how EXPERIMENTS.md's measured columns were
    produced).
``repro-star run all --profile fast``
    Same, but with a named parameter profile from the registry
    (``default`` / ``fast`` / ``heavy``); ``--fast`` is shorthand for
    ``--profile fast``.
``repro-star run all --fast --json results.json``
    Additionally archive the structured results (one JSON object per
    experiment: id, profile, parameters, headers, rows, summary) to a file;
    ``--json -`` writes the JSON to stdout instead of the text tables.
``repro-star run all --fast --jobs 4 --out results/``
    Shard the registry over 4 worker processes and persist one
    content-addressed artifact per ``(experiment, profile, params)`` into
    ``results/``.  Re-running the same command is a no-op: shards whose key
    is already in the store are served from disk (``--force`` re-runs them).
    Sharded payloads are bit-identical to the serial ones -- ``--json`` can
    be combined with ``--jobs``/``--out`` and emits the same aggregate.
``repro-star report results/ [--md PATH] [--html PATH]``
    Render a static report (per-experiment tables, profiles, timings and the
    environment stamp) from a previously written artifact store; with
    neither flag the Markdown goes to stdout, ``-`` selects stdout
    explicitly.
``repro-star run all --fast --trace trace.jsonl --timings``
    Additionally append structured telemetry (kernel spans, cache/store
    counters, per-shard timings) to ``trace.jsonl`` while the run executes
    -- equivalent to setting ``REPRO_TRACE`` -- and print the per-shard
    timing table on stderr.  Tracing never changes results: payloads are
    byte-identical with and without ``--trace``.
``repro-star trace summarize trace.jsonl [--json]``
    Validate a JSONL trace file and print per-span aggregates (count,
    total, p50, p99), counter totals and gauge ranges; ``--json`` emits
    the same summary machine-readable on stdout.

Failure semantics
-----------------
``run`` degrades gracefully: a shard that keeps failing (``--max-retries``
attempts, exponential backoff) or exceeds ``--shard-timeout`` does not kill
the run -- its siblings complete and persist, the failed shards are listed
in a table on stderr (experiment, profile, key, attempts, last error) and
the exit code is 1.  Exit codes: 0 all shards ran and every claim holds;
1 a shard failed or a claim is false; 2 usage or environment errors
(unknown experiment, empty store, ...), reported as one readable line on
stderr rather than a traceback.

Progress lines of a store-backed run (``ran FIG2 ... 0.01s`` / ``cached
THM4 ...``, plus ``retry`` / ``failed`` events) go to *stderr*; stdout
carries only the tables or the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import telemetry
from repro.exceptions import ArtifactError, ReproError
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.registry import (
    EXPERIMENTS,
    PROFILES,
    list_experiments,
)
from repro.experiments.report import (
    render_html_report,
    render_markdown_report,
    render_result,
    result_from_payload,
)
from repro.experiments.runner import plan_shards, registry_sorted, run_shards

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-star",
        description="Regenerate the figures, tables and claims of "
        "'Embedding Meshes on the Star Graph' (Ranka, Wang & Yeh, "
        "Supercomputing 1990).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="print the experiment catalogue as JSON (ids, titles, profiles)",
    )

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list') or 'all'",
    )
    run_parser.add_argument(
        "--profile",
        choices=PROFILES,
        default=None,
        help="named parameter profile from the registry (default: 'default')",
    )
    run_parser.add_argument(
        "--fast",
        action="store_true",
        help="shorthand for --profile fast (reduced problem sizes)",
    )
    run_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write structured results as JSON to PATH ('-' for stdout, "
        "replacing the text tables)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to shard the experiments over (default: 1, "
        "the serial reference engine)",
    )
    run_parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="persist one content-addressed JSON artifact per experiment "
        "into DIR; already-present shards are not re-run",
    )
    run_parser.add_argument(
        "--force",
        action="store_true",
        help="with --out: re-run shards even when their artifact is already "
        "in the store",
    )
    run_parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="failed attempts a shard may retry (exponential backoff) before "
        "it is reported as failed (default: 1)",
    )
    run_parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill a shard's worker after SECONDS and count the attempt as "
        "failed (needs --jobs >= 2; default: no limit)",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append structured telemetry (kernel spans, cache counters, "
        "shard timings) to PATH as JSON lines; equivalent to setting "
        "REPRO_TRACE=PATH (worker processes inherit it); inspect with "
        "'repro-star trace summarize PATH'",
    )
    run_parser.add_argument(
        "--timings",
        action="store_true",
        help="print a per-shard timing table (status, seconds, attempts) "
        "on stderr after the run",
    )

    report_parser = subparsers.add_parser(
        "report", help="render a static report from an artifact store"
    )
    report_parser.add_argument(
        "store",
        help="artifact store directory (the --out of a previous run)",
    )
    report_parser.add_argument(
        "--md",
        metavar="PATH",
        default=None,
        help="write the Markdown report to PATH ('-' for stdout)",
    )
    report_parser.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help="write the standalone HTML report to PATH ('-' for stdout)",
    )
    report_parser.add_argument(
        "--title",
        default="Experiment results",
        help="report heading (default: 'Experiment results')",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="inspect telemetry traces (REPRO_TRACE / run --trace)"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    summarize_parser_ = trace_sub.add_parser(
        "summarize",
        help="validate a JSONL trace file and print per-span aggregates",
    )
    summarize_parser_.add_argument(
        "trace_file",
        help="JSONL trace file (written under REPRO_TRACE or run --trace)",
    )
    summarize_parser_.add_argument(
        "--json",
        action="store_true",
        help="print the aggregate summary as JSON instead of text tables",
    )
    return parser


def _cmd_list(args) -> int:
    if args.json:
        catalogue = [
            {
                "experiment_id": experiment_id,
                "title": EXPERIMENTS[experiment_id].title,
                # "default" is always available; named overrides follow.
                "profiles": ["default"]
                + [
                    p
                    for p in PROFILES
                    if p != "default" and p in EXPERIMENTS[experiment_id].profiles
                ],
            }
            for experiment_id in list_experiments()
        ]
        print(json.dumps(catalogue, indent=2))
        return 0
    width = max(len(experiment_id) for experiment_id in EXPERIMENTS)
    for experiment_id in list_experiments():
        print(f"{experiment_id:{width}s}  {EXPERIMENTS[experiment_id].title}")
    return 0


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    if args.profile and args.fast and args.profile != "fast":
        parser.error("--fast conflicts with --profile " + args.profile)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.force and args.out is None:
        parser.error("--force requires --out")
    if args.shard_timeout is not None and args.jobs < 2:
        parser.error("--shard-timeout requires --jobs >= 2")
    profile = args.profile or ("fast" if args.fast else "default")

    if args.trace is None:
        return _execute_run(args, profile)
    # --trace goes through the environment so pool workers inherit it; the
    # previous value is restored afterwards (tests drive main() in-process).
    previous = os.environ.get(telemetry.TRACE_ENV)
    os.environ[telemetry.TRACE_ENV] = args.trace
    telemetry.refresh_from_env()
    try:
        return _execute_run(args, profile)
    finally:
        if previous is None:
            os.environ.pop(telemetry.TRACE_ENV, None)
        else:
            os.environ[telemetry.TRACE_ENV] = previous
        telemetry.refresh_from_env()


def _execute_run(args, profile: str) -> int:
    shards = plan_shards(args.experiments, profile=profile)
    store = ArtifactStore(args.out) if args.out is not None else None
    json_to_stdout = args.json == "-"
    # With jobs=1 shards resolve strictly in order, so tables stream as each
    # experiment finishes (a multi-minute heavy run shows progress instead of
    # buffering everything); parallel completion order is arbitrary, so
    # jobs>1 prints the tables in shard order after the run.
    stream_tables = not json_to_stdout and args.jobs == 1

    def progress(shard, status, elapsed, record):
        if status in ("retry", "failed"):
            # Failure events are always worth a stderr line, store or not.
            print(
                f"{status:6s} {shard.experiment_id:14s} {shard.profile:7s} "
                f"{shard.key}  attempt {record['attempts']}: {record['error']}",
                file=sys.stderr,
            )
            return
        if store is not None:
            line = f"{status:6s} {shard.experiment_id:14s} {shard.profile:7s} {shard.key}"
            if status == "ran":
                line += f"  {elapsed:.3f}s"
            print(line, file=sys.stderr)
        if stream_tables:
            print(render_result(result_from_payload(record["payload"])))
            print()

    report = run_shards(
        shards,
        jobs=args.jobs,
        store=store,
        force=args.force,
        progress=progress,
        max_retries=args.max_retries,
        shard_timeout=args.shard_timeout,
        # Retry/failure warnings already surface as progress events; the
        # store-level ones (quarantines) only come through here.
        warn=lambda message: (
            print(f"warning: {message}", file=sys.stderr)
            if "quarantined" in message
            else None
        ),
    )
    if store is not None:
        summary = (
            f"{len(shards)} shard(s): {len(report.executed)} ran, "
            f"{len(report.cached)} cached"
        )
        if report.failed:
            summary += f", {len(report.failed)} FAILED"
        print(summary + f" (store: {store.root})", file=sys.stderr)
    if report.failed:
        print(_failure_table(report.failed), file=sys.stderr)
    if args.timings:
        print(_timing_table(report.metrics), file=sys.stderr)

    if not json_to_stdout and not stream_tables:
        for payload in report.payloads():
            print(render_result(result_from_payload(payload)))
            print()

    if args.json is not None:
        payload_text = json.dumps(report.payloads(), indent=2)
        if json_to_stdout:
            print(payload_text)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload_text)
                handle.write("\n")
    return 0 if report.ok and report.claims_hold() else 1


def _failure_table(failures) -> str:
    """The per-shard failure table printed on stderr after a degraded run."""
    headers = ("experiment", "profile", "key", "attempts", "last error")
    rows = [
        (
            failure.shard.experiment_id,
            failure.shard.profile,
            failure.shard.key,
            str(failure.attempts),
            failure.error,
        )
        for failure in failures
    ]
    widths = [
        max(len(headers[col]), max(len(row[col]) for row in rows))
        for col in range(len(headers) - 1)  # last column runs free
    ]
    lines = [f"{len(rows)} shard(s) failed permanently:"]
    for row in [headers] + rows:
        cells = [f"{row[col]:{widths[col]}s}" for col in range(len(widths))]
        lines.append("  " + "  ".join(cells + [row[-1]]))
    return "\n".join(lines)


def _timing_table(metrics) -> str:
    """The per-shard timing table printed on stderr under ``--timings``."""
    header = (
        f"shard timings: {metrics['shards']} shard(s), {metrics['ran']} ran, "
        f"{metrics['cached']} cached, {metrics['failed']} failed, "
        f"{metrics['retries']} retried, {metrics['elapsed_seconds']:.3f}s total"
    )
    timings = metrics.get("shard_timings", [])
    if not timings:
        return header
    headers = ("experiment", "profile", "status", "seconds", "attempts")
    rows = [
        (
            entry["experiment"],
            entry["profile"],
            entry["status"],
            f"{entry['seconds']:.3f}",
            str(entry["attempts"]),
        )
        for entry in timings
    ]
    widths = [
        max(len(headers[col]), max(len(row[col]) for row in rows))
        for col in range(len(headers))
    ]
    lines = [header]
    for row in [headers] + rows:
        lines.append(
            "  " + "  ".join(f"{row[col]:{widths[col]}s}" for col in range(len(row)))
        )
    return "\n".join(lines)


def _cmd_trace(args, parser: argparse.ArgumentParser) -> int:
    if args.trace_command == "summarize":
        events = telemetry.load_trace(args.trace_file)
        telemetry.validate_trace_events(events)
        summary = telemetry.summarize_trace(events)
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(telemetry.render_summary(summary, title=args.trace_file))
        return 0
    parser.error(f"unknown trace command {args.trace_command!r}")  # pragma: no cover


def _cmd_report(args, parser: argparse.ArgumentParser) -> int:
    store = ArtifactStore(args.store)
    # Best-effort load: a damaged entry must not take the whole report down
    # with it -- render what is readable and annotate the rest on stderr.
    readable, unreadable = store.scan()
    for path, reason in unreadable:
        print(f"warning: skipping unreadable artifact {path.name}: {reason}",
              file=sys.stderr)
    for path in store.corrupt_files():
        print(f"warning: quarantined artifact present: {path.name}",
              file=sys.stderr)
    records = registry_sorted(readable)
    if not records:
        raise ArtifactError(
            f"no artifacts found in {args.store!r}; produce some with "
            "'repro-star run all --out DIR' first"
        )

    wants_md = args.md is not None
    wants_html = args.html is not None
    if not wants_md and not wants_html:
        args.md, wants_md = "-", True  # default: Markdown to stdout

    if wants_md:
        text = render_markdown_report(records, title=args.title)
        if args.md == "-":
            print(text, end="")
        else:
            with open(args.md, "w") as handle:
                handle.write(text)
    if wants_html:
        text = render_html_report(records, title=args.title)
        if args.html == "-":
            print(text, end="")
        else:
            with open(args.html, "w") as handle:
                handle.write(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.exceptions.ReproError`: unknown
    experiment, empty store, malformed artifacts, ...) become one readable
    stderr line and exit code 2 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "report":
            return _cmd_report(args, parser)
        if args.command == "trace":
            return _cmd_trace(args, parser)
    except ReproError as error:
        print(f"repro-star: error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
