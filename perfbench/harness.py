"""One benchmark child process: import, set up, run passes, write a JSON result.

Started by :mod:`run` in a fresh interpreter for every role, so import and
set-up costs are paid here exactly as a user pays them::

    python3 perfbench/harness.py --workload W --seed N --role ROLE --out RESULT.json

Roles of the in-process workloads (``ball-campaign``, ``whole-graph``,
``mesh-programs``):

``import``
    Import the workload's modules, then exit (one import sample).
``measure``
    Import, set up, then run passes until ``--seconds`` have elapsed, each
    pass preceded by a host-speed probe (:mod:`calibration`).
``trace``
    Import, then set up and run ``--passes`` passes under the span tracer,
    each traced pass followed by the same pass untraced.

Roles of ``registry-store`` (``repro-star`` driven through its ``main``):

``setup``
    Import the CLI and plan the 24 ``--fast`` shards.
``cold``
    ``run all --fast --out STORE --json JSON`` into an empty store.
``warm``
    The same command again (every shard cached), then ``report STORE --md MD``.

``--trace 1`` traces the ``cold`` and ``warm`` roles.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads
from calibration import calibrate

PINS = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())["pins"]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_seconds(modules) -> float:
    started = perf_counter()
    for name in modules:
        importlib.import_module(name)
    return perf_counter() - started


def experiment_ids():
    from repro.experiments.registry import list_experiments

    return list_experiments()


def _pass_record(result, cal=None):
    return {"seconds": result.seconds, "cal": cal, "work": result.work, "attempted": result.attempted,
            "failures": result.failures, "digest": result.digest, "ledger": result.ledger}


def check_ledger(result, pins, index):
    pinned = pins.get("ledger_per_pass")
    if pinned is not None and result.ledger is not None and result.ledger != pinned:
        result.failures.append(f"pass {index}: ledger {result.ledger} differs from the pin {pinned}")


def run_in_process(args, pins) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    started = perf_counter()
    imported = import_seconds(workload.modules)
    if args.role == "import":
        return {"import_s": imported}
    if args.role == "trace":
        return trace_in_process(args, workload, imported, pins)
    workload.setup()
    out = {"import_s": imported, "setup_s": perf_counter() - started}
    frozen = workload.invariants()
    deadline = perf_counter() + args.seconds
    passes = []
    index = 0
    while not passes or perf_counter() < deadline:
        cal = calibrate()
        result = workload.run_pass(index)
        check_ledger(result, pins, index)
        if workload.invariants() != frozen:
            result.failures.append(f"pass {index}: a program compiled or a table was built")
            frozen = workload.invariants()
        passes.append(_pass_record(result, cal))
        index += 1
    out["passes"] = passes
    out["peak_rss_mib"] = peak_rss_mib()
    return out


def trace_in_process(args, workload, imported, pins) -> dict:
    tracer = tracing.Tracer()
    workload.tracer = tracer
    tracer.install()
    workload.setup()
    traced, untraced = [], []
    for index in range(args.passes):
        tracer.phase = "pass"
        if index:
            tracer.install()
        traced.append(workload.run_pass(index))
        gaps = [f"unwrapped binding {name}" for name in tracer.unwrapped_bindings()]
        gaps += [f"missing target {name}" for name in tracer.missing]
        tracer.uninstall()
        tracer.phase = "untraced"
        untraced.append(workload.run_pass(index))
    for index, (a, b) in enumerate(zip(traced, untraced)):
        check_ledger(a, pins, index)
        if a.digest != b.digest:
            a.failures.append(f"pass {index}: traced output differs from untraced output")
    tracer.write_jsonl(args.spans)
    return {
        "import_s": imported,
        "raw": tracer.raw_totals(),
        "passes": len(traced),
        "wall_s": sum(result.seconds for result in traced),
        "untraced_s": sum(result.seconds for result in untraced),
        "experiment_ids": experiment_ids(),
        "gaps": gaps,
        "results": [_pass_record(result) for result in traced + untraced],
    }


_SUMMARY = re.compile(r"(\d+) shard\(s\): (\d+) ran, (\d+) cached")


def cli_command(main, argv):
    """Run ``main(argv)`` with output captured: ``(exit code, seconds, stderr)``."""
    stderr = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(stderr):
        started = perf_counter()
        code = main(argv)
        seconds = perf_counter() - started
    return code, seconds, stderr.getvalue()


def run_registry(args) -> dict:
    imported = import_seconds(workloads.REGISTRY_MODULES)
    if args.role == "setup":
        from repro.experiments.runner import plan_shards

        plan_shards(["all"], profile="fast")
        return {"import_s": imported, "peak_rss_mib": peak_rss_mib()}
    from repro.experiments.cli import main

    tracer = tracing.Tracer().install() if args.trace else None
    if tracer is not None:
        tracer.phase = "pass"
    run_argv = ["run", "all", "--fast", "--out", args.store, "--json", args.json]
    out = {"import_s": imported, "commands": []}
    code, seconds, stderr = cli_command(main, run_argv)
    summary = _SUMMARY.search(stderr)
    out["commands"].append({
        "name": f"{args.role} run", "exit": code, "seconds": seconds,
        "summary": [int(value) for value in summary.groups()] if summary else None,
        "stderr": stderr[-2000:],
    })
    if args.role == "warm":
        code, seconds, stderr = cli_command(main, ["report", args.store, "--md", args.md])
        out["commands"].append({"name": "report", "exit": code, "seconds": seconds,
                                "stderr": stderr[-2000:]})
    if tracer is not None:
        gaps = [f"unwrapped binding {name}" for name in tracer.unwrapped_bindings()]
        tracer.uninstall()
        tracer.write_jsonl(args.spans)
        out["raw"] = tracer.raw_totals()
        out["gaps"] = gaps + [f"missing target {name}" for name in tracer.missing]
        out["experiment_ids"] = experiment_ids()
    out["peak_rss_mib"] = peak_rss_mib()
    out["cal"] = calibrate()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", required=True,
                        choices=("import", "setup", "measure", "trace", "cold", "warm"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--store")
    parser.add_argument("--json")
    parser.add_argument("--md")
    args = parser.parse_args(argv)
    started = perf_counter()
    if args.workload == "registry-store":
        out = run_registry(args)
        if args.role == "setup":
            out["setup_s"] = perf_counter() - started
    else:
        out = run_in_process(args, PINS.get(args.workload, {}))
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
