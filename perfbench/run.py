"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measurement happens in fresh
child interpreters (:mod:`harness`) with a pinned environment:
``REPRO_BACKEND=numpy``, ``REPRO_NEIGHBORS=auto``, no ``REPRO_CHUNK_NODES``, a
table cache in a temporary directory under ``perfbench-out/`` and
``PYTHONPATH=src``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.

Untraced runs start ``SETUP_SAMPLES`` measuring children, each of which sets
up and then runs passes for its share of ``--seconds``, each preceded by
``IMPORTS_PER_SAMPLE`` import-only children (registry-store:
set-up children, then cycles of one cold and ``WARM_PER_CYCLE`` warm CLI
processes until ``--seconds`` have elapsed); traced runs start one traced
child (or one traced and one untraced cycle) plus an ``-X importtime`` child.
The host switches between speeds up to 1.9x apart, within seconds and over
minutes.  Timed passes and CLI commands are scaled to seconds of a reference
host by host-speed probes taken next to them (:mod:`calibration`) and report
the run's mean; a fresh-interpreter import or set-up is too short and too
unlike the probe for that, so it reports the fastest sample, as ``timeit``
does.  The
workloads, the meaning of each metric per workload, the layer predictions and
the pinned outputs are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import tracer
from calibration import scale
from workloads import REGISTRY_MODULES, REGISTRY_SHARDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: Import-only children started before each measuring child: a fresh-interpreter
#: import is short and noisy, so it needs more samples than set-up does.
IMPORTS_PER_SAMPLE = 6
#: Set-up children of a registry-store run: each is short, so it takes more.
REGISTRY_SETUP_SAMPLES = 6
#: Warm processes after each cold one in a registry-store cycle: a warm command
#: takes tens of milliseconds, so it needs more samples than the cold one.
WARM_PER_CYCLE = 3
TRACED_PASSES = 2
#: Wall-clock budget of one run; children are killed past it.
BUDGET_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result (child crashed, timed out, bad tree)."""


class Children:
    """Starts harness children with the pinned environment, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            REPRO_BACKEND="numpy",
            REPRO_NEIGHBORS="auto",
            REPRO_TABLE_CACHE=str(work / "tables"),
        )
        self.env = env

    def _start(self, command):
        self.count += 1
        stderr_path = self.work / f"child-{self.count}.stderr"
        with open(stderr_path, "w") as stderr:
            started = perf_counter()
            process = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr
            )
            try:
                code = process.wait(timeout=max(1.0, self.deadline - perf_counter()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise BenchError(f"child {command[1:]} ran past the run budget") from None
            wall = perf_counter() - started
        text = stderr_path.read_text()
        if code != 0:
            raise BenchError(f"child {command[1:]} exited {code}:\n{text[-3000:]}")
        return wall, text

    def harness(self, *arguments):
        """Run one harness child; returns ``(result dict, wall seconds)``."""
        out = self.work / f"child-{self.count + 1}.json"
        command = [sys.executable, str(HERE / "harness.py"), *map(str, arguments), "--out", str(out)]
        wall, _ = self._start(command)
        return json.loads(out.read_text()), wall

    def networkx_import_s(self, modules) -> float:
        """Cumulative import seconds of networkx while importing *modules*."""
        code = "; ".join(f"import {name}" for name in modules)
        _, text = self._start([sys.executable, "-X", "importtime", "-c", code])
        for line in text.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "networkx":
                return int(parts[1]) / 1e6
        return 0.0


# ------------------------------------------------------------------ helpers
def environment_stamp() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "commit": commit,
        "src_sha256": source.hexdigest()[:16],
    }


def failures_of(passes):
    """``(attempted, failed, messages)``; an operation fails at most once."""
    attempted = sum(p["attempted"] for p in passes)
    messages = [message for p in passes for message in p["failures"]]
    failed = sum(min(p["attempted"], len(p["failures"])) for p in passes)
    return attempted, failed, messages


def check_digest(workload, seed, digest, spec):
    """``(checks made, problems)`` of the output digest pinned at the default seed."""
    pinned = spec["pins"]["digests"].get(workload)
    if seed != spec["default_seed"] or not pinned:
        return 0, []
    if digest != pinned:
        return 1, [f"payload digest {digest[:16]} differs from the pinned {pinned[:16]}"]
    return 1, []


# ------------------------------------------------------ in-process workloads
def in_process_run(args, spec, children):
    """``SETUP_SAMPLES`` measuring children, each set up afresh and timed for a share of the run.

    Spreading the timed passes over every child samples more of the host's
    slow and fast periods, and every child contributes one set-up sample.
    """
    common = ("--workload", args.workload, "--seed", args.seed)
    if args.trace:
        return in_process_trace(args, spec, children, common)
    samples, imports = [], []
    for _ in range(SETUP_SAMPLES):
        imports += [children.harness(*common, "--role", "import")[0]
                    for _ in range(IMPORTS_PER_SAMPLE)]
        samples.append(children.harness(
            *common, "--role", "measure", "--seconds", args.seconds / SETUP_SAMPLES
        )[0])
    passes = [p for sample in samples for p in sample["passes"]]
    attempted, failed, messages = failures_of(passes)
    first = {sample["passes"][0]["digest"] for sample in samples}
    checked, extra = check_digest(args.workload, args.seed, samples[0]["passes"][0]["digest"], spec)
    checked += 1
    if len(first) != 1:
        extra.append("measuring processes with the same seed produced different outputs")
    factor = scale([p["cal"] for p in passes])
    pass_s = factor * mean(p["seconds"] for p in passes)
    metrics = {
        "setup_s": min(s["setup_s"] for s in samples),
        "import_s": min(s["import_s"] for s in samples + imports),
        "peak_rss_mib": median(s["peak_rss_mib"] for s in samples),
        "pass_s": pass_s,
        "work_per_s": median(p["work"] for p in passes) / pass_s,
    }
    return (metrics, attempted + checked, failed + len(extra), messages + extra,
            {"passes": len(passes), "host_scale": round(factor, 4)})


def in_process_trace(args, spec, children, common):
    spans = ROOT / "perfbench-out" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    traced, _ = children.harness(*common, "--role", "trace", "--passes", TRACED_PASSES,
                                 "--spans", spans)
    networkx_s = children.networkx_import_s(WORKLOADS[args.workload].modules)
    attempted, failed, messages = failures_of(traced["results"])
    metrics = tracer.finalize(traced["raw"], traced["passes"], traced["wall_s"],
                            traced["experiment_ids"])
    metrics["cli.import_s"] = traced["import_s"]
    metrics["cli.import.networkx_s"] = networkx_s
    metrics["trace.overhead_ratio"] = traced["wall_s"] / traced["untraced_s"] - 1
    checked, problems = coverage(args.workload, traced["raw"], spec, traced["gaps"])
    return (metrics, attempted + checked, failed + len(problems), messages + problems,
            {"spans": str(spans.relative_to(ROOT))})


# ------------------------------------------------------------ registry-store
def _read(path):
    return path.read_bytes() if path.is_file() else b""


def registry_cycle(children, index, trace, warm_count=1):
    """One cold CLI process over a fresh store, then *warm_count* warm ones."""
    base = children.work / f"cycle-{index}"
    base.mkdir()
    store = base / "store"
    common = ("--workload", "registry-store", "--seed", 0, "--store", store, "--trace", int(trace))
    spans = ROOT / "perfbench-out" / "traces"
    cold, _ = children.harness(*common, "--role", "cold", "--json", base / "cold.json",
                               "--spans", spans / f"registry-store-cold-{index}.jsonl")
    warms = []
    for k in range(warm_count):
        json_path, md_path = base / f"warm-{k}.json", base / f"report-{k}.md"
        warm, _ = children.harness(*common, "--role", "warm", "--json", json_path, "--md", md_path,
                                   "--spans", spans / f"registry-store-warm-{index}-{k}.jsonl")
        warm["json_bytes"] = _read(json_path)
        warm["report_bytes"] = len(_read(md_path))
        warms.append(warm)
    return {
        "cold": cold, "warms": warms,
        "artifacts": sorted(path.name for path in store.glob("*.json")),
        "cold_bytes": _read(base / "cold.json"),
    }


def registry_failures(cycle, spec):
    """Checks of one cycle: the cold run, then each warm run and its report."""
    pins = spec["pins"]["registry-store"]
    shards = REGISTRY_SHARDS
    cold_run, = cycle["cold"]["commands"]
    cold = []
    if cold_run["exit"] != 0 or cold_run["summary"] != [shards, shards, 0]:
        cold.append(f"cold run: exit {cold_run['exit']}, summary {cold_run['summary']}")
    if pins.get("artifacts") and cycle["artifacts"] != pins["artifacts"]:
        cold.append("cold run: store artifacts differ from the pinned keys")
    digest = hashlib.sha256(cycle["cold_bytes"]).hexdigest()
    pinned = spec["pins"]["digests"].get("registry-store")
    if pinned and digest != pinned:
        cold.append(f"cold run: payload digest {digest[:16]} differs from the pin")
    groups = [cold]
    for warm in cycle["warms"]:
        warm_run, report = warm["commands"]
        run_problems, rendered = [], []
        if warm_run["exit"] != 0 or warm_run["summary"] != [shards, 0, shards]:
            run_problems.append(f"warm run: not {shards} of {shards} cached ({warm_run['summary']})")
        if warm["json_bytes"] != cycle["cold_bytes"]:
            run_problems.append("warm run: payload bytes differ from the cold run")
        if report["exit"] != 0 or not warm["report_bytes"]:
            rendered.append(f"report: exit {report['exit']}, {warm['report_bytes']} bytes")
        groups += [run_problems, rendered]
    problems = [message for group in groups for message in group]
    return len(groups), sum(1 for group in groups if group), problems


def resume_seconds(warm):
    return sum(command["seconds"] for command in warm["commands"])


def command_seconds(cycle):
    return cycle["cold"]["commands"][0]["seconds"] + sum(map(resume_seconds, cycle["warms"]))


def registry_run(args, spec, children):
    if args.trace:
        return registry_trace(args, spec, children)
    common = ("--workload", "registry-store", "--seed", args.seed)
    samples = [children.harness(*common, "--role", "setup")[0]
               for _ in range(REGISTRY_SETUP_SAMPLES)]
    cycles = []
    deadline = perf_counter() + args.seconds
    while not cycles or perf_counter() < deadline:
        cycles.append(registry_cycle(children, len(cycles), trace=False, warm_count=WARM_PER_CYCLE))
    attempted = failed = 0
    messages = []
    for cycle in cycles:
        a, f, m = registry_failures(cycle, spec)
        attempted, failed, messages = attempted + a, failed + f, messages + m
    processes = [process for c in cycles for process in (c["cold"], *c["warms"])]
    factor = scale([p["cal"] for p in processes])
    run_all_s = factor * mean(c["cold"]["import_s"] + c["cold"]["commands"][0]["seconds"]
                              for c in cycles)
    resume_s = factor * mean(resume_seconds(w) for c in cycles for w in c["warms"])
    metrics = {
        "setup_s": min(s["setup_s"] for s in samples),
        "import_s": min(p["import_s"] for p in samples + processes),
        "peak_rss_mib": median(max(p["peak_rss_mib"] for p in (c["cold"], *c["warms"]))
                               for c in cycles),
        "pass_s": run_all_s,
        "work_per_s": REGISTRY_SHARDS / resume_s,
    }
    return (metrics, attempted, failed, messages,
            {"cycles": len(cycles), "host_scale": round(factor, 4)})


def registry_trace(args, spec, children):
    traced = registry_cycle(children, 0, trace=True)
    plain = registry_cycle(children, 1, trace=False)
    attempted = failed = 0
    messages = []
    for cycle in (traced, plain):
        a, f, m = registry_failures(cycle, spec)
        attempted, failed, messages = attempted + a, failed + f, messages + m
    attempted += 1
    (traced_warm,), (plain_warm,) = traced["warms"], plain["warms"]
    if (traced["cold_bytes"], traced_warm["json_bytes"]) != (plain["cold_bytes"], plain_warm["json_bytes"]):
        failed += 1
        messages.append("traced payload bytes differ from untraced payload bytes")
    raw = {}
    for process in (traced["cold"], traced_warm):
        for key, value in process["raw"].items():
            raw[key] = raw.get(key, 0.0) + value
    wall = command_seconds(traced)
    metrics = tracer.finalize(raw, 1, wall, traced["cold"]["experiment_ids"])
    metrics["cli.import_s"] = median([traced["cold"]["import_s"], traced_warm["import_s"],
                                      plain["cold"]["import_s"], plain_warm["import_s"]])
    metrics["cli.import.networkx_s"] = children.networkx_import_s(REGISTRY_MODULES)
    metrics["trace.overhead_ratio"] = wall / command_seconds(plain) - 1
    gaps = traced["cold"]["gaps"] + traced_warm["gaps"]
    checked, problems = coverage("registry-store", raw, spec, gaps)
    return (metrics, attempted + checked, failed + len(problems), messages + problems,
            {"spans": "perfbench-out/traces/registry-store-*-0.jsonl"})


# ---------------------------------------------------------------- tracing
def coverage(workload, raw, spec, gaps):
    """Check each wrapped layer was called where predicted busy, never where idle."""
    problems = list(gaps)
    checked = len(gaps)
    for name, expected in spec["coverage"].items():
        want = expected.get(workload, "any")
        if want == "any":
            continue
        checked += 1
        prefix = name[:-1] if name.endswith("*") else None
        calls = sum(
            value for key, value in raw.items()
            if key.endswith("|calls") and (
                key[:-6].startswith(prefix) if prefix else key[:-6] == name
            )
        )
        if want == "busy" and not calls:
            problems.append(f"coverage: {name} was never called on {workload}")
        if want == "idle" and calls:
            problems.append(f"coverage: {name} was called {calls:g} times on {workload}, "
                            "where it is predicted idle")
    return checked, problems


# -------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    if not args.trace and os.environ.get("REPRO_TRACE"):
        print("error: REPRO_TRACE is set; untraced runs refuse to start", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = ROOT / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    children = Children(work, perf_counter() + BUDGET_S)
    try:
        run = registry_run if args.workload == "registry-store" else in_process_run
        metrics, attempted, failed, messages, notes = run(args, spec, children)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    reported = {
        item["name"]: {"value": float(metrics.get(item["name"], 0.0)), "unit": item["unit"]}
        for item in declared
    }
    describe = spec["workloads"][args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{describe['loop']}; unit of work: {describe['unit_of_work']}")
    print("environment " + json.dumps(environment_stamp(), sort_keys=True))
    for name, meaning in describe["metrics"].items():
        if name in reported and not args.trace:
            print(f"  {name:14s} {reported[name]['value']:14.6g} {reported[name]['unit']:6s} {meaning}")
    if args.trace:
        for name, entry in reported.items():
            print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  failed_ratio   {failed}/{attempted} = {failed / attempted:.4g}  {json.dumps(notes)}")
    for message in messages[:20]:
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
