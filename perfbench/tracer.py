"""In-memory span tracer that wraps each layer's public functions from outside.

The program under test is not modified: :meth:`Tracer.install` replaces every
module-level binding of each wrapped function in the loaded ``repro`` modules
(the defining module *and* every ``from ... import`` copy), patches wrapped
methods on their defining class, and swaps the registry's experiment specs for
copies whose ``run`` is wrapped.  :meth:`Tracer.uninstall` restores all of it.

Each call into a wrapped function records one span ``[id, parent, name,
start, end, phase, counts]`` in memory; spans are written out only when the
benchmark ends (:meth:`Tracer.write_jsonl`).  A span nested directly inside a
span of the same name is not recorded (``rank_batch`` calling
``_rank_rows_numpy`` counts its rows once).  A layer's self time is its span
durations minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module, attribute path) -- attribute paths with a dot name a
# method on a class defined in that module.
TARGETS = (
    ("runner", "repro.experiments.runner", "run_shards"),
    ("store.write", "repro.experiments.artifacts", "ArtifactStore.write"),
    ("store.read", "repro.experiments.artifacts", "ArtifactStore.read_path"),
    ("report", "repro.experiments.report", "render_markdown_report"),
    ("report", "repro.experiments.report", "render_html_report"),
    ("campaign", "repro.simulation.sampled_campaign", "sampled_fault_campaign"),
    ("campaign", "repro.simulation.campaign", "connectivity_campaign"),
    ("campaign", "repro.simulation.campaign", "stretch_campaign"),
    ("kernel.bounded_bfs", "repro.topology.routing", "bounded_bfs_ball"),
    ("kernel.bfs", "repro.topology.routing", "index_bfs_distances"),
    ("neighbors.block", "repro.topology.routing", "TableNeighborSource.neighbor_block"),
    ("neighbors.block", "repro.topology.routing", "ImplicitNeighborSource.neighbor_block"),
    ("neighbors.unrank", "repro.permutations.ranking", "unrank_batch"),
    ("neighbors.rank", "repro.permutations.ranking", "rank_batch"),
    ("neighbors.rank", "repro.permutations.ranking", "_rank_rows_numpy"),
    ("program.compile", "repro.simd.programs", "compile_program"),
    ("program.run", "repro.simd.programs", "RouteProgram.run"),
    ("simd.route", "repro.simd.machine", "SIMDMachine.route_moves"),
    ("simd.route", "repro.simd.machine", "SIMDMachine.route_indexed"),
    ("simd.route", "repro.simd.machine", "SIMDMachine.execute_plan"),
    ("simd.route", "repro.simd.mesh_machine", "MeshMachine.route_dimension"),
    ("simd.route", "repro.simd.embedded", "EmbeddedMeshMachine.route_dimension"),
    ("simd.register", "repro.simd.machine", "SIMDMachine.define_register"),
    ("simd.register", "repro.simd.machine", "SIMDMachine.read_register"),
    ("simd.register", "repro.simd.machine", "SIMDMachine.register_values"),
    ("simd.register", "repro.simd.embedded", "EmbeddedMeshMachine.define_register"),
    ("simd.register", "repro.simd.embedded", "EmbeddedMeshMachine.read_register"),
)

# Every public function of these modules is an ``algorithms`` span.
ALGORITHM_MODULES = (
    "repro.algorithms.sorting",
    "repro.algorithms.broadcast",
    "repro.algorithms.reduction",
    "repro.algorithms.scan",
    "repro.algorithms.shift",
)

# The per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.import.networkx_s", "s"),
    ("runner.self_s", "s"),
    ("runner.shards", "count"),
    ("runner.ran", "count"),
    ("runner.cached", "count"),
    ("runner.retries", "count"),
    ("runner.failed", "count"),
    ("store.write.calls", "count"),
    ("store.write.self_s", "s"),
    ("store.write.bytes", "bytes"),
    ("store.read.calls", "count"),
    ("store.read.self_s", "s"),
    ("store.read.bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("experiment.self_s", "s"),
    ("report.render_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.trials", "count"),
    ("campaign.pairs", "count"),
    ("campaign.truncated_ratio", "ratio"),
    ("kernel.bounded_bfs.calls", "count"),
    ("kernel.bounded_bfs.self_s", "s"),
    ("kernel.bounded_bfs.nodes", "count"),
    ("kernel.bounded_bfs.useful_ratio", "ratio"),
    ("kernel.bfs.calls", "count"),
    ("kernel.bfs.self_s", "s"),
    ("kernel.bfs.nodes", "count"),
    ("neighbors.block.calls", "count"),
    ("neighbors.block.rows", "count"),
    ("neighbors.block.self_s", "s"),
    ("neighbors.unrank.rows", "count"),
    ("neighbors.unrank.self_s", "s"),
    ("neighbors.rank.rows", "count"),
    ("neighbors.rank.self_s", "s"),
    ("program.compile.calls", "count"),
    ("program.compile.misses", "count"),
    ("program.compile.self_s", "s"),
    ("program.run.native.calls", "count"),
    ("program.run.native.self_s", "s"),
    ("program.run.embedded.calls", "count"),
    ("program.run.embedded.self_s", "s"),
    ("program.mesh_unit_routes", "count"),
    ("program.star_unit_routes", "count"),
    ("program.messages", "count"),
    ("program.star_per_mesh_route", "ratio"),
    ("program.s_per_unit_route", "s"),
    ("simd.route.calls", "count"),
    ("simd.route.self_s", "s"),
    ("simd.register.self_s", "s"),
    ("algorithms.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def experiment_metric(experiment_id: str) -> str:
    """Per-experiment inclusive-seconds metric name."""
    return f"experiment.{experiment_id}.s"


def _resolve(module, path):
    """``(owner, attribute, original)`` for ``name`` or ``Class.method``."""
    if "." in path:
        class_name, attribute = path.split(".")
        owner = getattr(module, class_name, None)
        return owner, attribute, vars(owner).get(attribute) if owner is not None else None
    return module, path, getattr(module, path, None)


class Tracer:
    """Records spans around calls into the wrapped layer functions."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self.missing = []
        self._patches = []
        self._originals = []
        self._compiled = set()

    # ---------------------------------------------------------------- spans
    def _wrap(self, name, function, before=None, after=None):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = tracer.stack
            if stack and stack[-1][2] == span_name:
                return function(*args, **kwargs)
            record = [len(tracer.spans) + 1, stack[-1][0] if stack else 0,
                      span_name, 0.0, 0.0, tracer.phase, {}]
            tracer.spans.append(record)
            context = before(args, kwargs) if before is not None else None
            stack.append(record)
            record[3] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if after is not None:
                after(record[6], args, kwargs, result, context)
            return result

        return wrapper

    def enclosing(self, name):
        """Counts dict of the innermost open span called *name*, or None."""
        for record in reversed(self.stack):
            if record[2] == name:
                return record[6]
        return None

    # ------------------------------------------------------------- patching
    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, value)

    def _patch(self, name, module_name, path, before=None, after=None):
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        owner, attribute, original = _resolve(module, path) if module else (None, None, None)
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = self._wrap(name, original, before, after)
        self._originals.append((f"{module_name}.{path}", original))
        if owner is not module:
            self._set(owner, attribute, wrapper)
            return
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def install(self):
        """Wrap every target; returns self."""
        self._originals = []
        self.missing = []
        hooks = _Hooks(self)
        for name, module_name, path in TARGETS:
            before, after = hooks.for_span(name)
            span = hooks.program_run_name if name == "program.run" else name
            self._patch(span, module_name, path, before, after)
        for module_name in ALGORITHM_MODULES:
            module = importlib.import_module(module_name)
            for attribute in getattr(module, "__all__", ()):
                if callable(getattr(module, attribute)) and not isinstance(
                    getattr(module, attribute), type
                ):
                    self._patch("algorithms", module_name, attribute)
        registry = importlib.import_module("repro.experiments.registry")
        for experiment_id, spec in list(registry.EXPERIMENTS.items()):
            wrapped = dataclasses.replace(
                spec, run=self._wrap(f"experiment.{experiment_id}", spec.run)
            )
            self._patches.append((registry.EXPERIMENTS, experiment_id, spec))
            registry.EXPERIMENTS[experiment_id] = wrapped
        return self

    def uninstall(self):
        """Restore every binding :meth:`install` replaced."""
        for owner, attribute, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attribute] = original
            elif original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    def unwrapped_bindings(self):
        """``module.name`` bindings that still hold an original function."""
        leftovers = []
        for loaded in list(sys.modules.values()):
            module_name = getattr(loaded, "__name__", "")
            if not module_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                for target, original in self._originals:
                    if value is original:
                        leftovers.append(f"{module_name}.{key} ({target})")
        return leftovers

    # ------------------------------------------------------------ analysis
    def raw_totals(self, phase_filter=("pass",)):
        """Additive per-span-name totals: calls, inclusive and self seconds, counts.

        Only spans whose phase is in *phase_filter* count, except
        ``program.compile`` spans, which count in every phase (compiling is
        set-up work).  ``root_s`` sums the durations of top-level spans.
        """
        child_seconds = defaultdict(float)
        for record in self.spans:
            if record[1]:
                child_seconds[record[1]] += record[4] - record[3]
        totals = defaultdict(float)
        for record in self.spans:
            span_id, parent, name, start, end, phase, counts = record
            if phase not in phase_filter and name != "program.compile":
                continue
            duration = end - start
            totals[f"{name}|calls"] += 1
            totals[f"{name}|incl_s"] += duration
            totals[f"{name}|self_s"] += duration - child_seconds[span_id]
            for key, value in counts.items():
                totals[f"{name}|{key}"] += value
            if not parent and phase in phase_filter:
                totals["root_s"] += duration
        totals["spans"] = float(len(self.spans))
        return dict(totals)

    def write_jsonl(self, path):
        """Write every recorded span as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, phase, counts in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "phase": phase, **counts,
                }) + "\n")


class _Hooks:
    """Per-layer ``before``/``after`` hooks that gather the layer counts."""

    def __init__(self, tracer):
        self.tracer = tracer

    def for_span(self, name):
        return {
            "runner": (None, self.runner_after),
            "store.write": (None, self.store_write_after),
            "store.read": (None, self.store_read_after),
            "campaign": (None, self.campaign_after),
            "kernel.bounded_bfs": (None, self.ball_after),
            "kernel.bfs": (None, self.bfs_after),
            "neighbors.block": (None, self.block_after),
            "neighbors.unrank": (None, self.rows_after),
            "neighbors.rank": (None, self.rows_after),
            "program.compile": (None, self.compile_after),
            "program.run": (self.program_before, self.program_after),
        }.get(name, (None, None))

    @staticmethod
    def runner_after(counts, args, kwargs, report, context):
        for key in ("shards", "ran", "cached", "retries", "failed"):
            counts[key] = report.metrics[key]
        if kwargs.get("store") is not None:
            counts["store_hits"] = report.metrics["cached"]
            counts["store_lookups"] = report.metrics["cached"] + report.metrics["ran"]

    @staticmethod
    def store_write_after(counts, args, kwargs, path, context):
        counts["bytes"] = Path(path).stat().st_size

    @staticmethod
    def store_read_after(counts, args, kwargs, record, context):
        counts["bytes"] = Path(args[1]).stat().st_size

    @staticmethod
    def campaign_after(counts, args, kwargs, points, context):
        counts["trials"] = sum(point.trials for point in points)
        counts["pairs"] = sum(getattr(point, "pairs", 0) for point in points)
        counts["truncated"] = sum(getattr(point, "truncated", 0) for point in points)

    @staticmethod
    def ball_after(counts, args, kwargs, ball, context):
        counts["nodes"] = ball.size
        counts["new_nodes"] = ball.size - 1

    @staticmethod
    def bfs_after(counts, args, kwargs, distances, context):
        counts["nodes"] = int((distances >= 0).sum())

    def block_after(self, counts, args, kwargs, block, context):
        counts["rows"] = len(block)
        ball = self.tracer.enclosing("kernel.bounded_bfs")
        if ball is not None:
            ball["candidates"] = ball.get("candidates", 0) + block.size

    @staticmethod
    def rows_after(counts, args, kwargs, result, context):
        counts["rows"] = len(result)

    def compile_after(self, counts, args, kwargs, program, context):
        if id(program) not in self.tracer._compiled:
            self.tracer._compiled.add(id(program))
            counts["misses"] = 1

    @staticmethod
    def program_run_name(args):
        return "program.run.native" if args[1].__class__.__name__ == "MeshMachine" \
            else "program.run.embedded"

    @staticmethod
    def _ledgers(machine):
        if machine.__class__.__name__ == "MeshMachine":
            return (machine.stats, None)
        return (machine.stats, machine.star_stats)

    def program_before(self, args, kwargs):
        mesh, star = self._ledgers(args[1])
        return (mesh.unit_routes, mesh.messages,
                star.unit_routes if star else 0, star.messages if star else 0)

    def program_after(self, counts, args, kwargs, result, before):
        mesh, star = self._ledgers(args[1])
        counts["mesh_unit_routes"] = mesh.unit_routes - before[0]
        if star is None:
            counts["messages"] = mesh.messages - before[1]
        else:
            counts["star_unit_routes"] = star.unit_routes - before[2]
            counts["messages"] = star.messages - before[3]


def finalize(raw, passes, wall_s, experiment_ids):
    """Per-layer metrics (per pass) from summed :meth:`Tracer.raw_totals`.

    *raw* may be the sum of several processes' totals; *passes* is the number
    of traced passes they cover and *wall_s* their traced wall time.
    """
    def total(name, key):
        return raw.get(f"{name}|{key}", 0.0)

    def per_pass(value):
        return value / passes

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    for key in ("shards", "ran", "cached", "retries", "failed"):
        m[f"runner.{key}"] = per_pass(total("runner", key))
    m["runner.self_s"] = per_pass(total("runner", "self_s"))
    for kind in ("write", "read"):
        m[f"store.{kind}.calls"] = per_pass(total(f"store.{kind}", "calls"))
        m[f"store.{kind}.self_s"] = per_pass(total(f"store.{kind}", "self_s"))
        m[f"store.{kind}.bytes"] = per_pass(total(f"store.{kind}", "bytes"))
    m["store.hit_ratio"] = ratio(total("runner", "store_hits"), total("runner", "store_lookups"))
    m["experiment.self_s"] = per_pass(sum(
        total(f"experiment.{experiment_id}", "self_s") for experiment_id in experiment_ids
    ))
    for experiment_id in experiment_ids:
        m[experiment_metric(experiment_id)] = per_pass(
            total(f"experiment.{experiment_id}", "incl_s")
        )
    m["report.render_s"] = per_pass(total("report", "incl_s"))
    m["campaign.self_s"] = per_pass(total("campaign", "self_s"))
    m["campaign.trials"] = per_pass(total("campaign", "trials"))
    m["campaign.pairs"] = per_pass(total("campaign", "pairs"))
    m["campaign.truncated_ratio"] = ratio(total("campaign", "truncated"), total("campaign", "pairs"))
    ball = "kernel.bounded_bfs"
    m[f"{ball}.calls"] = per_pass(total(ball, "calls"))
    m[f"{ball}.self_s"] = per_pass(total(ball, "self_s"))
    m[f"{ball}.nodes"] = per_pass(total(ball, "nodes"))
    m[f"{ball}.useful_ratio"] = ratio(total(ball, "new_nodes"), total(ball, "candidates"))
    for key in ("calls", "self_s", "nodes"):
        m[f"kernel.bfs.{key}"] = per_pass(total("kernel.bfs", key))
    for key in ("calls", "rows", "self_s"):
        m[f"neighbors.block.{key}"] = per_pass(total("neighbors.block", key))
    for kind in ("unrank", "rank"):
        m[f"neighbors.{kind}.rows"] = per_pass(total(f"neighbors.{kind}", "rows"))
        m[f"neighbors.{kind}.self_s"] = per_pass(total(f"neighbors.{kind}", "self_s"))
    # Compile spans cover set-up as well: totals, not per pass.
    m["program.compile.calls"] = total("program.compile", "calls")
    m["program.compile.misses"] = total("program.compile", "misses")
    m["program.compile.self_s"] = total("program.compile", "self_s")
    native, embedded = "program.run.native", "program.run.embedded"
    for name in (native, embedded):
        m[f"{name}.calls"] = per_pass(total(name, "calls"))
        m[f"{name}.self_s"] = per_pass(total(name, "self_s"))
    mesh_routes = total(native, "mesh_unit_routes") + total(embedded, "mesh_unit_routes")
    star_routes = total(embedded, "star_unit_routes")
    m["program.mesh_unit_routes"] = per_pass(mesh_routes)
    m["program.star_unit_routes"] = per_pass(star_routes)
    m["program.messages"] = per_pass(total(native, "messages") + total(embedded, "messages"))
    m["program.star_per_mesh_route"] = ratio(star_routes, total(embedded, "mesh_unit_routes"))
    m["program.s_per_unit_route"] = ratio(
        total(native, "incl_s") + total(embedded, "incl_s"),
        total(native, "mesh_unit_routes") + star_routes,
    )
    m["simd.route.calls"] = per_pass(total("simd.route", "calls"))
    m["simd.route.self_s"] = per_pass(total("simd.route", "self_s"))
    m["simd.register.self_s"] = per_pass(total("simd.register", "self_s"))
    m["algorithms.self_s"] = per_pass(total("algorithms", "self_s"))
    m["other.self_s"] = per_pass(wall_s - raw.get("root_s", 0.0))
    m["trace.wall_s"] = per_pass(wall_s)
    m["trace.spans"] = raw.get("spans", 0.0)
    return m
