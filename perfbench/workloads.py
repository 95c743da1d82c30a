"""The in-process benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop with one client running serially: the next
pass starts when the previous one has finished and been checked.  A pass
returns its timed seconds, its units of work, the operations it attempted and
a list of failures (each failed operation contributes one entry).  Input
generation and output checks run outside the timed region.

The ``registry-store`` workload runs whole CLI processes and is driven from
:mod:`run` through the ``cold``/``warm`` roles of :mod:`harness`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

@dataclass
class PassResult:
    seconds: float
    work: float
    attempted: int
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    #: Paper-model ledger deltas of the pass, where the workload keeps one.
    ledger: Optional[dict] = None


def digest_of(value) -> str:
    """sha256 of the canonical JSON of *value*."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def table_builds() -> int:
    """Move-table constructions so far (misses of the per-degree table caches)."""
    from repro.permutations import ranking

    return sum(
        cache.cache_info().misses
        for cache in (ranking.move_tables, ranking.move_tables_for, ranking.all_permutations_array)
    )


def compiled_programs() -> frozenset:
    """Identities of the route programs in the compile cache."""
    from repro.simd import programs

    return frozenset(id(program) for program in programs._PROGRAM_CACHE.values())


class Workload:
    """Base: ``setup()`` once, then ``run_pass()`` until the run ends."""

    modules: tuple = ()
    #: The active :class:`tracer.Tracer` of a traced run, else None.
    tracer = None

    def __init__(self, seed: int):
        self.seed = seed

    @contextmanager
    def checking(self):
        """Mark output checks so a traced run leaves their calls out of the layers."""
        if self.tracer is None:
            yield
            return
        phase, self.tracer.phase = self.tracer.phase, "check"
        try:
            yield
        finally:
            self.tracer.phase = phase

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def invariants(self):
        """State that must not change during timed passes (no compile, no table build)."""
        return (table_builds(), compiled_programs())


# ------------------------------------------------------------------ campaigns
class CampaignWorkload(Workload):
    """Registry campaign experiments run through ``plan_shards``/``run_shards``."""

    modules = ("repro.experiments.runner",)
    #: experiment id -> parameter overrides of one pass (the seed is added).
    experiments: dict = {}
    #: experiment id -> overrides of the set-up pass: one full-size point per family.
    warmup: dict = {}

    def _plan(self, overrides_by_id):
        from repro.experiments import runner

        shards = []
        for experiment_id, overrides in overrides_by_id.items():
            shards += runner.plan_shards(
                [experiment_id], overrides={**overrides, "seed": self.seed}
            )
        return shards

    def setup(self) -> None:
        """Plan the shards and run a small pass that warms every lazy path."""
        from repro.experiments import runner

        failures = self.check(runner.run_shards(self._plan(self.warmup), jobs=1))
        if failures:
            raise RuntimeError(f"set-up pass failed: {failures}")
        self.shards = self._plan(self.experiments)
        self.trials = sum(
            self.trials_of(experiment_id, params)
            for experiment_id, params in self.experiments.items()
        )
        self.first_digest = None

    def run_pass(self, index: int) -> PassResult:
        from repro.experiments import runner

        started = perf_counter()
        report = runner.run_shards(self.shards, jobs=1)
        seconds = perf_counter() - started
        failures = self.check(report)
        digest = digest_of(report.payloads())
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            failures.append(f"pass {index}: payload digest differs from pass 0")
        return PassResult(seconds, self.trials, len(self.shards), failures, digest)

    def check(self, report) -> List[str]:
        failures = [
            f"{failure.shard.experiment_id}: shard failed ({failure.error})"
            for failure in report.failed
        ]
        for payload in report.payloads():
            experiment_id = payload["experiment_id"]
            if payload["summary"].get("claim_holds") is not True:
                failures.append(f"{experiment_id}: claim_holds is not true")
                continue
            column = {name: i for i, name in enumerate(payload["headers"])}
            broken = [row for row in payload["rows"] if not self.row_ok(experiment_id, column, row)]
            if broken:
                failures.append(f"{experiment_id}: accounting broken in {len(broken)} row(s)")
        return failures

    @staticmethod
    def trials_of(experiment_id, params) -> int:
        raise NotImplementedError

    @staticmethod
    def row_ok(experiment_id, column, row) -> bool:
        raise NotImplementedError


class BallCampaign(CampaignWorkload):
    """SAMPLED-FAULT and SAMPLED-STRETCH at S_13 on implicit adjacency."""

    _params = {"sizes": (13,), "fault_counts": (0, 6, 16), "trials": 1,
               "pairs_per_trial": 4, "depth": 4}
    _warm = {**_params, "fault_counts": (16,)}
    experiments = {"SAMPLED-FAULT": _params, "SAMPLED-STRETCH": _params}
    warmup = {"SAMPLED-FAULT": _warm, "SAMPLED-STRETCH": _warm}
    families = 3

    @classmethod
    def trials_of(cls, experiment_id, params) -> int:
        return cls.families * len(params["sizes"]) * len(params["fault_counts"]) * params["trials"]

    @staticmethod
    def row_ok(experiment_id, column, row) -> bool:
        pairs, reached, truncated = (row[column[name]] for name in ("pairs", "reached", "truncated"))
        if experiment_id == "SAMPLED-FAULT":
            return reached + row[column["disconnected"]] + truncated == pairs
        return 0 <= reached + truncated <= pairs


class WholeGraphCampaign(CampaignWorkload):
    """FAULT-CONNECTIVITY and FAULT-STRETCH at degree 7 on dense move tables."""

    experiments = {
        "FAULT-CONNECTIVITY": {"degrees": (7,), "fault_rates": (0.05, 0.1, 0.2, 0.3), "trials": 2},
        "FAULT-STRETCH": {"degrees": (7,), "fault_rates": (0.0, 0.05, 0.1, 0.2), "trials": 2,
                          "pairs_per_trial": 8},
    }
    warmup = {
        "FAULT-CONNECTIVITY": {"degrees": (7,), "fault_rates": (0.3,), "trials": 1},
        "FAULT-STRETCH": {"degrees": (7,), "fault_rates": (0.2,), "trials": 1,
                          "pairs_per_trial": 8},
    }
    families = 4

    @classmethod
    def trials_of(cls, experiment_id, params) -> int:
        # FAULT-CONNECTIVITY prepends the guaranteed (connectivity - 1) point.
        points = len(params["fault_rates"]) + (experiment_id == "FAULT-CONNECTIVITY")
        return cls.families * len(params["degrees"]) * points * params["trials"]

    @staticmethod
    def row_ok(experiment_id, column, row) -> bool:
        if experiment_id == "FAULT-CONNECTIVITY":
            return 0 <= row[column["disconnected"]] <= row[column["trials"]]
        return 0 <= row[column["unreachable"]] <= row[column["pairs"]]


# ------------------------------------------------------------ mesh programs
class MeshPrograms(Workload):
    """The paper's machine: D_7 natively and on S_7, plus an 8! shearsort."""

    modules = (
        "repro.algorithms.sorting",
        "repro.embedding.uniform",
        "repro.simd.embedded",
        "repro.simd.mesh_machine",
        "repro.simd.programs",
        "repro.topology.mesh",
    )
    degree = 7
    shear_degree = 8
    key_range = 1 << 20

    def setup(self) -> None:
        from repro.algorithms.sorting import snake_order_rank
        from repro.embedding.uniform import factorise_paper_mesh
        from repro.simd.embedded import EmbeddedMeshMachine
        from repro.simd.mesh_machine import MeshMachine
        from repro.topology.mesh import paper_mesh

        self.sides = paper_mesh(self.degree).sides
        self.nodes = list(itertools.product(*(range(side) for side in self.sides)))
        self.native = MeshMachine(self.sides)
        self.embedded = EmbeddedMeshMachine(self.degree)
        if list(self.native.mesh.nodes()) != self.nodes:
            raise RuntimeError("mesh node order is not row-major")
        self.shear = MeshMachine(factorise_paper_mesh(self.shear_degree, 2))
        self.shear_nodes = list(self.shear.mesh.nodes())
        self.snake = sorted(
            self.shear_nodes,
            key=lambda node: snake_order_rank(node, self.shear.sides),
        )
        self.expected_routes = {}
        for dim in range(len(self.sides)):
            for delta in (+1, -1):
                expected = {}
                for node in self.nodes:
                    source = list(node)
                    source[dim] -= delta
                    inside = 0 <= source[dim] < self.sides[dim]
                    expected[node] = ("payload",) + tuple(source) if inside else None
                self.expected_routes[dim, delta] = expected
        first = self.run_pass(-1)
        if first.failures:
            raise RuntimeError(f"set-up pass failed: {first.failures}")

    def _ledger(self):
        return {
            "native_mesh_routes": self.native.stats.unit_routes,
            "native_messages": self.native.stats.messages,
            "embedded_mesh_routes": self.embedded.stats.unit_routes,
            "embedded_star_routes": self.embedded.star_stats.unit_routes,
            "embedded_star_messages": self.embedded.star_stats.messages,
            "shearsort_routes": self.shear.stats.unit_routes,
            "shearsort_messages": self.shear.stats.messages,
        }

    def run_pass(self, index: int) -> PassResult:
        import numpy as np

        from repro.algorithms import sorting
        from repro.simd import programs

        rng = random.Random(self.seed * 1_000_003 + index)
        keys = [rng.randrange(self.key_range) for _ in self.nodes]
        shear_keys = [rng.randrange(self.key_range) for _ in self.shear_nodes]
        failures: List[str] = []
        attempted = 0
        seconds = 0.0
        before = self._ledger()
        outputs = {}

        started = perf_counter()
        for machine in (self.native, self.embedded):
            machine.define_register("K", dict(zip(self.nodes, keys)))
        seconds += perf_counter() - started
        ordered_input = sorted(keys)
        for dim in range(len(self.sides)):
            started = perf_counter()
            for machine in (self.native, self.embedded):
                sorting.odd_even_transposition_sort(machine, "K", dim)
            seconds += perf_counter() - started
            attempted += 1
            with self.checking():
                native = self.native.register_values("K")
                embedded = self.embedded.read_register("K")
            grid = np.asarray(native).reshape(self.sides)
            if [embedded[node] for node in self.nodes] != native:
                failures.append(f"sort dim {dim}: native and embedded registers differ")
            elif sorted(native) != ordered_input or (np.diff(grid, axis=dim) < 0).any():
                failures.append(f"sort dim {dim}: lines are not a sorted copy of the input")
        outputs["line_sort"] = native

        started = perf_counter()
        self.shear.define_register("K", dict(zip(self.shear_nodes, shear_keys)))
        sorting.shearsort_2d(self.shear, "K")
        seconds += perf_counter() - started
        attempted += 1
        with self.checking():
            values = self.shear.read_register("K")
        outputs["shearsort"] = [values[node] for node in self.snake]
        if outputs["shearsort"] != sorted(shear_keys):
            failures.append("shearsort: snake order is not the sorted input")

        started = perf_counter()
        for machine in (self.native, self.embedded):
            machine.define_register("A", lambda node: ("payload",) + node)
        seconds += perf_counter() - started
        for (dim, delta), expected in self.expected_routes.items():
            step = programs.Route("A", "B", dim, delta)
            started = perf_counter()
            for machine in (self.native, self.embedded):
                machine.define_register("B", None)
                programs.compile_program(machine, [step]).run(machine)
            seconds += perf_counter() - started
            attempted += 1
            with self.checking():
                native = self.native.read_register("B")
                embedded = self.embedded.read_register("B")
            if embedded != native:
                failures.append(f"route dim {dim} {delta:+d}: native and embedded registers differ")
            elif native != expected:
                failures.append(f"route dim {dim} {delta:+d}: payloads not delivered one hop")

        after = self._ledger()
        ledger = {key: after[key] - before[key] for key in after}
        attempted += 1
        mesh_routes = ledger["embedded_mesh_routes"]
        if ledger["embedded_star_routes"] > 3 * mesh_routes:
            failures.append(
                f"star/mesh route ratio {ledger['embedded_star_routes']}/{mesh_routes} exceeds 3"
            )
        work = (ledger["native_mesh_routes"] + ledger["embedded_star_routes"]
                + ledger["shearsort_routes"])
        return PassResult(seconds, work, attempted, failures, digest_of(outputs), ledger)


WORKLOADS = {
    "ball-campaign": BallCampaign,
    "whole-graph": WholeGraphCampaign,
    "mesh-programs": MeshPrograms,
}

#: What ``repro-star run all --fast`` should report for the registry-store cycle.
REGISTRY_SHARDS = 24
REGISTRY_MODULES = ("repro.experiments.cli",)
