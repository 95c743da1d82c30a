"""Integration tests spanning the whole stack.

These exercise realistic end-to-end scenarios: a numerical mesh workload
(Jacobi-style smoothing) run natively and through the embedding, a full
sort-of-all-keys pipeline on the Appendix 2-D reshape, fault-injection on the
embedded machine's conflict checker, and the public API surface promised by
the README quickstart.
"""

import random

import pytest

import repro
from repro.algorithms.broadcast import mesh_broadcast
from repro.algorithms.reduction import mesh_reduce
from repro.algorithms.scan import prefix_sum_dimension
from repro.algorithms.sorting import shearsort_2d, snake_order_rank
from repro.embedding.metrics import measure_embedding
from repro.embedding.uniform import factorise_paper_mesh
from repro.exceptions import RouteConflictError
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.mesh_machine import MeshMachine


class TestPublicApi:
    def test_readme_quickstart(self):
        embedding = repro.MeshToStarEmbedding(4)
        assert embedding.map_node((3, 0, 1)) == (0, 3, 1, 2)
        assert repro.convert_s_d((0, 3, 1, 2)) == (3, 0, 1)
        metrics = repro.measure_embedding(embedding)
        assert metrics.dilation == 3 and metrics.expansion == 1.0

    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_topologies_from_top_level(self):
        assert repro.StarGraph(4).num_nodes == 24
        assert repro.paper_mesh(4).num_nodes == 24
        assert repro.Hypercube(5).num_nodes == 32


class TestJacobiSmoothingWorkload:
    """A stencil relaxation: each PE repeatedly averages with its mesh neighbours.

    This is the kind of numerical-analysis workload the introduction motivates
    the embedding with; running it on the embedded machine checks Theorem 6 on
    a long mixed program (routes in every dimension and direction).
    """

    @staticmethod
    def run_smoothing(machine, iterations=2):
        mesh = machine.mesh
        machine.define_register("u", lambda node: float(node[0] * 7 + node[1] * 3))
        for _ in range(iterations):
            machine.define_register("acc", 0.0)
            machine.define_register("cnt", 0)
            for dim in range(mesh.ndim):
                for delta in (+1, -1):
                    machine.define_register("nbr", None)
                    machine.route_dimension("u", "nbr", dim, delta)
                    machine.apply(
                        "acc",
                        lambda acc, nbr: acc + (nbr if nbr is not None else 0.0),
                        "acc",
                        "nbr",
                    )
                    machine.apply(
                        "cnt",
                        lambda cnt, nbr: cnt + (1 if nbr is not None else 0),
                        "cnt",
                        "nbr",
                    )
            machine.apply("u", lambda acc, cnt: acc / cnt, "acc", "cnt")
        return machine.read_register("u")

    def test_embedded_matches_native(self):
        native = MeshMachine((4, 3, 2))
        embedded = EmbeddedMeshMachine(4)
        result_native = self.run_smoothing(native)
        result_embedded = self.run_smoothing(embedded)
        assert result_native == result_embedded
        assert embedded.star_stats.unit_routes <= 3 * embedded.stats.unit_routes

    def test_smoothing_contracts_toward_the_mean(self):
        native = MeshMachine((4, 3, 2))
        values = self.run_smoothing(native, iterations=4).values()
        assert max(values) - min(values) < 27  # initial spread is 21+6 = 27


class TestFullSortPipeline:
    def test_sort_all_keys_of_d5_via_appendix_reshape(self):
        # n! = 120 keys, reshaped into the Appendix 2-D mesh 15 x 8 and shearsorted.
        rows, cols = factorise_paper_mesh(5, 2)
        machine = MeshMachine((rows, cols))
        rng = random.Random(42)
        keys = [rng.randint(0, 10**6) for _ in range(rows * cols)]
        machine.define_register(
            "K", {node: keys[machine.mesh.node_index(node)] for node in machine.mesh.nodes()}
        )
        shearsort_2d(machine, "K")
        out = machine.read_register("K")
        ordered = [
            out[node]
            for node in sorted(
                machine.mesh.nodes(), key=lambda nd: snake_order_rank(nd, (rows, cols))
            )
        ]
        assert ordered == sorted(keys)


class TestCollectivePipelines:
    def test_broadcast_then_reduce_on_embedded_machine(self):
        machine = EmbeddedMeshMachine(4)
        machine.define_register("x", lambda node: node[0])
        mesh_broadcast(machine, (3, 2, 1), "x", result="seed")
        assert set(machine.read_register("seed").values()) == {3}
        total = mesh_reduce(machine, "seed", lambda a, b: a + b)
        assert total == 3 * 24
        assert machine.star_stats.unit_routes <= 3 * machine.stats.unit_routes

    def test_scan_then_reduce_consistency(self):
        machine = MeshMachine((4, 3, 2))
        machine.define_register("one", 1)
        prefix_sum_dimension(machine, "one", lambda a, b: a + b, dim=0)
        # The scan along the length-4 dimension ends at 4 on the last plane.
        values = machine.read_register("one_scan")
        assert all(values[(3, b, c)] == 4 for b in range(3) for c in range(2))


class TestConflictInjection:
    def test_tampered_paths_raise_route_conflict(self, embedding4):
        """If the unit-route paths are corrupted so two messages share a link,
        the star machine must refuse to execute them (Lemma 5 is checked, not
        assumed)."""
        from repro.embedding.paths import unit_route_paths

        machine = EmbeddedMeshMachine(4, embedding=embedding4)
        machine.define_register("A", 1)
        paths = unit_route_paths(embedding4, dimension=2, delta=+1)
        star_paths = {embedding4.map_node(src): path for src, path in paths.items()}
        sources = list(star_paths)
        # Redirect one path to start at a different source that already sends:
        victim, other = sources[0], sources[1]
        star_paths[other] = [other] + star_paths[victim][1:]
        with pytest.raises(RouteConflictError):
            machine.star_machine.route_paths("A", "B", star_paths)

    def test_untampered_paths_execute_cleanly(self, embedding4):
        machine = EmbeddedMeshMachine(4, embedding=embedding4)
        machine.define_register("A", 1)
        for dimension in range(3):
            for delta in (+1, -1):
                machine.route_dimension("A", "B", dimension, delta)


class TestExperimentsEndToEnd:
    def test_full_registry_runs_and_all_claims_hold(self):
        from repro.experiments.registry import list_experiments, run_experiment

        for experiment_id in list_experiments():
            result = run_experiment(experiment_id, profile="fast")
            result.assert_claim()
