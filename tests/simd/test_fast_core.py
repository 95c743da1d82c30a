"""Property and parity tests for the rank-indexed fast core.

Two families of guarantees:

* the precomputed tables agree with the first-principles tuple algebra
  (move tables vs :func:`apply_star_generator`, vectorised distance sweeps vs the
  per-pair closed form);
* the dense-register machines are *bit-identical* in traces and ledgers to
  the original tuple-dict implementation, reproduced here as reference
  subclasses that route through the generic (tuple-validated) primitives.
"""

import itertools
import random

import pytest

from repro.algorithms import mesh_broadcast, odd_even_transposition_sort
from repro.embedding.mesh_to_star import MeshToStarEmbedding
from repro.embedding.paths import unit_route_paths
from repro.permutations.generators import apply_star_generator
from repro.permutations.ranking import (
    all_permutations,
    inversion_count,
    move_tables,
    permutation_rank,
    ranks_of,
)
from repro.simd.embedded import EmbeddedMeshMachine
from repro.simd.masks import Mask
from repro.simd.plans import build_unit_route_plan, unit_route_plan
from repro.simd.star_machine import StarMachine
from repro.topology.routing import star_distance, star_distances_from
from repro.topology.star import StarGraph


# ---------------------------------------------------------------- move tables
class TestMoveTables:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_star_generators_everywhere(self, n):
        tables = move_tables(n)
        assert len(tables) == n - 1
        for rank, perm in enumerate(all_permutations(n)):
            for j in range(1, n):
                neighbor = apply_star_generator(perm, j)
                assert int(tables[j - 1][rank]) == permutation_rank(neighbor)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_tables_are_fixed_point_free_involutions(self, n):
        for table in move_tables(n):
            for rank in range(len(table)):
                image = int(table[rank])
                assert image != rank
                assert int(table[image]) == rank

    def test_star_graph_exposes_tables(self):
        star = StarGraph(4)
        tables = star.move_tables()
        assert len(tables) == 3
        node = (2, 0, 3, 1)
        rank = star.node_index(node)
        for j in range(1, 4):
            assert star.neighbor_ranks(rank, j) == star.node_index(
                star.neighbor_along(node, j)
            )

    def test_ranks_of_matches_scalar_rank(self):
        rows = list(itertools.permutations(range(5)))
        ranks = ranks_of(rows)
        assert list(map(int, ranks)) == [permutation_rank(row) for row in rows]

    def test_ranks_of_exact_beyond_int64(self):
        # 21! - 1 overflows int64; the batch path must stay exact.
        row = tuple(range(20, -1, -1))
        (rank,) = list(ranks_of([row]))
        assert int(rank) == permutation_rank(row)
        assert int(rank) > 2 ** 63


# ------------------------------------------------------------------ distances
class TestDistancesFrom:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_closed_form_for_every_pair(self, n):
        rng = random.Random(20260728 + n)
        origins = [tuple(rng.sample(range(n), n)) for _ in range(3)]
        origins.append(tuple(range(n)))
        for origin in origins:
            distances = star_distances_from(origin)
            for rank, target in enumerate(all_permutations(n)):
                assert int(distances[rank]) == star_distance(origin, target)

    def test_star_graph_method_respects_diameter(self):
        star = StarGraph(6)
        distances = star.distances_from(star.identity)
        assert len(distances) == star.num_nodes
        assert int(max(distances)) == star.diameter()
        assert int(distances[0]) == 0


# ----------------------------------------------------------- inversion counts
class TestInversionCount:
    def test_matches_naive_count_across_the_fenwick_threshold(self):
        rng = random.Random(7)
        for degree in (1, 2, 5, 15, 16, 17, 40):
            values = list(range(degree))
            rng.shuffle(values)
            naive = sum(
                1
                for i in range(degree)
                for j in range(i + 1, degree)
                if values[i] > values[j]
            )
            assert inversion_count(tuple(values)) == naive


# ----------------------------------------- reference (seed) implementations
class ReferenceStarMachine(StarMachine):
    """Routes generator moves through the generic tuple-validated primitive,
    exactly as the pre-fast-core implementation did."""

    def route_generator(self, source_register, destination_register, generator,
                        *, where=None, label=None):
        mask = Mask.coerce(self.topology, where)
        moves = []
        for node in self.nodes:
            if mask.is_active(node):
                moves.append((node, self.star.neighbor_along(node, generator)))
        self.route_moves(
            source_register,
            destination_register,
            moves,
            label=label or f"generator-{generator}",
        )


class ReferenceEmbeddedMachine(EmbeddedMeshMachine):
    """Replays mesh unit routes through tuple paths and ``route_paths``,
    exactly as the pre-fast-core implementation did."""

    def route_dimension(self, source_register, destination_register, dim, delta,
                        *, where=None, label=None):
        paper_dim = self.n - 1 - dim
        mesh_paths = unit_route_paths(self._embedding, paper_dim, delta)
        if where is not None:
            mask = Mask.coerce(self.mesh, where) if isinstance(where, Mask) else None
            if mask is not None:
                active = mask.is_active
            elif callable(where):
                active = where
            else:
                selected = {self.mesh.validate_node(node) for node in where}
                active = lambda node: node in selected  # noqa: E731
            mesh_paths = {src: path for src, path in mesh_paths.items() if active(src)}
        star_paths = {self._to_star[src]: path for src, path in mesh_paths.items()}
        used = self._star_machine.route_paths(
            source_register,
            destination_register,
            star_paths,
            label=label or f"mesh-dim{dim}{'+' if delta > 0 else '-'}",
        )
        self._mesh_stats.record_route(
            messages=len(star_paths),
            label=label or f"dim{dim}{'+' if delta > 0 else '-'}",
        )
        return used


def assert_same_trace(fast, reference, registers):
    """Registers and both ledgers must match bit for bit."""
    for name in registers:
        assert fast.read_register(name) == reference.read_register(name)
    assert fast.stats.snapshot() == reference.stats.snapshot()
    if hasattr(fast, "star_stats"):
        assert fast.star_stats.snapshot() == reference.star_stats.snapshot()


# ----------------------------------------------------------- trace parity
class TestDenseTraceParity:
    @pytest.mark.parametrize("n", [3, 4])
    def test_generator_routes_identical(self, n):
        fast, reference = StarMachine(n), ReferenceStarMachine(n)
        for machine in (fast, reference):
            machine.define_register("A", lambda node: node)
        for generator in range(1, n):
            fast.route_generator("A", "B", generator)
            reference.route_generator("A", "B", generator)
        # Masked route: only odd-rank PEs transmit.
        predicate = lambda node: permutation_rank(node) % 2 == 1  # noqa: E731
        fast.route_generator("A", "C", 1, where=predicate)
        reference.route_generator("A", "C", 1, where=predicate)
        assert_same_trace(fast, reference, ["A", "B", "C"])

    @pytest.mark.parametrize("n", [3, 4])
    def test_embedded_sorting_identical(self, n):
        fast, reference = EmbeddedMeshMachine(n), ReferenceEmbeddedMachine(n)
        rng = random.Random(2024)
        keys = {node: rng.randint(0, 10 ** 6) for node in fast.mesh.nodes()}
        for machine in (fast, reference):
            machine.define_register("K", dict(keys))
        fast_routes = odd_even_transposition_sort(fast, "K", dim=0)
        reference_routes = odd_even_transposition_sort(reference, "K", dim=0)
        assert fast_routes == reference_routes
        assert_same_trace(fast, reference, ["K"])

    @pytest.mark.parametrize("n", [3, 4])
    def test_embedded_broadcast_identical(self, n):
        fast, reference = EmbeddedMeshMachine(n), ReferenceEmbeddedMachine(n)
        for machine in (fast, reference):
            machine.define_register("V", lambda node: None)
            machine.write_value("V", tuple([0] * (n - 1)), "payload")
        fast_used = mesh_broadcast(fast, tuple([0] * (n - 1)), "V")
        reference_used = mesh_broadcast(reference, tuple([0] * (n - 1)), "V")
        assert fast_used == reference_used
        assert_same_trace(fast, reference, ["V", "V_bcast"])
        assert all(v == "payload" for v in fast.read_register("V_bcast").values())

    def test_masked_route_dimension_identical(self):
        fast, reference = EmbeddedMeshMachine(4), ReferenceEmbeddedMachine(4)
        for machine in (fast, reference):
            machine.define_register("A", lambda node: node)
            machine.define_register("B", None)
        predicate = lambda node: node[0] % 2 == 0  # noqa: E731
        fast_used = fast.route_dimension("A", "B", 0, +1, where=predicate)
        reference_used = reference.route_dimension("A", "B", 0, +1, where=predicate)
        assert fast_used == reference_used
        assert_same_trace(fast, reference, ["A", "B"])

    def test_theorem6_ratio_preserved(self):
        machine = EmbeddedMeshMachine(4)
        machine.define_register("A", 1)
        for dim in range(machine.mesh.ndim):
            machine.route_dimension("A", "B", dim, +1)
            machine.route_dimension("A", "B", dim, -1)
        assert machine.star_stats.unit_routes <= 3 * machine.stats.unit_routes


# ------------------------------------------------------------------ plans
class TestUnitRoutePlans:
    def test_plan_cached_per_degree_and_dimension(self):
        embedding = MeshToStarEmbedding(4)
        first = unit_route_plan(embedding, 2, +1)
        second = unit_route_plan(MeshToStarEmbedding(4), 2, +1)
        assert first is second

    def test_plan_matches_tuple_paths(self):
        embedding = MeshToStarEmbedding(4)
        star = embedding.star
        plan = build_unit_route_plan(embedding, 3, +1)
        node_paths = unit_route_paths(embedding, 3, +1)
        assert set(plan.sources) == set(node_paths)
        for source, index_path in zip(plan.sources, plan.index_paths):
            expected = [star.node_index(node) for node in node_paths[source]]
            assert list(index_path) == expected

    def test_plan_step_messages_sum_to_path_hops(self):
        embedding = MeshToStarEmbedding(4)
        plan = build_unit_route_plan(embedding, 2, -1)
        total_hops = sum(len(path) - 1 for path in plan.index_paths)
        assert sum(step.num_messages for step in plan.steps) == total_hops

    def test_subset_plan_restricts_sources(self):
        embedding = MeshToStarEmbedding(4)
        plan = build_unit_route_plan(embedding, 2, +1)
        chosen = plan.sources[::2]
        subset = plan.subset(chosen)
        assert subset.sources == tuple(chosen)
        assert subset.num_steps <= plan.num_steps
        assert sum(step.num_messages for step in subset.steps) == sum(
            len(path) - 1 for path in subset.index_paths
        )
