"""Tests for the generic Cayley-network subsystem.

Three layers of guarantees:

* structural: generator sets are validated, the families have the documented
  degrees/node counts, and the star-*tree* instance is identical (tables and
  all) to :class:`~repro.topology.star.StarGraph`, the closed-form
  star-tree subclass;
* closed forms: bubble-sort distances are Kendall-tau inversion counts
  (BFS-verified), diameters match the known pancake numbers and the
  ``n(n-1)/2`` bubble-sort formula;
* oracle parity: BFS distances, diameters and node connectivity of
  :class:`PancakeGraph` / :class:`BubbleSortGraph` agree with networkx on the
  small degrees (the index-service parity suite in
  ``test_index_services.py`` additionally runs the table round-trip, the
  BFS-vs-dict sweep and the fault flood over Cayley instances).
"""

import random

import pytest

from repro.analysis.bounds import bubble_sort_diameter, pancake_diameter_known
from repro.exceptions import InvalidParameterError
from repro.topology.cayley import (
    BubbleSortGraph,
    CayleyGraph,
    PancakeGraph,
    TranspositionCayleyGraph,
    TranspositionTreeGraph,
    bubble_sort_distance,
    prefix_reversal_generators,
    transposition_generators,
)
from repro.topology.nx_adapter import (
    bfs_distances,
    bfs_eccentricity,
    node_connectivity,
)
from repro.topology.properties import (
    connectivity_after_faults,
    is_vertex_transitive_sample,
    verify_regular,
)
from repro.topology.routing import bfs_distances_from, distance_summary
from repro.topology.star import StarGraph


# ----------------------------------------------------------------- structure
class TestGeneratorSets:
    def test_prefix_reversal_generators(self):
        assert prefix_reversal_generators(4) == (
            (1, 0, 2, 3),
            (2, 1, 0, 3),
            (3, 2, 1, 0),
        )

    def test_transposition_generators(self):
        assert transposition_generators(3, ((0, 2),)) == ((2, 1, 0),)

    def test_transposition_validation(self):
        with pytest.raises(InvalidParameterError):
            transposition_generators(3, ((0, 0),))
        with pytest.raises(InvalidParameterError):
            transposition_generators(3, ((0, 3),))
        with pytest.raises(InvalidParameterError):
            transposition_generators(3, ((0, 1), (1, 0)))
        with pytest.raises(InvalidParameterError):
            transposition_generators(3, ())

    def test_cayley_graph_rejects_bad_generators(self):
        with pytest.raises(InvalidParameterError):
            CayleyGraph(3, ((0, 1, 2),))  # identity
        with pytest.raises(InvalidParameterError):
            CayleyGraph(3, ((1, 2, 0),))  # not an involution
        with pytest.raises(InvalidParameterError):
            CayleyGraph(3, ((1, 0, 2),), generator_names=("a", "b"))

    def test_tree_validation(self):
        with pytest.raises(InvalidParameterError):
            TranspositionTreeGraph(4, ((0, 1), (1, 2)))  # too few edges
        with pytest.raises(InvalidParameterError):
            # n-1 edges but disconnected (contains a cycle on 0,1,2).
            TranspositionTreeGraph(4, ((0, 1), (1, 2), (0, 2)))

    def test_positions_connected(self):
        assert TranspositionCayleyGraph(4, ((0, 1), (1, 2), (2, 3))).positions_connected()
        assert not TranspositionCayleyGraph(4, ((0, 1), (2, 3))).positions_connected()


class TestFamilyShapes:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pancake_shape(self, n):
        pancake = PancakeGraph(n)
        assert pancake.num_nodes == StarGraph(n).num_nodes if n >= 2 else True
        assert pancake.node_degree == n - 1
        assert pancake.num_edges == pancake.num_nodes * (n - 1) // 2
        assert verify_regular(pancake, n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bubble_sort_shape(self, n):
        bubble = BubbleSortGraph(n)
        assert bubble.node_degree == n - 1
        assert verify_regular(bubble, n - 1)

    def test_neighbors_match_generator_order(self):
        pancake = PancakeGraph(4)
        node = (2, 0, 3, 1)
        assert pancake.neighbors(node) == [
            pancake.neighbor_along(node, g) for g in range(pancake.num_generators)
        ]

    def test_generator_between_round_trip(self):
        for graph in (PancakeGraph(4), BubbleSortGraph(4)):
            node = (1, 3, 0, 2)
            for g in range(graph.num_generators):
                neighbor = graph.neighbor_along(node, g)
                assert graph.generator_between(node, neighbor) == g
            with pytest.raises(InvalidParameterError):
                graph.generator_between(node, node)

    def test_neighbor_ranks_match_tables(self):
        pancake = PancakeGraph(4)
        for rank in (0, 7, 23):
            node = pancake.node_from_index(rank)
            for g in range(pancake.num_generators):
                assert pancake.neighbor_ranks(rank, g) == pancake.node_index(
                    pancake.neighbor_along(node, g)
                )

    def test_equality_and_hash(self):
        assert PancakeGraph(4) == PancakeGraph(4)
        assert PancakeGraph(4) != PancakeGraph(5)
        assert hash(PancakeGraph(4)) == hash(PancakeGraph(4))
        assert BubbleSortGraph(4) != PancakeGraph(4)

    def test_vertex_transitive_sample(self):
        # Cayley graphs are vertex transitive; the sampled necessary
        # condition must never refute it.
        for graph in (PancakeGraph(4), BubbleSortGraph(4)):
            assert is_vertex_transitive_sample(graph, samples=4, rng=random.Random(0))


class TestStarTreeIsTheStarGraph:
    """Star = the star-tree instance of the transposition family."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_star_graph_is_the_star_tree_cayley_graph(self, n):
        star = StarGraph(n)
        assert isinstance(star, CayleyGraph)
        assert star.generators == TranspositionTreeGraph.star(n).generators
        assert star.generator_names == tuple(str(j) for j in range(1, n))
        # Generic 0-based generator k is the paper's 1-based g_{k+1}.
        node = star.node_from_index(star.num_nodes - 1)
        for j in range(1, n):
            assert star.apply_generator(node, j - 1) == star.neighbor_along(node, j)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_same_adjacency_and_tables(self, n):
        tree = TranspositionTreeGraph.star(n)
        star = StarGraph(n)
        # The cached move tables are literally the same objects: the star's
        # move_tables(n) is the move_tables_for special case.
        assert tree.move_tables() is star.move_tables()
        for rank in range(0, star.num_nodes, 5):
            node = star.node_from_index(rank)
            assert tree.neighbors(node) == star.neighbors(node)

    def test_same_metric_structure(self):
        tree = TranspositionTreeGraph.star(4)
        star = StarGraph(4)
        summary = distance_summary(tree)
        assert summary.diameter == star.diameter()
        assert summary.average_distance == pytest.approx(star.average_distance())


# --------------------------------------------------------------- closed forms
class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bubble_sort_distance_matches_bfs(self, n):
        bubble = BubbleSortGraph(n)
        for index in range(bubble.num_nodes):
            origin = bubble.node_from_index(index)
            sweep = bfs_distances_from(bubble, origin)
            for target_index in range(bubble.num_nodes):
                target = bubble.node_from_index(target_index)
                assert int(sweep[target_index]) == bubble.distance(origin, target)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bubble_sort_diameter_formula(self, n):
        bubble = BubbleSortGraph(n)
        assert bubble.diameter() == bubble_sort_diameter(n) == n * (n - 1) // 2
        assert distance_summary(bubble).diameter == bubble.diameter()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pancake_diameter_matches_known_value(self, n):
        assert distance_summary(PancakeGraph(n)).diameter == pancake_diameter_known(n)

    def test_bubble_sort_distance_validates(self):
        with pytest.raises(InvalidParameterError):
            bubble_sort_distance((0, 1), (0, 1, 2))
        with pytest.raises(InvalidParameterError):
            bubble_sort_distance((0, 0), (0, 1))


# -------------------------------------------------------------- the nx oracle
@pytest.mark.parametrize("family", [PancakeGraph, BubbleSortGraph], ids=lambda c: c.__name__)
@pytest.mark.parametrize("n", [3, 4, 5])
class TestNetworkxOracle:
    """Satellite: independent BFS/diameter/connectivity oracle at degrees 3-5."""

    def test_bfs_distances_match(self, family, n):
        graph = family(n)
        oracle = bfs_distances(graph, graph.identity)
        sweep = bfs_distances_from(graph, graph.identity)
        assert len(oracle) == graph.num_nodes
        for node, expected in oracle.items():
            assert int(sweep[graph.node_index(node)]) == expected

    def test_diameter_matches(self, family, n):
        graph = family(n)
        # Vertex transitivity: one eccentricity is the diameter.
        assert bfs_eccentricity(graph, graph.identity) == distance_summary(graph).diameter

    def test_node_connectivity_is_maximal(self, family, n):
        graph = family(n)
        assert node_connectivity(graph) == n - 1

    def test_survives_degree_minus_one_faults(self, family, n):
        graph = family(n)
        rng = random.Random(n)
        for _ in range(4):
            faults = [
                graph.node_from_index(i)
                for i in rng.sample(range(graph.num_nodes), n - 2)
            ]
            assert connectivity_after_faults(graph, faults)
