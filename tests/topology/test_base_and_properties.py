"""Unit tests for repro.topology.base (generic Topology behaviour),
repro.topology.properties and repro.topology.nx_adapter."""

import random

import pytest

from repro.exceptions import InvalidNodeError
from repro.topology.base import Topology
from repro.topology.mesh import Mesh
from repro.topology.nx_adapter import bfs_distances, node_connectivity, to_networkx
from repro.topology.properties import (
    connectivity_after_faults,
    degree_histogram,
    edge_count,
    is_vertex_transitive_sample,
    verify_regular,
)
from repro.topology.star import StarGraph


class RingTopology(Topology):
    """A minimal Topology subclass (cycle graph) exercising the base-class defaults."""

    def __init__(self, size: int):
        self._size = size

    def nodes(self):
        return iter((i,) for i in range(self._size))

    def neighbors(self, node):
        node = self.validate_node(node)
        i = node[0]
        return [((i - 1) % self._size,), ((i + 1) % self._size,)]

    @property
    def num_nodes(self):
        return self._size

    def is_node(self, node):
        node = tuple(node)
        return len(node) == 1 and isinstance(node[0], int) and 0 <= node[0] < self._size


class TestBaseDefaults:
    def test_len_iter_contains(self):
        ring = RingTopology(6)
        assert len(ring) == 6
        assert list(ring) == [(i,) for i in range(6)]
        assert (3,) in ring
        assert (7,) not in ring
        assert "x" not in ring

    def test_bfs_distance_and_path(self):
        ring = RingTopology(8)
        assert ring.distance((0,), (4,)) == 4
        path = ring.shortest_path((0,), (3,))
        assert path[0] == (0,) and path[-1] == (3,)
        assert len(path) - 1 == 3

    def test_bfs_diameter_and_average_distance(self):
        ring = RingTopology(6)
        assert ring.diameter() == 3
        assert ring.average_distance() == pytest.approx(1.8)

    def test_edges_enumerated_once(self):
        ring = RingTopology(5)
        assert ring.num_edges == 5
        assert all(u < v for u, v in ring.edges())

    def test_node_index_default_table(self):
        ring = RingTopology(4)
        for index, node in enumerate(ring.nodes()):
            assert ring.node_index(node) == index
            assert ring.node_from_index(index) == node
        with pytest.raises(InvalidNodeError):
            ring.node_from_index(4)

    def test_every_ring_node_has_two_neighbors(self):
        ring = RingTopology(3)
        adjacency = {node: ring.neighbors(node) for node in ring.nodes()}
        assert set(adjacency) == {(0,), (1,), (2,)}
        assert all(len(v) == 2 for v in adjacency.values())

    def test_validate_node_error(self):
        with pytest.raises(InvalidNodeError):
            RingTopology(3).validate_node((9,))


class TestProperties:
    def test_degree_histogram_star(self, star4):
        assert degree_histogram(star4) == {3: 24}

    def test_degree_histogram_mesh(self, mesh_d4):
        histogram = degree_histogram(mesh_d4)
        assert sum(histogram.values()) == 24
        assert max(histogram) == 5 and min(histogram) == 3

    def test_verify_regular(self, star4, mesh_d4):
        assert verify_regular(star4, 3)
        assert not verify_regular(mesh_d4, 3)

    def test_edge_count(self, star4, mesh_d4):
        assert edge_count(star4) == 36
        assert edge_count(mesh_d4) == 46

    def test_vertex_transitive_sample(self, star4, mesh_d4):
        assert is_vertex_transitive_sample(star4, samples=5, rng=random.Random(0))
        # The mesh is not vertex transitive (corner vs interior degrees differ).
        assert not is_vertex_transitive_sample(mesh_d4, samples=10, rng=random.Random(0))

    def test_connectivity_after_faults_star(self, star4):
        rng = random.Random(3)
        nodes = list(star4.nodes())
        for _ in range(10):
            faults = rng.sample(nodes, 2)  # n - 2 = 2 faults for S_4
            assert connectivity_after_faults(star4, faults)

    def test_connectivity_after_cut_vertex_removal(self):
        # A 1-D mesh (path) disconnects when an interior node is removed.
        path = Mesh((5,))
        assert not connectivity_after_faults(path, [(2,)])
        assert connectivity_after_faults(path, [(0,)])

    def test_connectivity_all_removed(self):
        path = Mesh((2,))
        assert not connectivity_after_faults(path, [(0,), (1,)])


class TestNxAdapter:
    def test_to_networkx_counts(self, star4):
        graph = to_networkx(star4)
        assert graph.number_of_nodes() == 24
        assert graph.number_of_edges() == 36

    def test_to_networkx_subset(self, star4):
        subset = [(0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3)]
        graph = to_networkx(star4, nodes=subset)
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2  # both neighbours of the identity, not each other

    def test_bfs_distances_source_zero(self, star4):
        distances = bfs_distances(star4, star4.identity)
        assert distances[star4.identity] == 0
        assert len(distances) == 24

    def test_node_connectivity_is_maximal(self):
        # Maximal fault tolerance: connectivity equals degree n-1.
        assert node_connectivity(StarGraph(3)) == 2
        assert node_connectivity(StarGraph(4)) == 3
