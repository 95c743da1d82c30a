"""Unit tests for repro.topology.mesh (open meshes and the paper mesh D_n)."""

import math

import pytest

from repro.exceptions import InvalidNodeError, InvalidParameterError
from repro.topology.mesh import Mesh, paper_mesh
from repro.topology.nx_adapter import bfs_eccentricity


class TestConstruction:
    def test_sides_stored_as_tuple(self):
        assert Mesh([4, 3, 2]).sides == (4, 3, 2)

    def test_rejects_empty_sides(self):
        with pytest.raises(InvalidParameterError):
            Mesh(())

    def test_rejects_nonpositive_side(self):
        with pytest.raises(InvalidParameterError):
            Mesh((3, 0))

    def test_rejects_non_int_side(self):
        with pytest.raises(InvalidParameterError):
            Mesh((3, 2.5))

    def test_equality_and_hash(self):
        assert Mesh((2, 3)) == Mesh((2, 3))
        assert Mesh((2, 3)) != Mesh((3, 2))
        assert hash(Mesh((2, 3))) == hash(Mesh((2, 3)))


class TestPaperMesh:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sides_and_size(self, n):
        mesh = paper_mesh(n)
        assert mesh.sides == tuple(range(n, 1, -1))
        assert mesh.num_nodes == math.factorial(n)
        assert mesh.ndim == n - 1

    def test_paper_mesh_rejects_n_below_2(self):
        with pytest.raises(InvalidParameterError):
            paper_mesh(1)

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 5), (5, 7)])
    def test_max_degree_is_2n_minus_3(self, n, expected):
        assert paper_mesh(n).max_degree() == expected
        # And the interior node (1,1,...,1) attains it.
        interior = tuple(1 for _ in range(n - 1))
        assert len(paper_mesh(n).neighbors(interior)) == expected

    def test_dimension_index_helpers(self, mesh_d4):
        # Paper dimension 1 has length 2 and is the last tuple coordinate.
        assert mesh_d4.coordinate_of_dimension(1) == 2
        assert mesh_d4.sides[mesh_d4.coordinate_of_dimension(1)] == 2
        assert mesh_d4.coordinate_of_dimension(3) == 0
        assert mesh_d4.sides[mesh_d4.coordinate_of_dimension(3)] == 4
        with pytest.raises(InvalidParameterError):
            mesh_d4.coordinate_of_dimension(4)


class TestMembership:
    def test_valid_and_invalid_nodes(self, mesh_d4):
        assert mesh_d4.is_node((3, 2, 1))
        assert not mesh_d4.is_node((4, 0, 0))
        assert not mesh_d4.is_node((0, 0))
        assert not mesh_d4.is_node((0, 0, -1))

    def test_validate_raises(self, mesh_d4):
        with pytest.raises(InvalidNodeError):
            mesh_d4.validate_node((0, 3, 0))


class TestNeighbors:
    def test_corner_degree(self, mesh_d4):
        assert mesh_d4.degree((0, 0, 0)) == 3

    def test_interior_degree(self, mesh_d4):
        # The length-2 dimension can only ever contribute one neighbour, so the
        # maximum degree of D_4 is 2n - 3 = 5 (the Lemma 1 node (1,1,1)).
        assert mesh_d4.degree((1, 1, 1)) == 5
        assert mesh_d4.degree((2, 1, 0)) == 5

    def test_neighbors_differ_by_one_in_one_coordinate(self, mesh_d4):
        for node in mesh_d4.nodes():
            for neighbor in mesh_d4.neighbors(node):
                diffs = [abs(a - b) for a, b in zip(node, neighbor)]
                assert sum(diffs) == 1

    def test_neighbor_along_valid(self, mesh_d4):
        assert mesh_d4.neighbor_along((1, 1, 0), 2, +1) == (1, 1, 1)
        assert mesh_d4.neighbor_along((1, 1, 0), 0, -1) == (0, 1, 0)

    def test_neighbor_along_no_wraparound(self, mesh_d4):
        with pytest.raises(InvalidParameterError):
            mesh_d4.neighbor_along((0, 0, 0), 0, -1)
        with pytest.raises(InvalidParameterError):
            mesh_d4.neighbor_along((3, 2, 1), 2, +1)

    def test_neighbor_along_rejects_bad_args(self, mesh_d4):
        with pytest.raises(InvalidParameterError):
            mesh_d4.neighbor_along((0, 0, 0), 0, 2)
        with pytest.raises(InvalidParameterError):
            mesh_d4.neighbor_along((0, 0, 0), 5, 1)


class TestCountsAndIndexing:
    def test_edge_count_formula_matches_enumeration(self, mesh_d4):
        enumerated = sum(len(mesh_d4.neighbors(node)) for node in mesh_d4.nodes()) // 2
        assert mesh_d4.num_edges == enumerated == 46

    def test_edge_count_2d(self):
        # 3x4 grid: 3*(4-1) + 4*(3-1) = 17.
        assert Mesh((3, 4)).num_edges == 17

    def test_index_round_trip(self, mesh_d4):
        for index, node in enumerate(mesh_d4.nodes()):
            assert mesh_d4.node_index(node) == index
            assert mesh_d4.node_from_index(index) == node


class TestMetric:
    def test_distance_is_manhattan(self, mesh_d4):
        assert mesh_d4.distance((0, 0, 0), (3, 2, 1)) == 6
        assert mesh_d4.distance((1, 2, 0), (2, 0, 1)) == 4

    def test_shortest_path_valid(self, mesh_d4):
        path = mesh_d4.shortest_path((0, 0, 0), (3, 2, 1))
        assert path[0] == (0, 0, 0) and path[-1] == (3, 2, 1)
        assert len(path) - 1 == 6
        for a, b in zip(path, path[1:]):
            assert mesh_d4.has_edge(a, b)

    def test_diameter_formula_and_bfs(self, mesh_d4):
        assert mesh_d4.diameter() == 6
        assert bfs_eccentricity(mesh_d4, (0, 0, 0)) == 6

    def test_single_dimension_mesh_is_a_path(self):
        mesh = Mesh((5,))
        assert mesh.diameter() == 4
        assert mesh.degree((0,)) == 1
        assert mesh.degree((2,)) == 2
