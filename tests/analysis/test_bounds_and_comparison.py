"""Unit tests for repro.analysis.bounds and repro.analysis.comparison."""

import math

import pytest

from repro.analysis.bounds import (
    dilation_lower_bound_exists,
    hypercube_diameter,
    hypercube_num_nodes,
    paper_mesh_max_degree,
    star_degree,
    star_diameter,
    star_num_edges,
    star_num_nodes,
)
from repro.analysis.comparison import closest_hypercube_for_star, star_vs_hypercube_table
from repro.exceptions import InvalidParameterError
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import paper_mesh
from repro.topology.star import StarGraph


class TestBoundsAgainstEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_star_counts_match_topology(self, n):
        star = StarGraph(n)
        assert star_num_nodes(n) == star.num_nodes
        assert star_num_edges(n) == star.num_edges
        assert star_degree(n) == star.node_degree
        assert star_diameter(n) == star.diameter()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hypercube_counts_match_topology(self, n):
        cube = Hypercube(n)
        assert hypercube_num_nodes(n) == cube.num_nodes
        assert hypercube_diameter(n) == cube.diameter()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mesh_bounds_match_topology(self, n):
        mesh = paper_mesh(n)
        assert paper_mesh_max_degree(n) == mesh.max_degree()
        assert paper_mesh_max_degree(n) == max(
            len(mesh.neighbors(node)) for node in mesh.nodes()
        )

    def test_paper_mesh_max_degree_n2(self):
        assert paper_mesh_max_degree(2) == 1

    def test_lemma1_threshold(self):
        assert dilation_lower_bound_exists(2)
        assert not dilation_lower_bound_exists(3)
        assert not dilation_lower_bound_exists(10)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            star_diameter(1)
        with pytest.raises(InvalidParameterError):
            star_num_nodes(0)


class TestComparison:
    def test_table_shape(self):
        rows = star_vs_hypercube_table(6)
        assert [row.degree for row in rows] == [2, 3, 4, 5, 6]

    def test_star_always_connects_more_nodes(self):
        for row in star_vs_hypercube_table(10):
            assert row.star_nodes > row.hypercube_nodes
            assert row.node_ratio > 1

    def test_known_row(self):
        row = next(r for r in star_vs_hypercube_table(4) if r.degree == 3)
        assert row.star_n == 4
        assert row.star_nodes == 24
        assert row.star_diameter == 4
        assert row.hypercube_nodes == 8
        assert row.hypercube_diameter == 3

    def test_diameter_grows_slower_than_hypercube_at_equal_size(self):
        # At comparable node counts the star graph's diameter is smaller:
        # S_7 has 5040 nodes and diameter 9; a hypercube needs 13 dimensions
        # (8192 nodes) and has diameter 13.
        n = 7
        cube_dim = closest_hypercube_for_star(n)
        assert cube_dim == math.ceil(math.log2(math.factorial(n)))
        assert star_diameter(n) < hypercube_diameter(cube_dim)

    def test_rejects_small_max_degree(self):
        with pytest.raises(InvalidParameterError):
            star_vs_hypercube_table(1)
