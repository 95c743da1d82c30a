"""Unit tests for repro.topology.routing (closed-form distances and routing paths)."""

from itertools import permutations as itertools_permutations

import pytest

from repro.exceptions import InvalidParameterError
from repro.permutations.generators import apply_star_generator
from repro.topology.routing import (
    hypercube_distance,
    hypercube_route,
    mesh_distance,
    mesh_route,
    star_distance,
    star_distance_profile,
    star_route,
)


class TestStarDistance:
    def test_identity_distance_zero(self):
        assert star_distance((0, 1, 2, 3), (0, 1, 2, 3)) == 0

    def test_generator_neighbors_at_distance_one(self):
        node = (2, 0, 3, 1)
        for j in range(1, len(node)):
            assert star_distance(node, apply_star_generator(node, j)) == 1

    def test_symbol_transposition_distances(self):
        # Swap not involving the front symbol: distance 3 (Lemma 2).
        assert star_distance((3, 2, 1, 0), (3, 1, 2, 0)) == 3
        # Swap involving the front symbol: distance 1.
        assert star_distance((3, 2, 1, 0), (0, 2, 1, 3)) == 1

    def test_symmetric(self):
        u, v = (3, 0, 2, 1), (1, 2, 0, 3)
        assert star_distance(u, v) == star_distance(v, u)

    def test_vertex_transitive(self):
        # Distance is invariant under relabelling (composition with a fixed permutation).
        u, v = (3, 0, 2, 1), (1, 2, 0, 3)
        relabel = {0: 2, 1: 0, 2: 3, 3: 1}
        u2 = tuple(relabel[x] for x in u)
        v2 = tuple(relabel[x] for x in v)
        assert star_distance(u, v) == star_distance(u2, v2)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(InvalidParameterError):
            star_distance((0, 1), (0, 1, 2))

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidParameterError):
            star_distance((0, 0, 1), (0, 1, 2))

    def test_profile_consistency(self):
        distance, cycles, displaced = star_distance_profile((3, 2, 1, 0), (0, 1, 2, 3))
        assert distance == star_distance((3, 2, 1, 0), (0, 1, 2, 3))
        assert cycles == 2 and displaced == 4

    def test_max_distance_is_diameter(self):
        worst = max(
            star_distance((0, 1, 2, 3), node) for node in itertools_permutations(range(4))
        )
        assert worst == 4  # floor(3*(4-1)/2)


class TestStarRoute:
    def test_route_endpoints_and_length(self):
        source, target = (0, 1, 2, 3), (3, 2, 1, 0)
        path = star_route(source, target)
        assert path[0] == source and path[-1] == target
        assert len(path) - 1 == star_distance(source, target)

    def test_route_hops_are_generator_moves(self):
        source, target = (2, 4, 1, 0, 3), (0, 1, 2, 3, 4)
        path = star_route(source, target)
        for a, b in zip(path, path[1:]):
            differing = [i for i in range(5) if a[i] != b[i]]
            assert len(differing) == 2 and 0 in differing

    def test_route_optimal_for_all_s4_pairs_from_identity(self):
        identity = (0, 1, 2, 3)
        for target in itertools_permutations(range(4)):
            path = star_route(identity, target)
            assert len(path) - 1 == star_distance(identity, target)

    def test_trivial_route(self):
        assert star_route((1, 0, 2), (1, 0, 2)) == [(1, 0, 2)]


class TestMeshRouting:
    def test_distance_manhattan(self):
        assert mesh_distance((0, 0), (2, 3), (3, 4)) == 5

    def test_route_dimension_order(self):
        path = mesh_route((0, 0), (2, 1), (3, 2))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_route_handles_negative_direction(self):
        path = mesh_route((2, 1), (0, 0), (3, 2))
        assert path[0] == (2, 1) and path[-1] == (0, 0)
        assert len(path) - 1 == 3

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(InvalidParameterError):
            mesh_distance((0, 4), (0, 0), (3, 4))
        with pytest.raises(InvalidParameterError):
            mesh_route((0, 0), (3, 0), (3, 4))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            mesh_distance((0, 0), (0, 0, 0), (3, 4))


class TestHypercubeRouting:
    def test_distance_hamming(self):
        assert hypercube_distance((0, 1, 0), (1, 1, 1)) == 2

    def test_route_flips_bits_in_order(self):
        path = hypercube_route((0, 0, 0), (1, 0, 1))
        assert path == [(0, 0, 0), (1, 0, 0), (1, 0, 1)]

    def test_rejects_non_bits(self):
        with pytest.raises(InvalidParameterError):
            hypercube_distance((0, 2), (0, 0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            hypercube_route((0, 0), (0, 0, 0))
