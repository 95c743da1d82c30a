"""Unit tests for the MeshToStarEmbedding object and Lemma 3."""

import pytest

from repro.exceptions import InvalidNodeError, InvalidParameterError
from repro.embedding.mesh_to_star import (
    MeshToStarEmbedding,
    convert_d_s,
    mesh_neighbor_transposition,
)
from repro.embedding.metrics import measure_embedding, verify_embedding
from repro.experiments.figures.figure7_mapping_table import PAPER_FIGURE7
from repro.permutations.permutation import swap_symbols


class TestLemma3:
    def test_paper_example(self):
        # pi = (2 3 4 0 1) corresponds to mesh node (2, 1, 0, 1); the paper gives
        # pi_{3+} = (2 1 4 0 3) and pi_{3-} = (2 4 3 0 1).
        coords = (2, 1, 0, 1)
        assert convert_d_s(coords, 5) == (2, 3, 4, 0, 1)
        a, b = mesh_neighbor_transposition(coords, 5, dimension=3, delta=+1)
        assert swap_symbols((2, 3, 4, 0, 1), a, b) == (2, 1, 4, 0, 3)
        a, b = mesh_neighbor_transposition(coords, 5, dimension=3, delta=-1)
        assert swap_symbols((2, 3, 4, 0, 1), a, b) == (2, 4, 3, 0, 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_transposition_reproduces_convert_d_s_of_neighbour(self, n):
        from repro.topology.mesh import paper_mesh

        mesh = paper_mesh(n)
        for coords in mesh.nodes():
            perm = convert_d_s(coords, n)
            for dimension in range(1, n):
                index = n - 1 - dimension
                for delta in (+1, -1):
                    new_value = coords[index] + delta
                    if not (0 <= new_value <= dimension):
                        continue
                    neighbor = list(coords)
                    neighbor[index] = new_value
                    expected = convert_d_s(tuple(neighbor), n)
                    a, b = mesh_neighbor_transposition(coords, n, dimension, delta)
                    assert swap_symbols(perm, a, b) == expected

    def test_rejects_step_off_the_mesh(self):
        with pytest.raises(InvalidParameterError):
            mesh_neighbor_transposition((0, 0, 0), 4, dimension=1, delta=-1)
        with pytest.raises(InvalidParameterError):
            mesh_neighbor_transposition((3, 0, 0), 4, dimension=3, delta=+1)

    def test_rejects_bad_delta_and_dimension(self):
        with pytest.raises(InvalidParameterError):
            mesh_neighbor_transposition((0, 0, 0), 4, dimension=1, delta=2)
        with pytest.raises(InvalidParameterError):
            mesh_neighbor_transposition((0, 0, 0), 4, dimension=4, delta=1)


class TestEmbeddingObject:
    def test_guest_and_host_sizes_match(self, embedding4):
        assert embedding4.guest.num_nodes == embedding4.host.num_nodes == 24
        assert embedding4.n == 4
        assert embedding4.mesh.sides == (4, 3, 2)
        assert embedding4.star.n == 4

    def test_map_node_matches_figure7(self, embedding4):
        for coords, expected in PAPER_FIGURE7.items():
            assert embedding4.map_node(coords) == expected
            assert embedding4(coords) == expected

    def test_vertex_map_is_complete_bijection(self, embedding4):
        table = embedding4.vertex_images()
        assert len(table) == 24
        assert len(set(table.values())) == 24

    def test_rejects_degree_below_two(self):
        with pytest.raises(InvalidParameterError):
            MeshToStarEmbedding(1)

    def test_edge_transposition_symbols_occur_in_image(self, embedding4):
        for u, v in embedding4.guest.edges():
            a, b = embedding4.edge_transposition(u, v)
            image = embedding4.map_node(u)
            assert a in image and b in image
            assert swap_symbols(image, a, b) == embedding4.map_node(v)

    def test_edge_transposition_rejects_non_edges(self, embedding4):
        with pytest.raises(InvalidNodeError):
            embedding4.edge_transposition((0, 0, 0), (2, 0, 0))
        with pytest.raises(InvalidNodeError):
            embedding4.edge_transposition((0, 0, 0), (1, 1, 0))


class TestTheorem4Metrics:
    @pytest.mark.parametrize("n,expected_dilation", [(2, 1), (3, 3), (4, 3), (5, 3)])
    def test_dilation(self, n, expected_dilation):
        metrics = measure_embedding(MeshToStarEmbedding(n))
        assert metrics.dilation == expected_dilation

    def test_expansion_is_one(self, embedding4, embedding5):
        assert measure_embedding(embedding4).expansion == 1.0
        assert measure_embedding(embedding5).expansion == 1.0

    def test_no_dilation_two_edges(self, embedding5):
        histogram = measure_embedding(embedding5).edge_length_histogram
        assert set(histogram) <= {1, 3}

    def test_dilation_one_edges_are_exactly_dimension_n_minus_1(self, embedding4):
        # Lemma 3: only the longest dimension exchanges the front symbol.
        for u, v in embedding4.guest.edges():
            path = embedding4.map_edge(u, v)
            differs_in = [i for i in range(3) if u[i] != v[i]][0]
            if differs_in == 0:  # tuple dim 0 = paper dimension n-1
                assert len(path) - 1 == 1
            else:
                assert len(path) - 1 == 3

    def test_verify_embedding_passes_with_bound_three(self, embedding4):
        assert verify_embedding(embedding4, max_dilation=3)

    def test_shortest_path_dilation_matches_assigned(self, embedding4):
        metrics = measure_embedding(embedding4)
        assert metrics.shortest_path_dilation == metrics.dilation == 3
