"""Unit tests for the generic Embedding container and the embedding metrics."""

import numpy
import pytest

from repro.exceptions import DilationViolationError, EmbeddingError
from repro.embedding.base import Embedding
from repro.embedding.metrics import (
    average_dilation,
    congestion,
    dilation,
    expansion,
    measure_embedding,
    verify_embedding,
)
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh


@pytest.fixture
def line_in_cube():
    """A 1-D mesh of 4 nodes embedded into Q_2 along a Gray-code cycle."""
    guest = Mesh((4,))
    host = Hypercube(2)
    vertex_map = {(0,): (0, 0), (1,): (1, 0), (2,): (1, 1), (3,): (0, 1)}
    return Embedding(guest, host, vertex_map, name="line-in-cube")


class TestEmbeddingContainer:
    def test_map_node_and_call(self, line_in_cube):
        assert line_in_cube.map_node((2,)) == (1, 1)
        assert line_in_cube((0,)) == (0, 0)

    def test_vertex_images(self, line_in_cube):
        images = line_in_cube.vertex_images()
        assert len(images) == 4
        assert set(images.values()) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_map_edge_defaults_to_shortest_path(self, line_in_cube):
        path = line_in_cube.map_edge((0,), (1,))
        assert path == [(0, 0), (1, 0)]

    def test_map_edge_rejects_non_edges(self, line_in_cube):
        with pytest.raises(EmbeddingError):
            line_in_cube.map_edge((0,), (2,))

    def test_rejects_host_smaller_than_guest(self):
        with pytest.raises(EmbeddingError):
            Embedding(Mesh((5,)), Hypercube(2), {})

    def test_lazy_callable_vertex_map(self):
        guest = Mesh((4,))
        host = Hypercube(2)
        gray = [(0, 0), (1, 0), (1, 1), (0, 1)]
        embedding = Embedding(guest, host, lambda node: gray[node[0]])
        assert embedding.map_node((3,)) == (0, 1)
        embedding.validate()

    def test_incomplete_mapping_detected(self):
        guest = Mesh((3,))
        host = Hypercube(2)
        embedding = Embedding(guest, host, {(0,): (0, 0), (1,): (1, 0)})
        with pytest.raises(EmbeddingError, match="does not cover"):
            embedding.map_node((2,))

    def test_non_injective_mapping_detected(self):
        guest = Mesh((3,))
        host = Hypercube(2)
        embedding = Embedding(
            guest, host, {(0,): (0, 0), (1,): (1, 0), (2,): (0, 0)}
        )
        with pytest.raises(EmbeddingError, match="not injective"):
            embedding.validate()

    def test_bad_edge_path_detected(self):
        guest = Mesh((2,))
        host = Hypercube(2)
        embedding = Embedding(
            guest,
            host,
            {(0,): (0, 0), (1,): (1, 1)},
            edge_path=lambda u, v: [(0, 0), (1, 1)],  # not a host edge
        )
        with pytest.raises(EmbeddingError, match="non-edge"):
            embedding.map_edge((0,), (1,))

    def test_path_with_wrong_endpoints_detected(self):
        guest = Mesh((2,))
        host = Hypercube(2)
        embedding = Embedding(
            guest,
            host,
            {(0,): (0, 0), (1,): (1, 0)},
            edge_path=lambda u, v: [(0, 0), (0, 1)],
        )
        with pytest.raises(EmbeddingError, match="does not connect"):
            embedding.map_edge((0,), (1,))

    def test_non_simple_path_detected(self):
        guest = Mesh((2,))
        host = Hypercube(2)
        embedding = Embedding(
            guest,
            host,
            {(0,): (0, 0), (1,): (1, 0)},
            edge_path=lambda u, v: [(0, 0), (1, 0), (0, 0), (1, 0)],
        )
        with pytest.raises(EmbeddingError, match="not simple"):
            embedding.map_edge((0,), (1,))


class TestMetrics:
    def test_expansion(self, line_in_cube):
        assert expansion(line_in_cube) == 1.0

    def test_dilation_of_gray_line_is_one(self, line_in_cube):
        assert dilation(line_in_cube) == 1
        assert average_dilation(line_in_cube) == 1.0

    def test_congestion_of_gray_line(self, line_in_cube):
        assert congestion(line_in_cube) == 1

    def test_measure_embedding_consistency(self, line_in_cube):
        metrics = measure_embedding(line_in_cube)
        assert metrics.guest_nodes == 4
        assert metrics.host_nodes == 4
        assert metrics.guest_edges == 3
        assert metrics.dilation == dilation(line_in_cube)
        assert metrics.congestion == congestion(line_in_cube)
        assert metrics.max_load == 1
        assert metrics.edge_length_histogram == {1: 3}
        assert metrics.expansion == 1.0

    def test_verify_embedding_dilation_bound_violation(self):
        guest = Mesh((2,))
        host = Hypercube(2)
        embedding = Embedding(guest, host, {(0,): (0, 0), (1,): (1, 1)})
        with pytest.raises(DilationViolationError):
            verify_embedding(embedding, max_dilation=1)
        assert verify_embedding(embedding, max_dilation=2)

    def test_expansion_greater_than_one(self):
        guest = Mesh((3,))
        host = Hypercube(2)
        embedding = Embedding(guest, host, {(0,): (0, 0), (1,): (1, 0), (2,): (1, 1)})
        metrics = measure_embedding(embedding)
        assert metrics.expansion == pytest.approx(4 / 3)


class TestBatchedMeasurementParity:
    """PR-3 facade contract: the move-table batched kernel (mesh-to-star) and
    the bincount generic path must match the per-path Counter reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_mesh_to_star_fast_kernel_matches_reference(self, n):
        from repro.embedding.mesh_to_star import MeshToStarEmbedding
        from repro.embedding.metrics import measure_embedding_reference

        fast = measure_embedding(MeshToStarEmbedding(n))
        reference = measure_embedding_reference(MeshToStarEmbedding(n))
        assert fast == reference

    def test_generic_bincount_path_matches_reference(self, line_in_cube):
        from repro.embedding.metrics import measure_embedding_reference

        assert measure_embedding(line_in_cube) == measure_embedding_reference(line_in_cube)

    def test_hypercube_embedding_matches_reference(self):
        from repro.embedding.mesh_to_hypercube import MeshToHypercubeEmbedding
        from repro.embedding.metrics import measure_embedding_reference
        from repro.topology.mesh import paper_mesh

        embedding = MeshToHypercubeEmbedding(paper_mesh(4))
        reference = measure_embedding_reference(MeshToHypercubeEmbedding(paper_mesh(4)))
        assert measure_embedding(embedding) == reference

    def test_rank_vertex_map_matches_map_node(self):
        from repro.embedding.mesh_to_star import MeshToStarEmbedding
        from repro.permutations.ranking import permutation_rank

        embedding = MeshToStarEmbedding(4)
        ranks = embedding.rank_vertex_map()
        for index, coords in enumerate(embedding.guest.nodes()):
            assert int(ranks[index]) == permutation_rank(embedding.map_node(coords))

    def test_fast_verifier_rejects_corrupted_vertex_map(self):
        from repro.embedding.mesh_to_star import MeshToStarEmbedding

        embedding = MeshToStarEmbedding(4)
        ranks = numpy.array(embedding.rank_vertex_map()).copy()
        ranks[1] = ranks[0]  # duplicate image: not injective
        embedding._cached_rank_vertex_map = ranks
        with pytest.raises(EmbeddingError):
            verify_embedding(embedding)

    def test_fast_verifier_rejects_out_of_range_ranks(self):
        from repro.embedding.mesh_to_star import MeshToStarEmbedding

        embedding = MeshToStarEmbedding(4)
        ranks = numpy.array(embedding.rank_vertex_map()).copy()
        ranks[1] = embedding.star.num_nodes  # image outside the host graph
        embedding._cached_rank_vertex_map = ranks
        with pytest.raises(EmbeddingError):
            verify_embedding(embedding)

    def test_fast_verifier_rejects_disconnected_paths(self):
        from repro.embedding.mesh_to_star import MeshToStarEmbedding

        embedding = MeshToStarEmbedding(4)
        ranks = numpy.array(embedding.rank_vertex_map()).copy()
        # Swap two images: still injective, but the canonical paths no longer
        # connect the right endpoints.
        ranks[0], ranks[5] = ranks[5], ranks[0]
        embedding._cached_rank_vertex_map = ranks
        with pytest.raises(EmbeddingError):
            verify_embedding(embedding)
