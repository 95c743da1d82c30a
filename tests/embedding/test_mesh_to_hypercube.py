"""Unit tests for the Gray-code mesh-to-hypercube baseline embedding."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.embedding.mesh_to_hypercube import (
    MeshToHypercubeEmbedding,
    gray_code,
)
from repro.embedding.metrics import measure_embedding
from repro.topology.mesh import Mesh, paper_mesh


class TestGrayCode:
    def test_first_values(self):
        assert [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_consecutive_codes_differ_in_one_bit(self):
        for i in range(255):
            assert bin(gray_code(i) ^ gray_code(i + 1)).count("1") == 1

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            gray_code(-1)


class TestMeshToHypercubeEmbedding:
    def test_host_dimension_sums_the_bits_per_side(self):
        # Sides 4, 3, 2 take 2, 2 and 1 address bits.
        embedding = MeshToHypercubeEmbedding(Mesh((4, 3, 2)))
        assert embedding.host.n == 5

    def test_power_of_two_mesh_has_expansion_one(self):
        embedding = MeshToHypercubeEmbedding(Mesh((4, 2)))
        metrics = measure_embedding(embedding)
        assert metrics.expansion == 1.0
        assert metrics.dilation == 1

    def test_paper_mesh_dilation_one_expansion_above_one(self):
        embedding = MeshToHypercubeEmbedding(paper_mesh(4))
        metrics = measure_embedding(embedding)
        assert metrics.dilation == 1
        assert metrics.expansion == pytest.approx(32 / 24)

    def test_vertex_map_is_injective(self):
        embedding = MeshToHypercubeEmbedding(paper_mesh(4))
        images = set(embedding.vertex_images().values())
        assert len(images) == 24

    def test_side_three_leaves_one_host_node_unused(self):
        embedding = MeshToHypercubeEmbedding(Mesh((3,)))
        used = set(embedding.vertex_images().values())
        unused = [node for node in embedding.host.nodes() if node not in used]
        # Gray code 2 (bits (0, 1)) would be the image of the missing value 3.
        assert unused == [(0, 1)]

    def test_validates(self):
        MeshToHypercubeEmbedding(paper_mesh(4)).validate()

    def test_rejects_non_mesh_guest(self):
        with pytest.raises(InvalidParameterError):
            MeshToHypercubeEmbedding("not a mesh")

    def test_degenerate_sides_of_length_one(self):
        embedding = MeshToHypercubeEmbedding(Mesh((1, 4)))
        assert embedding.host.n == 2
        metrics = measure_embedding(embedding)
        assert metrics.dilation == 1
